// The benchmark's own arithmetic: percentiles under the "at least ten
// samples beyond" rule, interval-union self time, and throughput / ratio
// bases. Header-only and free of CYRUS types so tests/stats_test.cc can
// check it in isolation.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// Linear-interpolated percentile (0..100) of `samples`; 0 for none.
inline double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

// The tail percentile a latency distribution of `count` samples supports:
// the highest of 99, 95, 90, 75 and 50 that leaves at least ten samples
// beyond it. Below 20 samples no percentile qualifies and 100 (the
// maximum) is returned, so a short sample still reports its worst case.
inline double TailPercentileFor(size_t count) {
  for (double pct : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(count) * (100.0 - pct) / 100.0 >= 10.0) {
      return pct;
    }
  }
  return 100.0;
}

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

// Total length covered by the union of `intervals` (overlaps counted
// once; empty or inverted intervals contribute nothing).
inline double UnionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = 0.0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) {
      continue;
    }
    if (!open || iv.start > cur_end) {
      if (open) {
        total += cur_end - cur_start;
      }
      cur_start = iv.start;
      cur_end = iv.end;
      open = true;
    } else {
      cur_end = std::max(cur_end, iv.end);
    }
  }
  if (open) {
    total += cur_end - cur_start;
  }
  return total;
}

// Length of `window` covered by the union of `children`, each clipped to
// the window first.
inline double CoveredLength(const Interval& window, const std::vector<Interval>& children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& c : children) {
    clipped.push_back({std::max(c.start, window.start), std::min(c.end, window.end)});
  }
  return UnionLength(std::move(clipped));
}

// Self time of a span: its duration minus the part of it its children
// cover. Concurrent children are not double-subtracted.
inline double SelfTime(const Interval& span, const std::vector<Interval>& children) {
  return (span.end - span.start) - CoveredLength(span, children);
}

// Decimal megabytes (1e6 bytes) per second; 0 when no time elapsed.
inline double MBps(uint64_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
}

// numerator / base, 0 for an empty base.
inline double Ratio(double numerator, double base) {
  return base != 0.0 ? numerator / base : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
