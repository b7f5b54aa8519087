#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <string>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample counts and bases, for the human-readable lines
  // False for figures printed for the reader but left out of the result
  // object (the end-to-end tail latencies; see README.md).
  bool in_result = true;
};

// The end-to-end metrics of an untraced run.
std::vector<Metric> EndToEndMetrics(const Run& run, double peak_rss_mb);

// The per-layer metrics of a traced run. Runs the layer replays (chunker,
// SHA-1, codec) on the workload's bytes, so call it after the workload.
std::vector<Metric> PerLayerMetrics(Run& run);

// Prints one "name value unit note" line per metric, then the result
// object, holding the metrics that are in_result, as the last line of
// standard output.
void PrintReport(const Run& run, const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
