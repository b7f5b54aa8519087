// cyrus_perfbench: one CyrusClient, closed loop, one call outstanding,
// against seven unthrottled in-memory CSPs.
//
//   cyrus_perfbench --workload bulk|stream|small_files --seed N --seconds S
//                   --trace 0|1 [--trace-out spans.tsv]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics (and writes every span to --trace-out). The last line of
// standard output is the result object. Exit status: 0 when every output
// check passed, 1 when any failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/harness.h"
#include "perfbench/src/report.h"
#include "perfbench/src/workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: cyrus_perfbench --workload "
               "bulk|stream|small_files --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace must be 0 or 1");
      }
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_trace || options.seconds <= 0.0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::Run run(options);
  perfbench::CheckChunkerGolden(run);
  if (!perfbench::RunWorkload(run)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  const double peak_rss_mb = perfbench::PeakRssMB();
  const std::vector<perfbench::Metric> metrics =
      options.trace ? perfbench::PerLayerMetrics(run)
                    : perfbench::EndToEndMetrics(run, peak_rss_mb);
  std::printf("workload %s seed %llu: %llu calls, %llu failed\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(run.attempted()),
              static_cast<unsigned long long>(run.failed()));
  perfbench::PrintReport(run, metrics);
  return run.correct() ? 0 : 1;
}
