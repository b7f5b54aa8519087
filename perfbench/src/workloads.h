#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <string>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {

// Runs run.options().workload to completion; false for an unknown name.
bool RunWorkload(Run& run);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
