// The four workloads of bench_e2e. Each runs in its own process; one call
// of RunWorkload is one run: set-up (three repetitions), the timed phases,
// then verification of every recorded answer.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "e2e.h"
#include "trace.h"

namespace recpriv::e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 20.0;  ///< measured time, split across the phases
  bool trace = false;
  size_t rows = 300000;   ///< CENSUS rows of the release under test
  bool self_check = false;  ///< corrupt one recorded answer; must fail
  std::string work_dir;   ///< scratch space for durable stores and spans
};

struct RunResult {
  Metrics e2e;    ///< end-to-end metrics (meaningful in untraced runs only)
  Metrics layer;  ///< per-layer metrics (traced runs only)
  Metrics extra;  ///< diagnostics kept in the record, not compared
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  ///< correctness failures
  std::vector<std::string> invalid;   ///< why the measurement is not valid
  JsonValue config = JsonValue::Object();
  std::vector<Span> spans;  ///< traced runs: the traced requests' spans
};

/// "hot_point", "cold_scan", "republish_churn", "restart_recover".
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Errors are set-up failures; correctness failures are
/// reported in RunResult::problems.
Result<RunResult> RunWorkload(const RunOptions& options);

}  // namespace recpriv::e2e
