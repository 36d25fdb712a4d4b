// bench_e2e --compare A B: per workload and end-to-end metric, each side's
// median and quartiles over its untraced run records, flagged against the
// metric's bound from BENCHMARK.json.

#pragma once

#include <iosfwd>
#include <map>
#include <string>

#include "common/result.h"

namespace recpriv::e2e {

/// One end-to-end metric as BENCHMARK.json declares it.
struct MetricSpec {
  std::string unit;
  std::string better;  ///< "lower" | "higher"
  double bound = 0.0;  ///< allowed worsening, as a share of the median
};

/// The "end_to_end" (or "per_layer", which carries no bounds) entries of
/// a BENCHMARK.json file, by name.
Result<std::map<std::string, MetricSpec>> LoadMetricSpecs(
    const std::string& benchmark_path, const std::string& section);

/// Compares the records under `a` and `b` (a record file or a directory of
/// them). Returns 1 when any metric is worse beyond its bound, 2 on bad
/// input, else 0.
int RunCompare(const std::string& a, const std::string& b,
               const std::string& benchmark_path, std::ostream& out);

}  // namespace recpriv::e2e
