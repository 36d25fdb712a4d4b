#include "anon/ldiversity.h"

#include <cmath>
#include <limits>

#include "common/logging.h"

namespace recpriv::anon {

using recpriv::table::FlatGroupIndex;

double HistogramEntropy(std::span<const uint64_t> counts) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  double entropy = 0.0;
  for (uint64_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    entropy -= p * std::log(p);
  }
  return entropy;
}

DiversityReport CheckDistinctLDiversity(const FlatGroupIndex& index,
                                        size_t l) {
  RECPRIV_CHECK(l >= 1) << "l must be >= 1";
  DiversityReport report;
  report.num_groups = index.num_groups();
  report.weakest = std::numeric_limits<double>::infinity();
  for (size_t gi = 0; gi < index.num_groups(); ++gi) {
    size_t distinct = 0;
    for (uint64_t c : index.sa_counts(gi)) distinct += (c > 0);
    report.weakest = std::min(report.weakest, double(distinct));
    if (distinct < l) {
      ++report.failing_groups;
      report.failing_group_ids.push_back(gi);
    }
  }
  if (report.num_groups == 0) report.weakest = 0.0;
  return report;
}

DiversityReport CheckEntropyLDiversity(const FlatGroupIndex& index,
                                       double l) {
  RECPRIV_CHECK(l >= 1.0) << "l must be >= 1";
  DiversityReport report;
  report.num_groups = index.num_groups();
  report.weakest = std::numeric_limits<double>::infinity();
  const double threshold = std::log(l);
  for (size_t gi = 0; gi < index.num_groups(); ++gi) {
    const double entropy = HistogramEntropy(index.sa_counts(gi));
    report.weakest = std::min(report.weakest, entropy);
    if (entropy < threshold) {
      ++report.failing_groups;
      report.failing_group_ids.push_back(gi);
    }
  }
  if (report.num_groups == 0) report.weakest = 0.0;
  return report;
}

}  // namespace recpriv::anon
