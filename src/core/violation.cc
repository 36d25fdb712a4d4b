#include "core/violation.h"

namespace recpriv::core {

ViolationReport AuditViolations(const recpriv::table::FlatGroupIndex& index,
                                const PrivacyParams& params) {
  ViolationReport report;
  report.num_groups = index.num_groups();
  report.num_records = index.num_records();
  for (size_t gi = 0; gi < index.num_groups(); ++gi) {
    if (!GroupIsPrivate(params, index.group_size(gi),
                        index.MaxFrequency(gi))) {
      ++report.violating_groups;
      report.violating_records += index.group_size(gi);
      report.violating_group_ids.push_back(gi);
    }
  }
  return report;
}

ViolationReport AuditViolations(
    const std::vector<std::pair<uint64_t, double>>& group_profiles,
    const PrivacyParams& params) {
  ViolationReport report;
  report.num_groups = group_profiles.size();
  for (size_t gi = 0; gi < group_profiles.size(); ++gi) {
    const auto& [size, max_f] = group_profiles[gi];
    report.num_records += size;
    if (!GroupIsPrivate(params, size, max_f)) {
      ++report.violating_groups;
      report.violating_records += size;
      report.violating_group_ids.push_back(gi);
    }
  }
  return report;
}

}  // namespace recpriv::core
