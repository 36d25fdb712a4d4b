#include "core/reconstruction_privacy.h"

#include <cmath>

namespace recpriv::core {

Status PrivacyParams::Validate() const {
  if (lambda <= 0.0) {
    return Status::InvalidArgument("lambda must be positive");
  }
  if (delta < 0.0 || delta > 1.0) {
    return Status::InvalidArgument("delta must be in [0,1]");
  }
  if (retention_p <= 0.0 || retention_p >= 1.0) {
    return Status::InvalidArgument("retention probability must be in (0,1)");
  }
  if (domain_m < 2) {
    return Status::InvalidArgument("SA domain size m must be >= 2");
  }
  return Status::OK();
}

double MaxGroupSize(const PrivacyParams& params, double max_frequency) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (max_frequency <= 0.0) return kInf;  // nothing to reconstruct
  if (params.delta <= 0.0) return kInf;   // any bound >= 0 suffices
  if (params.delta >= 1.0) return 0.0;    // only a trivial bound passes

  stats::GroupBoundParams g;
  g.group_size = 1.0;  // unused by the omega conversion
  g.frequency = max_frequency;
  g.retention = params.retention_p;
  g.domain_size = static_cast<double>(params.domain_m);

  const double omega = stats::OmegaForLambda(g, params.lambda);
  const double mu_per_record =
      max_frequency * params.retention_p +
      (1.0 - params.retention_p) / static_cast<double>(params.domain_m);
  const double neg_log_delta = -std::log(params.delta);

  if (omega <= 1.0) {
    // Lower-tail bound is the smaller one (Eq. 10):
    //   delta <= exp(-omega^2 mu / 2)  <=>  mu <= 2 |ln delta| / omega^2.
    return 2.0 * neg_log_delta / (omega * omega * mu_per_record);
  }
  // Only the upper tail applies: delta <= exp(-omega^2 mu / (2 + omega)).
  return (2.0 + omega) * neg_log_delta / (omega * omega * mu_per_record);
}

bool ValueIsPrivate(const PrivacyParams& params, uint64_t group_size,
                    double frequency) {
  if (frequency <= 0.0) return true;
  return static_cast<double>(group_size) <= MaxGroupSize(params, frequency);
}

bool GroupIsPrivate(const PrivacyParams& params, uint64_t group_size,
                    double max_frequency) {
  return ValueIsPrivate(params, group_size, max_frequency);
}

double BestTailBound(const PrivacyParams& params, uint64_t group_size,
                     double frequency) {
  if (frequency <= 0.0) return 1.0;
  stats::GroupBoundParams g;
  g.group_size = static_cast<double>(group_size);
  g.frequency = frequency;
  g.retention = params.retention_p;
  g.domain_size = static_cast<double>(params.domain_m);
  return stats::MleBestTailBound(g, params.lambda);
}

}  // namespace recpriv::core
