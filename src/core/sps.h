// SPS — the Sampling-Perturbing-Scaling enforcement algorithm (paper §5).
//
// For each personal group g with max SA frequency f:
//   s_g = -2 (f p + (1-p)/m) ln(delta) / (lambda p f)^2          (Eq. 10)
//   if |g| <= s_g: plain uniform perturbation (no sampling needed);
//   else:
//     1. Sampling   — frequency-preserving sample g1 of size ~s_g
//                     (per SA value: floor(|g_sa| tau) records plus one more
//                     with probability frac(|g_sa| tau), tau = s_g/|g|);
//     2. Perturbing — uniform perturbation of g1 at retention p;
//     3. Scaling    — duplicate each perturbed record floor(tau') times plus
//                     one more with probability frac(tau'), tau' = |g|/|g1*|.
//
// Privacy: g2* is (lambda,delta)-reconstruction-private (Theorem 4).
// Utility: reconstruction from unions of g2* is unbiased (Theorem 5).
// Complexity: one sort + one scan, O(|D| log |D| + |D|).
//
// Both a record-level path (Table -> Table, what a publisher releases) and
// a count-level fast path (SA histogram -> SA histogram, used by the
// experiment sweeps) are provided; they are identically distributed.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/reconstruction_privacy.h"
#include "table/table.h"

namespace recpriv::core {

/// Bookkeeping from one SPS run.
struct SpsStats {
  size_t num_groups = 0;
  size_t groups_sampled = 0;      ///< groups where |g| > s_g
  uint64_t records_in = 0;
  uint64_t records_sampled = 0;   ///< total |g1| over sampled groups
  uint64_t records_out = 0;       ///< |D*_2|

  /// Fraction of groups that required sampling.
  double SampledGroupFraction() const {
    return num_groups == 0 ? 0.0
                           : static_cast<double>(groups_sampled) /
                                 static_cast<double>(num_groups);
  }
};

/// Result of the record-level algorithm: the publishable D*_2.
struct SpsTableResult {
  recpriv::table::Table table;
  SpsStats stats;
};

/// Count-level result for one personal group.
struct SpsCountsResult {
  std::vector<uint64_t> observed;  ///< O* of g2* per SA value
  bool sampled = false;            ///< whether Sampling kicked in
  uint64_t sample_size = 0;        ///< |g1| (0 if not sampled)
};

/// Runs SPS on a whole table; output rows are grouped by personal group
/// (sorted NA order), matching the paper's sort-then-scan pipeline.
Result<SpsTableResult> SpsPerturbTable(const PrivacyParams& params,
                                       const recpriv::table::Table& input,
                                       Rng& rng);

/// Runs SPS for one group given its per-SA-value counts (count-level
/// path). Takes a span so FlatGroupIndex histogram rows feed it without a
/// copy (vectors convert implicitly).
Result<SpsCountsResult> SpsPerturbGroupCounts(
    const PrivacyParams& params, std::span<const uint64_t> counts, Rng& rng);

/// Frequency-preserving sample sizes (Sampling step): per SA value,
/// floor(c_i * tau) plus a Bernoulli(frac) extra. Exposed for testing and
/// for the ablation bench.
std::vector<uint64_t> FrequencyPreservingSample(
    std::span<const uint64_t> counts, double tau, Rng& rng);

/// Scaling step on observed counts: each of the o_i records duplicated
/// floor(tau') times plus Binomial(o_i, frac(tau')) extras.
std::vector<uint64_t> ScaleCounts(const std::vector<uint64_t>& observed,
                                  double tau_prime, Rng& rng);

}  // namespace recpriv::core
