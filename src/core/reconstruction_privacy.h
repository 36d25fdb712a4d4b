// (lambda, delta)-reconstruction privacy: the paper's central criterion
// (Definition 3) and its efficient closed-form test (Corollary 4 / Eq. 10).
//
// A SA value with frequency f in a personal group g is (lambda,delta)-
// reconstruction-private iff the best (Chernoff-derived) upper bound on
// Pr[(F'-f)/f > lambda] / Pr[(F'-f)/f < -lambda] is at least delta — i.e.
// the adversary cannot certify a small reconstruction error. Closed form,
// for lambda in (0, 1 + ((1-p)/m)/(p f)]:
//
//   private  <=>  |g| <= s = -2 (f p + (1-p)/m) ln(delta) / (lambda p f)^2
//
// The group-level test uses f = max frequency of any SA value in g
// (Eq. 10): s is decreasing in f, so the most frequent value binds.

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "stats/chernoff.h"

namespace recpriv::core {

/// The privacy specification (lambda, delta) plus the perturbation setting.
struct PrivacyParams {
  double lambda = 0.3;  ///< relative-error threshold, > 0
  double delta = 0.3;   ///< minimum tail-probability bound, in [0, 1]
  double retention_p = 0.5;  ///< perturbation retention probability p
  size_t domain_m = 2;       ///< SA domain size m (>= 2)

  Status Validate() const;
};

/// Maximum group size s_g (Eq. 10) for a group whose max SA frequency is f.
/// Returns +infinity when f == 0 (no SA value to reconstruct). Handles both
/// tail regimes: the closed form above when omega(lambda) <= 1, and the
/// upper-tail-only bound (2 + omega) |ln delta| / (omega^2 (f p + (1-p)/m))
/// when lambda exceeds the lower-tail range. delta == 0 or 1 yield the
/// natural limits (+infinity / 0 trials allowed... see .cc).
double MaxGroupSize(const PrivacyParams& params, double max_frequency);

/// Corollary 4 test for one SA value: is `sa frequency f` (lambda,delta)-
/// reconstruction-private in a group of `group_size` perturbed records?
bool ValueIsPrivate(const PrivacyParams& params, uint64_t group_size,
                    double frequency);

/// Group-level test: every SA value private <=> |g| <= s_g with f = max
/// frequency (Eq. 10 discussion).
bool GroupIsPrivate(const PrivacyParams& params, uint64_t group_size,
                    double max_frequency);

/// Diagnostic: the best (smallest) Chernoff upper bound min{U, L} the
/// adversary can put on a lambda-relative error for this value; the value
/// is private iff this is >= delta.
double BestTailBound(const PrivacyParams& params, uint64_t group_size,
                     double frequency);

}  // namespace recpriv::core
