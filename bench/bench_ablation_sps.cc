// Ablation study of the SPS design choices (paper §5 discussion):
//
//   1. frequency-preserving sampling (SPS)  vs  uniform record sampling —
//      the paper requires the sample to preserve every SA frequency so that
//      s_{g1} = s_g and utility is unbiased; uniform sampling drifts the
//      per-group frequencies.
//   2. with vs without the Scaling step — scaling restores group sizes so
//      that |S*| f' estimates are on the original scale; without it, est
//      would be computed over shrunken groups (still unbiased but the
//      publisher leaks which groups were sampled and by how much).
//   3. SPS sampling  vs  the "reduce p" alternative the paper rejects:
//      per-dataset, choose the largest global p' that makes every group
//      private, then run plain UP at p'. This distorts every group to fix
//      the few violating ones.
//
// All variants are audited on the ADULT workload with the paper's default
// parameters; we report the mean relative query error and the violation
// status after enforcement.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <span>

#include "common/random.h"
#include "common/string_util.h"
#include "core/reconstruction_privacy.h"
#include "core/sps.h"
#include "core/violation.h"
#include "exp/experiment.h"
#include "exp/reporting.h"
#include "perturb/uniform_perturbation.h"
#include "query/evaluation.h"

namespace {

using namespace recpriv;  // NOLINT

/// Variant 1: uniform (non-frequency-preserving) sampling of s_g records,
/// then perturb and scale. Sampling is hypergeometric per SA value.
Result<std::vector<uint64_t>> UniformSampleSps(
    const core::PrivacyParams& params, std::span<const uint64_t> counts,
    Rng& rng) {
  const perturb::UniformPerturbation up{params.retention_p, params.domain_m};
  uint64_t size = 0, max_count = 0;
  for (uint64_t c : counts) {
    size += c;
    max_count = std::max(max_count, c);
  }
  if (size == 0) return std::vector<uint64_t>(params.domain_m, 0);
  const double f = double(max_count) / double(size);
  const double s_g = core::MaxGroupSize(params, f);
  if (double(size) <= s_g) return perturb::PerturbCounts(up, counts, rng);

  // Draw floor(s_g) records uniformly without regard to SA value:
  // sequential hypergeometric sampling.
  uint64_t want = uint64_t(std::min<double>(s_g, double(size)));
  std::vector<uint64_t> sample(params.domain_m, 0);
  uint64_t remaining_pop = size, remaining_want = want;
  for (size_t i = 0; i < counts.size(); ++i) {
    // Hypergeometric draw approximated by sequential Bernoulli; exact
    // enough for an ablation.
    uint64_t take = 0;
    for (uint64_t k = 0; k < counts[i] && remaining_want > 0; ++k) {
      if (rng.NextBernoulli(double(remaining_want) / double(remaining_pop))) {
        ++take;
        --remaining_want;
      }
      --remaining_pop;
    }
    sample[i] = take;
  }
  RECPRIV_ASSIGN_OR_RETURN(std::vector<uint64_t> perturbed,
                           perturb::PerturbCounts(up, sample, rng));
  return core::ScaleCounts(perturbed, double(size) / double(want), rng);
}

/// Variant 2: SPS without the Scaling step (publish the small sample).
Result<std::vector<uint64_t>> NoScalingSps(const core::PrivacyParams& params,
                                           std::span<const uint64_t> counts,
                                           Rng& rng) {
  const perturb::UniformPerturbation up{params.retention_p, params.domain_m};
  uint64_t size = 0, max_count = 0;
  for (uint64_t c : counts) {
    size += c;
    max_count = std::max(max_count, c);
  }
  if (size == 0) return std::vector<uint64_t>(params.domain_m, 0);
  const double f = double(max_count) / double(size);
  const double s_g = core::MaxGroupSize(params, f);
  if (double(size) <= s_g) return perturb::PerturbCounts(up, counts, rng);
  std::vector<uint64_t> sample = core::FrequencyPreservingSample(
      counts, s_g / double(size), rng);
  return perturb::PerturbCounts(up, sample, rng);
}

/// Variant 3: the rejected alternative — reduce the global retention p
/// until every group satisfies privacy, then plain UP.
double LargestPrivateP(const recpriv::table::FlatGroupIndex& index,
                       const core::PrivacyParams& base) {
  double lo = 0.001, hi = base.retention_p;
  for (int iter = 0; iter < 60; ++iter) {
    double mid = 0.5 * (lo + hi);
    core::PrivacyParams params = base;
    params.retention_p = mid;
    if (core::AuditViolations(index, params).violating_groups == 0) {
      lo = mid;  // private: can afford more retention? No: larger p ->
                 // smaller s_g -> more violations. lo holds private side.
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<query::PerturbedGroups> RunVariant(
    const recpriv::table::FlatGroupIndex& index,
    const core::PrivacyParams& params, int variant, Rng& rng) {
  query::PerturbedGroups out;
  for (size_t gi = 0; gi < index.num_groups(); ++gi) {
    Result<std::vector<uint64_t>> observed =
        variant == 1 ? UniformSampleSps(params, index.sa_counts(gi), rng)
                     : NoScalingSps(params, index.sa_counts(gi), rng);
    RECPRIV_RETURN_NOT_OK(observed.status());
    uint64_t size = 0;
    for (uint64_t c : *observed) size += c;
    out.observed.push_back(std::move(*observed));
    out.sizes.push_back(size);
  }
  return out;
}

int Run() {
  exp::PrintBanner(std::cout, "Ablation: SPS design choices",
                   "EDBT'15 Section 5 design discussion");

  const size_t pool_size = exp::FullScale() ? 5000 : 2000;
  const size_t runs = exp::NumRuns(10);
  auto ds = exp::PrepareAdult(45222, pool_size, 2015);
  if (!ds.ok()) {
    std::cerr << ds.status() << "\n";
    return 1;
  }
  auto params = exp::DefaultParams(2);

  auto evaluate = [&](auto&& make_groups) -> Result<double> {
    double total = 0.0;
    Rng rng(31337);
    for (size_t i = 0; i < runs; ++i) {
      RECPRIV_ASSIGN_OR_RETURN(query::PerturbedGroups groups,
                               make_groups(rng));
      total += query::EvaluateRelativeError(ds->pool, ds->index, groups,
                                            params.retention_p)
                   .mean_relative_error;
    }
    return total / double(runs);
  };

  exp::AsciiTable out({"variant", "mean relative error", "notes"});

  auto up_err = evaluate([&](Rng& rng) {
    return query::PerturbAllGroups(ds->index, params.retention_p, rng);
  });
  out.AddRow({"UP (no enforcement)", FormatDouble(*up_err, 4),
              "violates reconstruction privacy"});

  auto sps_err = evaluate(
      [&](Rng& rng) { return query::SpsAllGroups(ds->index, params, rng); });
  out.AddRow({"SPS (paper)", FormatDouble(*sps_err, 4),
              "frequency-preserving sample + scale"});

  auto uni_err = evaluate([&](Rng& rng) {
    return RunVariant(ds->index, params, 1, rng);
  });
  out.AddRow({"SPS w/ uniform sampling", FormatDouble(*uni_err, 4),
              "sample drifts per-group frequencies"});

  auto noscale_err = evaluate([&](Rng& rng) {
    return RunVariant(ds->index, params, 2, rng);
  });
  out.AddRow({"SPS w/o scaling", FormatDouble(*noscale_err, 4),
              "publishes shrunken groups"});

  const double p_prime = LargestPrivateP(ds->index, params);
  core::PrivacyParams reduced = params;
  reduced.retention_p = std::max(p_prime, 0.001);
  auto reduced_err = evaluate([&](Rng& rng) {
    return query::PerturbAllGroups(ds->index, reduced.retention_p, rng);
  });
  out.AddRow({"reduce-p alternative (p'=" + FormatDouble(p_prime, 3) + ")",
              FormatDouble(*reduced_err, 4),
              "global noise to fix local violations"});

  out.Print(std::cout);
  std::cout << "\nreading: the paper's SPS should beat the reduce-p "
               "alternative (which makes the\nwhole dataset near-noise) "
               "while matching the uniform-sampling variant on error\n"
               "(whose drawback is bias/drift in small SA values, not mean "
               "error).\n";
  return 0;
}

}  // namespace

int main() { return Run(); }
