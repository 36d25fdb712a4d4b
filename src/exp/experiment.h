// Shared experiment plumbing for the bench harness: scaled-vs-paper-scale
// sizing, prepared datasets (generate -> generalize -> index -> query pool),
// and the violation / relative-error measurements behind Figures 2-5.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/generalization.h"
#include "core/reconstruction_privacy.h"
#include "core/violation.h"
#include "query/count_query.h"
#include "query/evaluation.h"
#include "stats/descriptive.h"
#include "table/flat_group_index.h"
#include "table/table.h"

namespace recpriv::exp {

/// True when RECPRIV_FULL=1: run paper-scale dataset sizes / pool sizes.
/// The default is a faithful but smaller configuration so that the whole
/// bench suite completes in minutes.
bool FullScale();

/// Number of randomized runs per measurement point: RECPRIV_RUNS override,
/// else `dflt` (the paper uses 10).
size_t NumRuns(size_t dflt = 10);

/// Paper default privacy parameters (Table 6 boldface): p=0.5, lambda=0.3,
/// delta=0.3, with `m` filled in per dataset.
recpriv::core::PrivacyParams DefaultParams(size_t m);

/// A dataset prepared for the paper's evaluation pipeline.
struct PreparedDataset {
  recpriv::table::Table raw;             ///< original D
  recpriv::core::Generalization plan;    ///< chi-squared merge plan (§3.4)
  recpriv::table::Table generalized;     ///< D on generalized NA values
  recpriv::table::FlatGroupIndex raw_index;  ///< personal groups of raw D
  recpriv::table::FlatGroupIndex index;      ///< generalized personal groups
  std::vector<recpriv::query::CountQuery> pool;  ///< mapped query pool
};

/// Generates and prepares the synthetic ADULT dataset.
/// pool_size == 0 skips query-pool generation (violation-only benches).
Result<PreparedDataset> PrepareAdult(size_t num_records, size_t pool_size,
                                     uint64_t seed);

/// Generates and prepares the synthetic CENSUS dataset.
Result<PreparedDataset> PrepareCensus(size_t num_records, size_t pool_size,
                                      uint64_t seed);

/// v_g and v_r of one (dataset, params) point — Figures 2 & 4.
struct ViolationPoint {
  double vg = 0.0;
  double vr = 0.0;
};
ViolationPoint MeasureViolation(const recpriv::table::FlatGroupIndex& index,
                                const recpriv::core::PrivacyParams& params);

/// Average relative query error over `runs` randomized releases for the UP
/// baseline and for SPS — Figures 3 & 5.
struct ErrorPoint {
  recpriv::stats::Summary up;   ///< mean relative error per run, summarized
  recpriv::stats::Summary sps;
  double sps_sampled_group_fraction = 0.0;  ///< diagnostics, last run
};
Result<ErrorPoint> MeasureRelativeError(
    const recpriv::table::FlatGroupIndex& index,
    const std::vector<recpriv::query::CountQuery>& pool,
    const recpriv::core::PrivacyParams& params, size_t runs, Rng& rng);

}  // namespace recpriv::exp
