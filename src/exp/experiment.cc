#include "exp/experiment.h"

#include <cstdlib>

#include "datagen/adult.h"
#include "datagen/census.h"
#include "query/query_pool.h"

namespace recpriv::exp {

using recpriv::core::Generalization;
using recpriv::core::PrivacyParams;
using recpriv::query::CountQuery;
using recpriv::table::FlatGroupIndex;
using recpriv::table::Table;

bool FullScale() {
  const char* v = std::getenv("RECPRIV_FULL");
  return v != nullptr && std::string(v) == "1";
}

size_t NumRuns(size_t dflt) {
  const char* v = std::getenv("RECPRIV_RUNS");
  if (v == nullptr) return dflt;
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : dflt;
}

PrivacyParams DefaultParams(size_t m) {
  PrivacyParams params;
  params.lambda = 0.3;
  params.delta = 0.3;
  params.retention_p = 0.5;
  params.domain_m = m;
  return params;
}

namespace {

Result<PreparedDataset> Prepare(Table raw, size_t pool_size, uint64_t seed) {
  RECPRIV_ASSIGN_OR_RETURN(Generalization plan,
                           recpriv::core::ComputeGeneralization(raw));
  RECPRIV_ASSIGN_OR_RETURN(Table generalized,
                           recpriv::core::ApplyGeneralization(plan, raw));
  FlatGroupIndex raw_index = FlatGroupIndex::Build(raw);
  FlatGroupIndex index = FlatGroupIndex::Build(generalized);

  std::vector<CountQuery> pool;
  if (pool_size > 0) {
    Rng pool_rng(seed ^ 0xBADC0DEBEEFULL);
    recpriv::query::QueryPoolConfig config;
    config.pool_size = pool_size;
    // The paper draws queries from the original NA values, then replaces
    // them with aggregated values for evaluation (§6.1).
    RECPRIV_ASSIGN_OR_RETURN(
        std::vector<CountQuery> raw_pool,
        recpriv::query::GenerateQueryPool(raw_index, config, pool_rng));
    RECPRIV_ASSIGN_OR_RETURN(pool,
                             recpriv::query::MapQueryPool(plan, raw_pool));
  }
  return PreparedDataset{std::move(raw),       std::move(plan),
                         std::move(generalized), std::move(raw_index),
                         std::move(index),      std::move(pool)};
}

}  // namespace

Result<PreparedDataset> PrepareAdult(size_t num_records, size_t pool_size,
                                     uint64_t seed) {
  Rng rng(seed);
  recpriv::datagen::AdultConfig config;
  config.num_records = num_records;
  RECPRIV_ASSIGN_OR_RETURN(Table raw,
                           recpriv::datagen::GenerateAdult(config, rng));
  return Prepare(std::move(raw), pool_size, seed);
}

Result<PreparedDataset> PrepareCensus(size_t num_records, size_t pool_size,
                                      uint64_t seed) {
  Rng rng(seed);
  recpriv::datagen::CensusConfig config;
  config.num_records = num_records;
  RECPRIV_ASSIGN_OR_RETURN(Table raw,
                           recpriv::datagen::GenerateCensus(config, rng));
  return Prepare(std::move(raw), pool_size, seed);
}

ViolationPoint MeasureViolation(const FlatGroupIndex& index,
                                const PrivacyParams& params) {
  recpriv::core::ViolationReport report =
      recpriv::core::AuditViolations(index, params);
  return ViolationPoint{report.GroupViolationRate(),
                        report.RecordViolationRate()};
}

Result<ErrorPoint> MeasureRelativeError(const FlatGroupIndex& index,
                                        const std::vector<CountQuery>& pool,
                                        const PrivacyParams& params,
                                        size_t runs, Rng& rng) {
  if (pool.empty()) {
    return Status::InvalidArgument("query pool is empty");
  }
  std::vector<double> up_errors, sps_errors;
  ErrorPoint point;
  for (size_t run = 0; run < runs; ++run) {
    Rng run_rng = rng.Fork();
    RECPRIV_ASSIGN_OR_RETURN(
        recpriv::query::PerturbedGroups up_groups,
        recpriv::query::PerturbAllGroups(index, params.retention_p, run_rng));
    up_errors.push_back(
        recpriv::query::EvaluateRelativeError(pool, index, up_groups,
                                              params.retention_p)
            .mean_relative_error);
    RECPRIV_ASSIGN_OR_RETURN(
        recpriv::query::PerturbedGroups sps_groups,
        recpriv::query::SpsAllGroups(index, params, run_rng));
    sps_errors.push_back(
        recpriv::query::EvaluateRelativeError(pool, index, sps_groups,
                                              params.retention_p)
            .mean_relative_error);
    point.sps_sampled_group_fraction =
        sps_groups.sps_stats.SampledGroupFraction();
  }
  point.up = recpriv::stats::Summarize(up_errors);
  point.sps = recpriv::stats::Summarize(sps_errors);
  return point;
}

}  // namespace recpriv::exp
