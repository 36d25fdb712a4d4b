// Micro-benchmarks (google-benchmark): throughput of the core operators —
// uniform perturbation (record and count level), MLE reconstruction, SPS,
// group indexing, chi-squared generalization, and query evaluation.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/generalization.h"
#include "core/reconstruction_privacy.h"
#include "core/sps.h"
#include "datagen/adult.h"
#include "exp/experiment.h"
#include "perturb/mle.h"
#include "perturb/uniform_perturbation.h"
#include "query/evaluation.h"
#include "table/flat_group_index.h"
#include "table/group_order.h"

namespace {

using namespace recpriv;  // NOLINT

const table::Table& AdultTable() {
  static const table::Table* t = [] {
    Rng rng(2015);
    return new table::Table(
        *datagen::GenerateAdult({.num_records = 45222}, rng));
  }();
  return *t;
}

const exp::PreparedDataset& Prepared() {
  static const exp::PreparedDataset* ds = [] {
    return new exp::PreparedDataset(
        exp::PrepareAdult(45222, 1000, 2015).ValueOrDie());
  }();
  return *ds;
}

void BM_PerturbValue(benchmark::State& state) {
  Rng rng(1);
  const perturb::UniformPerturbation up{0.5, 50};
  uint32_t v = 7;
  for (auto _ : state) {
    v = perturb::PerturbValue(up, v, rng);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PerturbValue);

void BM_PerturbTable45K(benchmark::State& state) {
  Rng rng(2);
  const perturb::UniformPerturbation up{0.5, 2};
  for (auto _ : state) {
    auto out = perturb::PerturbTable(up, AdultTable(), rng);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * AdultTable().num_rows());
}
BENCHMARK(BM_PerturbTable45K);

void BM_PerturbCounts(benchmark::State& state) {
  Rng rng(3);
  const size_t m = size_t(state.range(0));
  const perturb::UniformPerturbation up{0.5, m};
  std::vector<uint64_t> counts(m, 1000);
  for (auto _ : state) {
    auto out = perturb::PerturbCounts(up, counts, rng);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * m * 1000);
}
BENCHMARK(BM_PerturbCounts)->Arg(2)->Arg(10)->Arg(50);

void BM_MleFrequencies(benchmark::State& state) {
  const size_t m = size_t(state.range(0));
  const perturb::UniformPerturbation up{0.5, m};
  std::vector<uint64_t> observed(m, 321);
  for (auto _ : state) {
    auto out = perturb::MleFrequencies(up, observed, 321 * m);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MleFrequencies)->Arg(2)->Arg(50);

// SPS's preprocessing sort: packed keys, unstable sort of row ids.
void BM_SortIntoGroups45K(benchmark::State& state) {
  for (auto _ : state) {
    auto order = table::SortIntoGroups(AdultTable());
    benchmark::DoNotOptimize(order);
  }
  state.SetItemsProcessed(state.iterations() * AdultTable().num_rows());
}
BENCHMARK(BM_SortIntoGroups45K);

// The columnar index: packed-key radix build (see bench_group_index).
void BM_FlatGroupIndexBuild45K(benchmark::State& state) {
  for (auto _ : state) {
    auto idx = table::FlatGroupIndex::Build(AdultTable());
    benchmark::DoNotOptimize(idx);
  }
  state.SetItemsProcessed(state.iterations() * AdultTable().num_rows());
}
BENCHMARK(BM_FlatGroupIndexBuild45K);

void BM_Generalization45K(benchmark::State& state) {
  for (auto _ : state) {
    auto plan = core::ComputeGeneralization(AdultTable());
    benchmark::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(state.iterations() * AdultTable().num_rows());
}
BENCHMARK(BM_Generalization45K);

void BM_SpsTable45K(benchmark::State& state) {
  Rng rng(5);
  auto params = exp::DefaultParams(2);
  for (auto _ : state) {
    auto out = core::SpsPerturbTable(params, Prepared().generalized, rng);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          Prepared().generalized.num_rows());
}
BENCHMARK(BM_SpsTable45K);

void BM_SpsGroupCounts(benchmark::State& state) {
  Rng rng(6);
  auto params = exp::DefaultParams(2);
  std::vector<uint64_t> counts{8000, 2000};
  for (auto _ : state) {
    auto out = core::SpsPerturbGroupCounts(params, counts, rng);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SpsGroupCounts);

// The two halves of the query/evaluation hot-path fix: building the match
// list with a fresh vector per query (the old behavior) vs. reusing one
// scratch buffer across the pool via the batched MatchingGroupsInto entry
// point (what EvaluateRelativeError and the serving engine now do).
void BM_MatchingGroupsAllocPerQuery(benchmark::State& state) {
  const auto& ds = Prepared();
  for (auto _ : state) {
    size_t matched = 0;
    for (const auto& q : ds.pool) {
      std::vector<uint32_t> groups = ds.index.MatchingGroups(q.na_predicate);
      matched += groups.size();
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * ds.pool.size());
}
BENCHMARK(BM_MatchingGroupsAllocPerQuery);

void BM_MatchingGroupsScratchReuse(benchmark::State& state) {
  const auto& ds = Prepared();
  std::vector<uint32_t> scratch;
  for (auto _ : state) {
    size_t matched = 0;
    for (const auto& q : ds.pool) {
      ds.index.MatchingGroupsInto(q.na_predicate, scratch);
      matched += scratch.size();
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * ds.pool.size());
}
BENCHMARK(BM_MatchingGroupsScratchReuse);

void BM_QueryEvaluation1K(benchmark::State& state) {
  Rng rng(7);
  const auto& ds = Prepared();
  auto perturbed = *query::PerturbAllGroups(ds.index, 0.5, rng);
  for (auto _ : state) {
    auto result =
        query::EvaluateRelativeError(ds.pool, ds.index, perturbed, 0.5);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * ds.pool.size());
}
BENCHMARK(BM_QueryEvaluation1K);

void BM_MaxGroupSize(benchmark::State& state) {
  auto params = exp::DefaultParams(50);
  double f = 0.02;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MaxGroupSize(params, f));
    f = f < 0.9 ? f + 1e-6 : 0.02;
  }
}
BENCHMARK(BM_MaxGroupSize);

}  // namespace
