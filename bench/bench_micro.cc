// Micro-benchmarks (google-benchmark): throughput of the core operators —
// uniform perturbation (record and count level), MLE reconstruction, SPS,
// group indexing, chi-squared generalization, query evaluation, and the
// wire codec of the query op (tree path vs direct path, both ends, no
// engine in between).

#include <benchmark/benchmark.h>

#include "client/api.h"
#include "common/json.h"
#include "common/random.h"
#include "core/generalization.h"
#include "core/reconstruction_privacy.h"
#include "core/sps.h"
#include "datagen/adult.h"
#include "datagen/census.h"
#include "exp/experiment.h"
#include "perturb/mle.h"
#include "perturb/uniform_perturbation.h"
#include "query/evaluation.h"
#include "serve/wire.h"
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

// --- the query op's wire codec -----------------------------------------------
// One request's codec work at both ends, with the engine left out: the
// client writes the request line, the server decodes it and writes the
// answer line, the client decodes that. Arg 1 is a hot_point request (one
// query), arg 32 a cold_scan one (32 queries), over the CENSUS schema the
// served-path bench uses, with dimensionalities 1-3 as in its mixes.

struct CodecCase {
  client::QueryRequest request;
  client::BatchAnswer answer;
};

CodecCase MakeCodecCase(size_t queries) {
  Rng rng(11);
  const table::Table census =
      *datagen::GenerateCensus({.num_records = 2000}, rng);
  const table::Schema& schema = *census.schema();
  const std::vector<size_t> attrs = schema.public_indices();
  CodecCase c;
  c.request.release = "census";
  c.answer.release = "census";
  c.answer.epoch = 1;
  c.answer.cache_hits = queries;
  for (size_t q = 0; q < queries; ++q) {
    client::QuerySpec spec;
    const auto& sa = schema.sensitive().domain.values();
    spec.sa = sa[rng.NextUint64(sa.size())];
    const size_t dims = 1 + q % 3;
    for (size_t d = 0; d < dims; ++d) {
      const table::Attribute& attr =
          schema.attribute(attrs[(q + d) % attrs.size()]);
      const auto& values = attr.domain.values();
      spec.where.emplace_back(attr.name,
                              values[rng.NextUint64(values.size())]);
    }
    c.request.queries.push_back(std::move(spec));
    c.answer.answers.push_back(client::AnswerRow{
        rng.NextUint64(5000), 1000 + rng.NextUint64(100000),
        rng.NextDouble() * 1e4, true});
  }
  return c;
}

void BM_QueryCodecTree(benchmark::State& state) {
  const CodecCase c = MakeCodecCase(size_t(state.range(0)));
  uint64_t id = 1;
  for (auto _ : state) {
    const std::string request =
        serve::wire::EncodeQueryRequest(c.request, id).ToString();
    const JsonValue tree = *JsonValue::Parse(request);
    auto decoded = serve::wire::DecodeQueryRequest(tree);
    benchmark::DoNotOptimize(decoded);
    const std::string response =
        serve::wire::EncodeQueryResponse(c.answer, serve::kWireVersionCurrent,
                                         *tree.Get("id"))
            .ToString();
    auto answer = serve::wire::DecodeQueryResponse(
        *serve::wire::ParseResponse(response, id));
    benchmark::DoNotOptimize(answer);
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryCodecTree)->Arg(1)->Arg(32);

void BM_QueryCodecDirect(benchmark::State& state) {
  const CodecCase c = MakeCodecCase(size_t(state.range(0)));
  // What a client and a server session keep across requests.
  std::string request;
  std::string response;
  client::QueryRequest decoded;
  serve::wire::QueryEnvelope envelope;
  uint64_t id = 1;
  for (auto _ : state) {
    request.clear();
    serve::wire::WriteQueryRequest(c.request, c.request.epoch, id, request);
    const bool taken =
        serve::wire::ReadQueryRequest(request, &decoded, &envelope);
    benchmark::DoNotOptimize(taken);
    response.clear();
    serve::wire::WriteQueryResponse(c.answer, envelope.version,
                                    &*envelope.id, response);
    client::BatchAnswer answer;
    const bool read = serve::wire::ReadQueryResponse(response, id, &answer);
    benchmark::DoNotOptimize(read);
    benchmark::DoNotOptimize(answer);
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryCodecDirect)->Arg(1)->Arg(32);

}  // namespace
