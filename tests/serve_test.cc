// Tests for the release-serving subsystem: thread pool, canonical query
// encoding, LRU answer cache, ReleaseStore copy-on-publish snapshots, the
// parallel batched QueryEngine (both evaluation paths), cache
// invalidation on republish, a concurrent reader/republisher stress test,
// the line-delimited JSON wire protocol, and the TCP server's
// thread-per-session shape (pool independence, push and stop latency, idle
// timeouts, thread reaping).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <latch>
#include <numeric>
#include <sstream>
#include <thread>

#include "client/in_process_client.h"
#include "client/tcp_transport.h"
#include "common/thread_pool.h"
#include "core/sps.h"
#include "core/streaming.h"
#include "datagen/census.h"
#include "datagen/simple.h"
#include "perturb/mle.h"
#include "query/canonical.h"
#include "query/evaluation.h"
#include "query/query_pool.h"
#include "repl/snapshot_provider.h"
#include "serve/answer_cache.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "testing_util.h"

namespace recpriv::serve {
namespace {

using recpriv::analysis::ReleaseBundle;
using recpriv::core::PrivacyParams;
using recpriv::datagen::GroupSpec;
using recpriv::datagen::SimpleDatasetSpec;
using recpriv::query::CountQuery;
using recpriv::table::Table;

// --- fixtures --------------------------------------------------------------

SimpleDatasetSpec MakeSpec() {
  SimpleDatasetSpec spec;
  spec.public_attributes = {"Job", "City"};
  spec.sensitive_attribute = "Disease";
  spec.sa_domain = {"flu", "hiv", "bc"};
  spec.groups.push_back(GroupSpec{{"eng", "north"}, 4000, {70, 20, 10}});
  spec.groups.push_back(GroupSpec{{"eng", "south"}, 3000, {70, 20, 10}});
  spec.groups.push_back(GroupSpec{{"law", "north"}, 2000, {20, 30, 50}});
  spec.groups.push_back(GroupSpec{{"law", "south"}, 1000, {20, 30, 50}});
  return spec;
}

PrivacyParams Params(size_t m) {
  PrivacyParams p;
  p.lambda = 0.3;
  p.delta = 0.3;
  p.retention_p = 0.5;
  p.domain_m = m;
  return p;
}

/// An SPS release bundle of the simple dataset, deterministic in `seed`.
ReleaseBundle MakeBundle(uint64_t seed = 2015) {
  Table raw = *recpriv::datagen::GenerateSimpleExact(MakeSpec());
  Rng rng(seed);
  auto sps = *recpriv::core::SpsPerturbTable(Params(3), raw, rng);
  return ReleaseBundle{std::move(sps.table), Params(3), "Disease", {}};
}

/// A store+engine pair serving MakeBundle() under "simple".
struct Served {
  std::shared_ptr<ReleaseStore> store;
  std::unique_ptr<QueryEngine> engine;
};

Served MakeServed(QueryEngineOptions options = {}) {
  Served s;
  s.store = std::make_shared<ReleaseStore>();
  EXPECT_TRUE(s.store->Publish("simple", MakeBundle()).ok());
  s.engine = std::make_unique<QueryEngine>(s.store, options);
  return s;
}

/// All (d<=2, sa) conjunctive queries over the first two (public)
/// attributes: each is bound to one of its values or left open, crossed
/// with every SA value. On the simple schema that is (eng, law, *) x
/// (north, south, *) x 3 SA values = 27 queries.
std::vector<CountQuery> AllQueries(const Table& t) {
  std::vector<CountQuery> out;
  const auto& schema = *t.schema();
  const int values0 = int(schema.attribute(0).domain.size());
  const int values1 = int(schema.attribute(1).domain.size());
  for (int v0 = -1; v0 < values0; ++v0) {
    for (int v1 = -1; v1 < values1; ++v1) {
      for (uint32_t sa = 0; sa < schema.sa_domain_size(); ++sa) {
        CountQuery q(schema.num_attributes());
        if (v0 >= 0) q.na_predicate.Bind(0, uint32_t(v0));
        if (v1 >= 0) q.na_predicate.Bind(1, uint32_t(v1));
        q.sa_code = sa;
        q.dimensionality = q.na_predicate.num_bound();
        out.push_back(q);
      }
    }
  }
  return out;
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(0, touched.size(), 7, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) touched[i]++;
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRunsInlineOnTinyRanges) {
  ThreadPool pool(4);
  size_t calls = 0;
  pool.ParallelFor(10, 15, 100, [&](size_t lo, size_t hi) {
    ++calls;  // single inline chunk: no data race possible
    EXPECT_EQ(lo, 10u);
    EXPECT_EQ(hi, 15u);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPoolTest, SubmitAndWaitDrainsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done++; });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  pool.ParallelFor(5, 5, 1, [](size_t, size_t) { FAIL(); });
}

TEST(ThreadPoolTest, ExternalCallerCompletesWithEveryWorkerBlocked) {
  // A non-pool caller drains its own chunks (common/thread_pool.cc), so
  // ParallelFor completes even when no worker is free to help. Without
  // caller participation this test hangs and ctest's TIMEOUT fails it.
  ThreadPool pool(2);
  std::latch all_blocked(std::ptrdiff_t(pool.num_threads()));
  std::latch release(1);
  for (size_t w = 0; w < pool.num_threads(); ++w) {
    pool.Submit([&] {
      all_blocked.count_down();
      release.wait();
    });
  }
  all_blocked.wait();

  std::vector<std::atomic<int>> touched(64);
  pool.ParallelFor(0, touched.size(), 4, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) touched[i]++;
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);

  release.count_down();
  pool.Wait();
}

TEST(ThreadPoolTest, GrainForBalancesChunks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.GrainFor(0), 1u);          // min_grain floor
  EXPECT_EQ(pool.GrainFor(16000), 1000u);   // 4 chunks per worker
  EXPECT_EQ(pool.GrainFor(10, 64), 64u);    // explicit floor wins
}

// --- canonical keys --------------------------------------------------------

TEST(CanonicalTest, BindOrderDoesNotChangeKey) {
  CountQuery a(5);
  a.na_predicate.Bind(3, 7);
  a.na_predicate.Bind(1, 2);
  a.sa_code = 4;
  CountQuery b(5);
  b.na_predicate.Bind(1, 2);
  b.na_predicate.Bind(3, 7);
  b.sa_code = 4;
  EXPECT_EQ(recpriv::query::CanonicalKey(a), recpriv::query::CanonicalKey(b));
  EXPECT_EQ(recpriv::query::CanonicalHash(a),
            recpriv::query::CanonicalHash(b));
}

TEST(CanonicalTest, DistinctQueriesGetDistinctKeys) {
  CountQuery base(3);
  base.na_predicate.Bind(0, 1);
  base.sa_code = 0;

  CountQuery other_sa = base;
  other_sa.sa_code = 1;
  CountQuery other_code = base;
  other_code.na_predicate.Bind(0, 2);
  CountQuery other_attr = base;
  other_attr.na_predicate.Unbind(0);
  other_attr.na_predicate.Bind(1, 1);

  const std::string key = recpriv::query::CanonicalKey(base);
  EXPECT_NE(key, recpriv::query::CanonicalKey(other_sa));
  EXPECT_NE(key, recpriv::query::CanonicalKey(other_code));
  EXPECT_NE(key, recpriv::query::CanonicalKey(other_attr));
}

TEST(CanonicalTest, PredicateKeyOmitsSa) {
  CountQuery a(3);
  a.na_predicate.Bind(0, 1);
  a.sa_code = 0;
  CountQuery b = a;
  b.sa_code = 2;
  EXPECT_EQ(recpriv::query::CanonicalPredicateKey(a.na_predicate),
            recpriv::query::CanonicalPredicateKey(b.na_predicate));
  EXPECT_NE(recpriv::query::CanonicalKey(a), recpriv::query::CanonicalKey(b));
}

// --- AnswerCache -----------------------------------------------------------

TEST(AnswerCacheTest, InsertLookupRoundTrip) {
  AnswerCache cache(4);
  cache.Insert("k1", CachedAnswer{10, 100, 17.5});
  CachedAnswer out;
  ASSERT_TRUE(cache.Lookup("k1", &out));
  EXPECT_EQ(out.observed, 10u);
  EXPECT_EQ(out.matched_size, 100u);
  EXPECT_DOUBLE_EQ(out.estimate, 17.5);
  EXPECT_FALSE(cache.Lookup("k2", &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(AnswerCacheTest, EvictsLeastRecentlyUsed) {
  AnswerCache cache(2);
  cache.Insert("a", {});
  cache.Insert("b", {});
  CachedAnswer out;
  ASSERT_TRUE(cache.Lookup("a", &out));  // promote a; b is now LRU
  cache.Insert("c", {});                 // evicts b
  EXPECT_TRUE(cache.Lookup("a", &out));
  EXPECT_FALSE(cache.Lookup("b", &out));
  EXPECT_TRUE(cache.Lookup("c", &out));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(AnswerCacheTest, ZeroCapacityDisables) {
  AnswerCache cache(0);
  cache.Insert("a", {});
  CachedAnswer out;
  EXPECT_FALSE(cache.Lookup("a", &out));
  EXPECT_EQ(cache.size(), 0u);
}

// --- ReleaseStore ----------------------------------------------------------

TEST(ReleaseStoreTest, PublishGetAndList) {
  ReleaseStore store;
  EXPECT_FALSE(store.Get("simple").ok());
  auto snap = store.Publish("simple", MakeBundle());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->epoch, 1u);
  // The SPS release of the 10,000-record input (sampling can shift |D*_2|
  // slightly).
  EXPECT_NEAR(double((*snap)->index.num_records()), 10000.0, 1000.0);

  auto got = store.Get("simple");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), snap->get());

  auto list = store.List();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].name, "simple");
  EXPECT_EQ(list[0].epoch, 1u);
  EXPECT_EQ(list[0].num_groups, 4u);
}

TEST(ReleaseStoreTest, RepublishBumpsEpochAndKeepsOldSnapshotAlive) {
  ReleaseStore store;
  auto first = *store.Publish("simple", MakeBundle(1));
  auto second = *store.Publish("simple", MakeBundle(2));
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_EQ(store.Get("simple")->get(), second.get());
  // Copy-on-publish: the old snapshot is untouched and still queryable.
  EXPECT_NEAR(double(first->index.num_records()), 10000.0, 1000.0);
  EXPECT_EQ(first->index.num_groups(), 4u);
}

TEST(ReleaseStoreTest, RejectsEmptyNameAndBadBundle) {
  ReleaseStore store;
  EXPECT_FALSE(store.Publish("", MakeBundle()).ok());
  ReleaseBundle bad = MakeBundle();
  bad.params.domain_m = 7;  // schema has 3 SA values
  EXPECT_FALSE(store.Publish("simple", std::move(bad)).ok());
}

TEST(ReleaseStoreTest, PublishFromStreamingRepublishes) {
  Table raw = *recpriv::datagen::GenerateSimpleExact(MakeSpec());
  auto publisher =
      *recpriv::core::StreamingPublisher::Make(raw.schema(), Params(3));
  std::vector<uint32_t> row(raw.num_columns());
  for (size_t r = 0; r < raw.num_rows(); ++r) {
    for (size_t c = 0; c < raw.num_columns(); ++c) row[c] = raw.at(r, c);
    ASSERT_TRUE(publisher.Insert(row).ok());
  }
  ReleaseStore store;
  Rng rng(7);
  auto snap = store.PublishFromStreaming("stream", publisher, rng);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->epoch, 1u);
  EXPECT_GT((*snap)->index.num_records(), 0u);
  EXPECT_EQ((*snap)->bundle.sensitive_attribute, "Disease");

  auto again = store.PublishFromStreaming("stream", publisher, rng);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->epoch, 2u);
}

// --- QueryEngine -----------------------------------------------------------

TEST(QueryEngineTest, BatchMatchesSingleQueryReference) {
  // The engine picks the evaluation path by batch size against the group
  // count, so a release with thousands of groups covers both: a 1-query
  // batch takes postings, the full AllQueries batch takes the group shard.
  // (The 4-group simple release would take the shard for any batch.)
  Rng rng(2015);
  Table raw = *recpriv::datagen::GenerateCensus({.num_records = 3000}, rng);
  const size_t m = raw.schema()->sa_domain_size();
  auto sps = *recpriv::core::SpsPerturbTable(Params(m), raw, rng);
  auto store = std::make_shared<ReleaseStore>();
  auto snap = *store->Publish("census", ReleaseBundle{std::move(sps.table),
                                                      Params(m), "Occupation",
                                                      {}});
  ASSERT_GT(snap->index.num_groups(), 1000u);

  QueryEngineOptions options;
  options.num_threads = 4;
  options.cache_capacity = 0;  // isolate the evaluation paths
  QueryEngine engine(store, options);
  auto expect_reference = [&](const Answer& got, const CountQuery& q) {
    const Answer ref = EvaluateUncached(*snap, q);
    EXPECT_EQ(got.observed, ref.observed);
    EXPECT_EQ(got.matched_size, ref.matched_size);
    EXPECT_DOUBLE_EQ(got.estimate, ref.estimate);
    EXPECT_FALSE(got.cached);
  };

  std::vector<CountQuery> batch = AllQueries(snap->bundle.data);
  auto result = engine.AnswerBatch("census", batch);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->answers.size(), batch.size());
  EXPECT_EQ(result->strategy_used, EvalStrategy::kGroupShard);
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    expect_reference(result->answers[i], batch[i]);
  }

  for (size_t i = 0; i < batch.size(); i += 37) {
    SCOPED_TRACE("single query " + std::to_string(i));
    auto single = engine.AnswerBatch("census", {batch[i]});
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_EQ(single->strategy_used, EvalStrategy::kPostings);
    expect_reference(single->answers[0], batch[i]);
  }
}

TEST(QueryEngineTest, ObservedCountsAreExactForUnboundQuery) {
  Served s = MakeServed();
  auto snap = *s.store->Get("simple");
  CountQuery q(3);  // no NA conditions: matches the whole release
  q.sa_code = 0;
  auto a = s.engine->AnswerOne("simple", q);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->matched_size, snap->index.num_records());
  EXPECT_EQ(a->observed, snap->bundle.data.SaHistogram()[0]);
}

TEST(QueryEngineTest, SecondBatchIsFullyCached) {
  QueryEngineOptions options;
  options.num_threads = 2;
  Served s = MakeServed(options);
  std::vector<CountQuery> batch =
      AllQueries((*s.store->Get("simple"))->bundle.data);

  auto cold = *s.engine->AnswerBatch("simple", batch);
  EXPECT_EQ(cold.cache_hits, 0u);
  auto warm = *s.engine->AnswerBatch("simple", batch);
  EXPECT_EQ(warm.cache_hits, batch.size());
  EXPECT_EQ(warm.cache_misses, 0u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(warm.answers[i].cached);
    EXPECT_EQ(warm.answers[i].observed, cold.answers[i].observed);
    EXPECT_DOUBLE_EQ(warm.answers[i].estimate, cold.answers[i].estimate);
  }
}

TEST(QueryEngineTest, DuplicateQueriesInOneBatchShareEvaluation) {
  Served s = MakeServed();
  CountQuery q(3);
  q.na_predicate.Bind(0, 0);
  q.sa_code = 1;
  std::vector<CountQuery> batch{q, q, q};
  auto result = *s.engine->AnswerBatch("simple", batch);
  EXPECT_EQ(result.cache_misses, 3u);  // none served from the cache...
  for (size_t i = 1; i < batch.size(); ++i) {  // ...but all agree
    EXPECT_EQ(result.answers[i].observed, result.answers[0].observed);
    EXPECT_DOUBLE_EQ(result.answers[i].estimate, result.answers[0].estimate);
  }
}

TEST(QueryEngineTest, RepublishInvalidatesCacheViaEpoch) {
  Served s = MakeServed();
  std::vector<CountQuery> batch =
      AllQueries((*s.store->Get("simple"))->bundle.data);

  auto cold = *s.engine->AnswerBatch("simple", batch);
  EXPECT_EQ(cold.epoch, 1u);
  ASSERT_TRUE(s.store->Publish("simple", MakeBundle(99)).ok());

  // New epoch: nothing may be served from the stale epoch's entries.
  auto after = *s.engine->AnswerBatch("simple", batch);
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_EQ(after.cache_hits, 0u);
  // The new epoch's answers come from the new (differently-seeded) release.
  auto snap = *s.store->Get("simple");
  for (size_t i = 0; i < batch.size(); ++i) {
    const Answer ref = EvaluateUncached(*snap, batch[i]);
    EXPECT_EQ(after.answers[i].observed, ref.observed);
  }
}

// The pinned-snapshot overload keeps serving the epoch the caller resolved
// its queries against, even after a republish (the wire front end depends
// on this to avoid evaluating old codes on a new dictionary).
TEST(QueryEngineTest, PinnedSnapshotSurvivesRepublish) {
  Served s = MakeServed();
  auto pinned = *s.store->Get("simple");
  std::vector<CountQuery> batch = AllQueries(pinned->bundle.data);
  ASSERT_TRUE(s.store->Publish("simple", MakeBundle(77)).ok());

  auto result = *s.engine->AnswerBatch("simple", pinned, batch);
  EXPECT_EQ(result.epoch, 1u);  // still the pinned epoch, not 2
  for (size_t i = 0; i < batch.size(); ++i) {
    const Answer ref = EvaluateUncached(*pinned, batch[i]);
    EXPECT_EQ(result.answers[i].observed, ref.observed);
  }
  EXPECT_FALSE(s.engine->AnswerBatch("simple", nullptr, batch).ok());
}

TEST(QueryEngineTest, ValidatesQueriesAgainstReleaseSchema) {
  Served s = MakeServed();
  EXPECT_FALSE(s.engine->AnswerBatch("missing", {}).ok());

  CountQuery bad_arity(5);
  bad_arity.sa_code = 0;
  EXPECT_FALSE(s.engine->AnswerOne("simple", bad_arity).ok());

  CountQuery bad_sa(3);
  bad_sa.sa_code = 3;  // m = 3: codes 0..2
  EXPECT_FALSE(s.engine->AnswerOne("simple", bad_sa).ok());

  CountQuery binds_sa(3);
  binds_sa.na_predicate.Bind(2, 0);  // attribute 2 is the SA
  EXPECT_FALSE(s.engine->AnswerOne("simple", binds_sa).ok());
}

// Readers keep answering (from some consistent epoch) while a republisher
// swaps snapshots underneath them: every batch must be internally
// consistent with the snapshot of the epoch it reports.
TEST(QueryEngineTest, ConcurrentReadersAndRepublisherStayConsistent) {
  QueryEngineOptions options;
  options.num_threads = 2;
  Served s = MakeServed(options);
  std::vector<CountQuery> batch =
      AllQueries((*s.store->Get("simple"))->bundle.data);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto result = s.engine->AnswerBatch("simple", batch);
        if (!result.ok()) {
          failures++;
          continue;
        }
        // Every answer's matched size must be bounded by the release size
        // of SOME epoch — all our releases are ~10,000 records, so a torn
        // read mixing epochs would show up as a wild value.
        for (const Answer& a : result->answers) {
          if (a.matched_size > 12000u) failures++;
        }
      }
    });
  }
  std::thread republisher([&] {
    for (uint64_t i = 0; i < 20; ++i) {
      if (!s.store->Publish("simple", MakeBundle(100 + i)).ok()) failures++;
    }
    stop.store(true);
  });
  republisher.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*s.store->Get("simple"))->epoch, 21u);
}

// --- consistency with the offline evaluation path --------------------------

// The engine's estimates against an SPS release must agree with what the
// offline EvaluateRelativeError pipeline computes from the same observed
// histograms: both implement est = |S*| F' (Lemma 2(ii)).
TEST(QueryEngineTest, AgreesWithOfflineEvaluationPipeline) {
  Table raw = *recpriv::datagen::GenerateSimpleExact(MakeSpec());

  Served s = MakeServed();
  auto snap = *s.store->Get("simple");
  std::vector<CountQuery> batch = AllQueries(raw);
  auto result = *s.engine->AnswerBatch("simple", batch);

  const recpriv::perturb::UniformPerturbation up{0.5, 3};
  for (size_t i = 0; i < batch.size(); ++i) {
    // Recompute est from the snapshot's group histograms by hand.
    uint64_t observed = 0;
    uint64_t matched = 0;
    for (uint32_t gi : snap->index.MatchingGroups(batch[i].na_predicate)) {
      observed += snap->index.sa_count(gi, batch[i].sa_code);
      matched += snap->index.group_size(gi);
    }
    EXPECT_EQ(result.answers[i].observed, observed);
    EXPECT_DOUBLE_EQ(result.answers[i].estimate,
                     recpriv::perturb::MleCount(up, observed, matched));
  }
}

// --- wire protocol ---------------------------------------------------------

TEST(WireTest, ListQueryStatsRoundTrip) {
  Served s = MakeServed();

  JsonValue list = *JsonValue::Parse(
      HandleRequestLine(R"({"op":"list"})", *s.engine));
  EXPECT_TRUE((*list.Get("ok"))->AsBool().ValueOrDie());
  ASSERT_EQ((*list.Get("releases"))->size(), 1u);

  const std::string query_line =
      R"({"op":"query","release":"simple","queries":[)"
      R"({"where":{"Job":"eng"},"sa":"flu"},)"
      R"({"sa":"bc"}]})";
  JsonValue response = *JsonValue::Parse(
      HandleRequestLine(query_line, *s.engine));
  ASSERT_TRUE((*response.Get("ok"))->AsBool().ValueOrDie());
  EXPECT_EQ((*response.Get("epoch"))->AsInt().ValueOrDie(), 1);
  const JsonValue& answers = **response.Get("answers");
  ASSERT_EQ(answers.size(), 2u);

  // First answer must equal the engine's own answer for the same query.
  auto snap = *s.store->Get("simple");
  CountQuery q(3);
  q.na_predicate.Bind(0, 0);  // Job=eng has code 0 (first group)
  q.sa_code = 0;              // flu
  const Answer ref = EvaluateUncached(*snap, q);
  const JsonValue& first = **answers.At(0);
  EXPECT_EQ((*first.Get("observed"))->AsInt().ValueOrDie(),
            int64_t(ref.observed));
  EXPECT_DOUBLE_EQ((*first.Get("estimate"))->AsDouble().ValueOrDie(),
                   ref.estimate);

  JsonValue stats = *JsonValue::Parse(
      HandleRequestLine(R"({"op":"stats"})", *s.engine));
  EXPECT_TRUE((*stats.Get("ok"))->AsBool().ValueOrDie());
  EXPECT_EQ((*(*stats.Get("cache"))->Get("misses"))->AsInt().ValueOrDie(), 2);
}

TEST(WireTest, ErrorsAreResponsesNotCrashes) {
  Served s = MakeServed();
  for (const char* line : {
           "not json at all",
           R"({"no_op":1})",
           R"({"op":"frobnicate"})",
           R"({"op":"query","release":"nope","queries":[]})",
           R"({"op":"query","release":"simple","queries":[{"sa":"typo"}]})",
           R"({"op":"query","release":"simple","queries":[)"
           R"({"where":{"Nope":"x"},"sa":"flu"}]})",
           R"({"op":"query","release":"simple","queries":[)"
           R"({"where":{"Disease":"flu"},"sa":"flu"}]})",
       }) {
    JsonValue response = *JsonValue::Parse(HandleRequestLine(line, *s.engine));
    EXPECT_FALSE((*response.Get("ok"))->AsBool().ValueOrDie()) << line;
    EXPECT_TRUE(response.Has("error")) << line;
  }
}

TEST(WireTest, ServeLinesSkipsBlanksAndCountsRequests) {
  Served s = MakeServed();
  std::istringstream in("{\"op\":\"list\"}\n\n   \n{\"op\":\"stats\"}\n");
  std::ostringstream out;
  EXPECT_EQ(ServeLines(in, out, *s.engine), 2u);
  // Two lines out, both parseable objects.
  std::istringstream lines(out.str());
  std::string line;
  size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonValue::Parse(line).ok());
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

// --- TCP server: one thread per session ------------------------------------

using recpriv::testing::AnswerFingerprint;
using recpriv::testing::DemoBundle;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

client::QueryRequest DemoRequest() {
  client::QueryRequest request;
  request.release = "demo";
  request.queries.push_back(client::QuerySpec{{{"Job", "eng"}}, "flu"});
  request.queries.push_back(
      client::QuerySpec{{{"Job", "law"}, {"City", "south"}}, "hiv"});
  request.queries.push_back(client::QuerySpec{{}, "bc"});
  return request;
}

/// A server over a two-worker engine holding the demo release; the
/// replication ops (and so push) are on.
struct TcpServed {
  std::shared_ptr<ReleaseStore> store;
  std::shared_ptr<QueryEngine> engine;
  std::unique_ptr<repl::SnapshotProvider> provider;
  std::unique_ptr<Server> server;

  static TcpServed Make(ServerOptions options = {}) {
    TcpServed t;
    t.store = std::make_shared<ReleaseStore>();
    QueryEngineOptions engine_options;
    engine_options.num_threads = 2;
    engine_options.cache_capacity = 0;  // every query is evaluated
    t.engine = std::make_shared<QueryEngine>(t.store, engine_options);
    client::InProcessClient admin(t.engine);
    EXPECT_TRUE(admin.PublishBundle("demo", DemoBundle(1)).ok());
    t.provider = std::make_unique<repl::SnapshotProvider>(*t.store);
    options.snapshot_provider = t.provider.get();
    auto server = Server::Start(t.engine, options);
    EXPECT_TRUE(server.ok()) << server.status();
    t.server = std::move(*server);
    return t;
  }

  std::unique_ptr<client::LineProtocolClient> Connect() const {
    auto client = client::ConnectTcp("127.0.0.1", server->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return client.ok() ? std::move(*client) : nullptr;
  }
};

TEST(ServerTest, AnswersWhileEveryPoolWorkerIsBlocked) {
  TcpServed t = TcpServed::Make();
  client::InProcessClient admin(t.engine);
  auto reference = admin.Query(DemoRequest());
  ASSERT_TRUE(reference.ok()) << reference.status();
  auto client = t.Connect();
  ASSERT_NE(client, nullptr);

  // Park every pool worker. A session that needed a free worker would now
  // wait for the latch; a session thread answers on its own.
  std::latch parked(2), release(1);
  for (int i = 0; i < 2; ++i) {
    t.engine->pool().Submit([&] {
      parked.count_down();
      release.wait();
    });
  }
  parked.wait();

  auto pending = std::async(std::launch::async,
                            [&] { return client->Query(DemoRequest()); });
  const bool answered =
      pending.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.count_down();  // unpark before any assertion can return
  t.engine->pool().Wait();
  EXPECT_TRUE(answered);
  auto answer = pending.get();
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(AnswerFingerprint(*answer),
            AnswerFingerprint(*reference));
}

TEST(ServerTest, IdleSubscriberGetsPushWithoutWaitingForATick) {
  ServerOptions options;
  options.poll_tick_ms = 10000;
  TcpServed t = TcpServed::Make(options);
  auto follower = t.Connect();
  ASSERT_NE(follower, nullptr);
  ASSERT_TRUE(follower->Subscribe().ok());
  std::this_thread::sleep_for(milliseconds(50));  // let the session park

  client::InProcessClient admin(t.engine);
  ASSERT_TRUE(admin.PublishBundle("demo", DemoBundle(2)).ok());
  const auto published = steady_clock::now();
  auto events = follower->PollEvents(/*timeout_ms=*/5000);
  const auto latency = steady_clock::now() - published;
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_FALSE(events->empty());
  EXPECT_EQ((*events)[0].epoch, 2u);
  EXPECT_LT(latency, milliseconds(100));
}

TEST(ServerTest, StopWithIdleSessionsIsPrompt) {
  ServerOptions options;
  options.poll_tick_ms = 10000;
  TcpServed t = TcpServed::Make(options);
  std::vector<std::unique_ptr<client::LineProtocolClient>> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(t.Connect());
    ASSERT_NE(clients.back(), nullptr);
    ASSERT_TRUE(clients.back()->List().ok());
  }
  const auto start = steady_clock::now();
  t.server->Stop();
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(t.server->Metrics().connections_active, 0u);
  for (auto& client : clients) EXPECT_FALSE(client->List().ok());
}

TEST(ServerTest, IdleTimeoutDropsSilentSessionAndSparesSubscriber) {
  ServerOptions options;
  options.idle_timeout_ms = 200;
  TcpServed t = TcpServed::Make(options);
  auto silent = t.Connect();
  auto subscriber = t.Connect();
  ASSERT_NE(silent, nullptr);
  ASSERT_NE(subscriber, nullptr);
  ASSERT_TRUE(silent->List().ok());
  ASSERT_TRUE(subscriber->Subscribe().ok());

  const auto deadline = steady_clock::now() + std::chrono::seconds(5);
  while (t.server->Metrics().idle_disconnects == 0 &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_EQ(t.server->Metrics().idle_disconnects, 1u);
  // Well past the timeout for the subscriber too: it is still served.
  std::this_thread::sleep_for(milliseconds(2 * options.idle_timeout_ms));
  EXPECT_FALSE(silent->List().ok());
  EXPECT_TRUE(subscriber->List().ok());
  EXPECT_EQ(t.server->Metrics().idle_disconnects, 1u);
  EXPECT_EQ(t.server->Metrics().connections_active, 1u);
}

size_t ThreadCount() {
  const std::filesystem::path tasks("/proc/self/task");
  return size_t(std::distance(std::filesystem::directory_iterator(tasks),
                              std::filesystem::directory_iterator()));
}

TEST(ServerTest, SessionThreadsAreReaped) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  }
  TcpServed t = TcpServed::Make();
  const size_t baseline = ThreadCount();
  // One connection at a time: each cycle starts one session thread and
  // ends it.
  for (int i = 0; i < 200; ++i) {
    auto client = t.Connect();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->Query(DemoRequest()).ok());
  }
  const auto deadline = steady_clock::now() + std::chrono::seconds(5);
  while ((ThreadCount() != baseline ||
          t.server->Metrics().connections_active != 0) &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_EQ(ThreadCount(), baseline);
  EXPECT_EQ(t.server->Metrics().connections_active, 0u);
  EXPECT_EQ(t.server->Metrics().connections_accepted, 200u);
}

}  // namespace
}  // namespace recpriv::serve
