// Tests for the incremental republish pipeline: two-level run merge
// (FlatGroupIndex::MergeRuns), the StreamingPublisher delta path, the
// store's PublishIncremental, and the republish-path regressions this PR
// fixes (digest-keyed answer cache, RNG-clean insert rejection, released
// rows stable across publishes).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <vector>

#include "analysis/release.h"
#include "core/streaming.h"
#include "query/count_query.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"
#include "table/flat_group_index.h"
#include "workload/synthetic.h"
#include "testing_util.h"

namespace recpriv::core {
namespace {

using recpriv::testing::Numbered;

namespace fs = std::filesystem;

using recpriv::table::Attribute;
using recpriv::table::Dictionary;
using recpriv::table::FlatGroupIndex;
using recpriv::table::Schema;
using recpriv::table::SchemaPtr;
using recpriv::table::Table;

SchemaPtr MakeSchema(size_t pub_domain = 4) {
  std::vector<std::string> vals;
  for (size_t v = 0; v < pub_domain; ++v) {
    vals.push_back(Numbered("p", v));
  }
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{"A", *Dictionary::FromValues(vals)});
  attrs.push_back(
      Attribute{"S", *Dictionary::FromValues({"s0", "s1", "s2"})});
  return std::make_shared<Schema>(*Schema::Make(std::move(attrs), 1));
}

PrivacyParams Params() {
  PrivacyParams p;
  p.lambda = 0.3;
  p.delta = 0.3;
  p.retention_p = 0.5;
  p.domain_m = 3;
  return p;
}

template <typename A, typename B>
bool SpanEqual(A a, B b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

bool SameStorage(const FlatGroupIndex& a, const FlatGroupIndex& b) {
  const auto sa = a.storage();
  const auto sb = b.storage();
  return sa.packed == sb.packed && sa.num_groups == sb.num_groups &&
         sa.num_records == sb.num_records &&
         SpanEqual(sa.packed_keys, sb.packed_keys) &&
         SpanEqual(sa.na_codes, sb.na_codes) &&
         SpanEqual(sa.sa_counts, sb.sa_counts) &&
         SpanEqual(sa.row_offsets, sb.row_offsets) &&
         SpanEqual(sa.row_values, sb.row_values);
}

bool SameTable(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (!SpanEqual(a.column(c), b.column(c))) return false;
  }
  return true;
}

// ---------------------------------------------------------------- MergeRuns

TEST(MergeRunsTest, OverlayWinsInsertsAndTombstones) {
  const SchemaPtr schema = MakeSchema();
  // base:    key 0 -> (2,0,1)   key 1 -> (9,9,9)   key 3 -> (1,1,0)
  // overlay: key 1 -> (1,0,0) [replaces], key 2 -> (0,5,0) [inserts],
  //          key 3 -> (0,0,0) [tombstone]
  const std::vector<uint32_t> base_na = {0, 1, 3};
  const std::vector<uint64_t> base_counts = {2, 0, 1, 9, 9, 9, 1, 1, 0};
  const std::vector<uint32_t> over_na = {1, 2, 3};
  const std::vector<uint64_t> over_counts = {1, 0, 0, 0, 5, 0, 0, 0, 0};

  auto merged = FlatGroupIndex::MergeRuns(
      schema, FlatGroupIndex::GroupRun{base_na, base_counts, 3},
      FlatGroupIndex::GroupRun{over_na, over_counts, 3});
  ASSERT_TRUE(merged.ok()) << merged.status();
  const auto s = merged->storage();
  EXPECT_EQ(s.num_groups, 3u);
  EXPECT_EQ(s.num_records, 9u);  // 3 + 1 + 5
  EXPECT_TRUE(SpanEqual(s.na_codes, std::vector<uint32_t>{0, 1, 2}));
  EXPECT_TRUE(SpanEqual(
      s.sa_counts, std::vector<uint64_t>{2, 0, 1, 1, 0, 0, 0, 5, 0}));
  EXPECT_TRUE(SpanEqual(s.row_offsets, std::vector<uint64_t>{0, 3, 4, 9}));
  // Identity row permutation: the merged index describes the canonical
  // group-major table directly.
  std::vector<uint32_t> iota(9);
  std::iota(iota.begin(), iota.end(), 0);
  EXPECT_TRUE(SpanEqual(s.row_values, iota));
}

TEST(MergeRunsTest, RejectsMalformedRuns) {
  const SchemaPtr schema = MakeSchema();
  const std::vector<uint32_t> ok_na = {0, 1};
  const std::vector<uint64_t> ok_counts = {1, 0, 0, 0, 1, 0};
  const FlatGroupIndex::GroupRun ok{ok_na, ok_counts, 2};
  const FlatGroupIndex::GroupRun empty{{}, {}, 0};

  EXPECT_FALSE(FlatGroupIndex::MergeRuns(nullptr, ok, empty).ok());

  const std::vector<uint32_t> descending = {1, 0};
  EXPECT_FALSE(FlatGroupIndex::MergeRuns(
                   schema, FlatGroupIndex::GroupRun{descending, ok_counts, 2},
                   empty)
                   .ok());

  const std::vector<uint32_t> duplicate = {1, 1};
  EXPECT_FALSE(FlatGroupIndex::MergeRuns(
                   schema, FlatGroupIndex::GroupRun{duplicate, ok_counts, 2},
                   empty)
                   .ok());

  const std::vector<uint32_t> out_of_domain = {0, 9};
  EXPECT_FALSE(
      FlatGroupIndex::MergeRuns(
          schema, FlatGroupIndex::GroupRun{out_of_domain, ok_counts, 2}, empty)
          .ok());

  const std::vector<uint64_t> short_counts = {1, 0, 0};
  EXPECT_FALSE(FlatGroupIndex::MergeRuns(
                   schema, FlatGroupIndex::GroupRun{ok_na, short_counts, 2},
                   empty)
                   .ok());
}

TEST(MergeRunsTest, ForceWideMatchesPackedContent) {
  const SchemaPtr schema = MakeSchema();
  const std::vector<uint32_t> base_na = {0, 2};
  const std::vector<uint64_t> base_counts = {1, 0, 2, 0, 3, 0};
  const std::vector<uint32_t> over_na = {1};
  const std::vector<uint64_t> over_counts = {0, 0, 4};
  const FlatGroupIndex::GroupRun base{base_na, base_counts, 2};
  const FlatGroupIndex::GroupRun overlay{over_na, over_counts, 1};

  auto packed = FlatGroupIndex::MergeRuns(schema, base, overlay,
                                          FlatGroupIndex::KeyMode::kAuto);
  auto wide = FlatGroupIndex::MergeRuns(schema, base, overlay,
                                        FlatGroupIndex::KeyMode::kForceWide);
  ASSERT_TRUE(packed.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_TRUE(packed->storage().packed);
  EXPECT_FALSE(wide->storage().packed);
  EXPECT_TRUE(wide->storage().packed_keys.empty());
  EXPECT_TRUE(
      SpanEqual(packed->storage().na_codes, wide->storage().na_codes));
  EXPECT_TRUE(
      SpanEqual(packed->storage().sa_counts, wide->storage().sa_counts));
  EXPECT_TRUE(
      SpanEqual(packed->storage().row_offsets, wide->storage().row_offsets));
}

// --------------------------------------------------- incremental publishing

Result<StreamingPublisher> LoadedPublisher(size_t n) {
  RECPRIV_ASSIGN_OR_RETURN(StreamingPublisher pub,
                           StreamingPublisher::Make(MakeSchema(), Params()));
  for (size_t i = 0; i < n; ++i) {
    RECPRIV_RETURN_NOT_OK(pub.Insert(
        std::vector<uint32_t>{uint32_t(i % 4), uint32_t((i * 7) % 3)}));
  }
  return pub;
}

TEST(IncrementalPublishTest, FirstPublishTreatsWholeBufferAsDelta) {
  auto pub = *LoadedPublisher(500);
  EXPECT_EQ(pub.pending_delta_rows(), 500u);
  Rng rng(11);
  auto result = pub.PublishIncremental(rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.delta_rows, 500u);
  EXPECT_EQ(result->stats.groups_carried, 0u);  // no base yet
  EXPECT_EQ(result->stats.groups_touched, result->index.num_groups());
  EXPECT_EQ(pub.published_rows(), 500u);
  EXPECT_EQ(pub.pending_delta_rows(), 0u);
  // The merged index is bit-identical to a full Build over its own table.
  EXPECT_TRUE(
      SameStorage(result->index, FlatGroupIndex::Build(result->table)));
}

TEST(IncrementalPublishTest, MergeOnAndOffAreBitIdentical) {
  // Same insert history, same RNG seeds: the merge_index flag must select
  // only the index-build algorithm — tables and indexes bit-identical.
  auto on = *LoadedPublisher(800);
  auto off = *LoadedPublisher(800);
  Rng rng_on(21);
  Rng rng_off(21);
  for (int round = 0; round < 3; ++round) {
    auto a = on.PublishIncremental(rng_on, /*merge_index=*/true);
    auto b = off.PublishIncremental(rng_off, /*merge_index=*/false);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(SameTable(a->table, b->table)) << "round " << round;
    EXPECT_TRUE(SameStorage(a->index, b->index)) << "round " << round;
    // Next round's delta.
    for (size_t i = 0; i < 60; ++i) {
      const std::vector<uint32_t> row{uint32_t((i + round) % 4),
                                      uint32_t(i % 3)};
      ASSERT_TRUE(on.Insert(row).ok());
      ASSERT_TRUE(off.Insert(row).ok());
    }
  }
}

TEST(IncrementalPublishTest, UntouchedGroupsCarryForwardBitIdentically) {
  auto pub = *StreamingPublisher::Make(MakeSchema(), Params());
  // Two groups (keys 0 and 2), then a delta touching only key 2.
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        pub.Insert(std::vector<uint32_t>{0, uint32_t(i % 3)}).ok());
    ASSERT_TRUE(
        pub.Insert(std::vector<uint32_t>{2, uint32_t((i * 5) % 3)}).ok());
  }
  Rng rng(31);
  auto first = pub.PublishIncremental(rng);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->index.num_groups(), 2u);
  const std::vector<uint64_t> group0_before{
      first->index.sa_counts(0).begin(), first->index.sa_counts(0).end()};

  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        pub.Insert(std::vector<uint32_t>{2, uint32_t(i % 3)}).ok());
  }
  auto second = pub.PublishIncremental(rng);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.delta_rows, 40u);
  EXPECT_EQ(second->stats.groups_touched, 1u);
  EXPECT_EQ(second->stats.groups_carried, 1u);
  EXPECT_EQ(second->stats.sps.num_groups, 1u);  // SPS re-ran on key 2 only
  // Group 0 (key 0) carried its previous perturbation forward untouched.
  EXPECT_TRUE(SpanEqual(second->index.sa_counts(0), group0_before));
  EXPECT_TRUE(
      SameStorage(second->index, FlatGroupIndex::Build(second->table)));
}

TEST(IncrementalPublishTest, RejectedInsertLeavesRngStreamUntouched) {
  // Satellite regression: a rejected InsertAndRelease must not draw from
  // the caller's RNG, or every release after it shifts and record/replay
  // byte-equality breaks.
  auto clean = *StreamingPublisher::Make(MakeSchema(), Params());
  auto faulty = *StreamingPublisher::Make(MakeSchema(), Params());
  Rng rng_clean(77);
  Rng rng_faulty(77);
  std::vector<uint32_t> released_clean;
  std::vector<uint32_t> released_faulty;
  for (size_t i = 0; i < 400; ++i) {
    const std::vector<uint32_t> row{uint32_t(i % 4), uint32_t(i % 3)};
    auto a = clean.InsertAndRelease(row, rng_clean);
    ASSERT_TRUE(a.ok());
    released_clean.insert(released_clean.end(), a->begin(), a->end());
    // The faulty stream interleaves invalid rows (bad arity, bad domain)
    // before each valid one.
    EXPECT_FALSE(
        faulty.InsertAndRelease(std::vector<uint32_t>{0}, rng_faulty).ok());
    EXPECT_FALSE(
        faulty.InsertAndRelease(std::vector<uint32_t>{9, 0}, rng_faulty)
            .ok());
    EXPECT_FALSE(
        faulty.InsertAndRelease(std::vector<uint32_t>{0, 9}, rng_faulty)
            .ok());
    auto b = faulty.InsertAndRelease(row, rng_faulty);
    ASSERT_TRUE(b.ok());
    released_faulty.insert(released_faulty.end(), b->begin(), b->end());
  }
  EXPECT_EQ(clean.num_records(), 400u);
  EXPECT_EQ(faulty.num_records(), 400u);
  EXPECT_EQ(released_clean, released_faulty);  // byte-equal replay
}

TEST(IncrementalPublishTest, AppendOnlyReleasesStableAcrossPublishes) {
  // Satellite coverage: rows released via InsertAndRelease must be
  // byte-stable whether or not incremental publishes interleave — a
  // published release never rewrites what append-only UP already released.
  auto plain = *StreamingPublisher::Make(MakeSchema(), Params());
  auto publishing = *StreamingPublisher::Make(MakeSchema(), Params());
  Rng rng_plain(91);
  Rng rng_publishing(91);
  Rng publish_rng(92);  // publishes draw from their own stream
  std::vector<uint32_t> released_plain;
  std::vector<uint32_t> released_publishing;
  for (size_t i = 0; i < 600; ++i) {
    const std::vector<uint32_t> row{uint32_t((i * 3) % 4), uint32_t(i % 3)};
    auto a = plain.InsertAndRelease(row, rng_plain);
    ASSERT_TRUE(a.ok());
    released_plain.insert(released_plain.end(), a->begin(), a->end());
    auto b = publishing.InsertAndRelease(row, rng_publishing);
    ASSERT_TRUE(b.ok());
    released_publishing.insert(released_publishing.end(), b->begin(),
                               b->end());
    if (i % 150 == 149) {
      ASSERT_TRUE(publishing.PublishIncremental(publish_rng).ok());
    }
  }
  EXPECT_EQ(released_plain, released_publishing);
}

TEST(IncrementalPublishTest, AuditFromRunsAgreesWithAudit) {
  auto pub = *StreamingPublisher::Make(MakeSchema(), Params());
  Rng rng(41);
  auto expect_agreement = [&](const char* when) {
    const ViolationReport full = pub.Audit();
    const ViolationReport runs = pub.AuditFromRuns();
    EXPECT_EQ(full.num_groups, runs.num_groups) << when;
    EXPECT_EQ(full.num_records, runs.num_records) << when;
    EXPECT_EQ(full.violating_groups, runs.violating_groups) << when;
    EXPECT_EQ(full.violating_records, runs.violating_records) << when;
  };
  // Heavily skewed group 1 grows past s_g; group 0 stays small and mixed.
  for (size_t i = 0; i < 1500; ++i) {
    ASSERT_TRUE(pub.Insert(std::vector<uint32_t>{
                       1, (i % 20) == 0 ? 1u : 0u})
                    .ok());
    if (i % 10 == 0) {
      ASSERT_TRUE(
          pub.Insert(std::vector<uint32_t>{0, uint32_t(i % 3)}).ok());
    }
    if (i == 200) {
      expect_agreement("buffered only");
      ASSERT_TRUE(pub.PublishIncremental(rng).ok());
      expect_agreement("published, empty delta");
    }
  }
  expect_agreement("published base + pending delta");
  ASSERT_TRUE(pub.PublishIncremental(rng).ok());
  expect_agreement("fully published");
  EXPECT_GT(pub.Audit().violating_groups, 0u);  // the audit sees something
}

// ------------------------------------------------------------- serve layer

TEST(IncrementalServeTest, StorePublishIncrementalServesMergedSnapshots) {
  const fs::path dir =
      fs::temp_directory_path() / "recpriv_incremental_store_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  serve::ReleaseStore::Options options;
  options.snapshot_dir = dir.string();
  serve::ReleaseStore store(options);

  auto pub = *LoadedPublisher(700);
  Rng rng(51);
  IncrementalPublishStats stats;
  auto first = store.PublishIncremental("r", pub, rng, /*merge_index=*/true,
                                        &stats);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ((*first)->epoch, 1u);
  EXPECT_EQ((*first)->source.kind, "incremental");
  EXPECT_EQ(stats.delta_rows, 700u);

  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(pub.Insert(std::vector<uint32_t>{uint32_t(i % 4), 0}).ok());
  }
  auto second = store.PublishIncremental("r", pub, rng, /*merge_index=*/true,
                                         &stats);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->epoch, 2u);
  EXPECT_EQ(stats.delta_rows, 50u);
  EXPECT_NE((*first)->content_digest, (*second)->content_digest);

  // Persisted snapshots are self-contained: reopening the .rps yields the
  // same release, epoch, and content digest (the borrow from the base
  // image is an in-memory seam only).
  auto path = store.ManagedSnapshotPath("r", 2);
  ASSERT_TRUE(path.ok());
  auto reopened = store::OpenSnapshot(*path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->release, "r");
  EXPECT_EQ(reopened->snapshot->epoch, 2u);
  EXPECT_EQ(reopened->snapshot->content_digest, (*second)->content_digest);
  fs::remove_all(dir);
}

TEST(IncrementalServeTest, DropThenReinstalledEpochDoesNotServeStaleCache) {
  // Satellite regression: the answer cache must key on snapshot content,
  // not (release, epoch) — Drop + OpenSnapshot can legitimately reinstall
  // a previously-used epoch number with different data, and an epoch-keyed
  // cache would answer from the dropped release.
  const fs::path dir = fs::temp_directory_path() / "recpriv_cache_epoch_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  workload::SyntheticReleaseSpec spec;
  spec.records = 800;
  auto bundle_a = *workload::MakeBundle(spec, 11);
  auto bundle_b = *workload::MakeBundle(spec, 22);  // same shape, fresh noise

  auto store = std::make_shared<serve::ReleaseStore>();
  serve::QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.cache_capacity = 256;
  serve::QueryEngine engine(store, engine_options);

  const size_t arity = bundle_a.data.schema()->num_attributes();
  auto snap_a = store->Publish("r", std::move(bundle_a));
  ASSERT_TRUE(snap_a.ok());
  EXPECT_EQ((*snap_a)->epoch, 1u);

  query::CountQuery q(arity);
  q.sa_code = 0;
  auto warm = engine.AnswerOne("r", q);
  ASSERT_TRUE(warm.ok());
  auto hit = engine.AnswerOne("r", q);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cached);  // the cache IS live for this key

  // A different snapshot of the same release at the SAME epoch number,
  // installed through the Drop + OpenSnapshot path (replication/restart).
  auto snap_b = analysis::SnapshotRelease(std::move(bundle_b), /*epoch=*/1);
  ASSERT_TRUE(snap_b.ok());
  const std::string path = (dir / "r-b.rps").string();
  ASSERT_TRUE(store::WriteSnapshot(**snap_b, "r", path).ok());
  ASSERT_TRUE(store->Drop("r").ok());
  auto reinstalled = store->OpenSnapshot(path);
  ASSERT_TRUE(reinstalled.ok()) << reinstalled.status();
  EXPECT_EQ(reinstalled->epoch, 1u);  // the epoch number IS reused

  const auto served = store->Get("r");
  ASSERT_TRUE(served.ok());
  ASSERT_NE((*served)->content_digest, (*snap_a)->content_digest);

  // The same query again: must MISS (fresh digest) and answer from the
  // reinstalled data, not the dropped release's cached entry.
  auto after = engine.AnswerOne("r", q);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cached);
  const serve::Answer expected = serve::EvaluateUncached(**served, q);
  EXPECT_EQ(after->observed, expected.observed);
  EXPECT_EQ(after->matched_size, expected.matched_size);
  EXPECT_EQ(after->estimate, expected.estimate);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace recpriv::core
