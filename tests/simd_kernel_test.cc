// Differential suite for the SIMD count kernels (table/simd/): every
// dispatch level must produce bit-identical (observed, matched_size) to
// the scalar reference, over randomized schemas and tables covering
//   - narrow (packed-key) and forced-wide key layouts,
//   - empty predicates (match-all scans) and the fully-bound fast path,
//   - group counts straddling the 8-group vector width (tails of 0..7),
// plus the dispatch shim itself (parse, fallback, env-style override).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "table/flat_group_index.h"
#include "table/predicate.h"
#include "table/schema.h"
#include "table/simd/dispatch.h"
#include "table/table.h"
#include "testing_util.h"

namespace recpriv::table {
namespace {

using recpriv::testing::HarnessSeed;
using recpriv::testing::Numbered;
using simd::DispatchLevel;

/// Restores auto dispatch when a test scope ends, so one test's override
/// can never leak into another suite.
struct ScopedDispatch {
  explicit ScopedDispatch(DispatchLevel level) {
    simd::SetDispatchLevel(level);
  }
  ~ScopedDispatch() { simd::SetDispatchLevel(DispatchLevel::kAuto); }
};

/// Random schema: `n_pub` public attributes with domain sizes in
/// [1, max_dom], one SA attribute with domain size `m`.
SchemaPtr RandomSchema(Rng& rng, size_t n_pub, size_t max_dom, size_t m) {
  std::vector<Attribute> attrs;
  for (size_t k = 0; k < n_pub; ++k) {
    const size_t dom = 1 + rng.NextUint64(max_dom);
    std::vector<std::string> values;
    for (size_t v = 0; v < dom; ++v) {
      values.push_back(Numbered(Numbered("a", k) + "_", v));
    }
    attrs.push_back(
        Attribute{Numbered("A", k), *Dictionary::FromValues(values)});
  }
  std::vector<std::string> sa_values;
  for (size_t v = 0; v < m; ++v) sa_values.push_back(Numbered("sa", v));
  attrs.push_back(Attribute{"SA", *Dictionary::FromValues(sa_values)});
  return std::make_shared<Schema>(
      *Schema::Make(std::move(attrs), n_pub));
}

Table RandomTable(Rng& rng, const SchemaPtr& schema, size_t rows) {
  Table t(schema);
  std::vector<uint32_t> codes(schema->num_attributes());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < schema->num_attributes(); ++a) {
      codes[a] =
          uint32_t(rng.NextUint64(schema->attribute(a).domain.size()));
    }
    t.AppendRowUnchecked(codes);
  }
  return t;
}

/// A predicate binding each public attribute with probability `p_bind`;
/// bound values are drawn from the full domain, so some predicates match
/// nothing and some match broadly.
Predicate RandomPredicate(Rng& rng, const Schema& schema, double p_bind) {
  Predicate pred(schema.num_attributes());
  for (size_t a : schema.public_indices()) {
    if (rng.NextBernoulli(p_bind)) {
      pred.Bind(a, uint32_t(rng.NextUint64(schema.attribute(a).domain.size())));
    }
  }
  return pred;
}

/// Levels worth differencing on this host: scalar always, AVX2 when the
/// CPU has it, NEON unconditionally (its stub must also stay identical).
std::vector<DispatchLevel> LevelsUnderTest() {
  std::vector<DispatchLevel> levels{DispatchLevel::kScalar,
                                    DispatchLevel::kNeon};
  if (simd::HostSupportsAvx2()) levels.push_back(DispatchLevel::kAvx2);
  return levels;
}

/// Asserts AnswerInto and CountAnswer agree bit-exactly across all levels
/// for one (index, predicate, sa) triple.
void ExpectLevelsAgree(const FlatGroupIndex& index, const Predicate& pred,
                       uint32_t sa, const std::string& context) {
  AnswerScratch scratch;
  uint64_t ref_obs = 0, ref_size = 0;
  {
    ScopedDispatch as_scalar(DispatchLevel::kScalar);
    index.AnswerInto(pred, sa, scratch, &ref_obs, &ref_size);
  }
  for (const DispatchLevel level : LevelsUnderTest()) {
    ScopedDispatch as_level(level);
    uint64_t obs = 0, size = 0;
    index.AnswerInto(pred, sa, scratch, &obs, &size);
    EXPECT_EQ(obs, ref_obs) << context << " level=" << simd::LevelName(level);
    EXPECT_EQ(size, ref_size)
        << context << " level=" << simd::LevelName(level);
    EXPECT_EQ(index.CountAnswer(pred, sa), ref_obs)
        << context << " level=" << simd::LevelName(level);
  }
}

TEST(SimdKernelTest, RandomSchemasAllLevelsBitIdentical) {
  Rng rng(HarnessSeed(0x51D0u));
  const struct {
    size_t n_pub;
    size_t max_dom;
    size_t m;
    size_t rows;
  } configs[] = {
      {1, 4, 2, 64},    {2, 6, 3, 300},  {3, 8, 5, 1000},
      {4, 10, 4, 2500}, {6, 5, 3, 800},
  };
  for (const auto& cfg : configs) {
    const SchemaPtr schema = RandomSchema(rng, cfg.n_pub, cfg.max_dom, cfg.m);
    const Table t = RandomTable(rng, schema, cfg.rows);
    for (const auto mode :
         {FlatGroupIndex::KeyMode::kAuto, FlatGroupIndex::KeyMode::kForceWide}) {
      const FlatGroupIndex index = FlatGroupIndex::Build(t, mode);
      const std::string context =
          "n_pub=" + std::to_string(cfg.n_pub) + " rows=" +
          std::to_string(cfg.rows) +
          (mode == FlatGroupIndex::KeyMode::kForceWide ? " wide" : " auto");
      // Empty predicate: the match-all scan, maximal SIMD occupancy.
      ExpectLevelsAgree(index, Predicate(schema->num_attributes()), 0,
                        context + " empty");
      for (int i = 0; i < 25; ++i) {
        const Predicate pred = RandomPredicate(rng, *schema, 0.5);
        const uint32_t sa = uint32_t(rng.NextUint64(cfg.m));
        ExpectLevelsAgree(index, pred, sa, context + " random#" +
                                              std::to_string(i));
      }
      // Fully-bound predicates short-circuit to the FindGroup fast path —
      // both an existing key (hit) and a random one (usually a miss).
      Predicate hit(schema->num_attributes());
      const auto& pub = index.public_indices();
      if (index.num_groups() > 0) {
        const size_t g = rng.NextUint64(index.num_groups());
        for (size_t k = 0; k < pub.size(); ++k) {
          hit.Bind(pub[k], index.na_code(g, k));
        }
        ExpectLevelsAgree(index, hit, uint32_t(rng.NextUint64(cfg.m)),
                          context + " fully-bound-hit");
      }
      ExpectLevelsAgree(index, RandomPredicate(rng, *schema, 1.0),
                        uint32_t(rng.NextUint64(cfg.m)),
                        context + " fully-bound-random");
    }
  }
}

TEST(SimdKernelTest, GroupCountsAroundVectorWidthBoundaries) {
  // One public attribute whose domain size pins num_groups exactly: every
  // tail length 0..7 of the 8-group AVX2 loop is exercised, plus the
  // sub-width cases where the vector loop never runs at all.
  Rng rng(HarnessSeed(0x51D1u));
  for (const size_t groups : {1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u,
                              33u, 64u, 100u}) {
    std::vector<std::string> values;
    for (size_t v = 0; v < groups; ++v) values.push_back(std::to_string(v));
    std::vector<Attribute> attrs;
    attrs.push_back(Attribute{"G", *Dictionary::FromValues(values)});
    attrs.push_back(Attribute{"SA", *Dictionary::FromValues({"x", "y", "z"})});
    const auto schema =
        std::make_shared<Schema>(*Schema::Make(std::move(attrs), 1));
    Table t(schema);
    // 1-4 rows per group value so every group exists and sizes vary.
    for (size_t v = 0; v < groups; ++v) {
      const size_t copies = 1 + rng.NextUint64(4);
      for (size_t c = 0; c < copies; ++c) {
        t.AppendRowUnchecked(std::vector<uint32_t>{
            uint32_t(v), uint32_t(rng.NextUint64(3))});
      }
    }
    const FlatGroupIndex index = FlatGroupIndex::Build(t);
    ASSERT_EQ(index.num_groups(), groups);
    const std::string context = "groups=" + std::to_string(groups);
    ExpectLevelsAgree(index, Predicate(2), 1, context + " empty");
    for (size_t v = 0; v < groups; v += 1 + groups / 7) {
      Predicate pred(2);
      pred.Bind(0, uint32_t(v));
      ExpectLevelsAgree(index, pred, uint32_t(rng.NextUint64(3)),
                        context + " bound=" + std::to_string(v));
    }
  }
}

TEST(SimdKernelTest, RawKernelEntryPointsAgree) {
  // The per-level entry points, driven directly with a hand-built bound
  // list (including full binding, which AnswerInto would short-circuit
  // around) — the layer the differential contract is defined at.
  Rng rng(HarnessSeed(0x51D2u));
  const SchemaPtr schema = RandomSchema(rng, 3, 6, 4);
  const Table t = RandomTable(rng, schema, 1200);
  const FlatGroupIndex index = FlatGroupIndex::Build(t);
  const FlatGroupIndex::Storage storage = index.storage();

  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> bound_lists;
  bound_lists.push_back({});                      // match-all
  bound_lists.push_back({{0, 0}});                // one column
  bound_lists.push_back({{0, 1}, {2, 0}});        // two columns
  bound_lists.push_back({{0, 0}, {1, 0}, {2, 0}});  // fully bound
  bound_lists.push_back({{1, 9999}});             // matches nothing

  for (const auto& bound : bound_lists) {
    simd::FusedCountArgs args;
    args.na_codes = storage.na_codes;
    args.sa_counts = storage.sa_counts;
    args.row_offsets = storage.row_offsets;
    args.num_groups = index.num_groups();
    args.n_pub = index.num_public();
    args.m = index.sa_domain();
    args.sa = uint32_t(rng.NextUint64(index.sa_domain()));
    args.bound = bound;

    uint64_t ref_obs = 0, ref_size = 0;
    simd::FusedCountSumsScalar(args, &ref_obs, &ref_size);
    uint64_t obs = 0, size = 0;
    simd::FusedCountSumsNeon(args, &obs, &size);
    EXPECT_EQ(obs, ref_obs);
    EXPECT_EQ(size, ref_size);
    if (simd::HostSupportsAvx2()) {
      obs = size = 0;
      simd::FusedCountSumsAvx2(args, &obs, &size);
      EXPECT_EQ(obs, ref_obs) << "avx2 bound_size=" << bound.size();
      EXPECT_EQ(size, ref_size) << "avx2 bound_size=" << bound.size();
    }
  }
}

TEST(SimdKernelTest, RawKernelPackedKeyPathAgrees) {
  // Hand-built args carrying the optional packed-key stream: a level may
  // match through either representation (AVX2 takes the packed one when
  // present), and the sums must stay bit-identical to scalar, which
  // matches through the bound pairs.
  Rng rng(HarnessSeed(0x51D3u));
  // Layout: A0 (4 bits) at shift 3, A1 (3 bits) at shift 0 — the same
  // highest-attribute-first packing FlatGroupIndex uses.
  constexpr size_t kNPub = 2;
  constexpr size_t kM = 3;
  constexpr uint32_t kBits[kNPub] = {4, 3};
  constexpr uint32_t kShifts[kNPub] = {3, 0};
  std::vector<uint64_t> keys;
  for (size_t g = 0; g < 37; ++g) {
    keys.push_back(rng.NextUint64(uint64_t(1) << 7));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const size_t num_groups = keys.size();
  ASSERT_GT(num_groups, 8u);  // the vector loop must actually run
  std::vector<uint32_t> na(num_groups * kNPub);
  std::vector<uint64_t> counts(num_groups * kM);
  std::vector<uint64_t> offsets(num_groups + 1, 0);
  for (size_t g = 0; g < num_groups; ++g) {
    for (size_t k = 0; k < kNPub; ++k) {
      na[g * kNPub + k] = uint32_t((keys[g] >> kShifts[k]) &
                                   ((uint64_t(1) << kBits[k]) - 1));
    }
    uint64_t rows = 0;
    for (size_t c = 0; c < kM; ++c) {
      counts[g * kM + c] = rng.NextUint64(5);
      rows += counts[g * kM + c];
    }
    offsets[g + 1] = offsets[g] + rows;
  }

  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> bound_lists;
  bound_lists.push_back({});                       // match-all, mask = 0
  bound_lists.push_back({{0, na[0]}});             // high field only
  bound_lists.push_back({{1, na[1]}});             // low field only
  bound_lists.push_back({{0, 2}, {1, 7}});         // both (may miss)

  for (const auto& bound : bound_lists) {
    simd::FusedCountArgs args;
    args.na_codes = na;
    args.sa_counts = counts;
    args.row_offsets = offsets;
    args.num_groups = num_groups;
    args.n_pub = kNPub;
    args.m = kM;
    args.sa = uint32_t(rng.NextUint64(kM));
    args.bound = bound;
    args.packed_keys = keys;
    for (const auto& [k, code] : bound) {
      args.packed_mask |= ((uint64_t(1) << kBits[k]) - 1) << kShifts[k];
      args.packed_want |= uint64_t(code) << kShifts[k];
    }

    uint64_t ref_obs = 0, ref_size = 0;
    simd::FusedCountSumsScalar(args, &ref_obs, &ref_size);
    uint64_t obs = 0, size = 0;
    simd::FusedCountSumsNeon(args, &obs, &size);
    EXPECT_EQ(obs, ref_obs) << "neon bound_size=" << bound.size();
    EXPECT_EQ(size, ref_size) << "neon bound_size=" << bound.size();
    if (simd::HostSupportsAvx2()) {
      obs = size = 0;
      simd::FusedCountSumsAvx2(args, &obs, &size);
      EXPECT_EQ(obs, ref_obs) << "avx2 bound_size=" << bound.size();
      EXPECT_EQ(size, ref_size) << "avx2 bound_size=" << bound.size();
    }
  }
}

TEST(SimdKernelTest, DispatchShim) {
  // Name/parse round trip.
  for (const DispatchLevel level :
       {DispatchLevel::kAuto, DispatchLevel::kScalar, DispatchLevel::kAvx2,
        DispatchLevel::kNeon}) {
    const auto parsed = simd::ParseDispatchLevel(simd::LevelName(level));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(simd::ParseDispatchLevel("sse9").ok());
  EXPECT_FALSE(simd::ParseDispatchLevel("AVX2").ok());  // case-sensitive

  {
    // A forced level sticks; ActiveLevel never reports kAuto.
    ScopedDispatch forced(DispatchLevel::kScalar);
    EXPECT_EQ(simd::ActiveLevel(), DispatchLevel::kScalar);
  }
  {
    // Forcing AVX2 runs AVX2 where the host has it, scalar elsewhere —
    // never a fault.
    ScopedDispatch forced(DispatchLevel::kAvx2);
    EXPECT_EQ(simd::ActiveLevel(), simd::HostSupportsAvx2()
                                       ? DispatchLevel::kAvx2
                                       : DispatchLevel::kScalar);
  }
  EXPECT_NE(simd::ActiveLevel(), DispatchLevel::kAuto);
}

}  // namespace
}  // namespace recpriv::table
