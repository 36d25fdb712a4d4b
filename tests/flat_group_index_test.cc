// FlatGroupIndex tests: layout invariants, the packed/wide key paths, the
// sorted-input build, a randomized property suite asserting the columnar
// index agrees with a naive map-based grouping on groups, SA histograms,
// MatchingGroups, FindGroup and CountAnswer across schemas — including
// domains too wide for the packed-key fast path — and the posting index.
//
// Also SortIntoGroups (table/group_order.h): its groups, their order, and
// the within-group row order fixed-seed releases depend on. The reference
// there is the column-gathering comparator sort the packed-key sort
// replaced: an unstable std::sort of row ids 0..n-1 comparing public
// columns one by one. Both must leave the same permutation.

#include "table/flat_group_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "table/group_order.h"
#include "testing_util.h"

namespace recpriv::table {
namespace {

using recpriv::testing::Numbered;

using recpriv::Rng;

SchemaPtr MakeSchema(const std::vector<size_t>& public_domains,
                     size_t sa_domain) {
  std::vector<Attribute> attrs;
  for (size_t a = 0; a < public_domains.size(); ++a) {
    Dictionary d;
    for (size_t v = 0; v < public_domains[a]; ++v) {
      d.GetOrAdd(Numbered(Numbered("a", a) + "v", v));
    }
    attrs.push_back(Attribute{Numbered("A", a), std::move(d)});
  }
  Dictionary sa;
  for (size_t v = 0; v < sa_domain; ++v) sa.GetOrAdd(Numbered("s", v));
  attrs.push_back(Attribute{"SA", std::move(sa)});
  const size_t sa_index = attrs.size() - 1;
  return std::make_shared<Schema>(*Schema::Make(std::move(attrs), sa_index));
}

Table RandomTable(const SchemaPtr& schema, size_t rows, Rng& rng) {
  Table t(schema);
  std::vector<uint32_t> codes(schema->num_attributes());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < schema->num_attributes(); ++a) {
      codes[a] = uint32_t(rng.NextUint64(schema->attribute(a).domain.size()));
    }
    t.AppendRowUnchecked(codes);
  }
  return t;
}

/// One personal group of the reference grouping.
struct RefGroup {
  std::vector<uint32_t> rows;  ///< ascending
  std::vector<uint64_t> sa_counts;
};

/// The personal groups of `t` by brute force: a map keyed by NA codes in
/// public-index order, so iteration is NA-lexicographic.
std::map<std::vector<uint32_t>, RefGroup> ReferenceGroups(const Table& t) {
  std::map<std::vector<uint32_t>, RefGroup> groups;
  const auto pub = t.schema()->public_indices();
  const size_t sa_col = t.schema()->sensitive_index();
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<uint32_t> key;
    for (size_t attr : pub) key.push_back(t.at(r, attr));
    RefGroup& g = groups[key];
    if (g.sa_counts.empty()) {
      g.sa_counts.assign(t.schema()->sa_domain_size(), 0);
    }
    g.rows.push_back(uint32_t(r));
    ++g.sa_counts[t.at(r, sa_col)];
  }
  return groups;
}

/// Full agreement check between the index and the reference grouping.
void ExpectAgreement(const Table& t, FlatGroupIndex::KeyMode mode,
                     Rng& rng) {
  const auto ref_map = ReferenceGroups(t);
  std::vector<std::pair<std::vector<uint32_t>, RefGroup>> ref(ref_map.begin(),
                                                              ref_map.end());
  const FlatGroupIndex flat = FlatGroupIndex::Build(t, mode);

  ASSERT_EQ(flat.num_groups(), ref.size());
  ASSERT_EQ(flat.num_records(), t.num_rows());

  for (size_t gi = 0; gi < ref.size(); ++gi) {
    const auto& [key, g] = ref[gi];
    // Same group order (NA-lexicographic), same keys, same histograms.
    ASSERT_EQ(std::vector<uint32_t>(flat.na_codes(gi).begin(),
                                    flat.na_codes(gi).end()),
              key)
        << "group " << gi;
    EXPECT_EQ(std::vector<uint64_t>(flat.sa_counts(gi).begin(),
                                    flat.sa_counts(gi).end()),
              g.sa_counts);
    EXPECT_EQ(flat.group_size(gi), g.rows.size());
    const uint64_t max_count =
        *std::max_element(g.sa_counts.begin(), g.sa_counts.end());
    EXPECT_DOUBLE_EQ(flat.MaxFrequency(gi),
                     double(max_count) / double(g.rows.size()));
    // Same rows, ascending (both key paths sort stably).
    EXPECT_EQ(std::vector<uint32_t>(flat.rows(gi).begin(), flat.rows(gi).end()),
              g.rows);

    // FindGroup locates every group by its own key.
    auto found = flat.FindGroup(flat.na_codes(gi));
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(*found, gi);
  }

  // Random predicates (wildcards, bound values, out-of-domain codes):
  // MatchingGroups, CountAnswer and AnswerInto must agree with a linear
  // scan of the reference groups.
  const auto& pub = flat.public_indices();
  const size_t n_attr = t.schema()->num_attributes();
  const size_t m = t.schema()->sa_domain_size();
  for (int trial = 0; trial < 40; ++trial) {
    Predicate pred(n_attr);
    for (size_t attr : pub) {
      const size_t dom = t.schema()->attribute(attr).domain.size();
      switch (rng.NextUint64(4)) {
        case 0:  // wildcard
          break;
        case 1:  // out-of-domain code: matches nothing on this attribute
          pred.Bind(attr, uint32_t(dom + rng.NextUint64(1000)));
          break;
        default:
          pred.Bind(attr, uint32_t(rng.NextUint64(dom)));
      }
    }
    std::vector<uint32_t> slow;
    for (size_t gi = 0; gi < ref.size(); ++gi) {
      bool match = true;
      for (size_t k = 0; k < pub.size(); ++k) {
        if (pred.is_bound(pub[k]) && pred.code(pub[k]) != ref[gi].first[k]) {
          match = false;
        }
      }
      if (match) slow.push_back(uint32_t(gi));
    }
    ASSERT_EQ(flat.MatchingGroups(pred), slow) << pred.ToString(*t.schema());

    const uint32_t sa = uint32_t(rng.NextUint64(m));
    uint64_t slow_obs = 0, slow_size = 0;
    for (uint32_t gi : slow) {
      slow_obs += ref[gi].second.sa_counts[sa];
      slow_size += ref[gi].second.rows.size();
    }
    EXPECT_EQ(flat.CountAnswer(pred, sa), slow_obs);
    uint64_t obs = 0, size = 0;
    flat.AnswerInto(pred, sa, &obs, &size);
    EXPECT_EQ(obs, slow_obs);
    EXPECT_EQ(size, slow_size);
  }

  // Keys absent from the table are NotFound.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint32_t> key;
    for (size_t attr : pub) {
      key.push_back(uint32_t(
          rng.NextUint64(t.schema()->attribute(attr).domain.size() + 3)));
    }
    const auto it = ref_map.find(key);
    const auto flat_found = flat.FindGroup(key);
    ASSERT_EQ(flat_found.ok(), it != ref_map.end());
    if (flat_found.ok()) {
      EXPECT_EQ(*flat_found, size_t(std::distance(ref_map.begin(), it)));
    }
  }
}

TEST(FlatGroupIndexTest, AgreesWithReferenceAcrossRandomSchemas) {
  Rng rng(20150407);
  for (int round = 0; round < 12; ++round) {
    const size_t n_pub = 1 + rng.NextUint64(4);
    std::vector<size_t> domains;
    for (size_t a = 0; a < n_pub; ++a) {
      domains.push_back(1 + rng.NextUint64(6));
    }
    const size_t m = 2 + rng.NextUint64(5);
    SchemaPtr schema = MakeSchema(domains, m);
    Table t = RandomTable(schema, rng.NextUint64(400), rng);
    {
      SCOPED_TRACE("round " + std::to_string(round) + " auto");
      const FlatGroupIndex flat = FlatGroupIndex::Build(t);
      EXPECT_TRUE(flat.packed());  // narrow domains: fast path expected
      ExpectAgreement(t, FlatGroupIndex::KeyMode::kAuto, rng);
    }
    {
      // The wide fallback must agree on the same narrow data.
      SCOPED_TRACE("round " + std::to_string(round) + " forced-wide");
      const FlatGroupIndex wide =
          FlatGroupIndex::Build(t, FlatGroupIndex::KeyMode::kForceWide);
      EXPECT_FALSE(wide.packed());
      ExpectAgreement(t, FlatGroupIndex::KeyMode::kForceWide, rng);
    }
  }
}

TEST(FlatGroupIndexTest, WideDomainsFallBackAndAgree) {
  // 9 public attributes x 8 bits (129-value domains) = 72 key bits: the
  // packed path cannot hold the key, Build must choose the wide layout and
  // still agree with the reference grouping.
  Rng rng(77);
  std::vector<size_t> domains(9, 129);
  SchemaPtr schema = MakeSchema(domains, 3);
  Table t = RandomTable(schema, 600, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  EXPECT_FALSE(flat.packed());
  ExpectAgreement(t, FlatGroupIndex::KeyMode::kAuto, rng);
}

TEST(FlatGroupIndexTest, SixtyFourBitKeyStillPacks) {
  // 4 x 65536-value domains = exactly 64 bits: boundary of the fast path.
  Rng rng(99);
  std::vector<size_t> domains(4, 65536);
  SchemaPtr schema = MakeSchema(domains, 2);
  Table t = RandomTable(schema, 300, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  EXPECT_TRUE(flat.packed());
  ExpectAgreement(t, FlatGroupIndex::KeyMode::kAuto, rng);
}

TEST(FlatGroupIndexTest, EmptyTable) {
  SchemaPtr schema = MakeSchema({2, 3}, 2);
  Table t(schema);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  EXPECT_EQ(flat.num_groups(), 0u);
  EXPECT_EQ(flat.AverageGroupSize(), 0.0);
  EXPECT_FALSE(flat.FindGroup(std::vector<uint32_t>{0, 0}).ok());
  Predicate all(3);
  EXPECT_TRUE(flat.MatchingGroups(all).empty());
  EXPECT_EQ(flat.CountAnswer(all, 0), 0u);
}

TEST(FlatGroupIndexTest, NoPublicAttributes) {
  // A schema that is all-SA has one personal group holding every record.
  SchemaPtr schema = MakeSchema({}, 3);
  Rng rng(5);
  Table t = RandomTable(schema, 50, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  ASSERT_EQ(flat.num_groups(), 1u);
  EXPECT_EQ(flat.group_size(0), 50u);
  uint64_t total = 0;
  for (uint64_t c : flat.sa_counts(0)) total += c;
  EXPECT_EQ(total, 50u);
  auto found = flat.FindGroup(std::span<const uint32_t>{});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 0u);
  Predicate all(1);
  EXPECT_EQ(flat.MatchingGroups(all).size(), 1u);
}

TEST(FlatGroupIndexTest, RowsAreAscendingWithinGroups) {
  // Both key paths are stable sorts, so CSR row slices come out ascending —
  // a locality guarantee scan consumers may rely on.
  Rng rng(123);
  SchemaPtr schema = MakeSchema({3, 3}, 2);
  Table t = RandomTable(schema, 500, rng);
  for (auto mode : {FlatGroupIndex::KeyMode::kAuto,
                    FlatGroupIndex::KeyMode::kForceWide}) {
    const FlatGroupIndex flat = FlatGroupIndex::Build(t, mode);
    for (size_t gi = 0; gi < flat.num_groups(); ++gi) {
      const auto rows = flat.rows(gi);
      EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
    }
  }
}

/// The build over `t` must equal the forced-wide build section by section.
void ExpectSameAsForcedWide(const Table& t) {
  const FlatGroupIndex packed = FlatGroupIndex::Build(t);
  const FlatGroupIndex wide =
      FlatGroupIndex::Build(t, FlatGroupIndex::KeyMode::kForceWide);
  ASSERT_TRUE(packed.packed());
  ASSERT_FALSE(wide.packed());
  const FlatGroupIndex::Storage a = packed.storage();
  const FlatGroupIndex::Storage b = wide.storage();
  auto eq = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  EXPECT_TRUE(eq(a.na_codes, b.na_codes));
  EXPECT_TRUE(eq(a.sa_counts, b.sa_counts));
  EXPECT_TRUE(eq(a.row_offsets, b.row_offsets));
  EXPECT_TRUE(eq(a.row_values, b.row_values));
}

TEST(FlatGroupIndexTest, SortedInputBuildsMatchTheSortingBuild) {
  // Build skips its sort when the keys are already non-decreasing (SPS
  // output is). A stable sort of such input is the identity, so the
  // shortcut must leave every section as the sorting path would: checked
  // on key-ordered input, the same input with one inversion in its last
  // row, and the reversed input.
  Rng rng(2024);
  SchemaPtr schema = MakeSchema({3, 4}, 3);
  const Table random = RandomTable(schema, 300, rng);
  std::vector<size_t> by_key(random.num_rows());
  std::iota(by_key.begin(), by_key.end(), size_t{0});
  std::stable_sort(by_key.begin(), by_key.end(), [&](size_t a, size_t b) {
    return std::make_pair(random.at(a, 0), random.at(a, 1)) <
           std::make_pair(random.at(b, 0), random.at(b, 1));
  });
  const Table sorted = random.Select(by_key);

  Table inverted = sorted.Clone();
  const size_t last = inverted.num_rows() - 1;
  ASSERT_NE(sorted.at(0, 0), sorted.at(last, 0));
  inverted.set(last, 0, sorted.at(0, 0));
  inverted.set(last, 1, sorted.at(0, 1));

  std::vector<size_t> backwards(by_key.size());
  std::iota(backwards.rbegin(), backwards.rend(), size_t{0});
  const Table reversed = sorted.Select(backwards);

  const Table* const inputs[] = {&sorted, &inverted, &reversed};
  for (const Table* t : inputs) {
    SCOPED_TRACE(t == &sorted ? "sorted" : t == &inverted ? "inverted"
                                                          : "reversed");
    ExpectSameAsForcedWide(*t);
    ExpectAgreement(*t, FlatGroupIndex::KeyMode::kAuto, rng);
  }

  // On key-ordered input the group-major row order is the identity.
  const FlatGroupIndex idx = FlatGroupIndex::Build(sorted);
  std::vector<uint32_t> identity(sorted.num_rows());
  std::iota(identity.begin(), identity.end(), 0u);
  const auto rows = idx.storage().row_values;
  EXPECT_TRUE(std::equal(rows.begin(), rows.end(), identity.begin(),
                         identity.end()));
}

SchemaPtr MakeTestSchema() {
  std::vector<Attribute> attrs;
  attrs.push_back(
      Attribute{"Gender", *Dictionary::FromValues({"male", "female"})});
  attrs.push_back(Attribute{"Job", *Dictionary::FromValues({"eng", "law"})});
  attrs.push_back(
      Attribute{"Disease", *Dictionary::FromValues({"flu", "hiv", "bc"})});
  return std::make_shared<Schema>(*Schema::Make(std::move(attrs), 2));
}

Table MakeTestTable() {
  Table t(MakeTestSchema());
  // (male, eng): flu, flu, hiv    (male, law): bc
  // (female, eng): hiv, hiv       (female, law): flu, bc
  const uint32_t rows[][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 1}, {0, 1, 2},
                              {1, 0, 1}, {1, 0, 1}, {1, 1, 0}, {1, 1, 2}};
  for (const auto& r : rows) {
    EXPECT_TRUE(t.AppendRow(std::vector<uint32_t>{r[0], r[1], r[2]}).ok());
  }
  return t;
}

TEST(FlatGroupIndexTest, BuildsAllPersonalGroups) {
  const FlatGroupIndex idx = FlatGroupIndex::Build(MakeTestTable());
  EXPECT_EQ(idx.num_groups(), 4u);
  EXPECT_EQ(idx.num_records(), 8u);
  EXPECT_DOUBLE_EQ(idx.AverageGroupSize(), 2.0);

  const size_t gi = *idx.FindGroup(std::vector<uint32_t>{0, 0});  // male, eng
  EXPECT_EQ(idx.group_size(gi), 3u);
  EXPECT_EQ(std::vector<uint64_t>(idx.sa_counts(gi).begin(),
                                  idx.sa_counts(gi).end()),
            (std::vector<uint64_t>{2, 1, 0}));
  EXPECT_NEAR(idx.Frequency(gi, 0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(idx.MaxFrequency(gi), 2.0 / 3.0, 1e-12);
  EXPECT_FALSE(idx.FindGroup(std::vector<uint32_t>{0, 7}).ok());
  EXPECT_FALSE(idx.FindGroup(std::vector<uint32_t>{0}).ok());  // short key
}

TEST(GroupPostingIndexTest, AgreesWithLinearScan) {
  const Table t = MakeTestTable();
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  const GroupPostingIndex postings(flat);
  for (int g = -1; g < 2; ++g) {
    for (int j = -1; j < 2; ++j) {
      Predicate p(3);
      if (g >= 0) p.Bind(0, uint32_t(g));
      if (j >= 0) p.Bind(1, uint32_t(j));
      EXPECT_EQ(postings.MatchingGroups(p), flat.MatchingGroups(p))
          << "g=" << g << " j=" << j;
    }
  }
}

TEST(GroupPostingIndexTest, CountAnswerSumsHistograms) {
  const FlatGroupIndex flat = FlatGroupIndex::Build(MakeTestTable());
  const GroupPostingIndex postings(flat);
  Predicate eng(3);
  eng.Bind(1, 0);  // Job = eng
  // eng groups: (male,eng) flu=2, (female,eng) flu=0.
  EXPECT_EQ(postings.CountAnswer(eng, 0), 2u);
  EXPECT_EQ(postings.CountAnswer(eng, 1), 3u);  // hiv: 1 + 2
}

TEST(GroupPostingIndexTest, OutOfDomainCodeMatchesNothing) {
  const FlatGroupIndex flat = FlatGroupIndex::Build(MakeTestTable());
  const GroupPostingIndex postings(flat);
  Predicate p(3);
  p.Bind(0, 77);  // no such code
  EXPECT_TRUE(postings.MatchingGroups(p).empty());
}

TEST(GroupPostingIndexTest, CountAnswerMatchesFusedKernel) {
  Rng rng(321);
  SchemaPtr schema = MakeSchema({4, 3, 2}, 3);
  Table t = RandomTable(schema, 800, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  const GroupPostingIndex postings(flat);
  for (int trial = 0; trial < 60; ++trial) {
    Predicate pred(4);
    for (size_t attr = 0; attr < 3; ++attr) {
      if (rng.NextUint64(2) == 0) {
        pred.Bind(attr, uint32_t(rng.NextUint64(
                            schema->attribute(attr).domain.size())));
      }
    }
    const uint32_t sa = uint32_t(rng.NextUint64(3));
    EXPECT_EQ(postings.CountAnswer(pred, sa), flat.CountAnswer(pred, sa));
  }
}

/// Rows whose public codes come from a few values per attribute, so groups
/// hold many rows and the within-group order is exercised.
Table ClusteredTable(const SchemaPtr& schema, size_t rows, Rng& rng) {
  Table t(schema);
  std::vector<uint32_t> codes(schema->num_attributes());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < schema->num_attributes(); ++a) {
      const size_t dom = schema->attribute(a).domain.size();
      codes[a] = uint32_t(rng.NextUint64(std::min<size_t>(dom, 3)));
    }
    t.AppendRowUnchecked(codes);
  }
  return t;
}

/// The gather-comparator sort SortIntoGroups must reproduce exactly.
std::vector<size_t> ReferenceOrder(const Table& t) {
  const std::vector<size_t> pub = t.schema()->public_indices();
  std::vector<size_t> order(t.num_rows());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t attr : pub) {
      if (t.at(a, attr) != t.at(b, attr)) return t.at(a, attr) < t.at(b, attr);
    }
    return false;
  });
  return order;
}

void ExpectMatchesReference(const Table& t) {
  const GroupOrder order = SortIntoGroups(t);
  EXPECT_EQ(order.rows, ReferenceOrder(t));

  // Runs are exactly the personal groups, in the FlatGroupIndex's order.
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  ASSERT_EQ(order.num_groups(), flat.num_groups());
  const std::vector<size_t> pub = t.schema()->public_indices();
  for (size_t g = 0; g < order.num_groups(); ++g) {
    ASSERT_EQ(order.group(g).size(), flat.group_size(g)) << "group " << g;
    for (size_t r : order.group(g)) {
      for (size_t k = 0; k < pub.size(); ++k) {
        ASSERT_EQ(t.at(r, pub[k]), flat.na_code(g, k)) << "group " << g;
      }
    }
  }
}

TEST(GroupOrderTest, PackedKeysReproduceTheComparatorSort) {
  // Large enough that std::sort runs introsort partitions, not only its
  // final insertion sort.
  Rng rng(20150323);
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<size_t> domains;
    for (size_t a = 0, n = 1 + rng.NextUint64(4); a < n; ++a) {
      domains.push_back(2 + rng.NextUint64(40));
    }
    const Table t = ClusteredTable(MakeSchema(domains, 5),
                                   100 + rng.NextUint64(5000), rng);
    ASSERT_TRUE(RowKeys::Pack(t).packed);
    ExpectMatchesReference(t);
  }
}

TEST(GroupOrderTest, WideKeysReproduceTheComparatorSort) {
  // 5 x 15 bits = 75 key bits: the wide-key path.
  Rng rng(77);
  const Table t =
      ClusteredTable(MakeSchema(std::vector<size_t>(5, 20000), 4), 3000, rng);
  ASSERT_FALSE(RowKeys::Pack(t).packed);
  ExpectMatchesReference(t);
}

TEST(GroupOrderTest, EmptyTableHasNoGroups) {
  const Table t(MakeSchema({3, 3}, 2));
  const GroupOrder order = SortIntoGroups(t);
  EXPECT_EQ(order.num_groups(), 0u);
  EXPECT_TRUE(order.rows.empty());
}

TEST(GroupOrderTest, NoPublicAttributesIsOneGroup) {
  Rng rng(5);
  const Table t = ClusteredTable(MakeSchema({}, 3), 40, rng);
  const GroupOrder order = SortIntoGroups(t);
  ASSERT_EQ(order.num_groups(), 1u);
  EXPECT_EQ(order.group(0).size(), 40u);
  EXPECT_EQ(order.rows, ReferenceOrder(t));
}

TEST(RowKeysTest, IsSortedTracksKeyOrder) {
  Table t(MakeSchema({4, 4}, 2));
  for (uint32_t a : {0u, 1u, 1u, 3u}) {
    t.AppendRowUnchecked(std::vector<uint32_t>{a, 2, 0});
  }
  EXPECT_TRUE(RowKeys::Pack(t).IsSorted());
  EXPECT_TRUE(RowKeys::Pack(t, /*allow_packed=*/false).IsSorted());
  t.set(3, 0, 0);  // one inversion in the last row
  EXPECT_FALSE(RowKeys::Pack(t).IsSorted());
  EXPECT_FALSE(RowKeys::Pack(t, /*allow_packed=*/false).IsSorted());
}

}  // namespace
}  // namespace recpriv::table
