// Tests for the SPS (Sampling-Perturbing-Scaling) enforcement algorithm:
// frequency preservation (Fact 1), size preservation (Scaling), the privacy
// guarantee (Theorem 4) via the sample-size cap, the utility guarantee
// (Theorem 5, unbiasedness) empirically, and record-vs-count path agreement.

#include "core/sps.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/checksum.h"
#include "core/generalization.h"
#include "datagen/adult.h"
#include "datagen/census.h"
#include "perturb/mle.h"
#include "table/flat_group_index.h"
#include "table/schema.h"
#include "testing_util.h"

namespace recpriv::core {
namespace {

using recpriv::testing::Numbered;

using recpriv::perturb::UniformPerturbation;
using recpriv::table::Attribute;
using recpriv::table::Dictionary;
using recpriv::table::FlatGroupIndex;
using recpriv::table::Schema;
using recpriv::table::SchemaPtr;
using recpriv::table::Table;

PrivacyParams Params(double lambda, double delta, double p, size_t m) {
  PrivacyParams params;
  params.lambda = lambda;
  params.delta = delta;
  params.retention_p = p;
  params.domain_m = m;
  return params;
}

TEST(FrequencyPreservingSampleTest, ExactWhenTauTimesCountsAreIntegral) {
  Rng rng(1);
  std::vector<uint64_t> counts{100, 50, 50};
  auto sample = FrequencyPreservingSample(counts, 0.5, rng);
  EXPECT_EQ(sample, (std::vector<uint64_t>{50, 25, 25}));
}

TEST(FrequencyPreservingSampleTest, FractionalPartsAverageOut) {
  std::vector<uint64_t> counts{10, 10};
  const double tau = 0.35;
  Rng rng(7);
  double total = 0.0;
  const int reps = 20000;
  for (int i = 0; i < reps; ++i) {
    auto s = FrequencyPreservingSample(counts, tau, rng);
    total += double(s[0] + s[1]);
  }
  EXPECT_NEAR(total / reps, 7.0, 0.05);  // E[|g1|] = tau * |g|
}

TEST(FrequencyPreservingSampleTest, NeverExceedsAvailableRecords) {
  Rng rng(3);
  std::vector<uint64_t> counts{3, 1};
  for (int i = 0; i < 1000; ++i) {
    auto s = FrequencyPreservingSample(counts, 0.999, rng);
    EXPECT_LE(s[0], 3u);
    EXPECT_LE(s[1], 1u);
  }
}

TEST(ScaleCountsTest, IntegralFactorIsExact) {
  Rng rng(5);
  std::vector<uint64_t> observed{7, 3};
  EXPECT_EQ(ScaleCounts(observed, 3.0, rng),
            (std::vector<uint64_t>{21, 9}));
}

TEST(ScaleCountsTest, FractionalFactorIsUnbiased) {
  Rng rng(9);
  std::vector<uint64_t> observed{100};
  double total = 0.0;
  const int reps = 20000;
  for (int i = 0; i < reps; ++i) {
    total += double(ScaleCounts(observed, 2.3, rng)[0]);
  }
  EXPECT_NEAR(total / reps, 230.0, 1.0);
}

TEST(SpsCountsTest, SmallGroupBypassesSampling) {
  // A group below s_g is perturbed as-is: output size equals input size.
  auto params = Params(0.3, 0.3, 0.5, 10);
  std::vector<uint64_t> counts(10, 2);  // |g| = 20, far below s_g
  Rng rng(11);
  auto r = SpsPerturbGroupCounts(params, counts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->sampled);
  uint64_t total = 0;
  for (uint64_t c : r->observed) total += c;
  EXPECT_EQ(total, 20u);
}

TEST(SpsCountsTest, LargeGroupIsSampled) {
  auto params = Params(0.3, 0.3, 0.5, 2);
  std::vector<uint64_t> counts{8000, 2000};  // f = 0.8 -> s_g ~ 100
  Rng rng(13);
  auto r = SpsPerturbGroupCounts(params, counts, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->sampled);
  // Sample size ~ s_g.
  const double s_g = MaxGroupSize(params, 0.8);
  EXPECT_NEAR(double(r->sample_size), s_g, 0.15 * s_g + 2.0);
  // Scaled output returns to ~ the original size.
  uint64_t total = 0;
  for (uint64_t c : r->observed) total += c;
  EXPECT_NEAR(double(total), 10000.0, 0.15 * 10000.0);
}

TEST(SpsCountsTest, SampleSizeNeverExceedsThreshold) {
  // Theorem 4 hinges on |g1| <= ~s_g: every perturbed record count in a
  // sampled group stays near the cap across repetitions.
  auto params = Params(0.3, 0.3, 0.5, 2);
  std::vector<uint64_t> counts{5000, 5000};  // f = 0.5
  const double s_g = MaxGroupSize(params, 0.5);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    auto r = *SpsPerturbGroupCounts(params, counts, rng);
    ASSERT_TRUE(r.sampled);
    // Rounding adds at most one record per SA value.
    EXPECT_LE(double(r.sample_size), s_g + 2.0);
  }
}

TEST(SpsCountsTest, EmptyGroup) {
  auto params = Params(0.3, 0.3, 0.5, 3);
  Rng rng(19);
  const std::vector<uint64_t> zero{0, 0, 0};
  auto r = SpsPerturbGroupCounts(params, zero, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->sampled);
  EXPECT_EQ(r->observed, (std::vector<uint64_t>{0, 0, 0}));
}

TEST(SpsCountsTest, ArityValidation) {
  auto params = Params(0.3, 0.3, 0.5, 3);
  Rng rng(1);
  const std::vector<uint64_t> two{1, 2};
  EXPECT_FALSE(SpsPerturbGroupCounts(params, two, rng).ok());
}

TEST(SpsCountsTest, UnbiasedReconstructionAfterSps) {
  // Theorem 5: the MLE from the SPS output is an unbiased estimator of the
  // original frequency, despite sampling and scaling.
  auto params = Params(0.3, 0.3, 0.5, 2);
  const UniformPerturbation up{params.retention_p, params.domain_m};
  std::vector<uint64_t> counts{7000, 3000};
  Rng rng(23);
  const int reps = 4000;
  double sum = 0.0;
  for (int i = 0; i < reps; ++i) {
    auto r = *SpsPerturbGroupCounts(params, counts, rng);
    uint64_t size = r.observed[0] + r.observed[1];
    ASSERT_GT(size, 0u);
    sum += recpriv::perturb::MleFrequency(up, r.observed[0], size);
  }
  // The estimator is noisy per run (only ~s_g random trials), but the mean
  // over runs must converge to f = 0.7.
  EXPECT_NEAR(sum / reps, 0.7, 0.01);
}

SchemaPtr TwoGroupSchema() {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{"G", *Dictionary::FromValues({"a", "b"})});
  attrs.push_back(Attribute{"SA", *Dictionary::FromValues({"s0", "s1"})});
  return std::make_shared<Schema>(*Schema::Make(std::move(attrs), 1));
}

Table TwoGroupTable(uint64_t big, uint64_t small) {
  Table t(TwoGroupSchema());
  // Group "a": 80% s0; group "b": 50% s0.
  for (uint64_t i = 0; i < big; ++i) {
    uint32_t sa = (i % 10) < 8 ? 0 : 1;
    EXPECT_TRUE(t.AppendRow(std::vector<uint32_t>{0, sa}).ok());
  }
  for (uint64_t i = 0; i < small; ++i) {
    EXPECT_TRUE(t.AppendRow(std::vector<uint32_t>{1, uint32_t(i % 2)}).ok());
  }
  return t;
}

TEST(SpsTableTest, PreservesSchemaAndRoughSize) {
  auto params = Params(0.3, 0.3, 0.5, 2);
  Table input = TwoGroupTable(5000, 20);
  Rng rng(29);
  auto r = SpsPerturbTable(params, input, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.schema(), input.schema());
  EXPECT_EQ(r->stats.records_in, 5020u);
  EXPECT_EQ(r->stats.num_groups, 2u);
  EXPECT_EQ(r->stats.groups_sampled, 1u);  // only the big group violates
  EXPECT_NEAR(double(r->table.num_rows()), 5020.0, 0.15 * 5020.0);
}

TEST(SpsTableTest, NaColumnsNeverChange) {
  auto params = Params(0.3, 0.3, 0.5, 2);
  Table input = TwoGroupTable(2000, 100);
  Rng rng(31);
  auto r = *SpsPerturbTable(params, input, rng);
  // Per-group output sizes ~ input sizes; NA codes only from {0,1}.
  FlatGroupIndex out_idx = FlatGroupIndex::Build(r.table);
  EXPECT_EQ(out_idx.num_groups(), 2u);
  for (size_t gi = 0; gi < out_idx.num_groups(); ++gi) {
    EXPECT_LT(out_idx.na_code(gi, 0), 2u);
  }
}

TEST(SpsTableTest, OutputGroupsSatisfyEffectiveTrialCap) {
  // The published group may have |g2*| ~ |g|, but it must be produced from
  // <= s_g independent trials; we can't observe trials directly, so check
  // the stats: records_sampled ~ s_g per sampled group.
  auto params = Params(0.3, 0.3, 0.5, 2);
  Table input = TwoGroupTable(8000, 10);
  Rng rng(37);
  auto r = *SpsPerturbTable(params, input, rng);
  ASSERT_EQ(r.stats.groups_sampled, 1u);
  const double s_g = MaxGroupSize(params, 0.8);
  EXPECT_LE(double(r.stats.records_sampled), s_g + 2.0);
}

TEST(SpsTableTest, CountAndRecordPathsAgreeInDistribution) {
  auto params = Params(0.3, 0.3, 0.5, 2);
  std::vector<uint64_t> counts{4000, 1000};
  Table input(TwoGroupSchema());
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(
        input.AppendRow(std::vector<uint32_t>{0, i < 4000 ? 0u : 1u}).ok());
  }
  Rng rng_counts(41), rng_table(43);
  const int reps = 300;
  double counts_mean = 0.0, table_mean = 0.0;
  for (int i = 0; i < reps; ++i) {
    auto rc = *SpsPerturbGroupCounts(params, counts, rng_counts);
    counts_mean += double(rc.observed[0]);
    auto rt = *SpsPerturbTable(params, input, rng_table);
    uint64_t s0 = 0;
    const auto& sa_col = rt.table.column(1);
    for (uint32_t v : sa_col) s0 += (v == 0);
    table_mean += double(s0);
  }
  counts_mean /= reps;
  table_mean /= reps;
  EXPECT_NEAR(counts_mean, table_mean, 0.04 * counts_mean);
}

TEST(SpsTableTest, DomainMismatchRejected) {
  auto params = Params(0.3, 0.3, 0.5, 7);
  Table input(TwoGroupSchema());
  Rng rng(1);
  EXPECT_FALSE(SpsPerturbTable(params, input, rng).ok());
}

// Fixed-seed byte identity of the record-level release. SPS draws per
// group in NA-lexicographic order and takes per-SA-value prefixes of each
// group's rows, so these digests pin the group order, the within-group row
// order and the draw sequence together. They must never change.

/// XXH64 chained over every output column, schema order.
uint64_t ColumnsDigest(const Table& t) {
  uint64_t h = 0;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const auto& col = t.column(c);
    h = XxHash64(col.data(), col.size() * sizeof(uint32_t), h);
  }
  return h;
}

struct SpsGolden {
  uint64_t digest;     ///< ColumnsDigest of the released table
  uint64_t next_draw;  ///< the RNG's next output after the release
  size_t rows;
  size_t groups_sampled;
};

SpsGolden RunGolden(const Table& input, uint64_t seed) {
  const auto params =
      Params(0.3, 0.3, 0.5, input.schema()->sa_domain_size());
  Rng rng(seed);
  auto r = SpsPerturbTable(params, input, rng);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};
  return SpsGolden{ColumnsDigest(r->table), rng(), r->table.num_rows(),
                   r->stats.groups_sampled};
}

void ExpectGolden(const SpsGolden& got, const SpsGolden& want) {
  EXPECT_EQ(got.digest, want.digest) << std::hex << got.digest;
  EXPECT_EQ(got.next_draw, want.next_draw) << std::hex << got.next_draw;
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.groups_sampled, want.groups_sampled);
}

TEST(SpsGoldenTest, Census20k) {
  // Generalized first (§3.4), as the publish pipeline does: raw CENSUS
  // groups at this size are too small to be sampled.
  Rng gen(20150323);
  recpriv::datagen::CensusConfig config;
  config.num_records = 20000;
  const Table raw = *recpriv::datagen::GenerateCensus(config, gen);
  const Table input = *ApplyGeneralization(*ComputeGeneralization(raw), raw);
  ExpectGolden(RunGolden(input, 7),
               SpsGolden{0x4303233abe05475bULL, 0xbd7688ee4949b90cULL,
                         19987, 2});
}

TEST(SpsGoldenTest, Adult) {
  Rng gen(20150323);
  const Table input =
      *recpriv::datagen::GenerateAdult(recpriv::datagen::AdultConfig{}, gen);
  ExpectGolden(RunGolden(input, 11),
               SpsGolden{0x960cd71707d72fe2ULL, 0x048e0cd13c919546ULL,
                         45206, 85});
}

TEST(SpsGoldenTest, PublicDomainsWiderThan64Bits) {
  // Five public attributes of 20000 values each need 5 x 15 = 75 key bits.
  // Rows draw their keys from 40 fixed tuples so groups are large enough
  // to be sampled.
  std::vector<Attribute> attrs;
  for (int a = 0; a < 5; ++a) {
    Dictionary d;
    for (int v = 0; v < 20000; ++v) {
      d.GetOrAdd(Numbered(Numbered("a", a) + "v", v));
    }
    attrs.push_back(Attribute{Numbered("A", a), std::move(d)});
  }
  attrs.push_back(
      Attribute{"SA", *Dictionary::FromValues({"s0", "s1", "s2", "s3"})});
  auto schema = std::make_shared<Schema>(*Schema::Make(std::move(attrs), 5));

  Rng gen(20150323);
  std::vector<std::vector<uint32_t>> keys(40, std::vector<uint32_t>(5));
  for (auto& key : keys) {
    for (auto& code : key) code = uint32_t(gen.NextUint64(20000));
  }
  Table input(schema);
  std::vector<uint32_t> row(6);
  for (int r = 0; r < 6000; ++r) {
    const auto& key = keys[gen.NextUint64(keys.size())];
    std::copy(key.begin(), key.end(), row.begin());
    // Skewed SA so some groups exceed s_g.
    row[5] = gen.NextBernoulli(0.7) ? 0u : uint32_t(gen.NextUint64(4));
    input.AppendRowUnchecked(row);
  }
  ExpectGolden(RunGolden(input, 13),
               SpsGolden{0x81db60c5b9a23ec1ULL, 0xd75897b748cadadbULL,
                         5949, 40});
}

struct SpsGridCase {
  double lambda, delta, p;
};

class SpsPrivacyGridTest : public ::testing::TestWithParam<SpsGridCase> {};

/// Property: for every parameter setting, the effective sample of a
/// violating group stays within the Eq. (10) cap, which is exactly the
/// condition for (lambda,delta)-reconstruction-privacy of g1* (Theorem 4).
TEST_P(SpsPrivacyGridTest, SampleCapHolds) {
  const auto [lambda, delta, p] = GetParam();
  auto params = Params(lambda, delta, p, 2);
  std::vector<uint64_t> counts{6000, 4000};
  const double f = 0.6;
  const double s_g = MaxGroupSize(params, f);
  Rng rng(uint64_t(lambda * 100) ^ uint64_t(delta * 1000) ^ uint64_t(p * 7));
  for (int i = 0; i < 50; ++i) {
    auto r = *SpsPerturbGroupCounts(params, counts, rng);
    if (10000.0 <= s_g) {
      EXPECT_FALSE(r.sampled);
    } else {
      EXPECT_TRUE(r.sampled);
      EXPECT_LE(double(r.sample_size), s_g + 2.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpsPrivacyGridTest,
    ::testing::Values(SpsGridCase{0.1, 0.3, 0.5}, SpsGridCase{0.2, 0.3, 0.5},
                      SpsGridCase{0.3, 0.3, 0.5}, SpsGridCase{0.5, 0.3, 0.5},
                      SpsGridCase{0.3, 0.1, 0.5}, SpsGridCase{0.3, 0.5, 0.5},
                      SpsGridCase{0.3, 0.3, 0.1}, SpsGridCase{0.3, 0.3, 0.9}));

}  // namespace
}  // namespace recpriv::core
