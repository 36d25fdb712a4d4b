// Tests for the violation audit (v_g / v_r of Figures 2 & 4).

#include "core/violation.h"

#include <gtest/gtest.h>

#include <memory>

#include "table/schema.h"

namespace recpriv::core {
namespace {

using recpriv::table::Attribute;
using recpriv::table::Dictionary;
using recpriv::table::FlatGroupIndex;
using recpriv::table::Schema;
using recpriv::table::Table;

PrivacyParams Params(double lambda, double delta, double p, size_t m) {
  PrivacyParams params;
  params.lambda = lambda;
  params.delta = delta;
  params.retention_p = p;
  params.domain_m = m;
  return params;
}

TEST(ViolationTest, ProfileOverloadCountsCorrectly) {
  auto params = Params(0.3, 0.3, 0.5, 2);
  const double s = MaxGroupSize(params, 0.8);
  std::vector<std::pair<uint64_t, double>> profiles{
      {uint64_t(s) - 1, 0.8},   // private
      {uint64_t(s) + 10, 0.8},  // violating
      {uint64_t(s) + 50, 0.8},  // violating
  };
  ViolationReport r = AuditViolations(profiles, params);
  EXPECT_EQ(r.num_groups, 3u);
  EXPECT_EQ(r.violating_groups, 2u);
  EXPECT_EQ(r.violating_group_ids, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(r.violating_records, uint64_t(s) + 10 + uint64_t(s) + 50);
  EXPECT_NEAR(r.GroupViolationRate(), 2.0 / 3.0, 1e-12);
  const double total = 3 * uint64_t(s) + 59;
  EXPECT_NEAR(r.RecordViolationRate(), double(r.violating_records) / total,
              1e-12);
}

TEST(ViolationTest, EmptyAudit) {
  ViolationReport r = AuditViolations(
      std::vector<std::pair<uint64_t, double>>{}, Params(0.3, 0.3, 0.5, 2));
  EXPECT_EQ(r.GroupViolationRate(), 0.0);
  EXPECT_EQ(r.RecordViolationRate(), 0.0);
}

TEST(ViolationTest, IndexOverloadMatchesProfiles) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{"G", *Dictionary::FromValues({"a", "b", "c"})});
  attrs.push_back(Attribute{"SA", *Dictionary::FromValues({"s0", "s1"})});
  auto schema =
      std::make_shared<Schema>(*Schema::Make(std::move(attrs), 1));
  Table t(schema);
  // Group a: 500 records, 90% s0 (violates at defaults).
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        t.AppendRow(std::vector<uint32_t>{0, (i % 10) < 9 ? 0u : 1u}).ok());
  }
  // Group b: 30 records, 50/50 (private).
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(t.AppendRow(std::vector<uint32_t>{1, uint32_t(i % 2)}).ok());
  }
  // Group c: 4000 records, 60/40 (violates).
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(
        t.AppendRow(std::vector<uint32_t>{2, (i % 10) < 6 ? 0u : 1u}).ok());
  }
  FlatGroupIndex idx = FlatGroupIndex::Build(t);
  auto params = Params(0.3, 0.3, 0.5, 2);
  ViolationReport r = AuditViolations(idx, params);
  EXPECT_EQ(r.num_groups, 3u);
  EXPECT_EQ(r.num_records, 4530u);
  EXPECT_EQ(r.violating_groups, 2u);
  EXPECT_EQ(r.violating_records, 4500u);

  // Cross-check against the profile-based overload.
  std::vector<std::pair<uint64_t, double>> profiles;
  for (size_t gi = 0; gi < idx.num_groups(); ++gi) {
    profiles.emplace_back(idx.group_size(gi), idx.MaxFrequency(gi));
  }
  ViolationReport r2 = AuditViolations(profiles, params);
  EXPECT_EQ(r2.violating_groups, r.violating_groups);
  EXPECT_EQ(r2.violating_records, r.violating_records);
}

TEST(ViolationTest, StricterParametersViolateMore) {
  // Larger lambda or delta shrink s_g, so violations can only grow.
  std::vector<std::pair<uint64_t, double>> profiles;
  for (uint64_t size : {20, 50, 100, 300, 800, 2000}) {
    profiles.emplace_back(size, 0.6);
  }
  auto loose = AuditViolations(profiles, Params(0.1, 0.1, 0.5, 2));
  auto tight = AuditViolations(profiles, Params(0.5, 0.5, 0.5, 2));
  EXPECT_GE(tight.violating_groups, loose.violating_groups);
}

}  // namespace
}  // namespace recpriv::core
