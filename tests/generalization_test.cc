// Tests for chi-squared value generalization (paper §3.4): recovery of the
// effective-class partition, table rewriting, and predicate mapping.

#include "core/generalization.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/simple.h"
#include "table/flat_group_index.h"

namespace recpriv::core {
namespace {

using recpriv::datagen::GroupSpec;
using recpriv::datagen::SimpleDatasetSpec;
using recpriv::table::FlatGroupIndex;
using recpriv::table::Predicate;
using recpriv::table::Table;

/// A dataset where Job values {eng, dev} share one disease distribution and
/// {law} has a different one; City is independent of Disease.
SimpleDatasetSpec MakeSpec() {
  SimpleDatasetSpec spec;
  spec.public_attributes = {"Job", "City"};
  spec.sensitive_attribute = "Disease";
  spec.sa_domain = {"flu", "hiv", "bc"};
  const std::vector<double> tech{70, 20, 10};
  const std::vector<double> legal{20, 30, 50};
  for (const char* city : {"north", "south"}) {
    spec.groups.push_back(GroupSpec{{"eng", city}, 2000, tech});
    spec.groups.push_back(GroupSpec{{"dev", city}, 1500, tech});
    spec.groups.push_back(GroupSpec{{"law", city}, 1800, legal});
  }
  return spec;
}

TEST(GeneralizationTest, RecoversEffectiveClasses) {
  Table t = *recpriv::datagen::GenerateSimpleExact(MakeSpec());
  auto plan = ComputeGeneralization(t);
  ASSERT_TRUE(plan.ok());
  // Job: {eng, dev} merge, {law} stays -> 2 generalized values.
  EXPECT_EQ(plan->merges[0].domain_before, 3u);
  EXPECT_EQ(plan->merges[0].domain_after, 2u);
  EXPECT_EQ(plan->MapCode(0, 0), plan->MapCode(0, 1));  // eng ~ dev
  EXPECT_NE(plan->MapCode(0, 0), plan->MapCode(0, 2));  // eng !~ law
  // City is independent of Disease -> collapses to 1.
  EXPECT_EQ(plan->merges[1].domain_after, 1u);
  // SA identity.
  EXPECT_EQ(plan->merges[2].domain_after, 3u);
  for (uint32_t v = 0; v < 3; ++v) EXPECT_EQ(plan->MapCode(2, v), v);
}

TEST(GeneralizationTest, MergedNamesJoinMembers) {
  Table t = *recpriv::datagen::GenerateSimpleExact(MakeSpec());
  auto plan = *ComputeGeneralization(t);
  const auto& names = plan.merges[0].merged_names;
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "eng|dev");
  EXPECT_EQ(names[1], "law");
}

TEST(GeneralizationTest, ApplyRewritesGroups) {
  Table t = *recpriv::datagen::GenerateSimpleExact(MakeSpec());
  auto plan = *ComputeGeneralization(t);
  auto gen = ApplyGeneralization(plan, t);
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen->num_rows(), t.num_rows());
  // Personal groups: 2 job classes x 1 city class = 2.
  FlatGroupIndex idx = FlatGroupIndex::Build(*gen);
  EXPECT_EQ(idx.num_groups(), 2u);
  // SA histogram unchanged globally.
  EXPECT_EQ(gen->SaHistogram(), t.SaHistogram());
}

TEST(GeneralizationTest, ApplyPreservesRowAssociation) {
  Table t = *recpriv::datagen::GenerateSimpleExact(MakeSpec());
  auto plan = *ComputeGeneralization(t);
  auto gen = *ApplyGeneralization(plan, t);
  for (size_t r = 0; r < t.num_rows(); r += 997) {
    EXPECT_EQ(gen.at(r, 0), plan.MapCode(0, t.at(r, 0)));
    EXPECT_EQ(gen.at(r, 2), t.at(r, 2));  // SA codes identical
  }
}

TEST(GeneralizationTest, MapPredicateFollowsMerges) {
  Table t = *recpriv::datagen::GenerateSimpleExact(MakeSpec());
  auto plan = *ComputeGeneralization(t);
  Predicate p(3);
  p.Bind(0, 1);  // Job = dev
  p.Bind(1, 1);  // City = south
  auto mapped = MapPredicate(plan, p);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped->code(0), plan.MapCode(0, 1));
  EXPECT_EQ(mapped->code(1), 0u);  // all cities -> single class
  EXPECT_FALSE(mapped->is_bound(2));
}

TEST(GeneralizationTest, MapPredicateValidation) {
  Table t = *recpriv::datagen::GenerateSimpleExact(MakeSpec());
  auto plan = *ComputeGeneralization(t);
  Predicate wrong_arity(2);
  EXPECT_FALSE(MapPredicate(plan, wrong_arity).ok());
  Predicate out_of_domain(3);
  out_of_domain.Bind(0, 99);
  EXPECT_FALSE(MapPredicate(plan, out_of_domain).ok());
}

TEST(GeneralizationTest, UnseenValuesStaySingleton) {
  // Add a Job value to the dictionary that never occurs in the data.
  SimpleDatasetSpec spec = MakeSpec();
  Table t = *recpriv::datagen::GenerateSimpleExact(spec);
  t.schema()->attribute(0).domain.GetOrAdd("ghost");
  auto plan = *ComputeGeneralization(t);
  EXPECT_EQ(plan.merges[0].domain_before, 4u);
  // ghost forms its own generalized value; eng/dev still merge.
  EXPECT_EQ(plan.merges[0].domain_after, 3u);
  EXPECT_EQ(plan.MapCode(0, 0), plan.MapCode(0, 1));
}

TEST(GeneralizationTest, SignificanceOptionChangesSensitivity) {
  // With significance near 1 the critical value is close to 0, so any
  // sampling noise separates values: nothing merges. Use the *sampled*
  // generator — the exact-apportionment builder produces perfectly
  // proportional histograms whose statistic is identically zero.
  Rng rng(99);
  Table t = *recpriv::datagen::GenerateSimple(MakeSpec(), rng);
  GeneralizationOptions strict;
  strict.significance = 0.999;
  auto plan = *ComputeGeneralization(t, strict);
  EXPECT_EQ(plan.merges[0].domain_after, 3u);  // no Job merges
  EXPECT_EQ(plan.merges[1].domain_after, 2u);  // no City merges
}

TEST(GeneralizationTest, GeneralizedGroupsHaveDistinctImpact) {
  // After generalization, re-running the procedure on the generalized
  // table must be a fixpoint (no further merging).
  Table t = *recpriv::datagen::GenerateSimpleExact(MakeSpec());
  auto plan = *ComputeGeneralization(t);
  auto gen = *ApplyGeneralization(plan, t);
  auto plan2 = *ComputeGeneralization(gen);
  for (size_t a = 0; a < plan2.merges.size(); ++a) {
    EXPECT_EQ(plan2.merges[a].domain_after, plan2.merges[a].domain_before)
        << "attribute " << a << " merged again";
  }
}

}  // namespace
}  // namespace recpriv::core
