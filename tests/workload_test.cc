// The workload subsystem's own contract: scenario specs round-trip through
// JSON, generation is a pure function of the spec (byte-identical streams
// and record files), record/replay reproduces the exact op streams, and
// the driver runs every builtin shape answer-clean — zero oracle
// mismatches — in-process and over TCP, with churn surfacing only the legal
// error taxonomy.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "table/flat_group_index.h"
#include "testing_util.h"
#include "workload/driver.h"
#include "workload/generator.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace recpriv::workload {
namespace {

/// A deliberately small scenario for fast driver runs.
ScenarioSpec SmallScenario(uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "small";
  spec.seed = seed;
  for (size_t i = 0; i < 2; ++i) {
    SyntheticReleaseSpec r;
    r.name = "r" + std::to_string(i);
    r.data_seed = seed + i;
    r.records = 600;
    r.public_domains = {3, 4};
    r.sa_domain = 3;
    spec.releases.push_back(std::move(r));
  }
  spec.clients = 3;
  spec.ops_per_client = 15;
  spec.queries_per_request = 2;
  return spec;
}

std::string FileContents(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(WorkloadScenarioTest, JsonRoundTripIsLossless) {
  auto spec = BuiltinScenario("republish_churn", 77);
  ASSERT_TRUE(spec.ok());
  const std::string once = ScenarioToJson(*spec).ToString(2);
  auto parsed = ScenarioFromJson(ScenarioToJson(*spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(ScenarioToJson(*parsed).ToString(2), once);
}

TEST(WorkloadScenarioTest, SaveLoadRoundTrips) {
  auto spec = BuiltinScenario("hot_release_zipf", 5);
  ASSERT_TRUE(spec.ok());
  const std::string path = TempPath("scenario.json");
  ASSERT_TRUE(SaveScenario(*spec, path).ok());
  auto loaded = LoadScenario(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(ScenarioToJson(*loaded).ToString(),
            ScenarioToJson(*spec).ToString());
  std::remove(path.c_str());
}

TEST(WorkloadScenarioTest, UnknownProfileIsNotFound) {
  auto spec = BuiltinScenario("no_such_profile");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
}

TEST(WorkloadGeneratorTest, GenerationIsDeterministic) {
  auto spec = BuiltinScenario("republish_churn", 123);
  ASSERT_TRUE(spec.ok());
  auto a = GenerateWorkload(*spec);
  auto b = GenerateWorkload(*spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const std::string path_a = TempPath("workload_a.jsonl");
  const std::string path_b = TempPath("workload_b.jsonl");
  ASSERT_TRUE(WriteWorkload(*a, path_a).ok());
  ASSERT_TRUE(WriteWorkload(*b, path_b).ok());
  const std::string bytes = FileContents(path_a);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, FileContents(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(WorkloadGeneratorTest, DifferentSeedsDiverge) {
  auto a = GenerateWorkload(*BuiltinScenario("steady_uniform", 1));
  auto b = GenerateWorkload(*BuiltinScenario("steady_uniform", 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const std::string path_a = TempPath("seed_a.jsonl");
  const std::string path_b = TempPath("seed_b.jsonl");
  ASSERT_TRUE(WriteWorkload(*a, path_a).ok());
  ASSERT_TRUE(WriteWorkload(*b, path_b).ok());
  EXPECT_NE(FileContents(path_a), FileContents(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(WorkloadGeneratorTest, RecordReplayReproducesTheStreams) {
  auto spec = BuiltinScenario("republish_churn", 9);
  ASSERT_TRUE(spec.ok());
  auto generated = GenerateWorkload(*spec);
  ASSERT_TRUE(generated.ok());
  const std::string path = TempPath("replay.jsonl");
  ASSERT_TRUE(WriteWorkload(*generated, path).ok());
  auto replayed = ReadWorkload(path);
  ASSERT_TRUE(replayed.ok()) << replayed.status();

  // Round-tripping the replayed workload yields the same bytes: the op
  // streams survived intact, writer stream included.
  const std::string path2 = TempPath("replay2.jsonl");
  ASSERT_TRUE(WriteWorkload(*replayed, path2).ok());
  EXPECT_EQ(FileContents(path), FileContents(path2));
  EXPECT_EQ(replayed->writer_ops.size(), spec->churn.writer_ops);

  // Publish seeds must survive against the IN-MEMORY originals, not just
  // read->write idempotence: a seed that rounded through the JSON number
  // representation would make the replay republish different data than
  // the live run that produced the recording.
  ASSERT_EQ(replayed->writer_ops.size(), generated->writer_ops.size());
  for (size_t i = 0; i < generated->writer_ops.size(); ++i) {
    EXPECT_EQ(replayed->writer_ops[i].publish_seed,
              generated->writer_ops[i].publish_seed)
        << "writer op " << i;
  }
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(WorkloadGeneratorTest, BuiltinProfilesAllGenerate) {
  for (const std::string& name : BuiltinScenarioNames()) {
    auto spec = BuiltinScenario(name, 3);
    ASSERT_TRUE(spec.ok()) << name;
    auto generated = GenerateWorkload(*spec);
    ASSERT_TRUE(generated.ok()) << name;
    EXPECT_EQ(generated->client_ops.size(), spec->clients) << name;
    for (size_t c = 0; c < generated->client_ops.size(); ++c) {
      // Abusive clients (qos.abusive_clients leading streams) run at the
      // declared multiplier; everyone else at ops_per_client exactly.
      const size_t expected = c < spec->qos.abusive_clients
                                  ? spec->ops_per_client *
                                        spec->qos.abusive_ops_multiplier
                                  : spec->ops_per_client;
      EXPECT_EQ(generated->client_ops[c].size(), expected)
          << name << " client " << c;
    }
  }
}

TEST(WorkloadSyntheticTest, RawTableIsDeterministicAndShaped) {
  SyntheticReleaseSpec spec;
  spec.records = 500;
  spec.public_domains = {3, 5};
  spec.sa_domain = 4;
  auto a = MakeRawTable(spec);
  auto b = MakeRawTable(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_rows(), 500u);
  ASSERT_EQ(a->num_columns(), 3u);
  for (size_t col = 0; col < a->num_columns(); ++col) {
    EXPECT_EQ(a->column(col), b->column(col)) << "column " << col;
  }
  // Groups genuinely differ in SA mix (the rotation in MakeRawTable).
  const auto index = table::FlatGroupIndex::Build(*a);
  EXPECT_GT(index.num_groups(), 1u);
}

TEST(WorkloadSyntheticTest, RepublishKeepsDataChangesNoise) {
  SyntheticReleaseSpec spec;
  spec.records = 400;
  auto bundle_a = MakeBundle(spec, /*perturb_seed=*/1);
  auto bundle_b = MakeBundle(spec, /*perturb_seed=*/2);
  ASSERT_TRUE(bundle_a.ok());
  ASSERT_TRUE(bundle_b.ok());
  // Same NA data...
  for (size_t col = 0; col + 1 < bundle_a->data.num_columns(); ++col) {
    EXPECT_EQ(bundle_a->data.column(col), bundle_b->data.column(col));
  }
  // ...different perturbed SA columns (400 records: a collision of the
  // whole column across seeds is practically impossible).
  EXPECT_NE(bundle_a->data.column(bundle_a->data.num_columns() - 1),
            bundle_b->data.column(bundle_b->data.num_columns() - 1));
}

TEST(WorkloadDriverTest, SteadyScenarioRunsAnswerClean) {
  DriverOptions options;
  options.engine.num_threads = 2;
  auto report = RunScenario(SmallScenario(11), options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->mismatches, 0u);
  EXPECT_EQ(report->unknown_epochs, 0u);
  EXPECT_EQ(report->hard_failures, 0u);
  EXPECT_EQ(report->requests, 3u * 15u);
  EXPECT_EQ(report->queries, 3u * 15u * 2u);
  // No churn: every request verified, no error responses at all.
  EXPECT_EQ(report->verified, report->requests);
  EXPECT_TRUE(report->errors.empty());
  EXPECT_EQ(report->publishes, 2u);
}

TEST(WorkloadDriverTest, ReplayedWorkloadRunsIdentically) {
  const ScenarioSpec spec = SmallScenario(13);
  DriverOptions options;
  options.engine.num_threads = 2;
  const std::string path = TempPath("driver_replay.jsonl");
  auto direct = RunScenario(spec, options, path);
  ASSERT_TRUE(direct.ok()) << direct.status();
  auto workload = ReadWorkload(path);
  ASSERT_TRUE(workload.ok());
  auto replayed = RunWorkload(*workload, options);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->requests, direct->requests);
  EXPECT_EQ(replayed->verified, direct->verified);
  EXPECT_EQ(replayed->mismatches, 0u);
  std::remove(path.c_str());
}

TEST(WorkloadDriverTest, ChurnSurfacesOnlyTheLegalErrorTaxonomy) {
  auto spec = BuiltinScenario("republish_churn", 21);
  ASSERT_TRUE(spec.ok());
  // Shrink for test runtime; keep the churn character.
  spec->ops_per_client = 25;
  spec->churn.writer_ops = 15;
  spec->churn.pacing_us = 200;
  DriverOptions options;
  options.engine.num_threads = 2;
  auto report = RunScenario(*spec, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->mismatches, 0u)
      << (report->mismatch_details.empty() ? std::string()
                                           : report->mismatch_details[0]);
  EXPECT_EQ(report->unknown_epochs, 0u);
  EXPECT_EQ(report->hard_failures, 0u);
  for (const auto& [code, count] : report->errors) {
    EXPECT_TRUE(code == "NOT_FOUND" || code == "STALE_EPOCH")
        << code << "=" << count;
  }
  EXPECT_GT(report->publishes, 2u);
}

TEST(WorkloadDriverTest, TcpDriverRunsAnswerClean) {
  DriverOptions options;
  options.engine.num_threads = 2;
  options.over_tcp = true;
  auto report = RunScenario(SmallScenario(17), options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->mismatches, 0u);
  EXPECT_EQ(report->hard_failures, 0u);
  EXPECT_EQ(report->verified, report->requests);
}

TEST(WorkloadDriverTest, BurstSameReleaseDriverRunsAnswerClean) {
  auto spec = BuiltinScenario("burst_same_release", 29);
  ASSERT_TRUE(spec.ok());
  spec->ops_per_client = 30;
  DriverOptions options;
  options.engine.num_threads = 2;
  auto report = RunScenario(*spec, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->mismatches, 0u);
  EXPECT_EQ(report->hard_failures, 0u);
  EXPECT_EQ(report->verified, report->requests);
}

}  // namespace
}  // namespace recpriv::workload
