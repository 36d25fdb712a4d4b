// bench_e2e: the served-path end-to-end benchmark (README.md).
//
//   bench_e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
//             [--quick] [--self-check] [--out DIR]
//             [--benchmark BENCHMARK.json]
//   bench_e2e --compare A B [--benchmark BENCHMARK.json]
//
// A run prints `workload metric value unit` lines, writes one JSON record
// (plus a spans file beside it for a traced run) under --out, and ends its
// standard output with one JSON line: correct, attempted, failed, and the
// metrics BENCHMARK.json declares for the mode (end_to_end untraced,
// per_layer traced). It exits 1 when any answer fails verification.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>

#include "common/flags.h"
#include "common/json.h"
#include "compare.h"
#include "table/simd/dispatch.h"
#include "trace.h"
#include "workloads.h"

namespace recpriv::e2e {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kMeasurementSeed = 20150323;
constexpr size_t kFullRows = 300000;
constexpr size_t kQuickRows = 20000;
/// Spans of at most this many requests are written out; the metrics use all.
constexpr size_t kMaxDumpedRequests = 10000;

JsonValue MetricsJson(const Metrics& metrics) {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, m] : metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(m.value));
    entry.Set("unit", JsonValue::String(m.unit));
    entry.Set("better", JsonValue::String(m.better));
    entry.Set("samples", JsonValue::Uint(m.samples));
    out.Set(name, std::move(entry));
  }
  return out;
}

JsonValue Strings(const std::vector<std::string>& v) {
  JsonValue out = JsonValue::Array();
  for (const std::string& s : v) out.Append(JsonValue::String(s));
  return out;
}

JsonValue HostJson() {
  JsonValue host = JsonValue::Object();
  host.Set("nproc",
           JsonValue::Int(int64_t(std::thread::hardware_concurrency())));
  host.Set("simd", JsonValue::String(table::simd::LevelName(
                       table::simd::ActiveLevel())));
  host.Set("compiler", JsonValue::String(__VERSION__));
  host.Set("build_type", JsonValue::String(RECPRIV_E2E_BUILD_TYPE));
  return host;
}

int Fail(const std::string& message) {
  std::cerr << "bench_e2e: " << message << "\n";
  return 2;
}

int Main(int argc, char** argv) {
  auto flags = FlagSet::Parse(argc, argv, {"self-check", "compare", "quick"});
  if (!flags.ok()) return Fail(flags.status().ToString());
  const std::string benchmark = flags->GetString("benchmark", "BENCHMARK.json");
  if (*flags->GetBool("compare", false)) {
    if (flags->positional().size() != 2) return Fail("--compare takes A B");
    return RunCompare(flags->positional()[0], flags->positional()[1],
                      benchmark, std::cout);
  }

  RunOptions options;
  options.workload = flags->GetString("workload");
  auto seed = flags->GetInt("seed", int64_t(kMeasurementSeed));
  auto seconds = flags->GetDouble("seconds", 20.0);
  auto trace = flags->GetInt("trace", 0);
  auto quick = flags->GetBool("quick", false);
  if (!seed.ok() || !seconds.ok() || !trace.ok() || !quick.ok()) {
    return Fail("bad --seed/--seconds/--trace/--quick");
  }
  if (*seconds <= 0.0 || *trace < 0 || *trace > 1 || *seed < 0) {
    return Fail("--seed must be >= 0, --seconds > 0, --trace 0 or 1");
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return Fail("--workload must be one of hot_point, cold_scan, "
                "republish_churn, restart_recover");
  }
  options.seed = uint64_t(*seed);
  options.seconds = *seconds;
  options.trace = *trace == 1;
  options.rows = *quick ? kQuickRows : kFullRows;
  options.self_check = *flags->GetBool("self-check", false);
  const std::string out_dir = flags->GetString("out", "build-e2e/records");
  options.work_dir = "build-e2e/work/" + options.workload + "-" +
                     std::to_string(::getpid());

  // The metric names this mode must report, when BENCHMARK.json is here.
  std::set<std::string> declared;
  const bool have_declaration = fs::exists(benchmark);
  if (have_declaration) {
    auto specs = LoadMetricSpecs(benchmark,
                                 options.trace ? "per_layer" : "end_to_end");
    if (!specs.ok()) return Fail(specs.status().ToString());
    for (const auto& [name, _] : *specs) declared.insert(name);
  }

  for (const std::string& dir : {options.work_dir, out_dir}) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) return Fail("cannot create " + dir + ": " + ec.message());
  }

  auto run = RunWorkload(options);
  std::error_code ec;
  fs::remove_all(options.work_dir, ec);
  if (!run.ok()) return Fail(run.status().ToString());
  RunResult& result = *run;

  const Metrics& reported = options.trace ? result.layer : result.e2e;
  Metrics declared_metrics;
  for (const auto& [name, m] : reported) {
    if (!std::isfinite(m.value)) {
      result.problems.push_back("metric " + name + " is not finite");
    } else if (!have_declaration || declared.count(name) > 0) {
      declared_metrics[name] = m;
    }
  }
  for (const std::string& name : declared) {
    if (declared_metrics.count(name) == 0) {
      result.problems.push_back("declared metric " + name +
                                " was not measured");
    }
  }
  const bool correct = result.problems.empty();
  const bool valid = result.invalid.empty();

  // The record.
  const std::string stem =
      out_dir + "/" + options.workload + "-s" + std::to_string(options.seed) +
      (options.trace ? "-trace-" : "-e2e-") +
      std::to_string(std::chrono::system_clock::now().time_since_epoch() /
                     std::chrono::milliseconds(1)) +
      "-" + std::to_string(::getpid());
  JsonValue record = JsonValue::Object();
  record.Set("bench", JsonValue::String("bench_e2e"));
  record.Set("workload", JsonValue::String(options.workload));
  record.Set("seed", JsonValue::Uint(options.seed));
  record.Set("trace", JsonValue::Bool(options.trace));
  record.Set("self_check", JsonValue::Bool(options.self_check));
  record.Set("config", std::move(result.config));
  record.Set("host", HostJson());
  record.Set("metrics", MetricsJson(declared_metrics));
  record.Set("extra", MetricsJson(result.extra));
  record.Set("valid", JsonValue::Bool(valid));
  record.Set("invalid", Strings(result.invalid));
  record.Set("correct", JsonValue::Bool(correct));
  record.Set("problems", Strings(result.problems));
  record.Set("attempted", JsonValue::Uint(result.attempted));
  record.Set("failed", JsonValue::Uint(result.failed));
  {
    std::ofstream out(stem + ".json");
    out << record.ToString(2) << "\n";
    if (!out) return Fail("cannot write " + stem + ".json");
  }
  if (options.trace) {
    const Status dumped =
        DumpSpans(result.spans, kMaxDumpedRequests, stem + ".spans.jsonl");
    if (!dumped.ok()) return Fail(dumped.ToString());
  }

  for (const std::string& p : result.problems) {
    std::cerr << "CORRECTNESS: " << p << "\n";
  }
  for (const std::string& why : result.invalid) {
    std::cerr << "INVALID: " << why << "\n";
  }
  for (const Metrics* metrics : {&declared_metrics, &result.extra}) {
    for (const auto& [name, m] : *metrics) {
      std::printf("%s %s %.6g %s\n", options.workload.c_str(), name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  std::printf("record %s.json\n", stem.c_str());

  JsonValue line = JsonValue::Object();
  line.Set("correct", JsonValue::Bool(correct));
  line.Set("attempted", JsonValue::Uint(result.attempted));
  line.Set("failed", JsonValue::Uint(result.failed));
  JsonValue metrics = JsonValue::Object();
  for (const auto& [name, m] : declared_metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(m.value));
    entry.Set("unit", JsonValue::String(m.unit));
    metrics.Set(name, std::move(entry));
  }
  line.Set("metrics", std::move(metrics));
  std::printf("%s\n", line.ToString().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace recpriv::e2e

int main(int argc, char** argv) { return recpriv::e2e::Main(argc, argv); }
