// recpriv_workload — the deterministic workload runner: expands a scenario
// (builtin profile or JSON file) into seeded per-client op streams, drives
// them against a live serving stack (in-process clients or a real loopback
// TCP server), verifies every answer against the oracle, and reports
// throughput and the error-code histogram.
//
//   recpriv_workload --profile burst_same_release
//   recpriv_workload --profile republish_churn --tcp --record run.jsonl
//   recpriv_workload --replay run.jsonl
//   recpriv_workload --print-profile steady_uniform > my_scenario.json
//   recpriv_workload --scenario my_scenario.json
//
// Exit status is 0 only when the run had no oracle mismatches, no unknown
// epochs, and no transport failures — so a workload run is a CI check, not
// just a load generator.

#include <fstream>
#include <iostream>
#include <set>

#include "recpriv.h"

namespace {

using namespace recpriv;  // NOLINT

constexpr const char* kUsage = R"(usage: recpriv_workload [options]

scenario source (exactly one):
  --profile NAME        run a builtin profile (see --list-profiles)
  --scenario FILE       run a scenario JSON file (recpriv_scenario/v1)
  --replay FILE         re-run a workload recorded with --record
  --print-profile NAME  write a builtin profile's scenario JSON to stdout
  --list-profiles       list builtin profile names

options:
  --seed N              reseed the profile/scenario          [default 2015]
  --tcp                 drive readers through a loopback TCP server
  --no-verify           skip oracle verification of answers
  --record FILE         write the generated op streams (JSONL) before running
  --threads N           engine worker threads                [default: cores]
  --cache N             answer-cache capacity                [default 65536]
  --retain N            retained epochs per release          [default 4]
  --snapshot-dir DIR    run against a persistent snapshot store: recover
                        any .rps snapshots in DIR first, persist every
                        publish there (the recpriv_serve restart path)
  --incremental-delta N republish incrementally: every writer publish
                        inserts N fresh raw rows and republishes by delta
                        merge (store PublishIncremental), verified against
                        an independently rebuilt index; 0 = legacy
                        full-perturb republish                [default 0]
  --full-rebuild        with --incremental-delta: build each republished
                        index by the full radix-sort reference path
                        instead of the run merge (bit-identical answers —
                        CI compares the two)
  --quota-qps X         per-tenant admission quota (queries/s); 0 = off
                        (over quota: RESOURCE_EXHAUSTED)      [default 0]
  --quota-burst X       token-bucket burst; 0 = max(qps, 1)   [default 0]
  --deadline-ms N       attach an N ms deadline to every request; work
                        past it is shed DEADLINE_EXCEEDED     [default 0]
  --faults RATE         inject seeded transport faults: each fault kind
                        (drop, disconnect, truncate, short write, delay)
                        fires independently with probability RATE per
                        request; pair with --retry to stay answer-clean
  --fault-seed N        seed of the fault schedule            [default 2015]
  --retry               wrap every reader in bounded retry with seeded
                        exponential backoff (reconnects dead transports)
  --max-retries N       retry budget per request              [default 3]
  --json FILE           write the run report as JSON
  --help                print this help and exit
)";

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 2;
}

JsonValue ReportToJson(const workload::DriverReport& report) {
  JsonValue out = JsonValue::Object();
  out.Set("schema", JsonValue::String("recpriv_workload_report/v1"));
  out.Set("requests", JsonValue::Int(int64_t(report.requests)));
  out.Set("queries", JsonValue::Int(int64_t(report.queries)));
  out.Set("publishes", JsonValue::Int(int64_t(report.publishes)));
  out.Set("drops", JsonValue::Int(int64_t(report.drops)));
  out.Set("verified", JsonValue::Int(int64_t(report.verified)));
  out.Set("mismatches", JsonValue::Int(int64_t(report.mismatches)));
  out.Set("unknown_epochs", JsonValue::Int(int64_t(report.unknown_epochs)));
  out.Set("hard_failures", JsonValue::Int(int64_t(report.hard_failures)));
  JsonValue errors = JsonValue::Object();
  for (const auto& [code, count] : report.errors) {
    errors.Set(code, JsonValue::Int(int64_t(count)));
  }
  out.Set("errors", std::move(errors));
  out.Set("elapsed_seconds", JsonValue::Number(report.elapsed_seconds));
  out.Set("requests_per_second",
          JsonValue::Number(report.requests_per_second));
  out.Set("queries_per_second", JsonValue::Number(report.queries_per_second));
  if (report.tenants.has_value()) {
    // The wire codec's encoder, so the report section and the protocol's
    // stats section can never drift apart.
    out.Set("tenants", serve::wire::EncodeTenantStats(*report.tenants));
  }
  if (!report.tenant_latency.empty()) {
    JsonValue latency = JsonValue::Object();
    for (const auto& [tenant, lat] : report.tenant_latency) {
      JsonValue entry = JsonValue::Object();
      entry.Set("requests", JsonValue::Int(int64_t(lat.requests)));
      entry.Set("errors", JsonValue::Int(int64_t(lat.errors)));
      entry.Set("p50_ms", JsonValue::Number(lat.p50_ms));
      entry.Set("p99_ms", JsonValue::Number(lat.p99_ms));
      entry.Set("max_ms", JsonValue::Number(lat.max_ms));
      // "" is the wire's implicit default tenant; name it for readability.
      latency.Set(tenant.empty() ? "(default)" : tenant, std::move(entry));
    }
    out.Set("tenant_latency", std::move(latency));
  }
  if (report.retry.has_value()) {
    JsonValue retry = JsonValue::Object();
    retry.Set("attempts", JsonValue::Int(int64_t(report.retry->attempts)));
    retry.Set("retries", JsonValue::Int(int64_t(report.retry->retries)));
    retry.Set("retried_ok", JsonValue::Int(int64_t(report.retry->retried_ok)));
    retry.Set("reconnects", JsonValue::Int(int64_t(report.retry->reconnects)));
    retry.Set("exhausted", JsonValue::Int(int64_t(report.retry->exhausted)));
    out.Set("retry", std::move(retry));
  }
  if (report.faults.has_value()) {
    JsonValue faults = JsonValue::Object();
    faults.Set("writes", JsonValue::Int(int64_t(report.faults->writes)));
    faults.Set("drops", JsonValue::Int(int64_t(report.faults->drops)));
    faults.Set("disconnects",
               JsonValue::Int(int64_t(report.faults->disconnects)));
    faults.Set("truncates", JsonValue::Int(int64_t(report.faults->truncates)));
    faults.Set("short_writes",
               JsonValue::Int(int64_t(report.faults->short_writes)));
    faults.Set("delays", JsonValue::Int(int64_t(report.faults->delays)));
    out.Set("faults", std::move(faults));
  }
  return out;
}

void PrintReport(const workload::DriverReport& report) {
  std::cout << "requests: " << FormatWithCommas(int64_t(report.requests))
            << " (" << FormatWithCommas(int64_t(report.queries))
            << " queries) in " << FormatDouble(report.elapsed_seconds, 3)
            << "s = " << FormatWithCommas(int64_t(report.requests_per_second))
            << " req/s, "
            << FormatWithCommas(int64_t(report.queries_per_second))
            << " q/s\n";
  std::cout << "publishes: " << report.publishes
            << ", drops: " << report.drops << "\n";
  std::cout << "verified: " << FormatWithCommas(int64_t(report.verified))
            << ", mismatches: " << report.mismatches
            << ", unknown epochs: " << report.unknown_epochs
            << ", hard failures: " << report.hard_failures << "\n";
  if (!report.errors.empty()) {
    std::cout << "error responses:";
    for (const auto& [code, count] : report.errors) {
      std::cout << "  " << code << "=" << count;
    }
    std::cout << "\n";
  }
  for (const std::string& detail : report.mismatch_details) {
    std::cout << "mismatch: " << detail << "\n";
  }
  for (const auto& [tenant, lat] : report.tenant_latency) {
    std::cout << "tenant '" << (tenant.empty() ? "(default)" : tenant)
              << "': " << lat.requests << " requests (" << lat.errors
              << " errors), latency p50 " << FormatDouble(lat.p50_ms, 2)
              << "ms p99 " << FormatDouble(lat.p99_ms, 2) << "ms max "
              << FormatDouble(lat.max_ms, 2) << "ms\n";
  }
  if (report.tenants.has_value()) {
    std::cout << "admission (quota "
              << FormatDouble(report.tenants->quota_qps, 6) << " q/s, burst "
              << FormatDouble(report.tenants->quota_burst, 6) << "):";
    for (const auto& [name, c] : report.tenants->tenants) {
      std::cout << "  " << name << "=" << c.admitted << "/"
                << (c.admitted + c.rejected) << " admitted";
      if (c.shed > 0) std::cout << " (" << c.shed << " shed)";
    }
    std::cout << "\n";
  }
  if (report.retry.has_value()) {
    std::cout << "retry: " << report.retry->attempts << " attempts, "
              << report.retry->retries << " retries, "
              << report.retry->retried_ok << " recovered, "
              << report.retry->reconnects << " reconnects, "
              << report.retry->exhausted << " exhausted\n";
  }
  if (report.faults.has_value()) {
    const net::FaultStats& f = *report.faults;
    std::cout << "faults injected: " << f.total() << "/" << f.writes
              << " writes (drop " << f.drops << ", disconnect "
              << f.disconnects << ", truncate " << f.truncates
              << ", short-write " << f.short_writes << ", delay " << f.delays
              << ")\n";
  }
}

int Run(int argc, char** argv) {
  const std::vector<std::string> boolean_flags = {
      "tcp", "verify", "list-profiles", "retry", "full-rebuild", "help"};
  auto flags_or = FlagSet::Parse(argc, argv, boolean_flags);
  if (!flags_or.ok()) return Fail(flags_or.status());
  const FlagSet& flags = *flags_or;

  const std::set<std::string> known = {
      "profile", "scenario", "replay",  "print-profile", "list-profiles",
      "seed",    "tcp",      "verify",  "record",        "threads",
      "cache",   "retain",   "json",
      "snapshot-dir",        "quota-qps",   "quota-burst",
      "deadline-ms",         "faults",      "fault-seed",
      "retry",   "max-retries",             "help",
      "incremental-delta",   "full-rebuild"};
  for (const auto& name : flags.FlagNames()) {
    if (!known.count(name)) {
      std::cerr << "unknown flag --" << name << "\n" << kUsage;
      return 2;
    }
  }
  if (flags.Has("help")) {
    std::cout << kUsage;
    return 0;
  }
  if (flags.Has("list-profiles")) {
    for (const std::string& name : workload::BuiltinScenarioNames()) {
      std::cout << name << "\n";
    }
    return 0;
  }

  auto seed = flags.GetInt("seed", 2015);
  if (!seed.ok()) return Fail(seed.status());

  if (flags.Has("print-profile")) {
    auto spec = workload::BuiltinScenario(flags.GetString("print-profile"),
                                          uint64_t(*seed));
    if (!spec.ok()) return Fail(spec.status());
    std::cout << workload::ScenarioToJson(*spec).ToString(2) << "\n";
    return 0;
  }

  const int sources = int(flags.Has("profile")) + int(flags.Has("scenario")) +
                      int(flags.Has("replay"));
  if (sources != 1) {
    std::cerr << "exactly one of --profile / --scenario / --replay is "
                 "required\n"
              << kUsage;
    return 2;
  }

  workload::DriverOptions options;
  auto threads = flags.GetInt("threads", 0);
  auto cache = flags.GetInt("cache", int64_t(options.engine.cache_capacity));
  auto retain = flags.GetInt("retain", int64_t(options.retained_epochs));
  auto verify = flags.GetBool("verify", true);
  auto tcp = flags.GetBool("tcp", false);
  if (!threads.ok()) return Fail(threads.status());
  if (!cache.ok()) return Fail(cache.status());
  if (!retain.ok()) return Fail(retain.status());
  if (!verify.ok()) return Fail(verify.status());
  if (!tcp.ok()) return Fail(tcp.status());
  if (*threads < 0 || *cache < 0 || *retain < 1) {
    return Fail(Status::InvalidArgument(
        "--threads/--cache must be >= 0 and --retain >= 1"));
  }
  options.engine.num_threads = size_t(*threads);
  options.engine.cache_capacity = size_t(*cache);
  options.retained_epochs = size_t(*retain);
  options.verify = *verify;
  options.over_tcp = *tcp;
  options.snapshot_dir = flags.GetString("snapshot-dir", "");

  auto quota_qps = flags.GetDouble("quota-qps", 0.0);
  auto quota_burst = flags.GetDouble("quota-burst", 0.0);
  auto deadline_ms = flags.GetInt("deadline-ms", 0);
  auto fault_rate = flags.GetDouble("faults", 0.0);
  auto fault_seed = flags.GetInt("fault-seed", 2015);
  auto retry = flags.GetBool("retry", false);
  auto max_retries = flags.GetInt("max-retries", 3);
  if (!quota_qps.ok()) return Fail(quota_qps.status());
  if (!quota_burst.ok()) return Fail(quota_burst.status());
  if (!deadline_ms.ok()) return Fail(deadline_ms.status());
  if (!fault_rate.ok()) return Fail(fault_rate.status());
  if (!fault_seed.ok()) return Fail(fault_seed.status());
  if (!retry.ok()) return Fail(retry.status());
  if (!max_retries.ok()) return Fail(max_retries.status());
  if (*quota_qps < 0 || *quota_burst < 0 || *deadline_ms < 0 ||
      *fault_rate < 0 || *fault_rate > 1 || *max_retries < 0) {
    return Fail(Status::InvalidArgument(
        "--quota-qps/--quota-burst/--deadline-ms/--max-retries must be >= 0 "
        "and --faults in [0, 1]"));
  }
  options.engine.tenant_quota_qps = *quota_qps;
  options.engine.tenant_quota_burst = *quota_burst;
  if (*fault_rate > 0) {
    net::FaultOptions fault_options;
    fault_options.seed = uint64_t(*fault_seed);
    fault_options.drop_rate = *fault_rate;
    fault_options.disconnect_rate = *fault_rate;
    fault_options.truncate_rate = *fault_rate;
    fault_options.short_write_rate = *fault_rate;
    fault_options.delay_rate = *fault_rate;
    fault_options.delay_ms = 5;
    options.fault_injector =
        std::make_shared<net::FaultInjector>(fault_options);
  }
  options.retry = *retry;
  options.retry_policy.max_retries = int(*max_retries);

  auto incremental_delta = flags.GetInt("incremental-delta", 0);
  auto full_rebuild = flags.GetBool("full-rebuild", false);
  if (!incremental_delta.ok()) return Fail(incremental_delta.status());
  if (!full_rebuild.ok()) return Fail(full_rebuild.status());
  if (*incremental_delta < 0) {
    return Fail(Status::InvalidArgument("--incremental-delta must be >= 0"));
  }
  if (*full_rebuild && *incremental_delta == 0) {
    return Fail(Status::InvalidArgument(
        "--full-rebuild only applies with --incremental-delta > 0"));
  }
  options.incremental_delta = size_t(*incremental_delta);
  options.incremental_merge = !*full_rebuild;

  Result<workload::DriverReport> report = Status::Internal("unreachable");
  if (flags.Has("replay")) {
    auto workload_or = workload::ReadWorkload(flags.GetString("replay"));
    if (!workload_or.ok()) return Fail(workload_or.status());
    if (*deadline_ms > 0) workload_or->spec.qos.deadline_ms = *deadline_ms;
    std::cout << "replaying '" << workload_or->spec.name << "' ("
              << workload_or->spec.clients << " clients)\n";
    report = workload::RunWorkload(*workload_or, options);
  } else {
    Result<workload::ScenarioSpec> spec = Status::Internal("unreachable");
    if (flags.Has("profile")) {
      spec = workload::BuiltinScenario(flags.GetString("profile"),
                                       uint64_t(*seed));
    } else {
      spec = workload::LoadScenario(flags.GetString("scenario"));
      if (spec.ok() && flags.Has("seed")) spec->seed = uint64_t(*seed);
    }
    if (!spec.ok()) return Fail(spec.status());
    if (*deadline_ms > 0) spec->qos.deadline_ms = *deadline_ms;
    std::cout << "running '" << spec->name << "': " << spec->clients
              << " clients x " << spec->ops_per_client << " ops, "
              << spec->releases.size() << " release(s)"
              << (options.over_tcp ? ", over TCP" : ", in-process") << "\n";
    report = workload::RunScenario(*spec, options, flags.GetString("record"));
  }
  if (!report.ok()) return Fail(report.status());

  PrintReport(*report);
  if (flags.Has("json")) {
    std::ofstream out(flags.GetString("json"));
    if (!out) return Fail(Status::IOError("cannot write report JSON"));
    out << ReportToJson(*report).ToString(2) << "\n";
  }
  const bool clean = report->mismatches == 0 && report->unknown_epochs == 0 &&
                     report->hard_failures == 0;
  if (!clean) std::cerr << "FAIL: run was not answer-clean\n";
  return clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
