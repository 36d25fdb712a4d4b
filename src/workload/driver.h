// Workload driver: executes a generated workload against a live serving
// stack and verifies every successful answer against the Oracle.
//
// The driver hosts the stack itself — ReleaseStore + QueryEngine (with
// whatever QueryEngineOptions the caller wants to exercise), and optionally
// a real TCP Server — then runs one thread per reader stream plus a writer
// thread for the churn stream. Reader threads talk through the public client::Client interface
// (InProcessClient, or LineProtocolClient over loopback TCP when
// options.over_tcp), so a scenario exercises exactly the code path a real
// consumer uses. Writer ops go through the store directly: publishing
// hands back the exact snapshot now served, which the writer registers
// with the oracle right after the swap; a reader that observes a fresh
// epoch before that registration lands self-registers the snapshot from
// the store's retention window — (name, epoch) identifies one immutable
// snapshot, whoever files it — so every answered epoch is verifiable.
//
// Error taxonomy under churn is part of the contract: a dropped release
// answers NOT_FOUND, an aged-out pin STALE_EPOCH; both are counted per
// code in the report, while transport failures and oracle mismatches are
// hard failures a test asserts to be zero.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <memory>

#include "client/api.h"
#include "client/retry.h"
#include "common/result.h"
#include "net/fault_injector.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "workload/generator.h"

namespace recpriv::workload {

struct DriverOptions {
  /// Engine under test (threads, cache; tenant_quota_qps > 0 turns on
  /// per-tenant admission).
  serve::QueryEngineOptions engine;
  size_t retained_epochs = serve::ReleaseStore::kDefaultRetainedEpochs;
  /// Verify every successful answer against the oracle (bit-exact).
  bool verify = true;
  /// Drive readers through a real TCP server over loopback instead of
  /// in-process clients.
  bool over_tcp = false;
  /// When non-empty, the store persists every publish as a binary snapshot
  /// under this directory and recovers any snapshots already there before
  /// the scenario's own publishes — the restart path of
  /// `recpriv_serve --snapshot-dir`, driven under workload.
  std::string snapshot_dir;
  /// When set, every reader's transport draws from this seeded fault
  /// schedule (net/fault_injector.h): byte-level faults over TCP, dead
  /// transports in-process. Pair it with `retry` or expect UNAVAILABLE in
  /// the report.
  std::shared_ptr<net::FaultInjector> fault_injector;
  /// Wrap every reader in a RetryingClient (client/retry.h): transient
  /// failures are retried with seeded backoff and a dead transport is
  /// rebuilt, so a faulted run still completes answer-clean.
  bool retry = false;
  recpriv::client::RetryPolicy retry_policy;
  /// When > 0 the writer republishes through the store's incremental path
  /// (serve::ReleaseStore::PublishIncremental): each publish op inserts
  /// this many fresh raw rows (MakeDeltaRows, seeded by the op's
  /// publish_seed) into the release's StreamingPublisher and republishes
  /// by delta merge, and the oracle verifies against an independently
  /// rebuilt index (Oracle::RegisterRebuilt). 0 keeps the legacy
  /// record-level full-perturb republish.
  size_t incremental_delta = 0;
  /// Incremental mode only: assemble each republished index by run merge
  /// (true) or by the bit-identical full radix-sort reference build
  /// (false) — the comparison arm CI runs with identical expected answers.
  bool incremental_merge = true;
};

/// Latency profile of one tenant's requests (successful or not), as
/// observed by the clients themselves.
struct TenantLatency {
  uint64_t requests = 0;
  uint64_t errors = 0;  ///< requests whose final outcome was an error
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// What one run did and found.
struct DriverReport {
  uint64_t requests = 0;   ///< query requests issued
  uint64_t queries = 0;    ///< count queries across those requests
  uint64_t publishes = 0;  ///< writer republishes (incl. the initial ones)
  uint64_t drops = 0;
  uint64_t verified = 0;       ///< answers that matched the oracle
  uint64_t mismatches = 0;     ///< answers that diverged — MUST stay 0
  uint64_t unknown_epochs = 0; ///< answered epoch never registered — MUST stay 0
  uint64_t hard_failures = 0;  ///< transport/setup failures — MUST stay 0
  /// Error responses by stable wire code name (e.g. "NOT_FOUND",
  /// "STALE_EPOCH") — expected under churn, asserted by scenario tests.
  std::map<std::string, uint64_t> errors;
  std::vector<std::string> mismatch_details;  ///< first few, for diagnosis
  double elapsed_seconds = 0.0;
  double requests_per_second = 0.0;
  double queries_per_second = 0.0;
  /// Server-side admission counters when the engine ran with quotas.
  std::optional<recpriv::client::TenantStats> tenants;
  /// Client-observed latency per tenant id ("" = the default tenant),
  /// keyed the way requests declared themselves.
  std::map<std::string, TenantLatency> tenant_latency;
  /// Aggregated retry counters when options.retry was on.
  std::optional<recpriv::client::RetryStats> retry;
  /// The fault schedule's tally when options.fault_injector was set.
  std::optional<net::FaultStats> faults;
};

/// Executes `workload` (see file comment). Errors only on setup failure —
/// runtime trouble lands in the report.
Result<DriverReport> RunWorkload(const GeneratedWorkload& workload,
                                 const DriverOptions& options);

/// GenerateWorkload + optional record + RunWorkload. When `record_path` is
/// non-empty the generated workload is written there first (the artifact
/// ReadWorkload + RunWorkload replays identically).
Result<DriverReport> RunScenario(const ScenarioSpec& spec,
                                 const DriverOptions& options,
                                 const std::string& record_path = "");

}  // namespace recpriv::workload
