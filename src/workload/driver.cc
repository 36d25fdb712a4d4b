#include "workload/driver.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "client/in_process_client.h"
#include "client/line_protocol_client.h"
#include "client/tcp_transport.h"
#include "common/timer.h"
#include "serve/server.h"
#include "workload/oracle.h"

namespace recpriv::workload {

using recpriv::client::BatchAnswer;
using recpriv::client::QueryRequest;

namespace {

/// The initial perturbation seed of a release (epoch 1): derived from the
/// data seed so a scenario file pins it without an extra field.
uint64_t InitialPerturbSeed(const SyntheticReleaseSpec& spec) {
  uint64_t state = spec.data_seed;
  return SplitMix64Next(state);
}

/// Per-thread tallies, merged after join (no contention while running).
struct ThreadTally {
  uint64_t requests = 0;
  uint64_t queries = 0;
  uint64_t verified = 0;
  uint64_t mismatches = 0;
  uint64_t unknown_epochs = 0;
  uint64_t hard_failures = 0;
  std::map<std::string, uint64_t> errors;
  std::vector<std::string> mismatch_details;
  std::vector<double> latencies_ms;  ///< one entry per query request
  uint64_t latency_errors = 0;       ///< requests whose outcome was an error
  recpriv::client::RetryStats retry;
};

void CountError(ThreadTally& tally, const Status& status) {
  const auto code = recpriv::client::ErrorCodeFromStatus(status);
  ++tally.errors[std::string(recpriv::client::ErrorCodeName(code))];
}

/// Percentile over a SORTED sample (nearest-rank on the closed index).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = size_t(p * double(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

Result<DriverReport> RunWorkload(const GeneratedWorkload& workload,
                                 const DriverOptions& options) {
  const ScenarioSpec& spec = workload.spec;
  if (workload.client_ops.size() != spec.clients) {
    return Status::InvalidArgument(
        "workload stream count does not match the scenario's clients");
  }
  std::map<std::string, const SyntheticReleaseSpec*> release_specs;
  for (const SyntheticReleaseSpec& r : spec.releases) {
    if (!release_specs.emplace(r.name, &r).second) {
      return Status::InvalidArgument("duplicate release name '" + r.name +
                                     "'");
    }
  }

  serve::ReleaseStore::Options store_options;
  store_options.retained_epochs = options.retained_epochs;
  store_options.snapshot_dir = options.snapshot_dir;
  auto store = std::make_shared<serve::ReleaseStore>(store_options);
  Oracle oracle;
  if (!options.snapshot_dir.empty()) {
    RECPRIV_RETURN_NOT_OK(store->RecoverFromDir());
    // Recovered snapshots are answerable immediately; register them so a
    // reader that pins a recovered epoch is still verified bit-exactly.
    for (const serve::ReleaseInfo& info : store->List()) {
      for (uint64_t e = info.oldest_epoch; e <= info.epoch; ++e) {
        auto snap = store->Get(info.name, e);
        if (snap.ok()) oracle.Register(info.name, std::move(*snap));
      }
    }
  }
  auto engine = std::make_shared<serve::QueryEngine>(store, options.engine);

  DriverReport report;
  // Incremental mode: one StreamingPublisher per release, seeded with the
  // same deterministic raw table the legacy path perturbs, plus a
  // per-release writer RNG that persists across republishes (the SPS draw
  // stream PublishIncremental keeps deterministic). The writer thread is
  // the only mutator once the run starts.
  struct IncrementalState {
    recpriv::core::StreamingPublisher publisher;
    Rng rng;
  };
  std::map<std::string, std::unique_ptr<IncrementalState>> incremental;
  for (const SyntheticReleaseSpec& r : spec.releases) {
    if (options.incremental_delta == 0) {
      RECPRIV_ASSIGN_OR_RETURN(recpriv::analysis::ReleaseBundle bundle,
                               MakeBundle(r, InitialPerturbSeed(r)));
      RECPRIV_ASSIGN_OR_RETURN(serve::SnapshotPtr snap,
                               store->Publish(r.name, std::move(bundle)));
      oracle.Register(r.name, std::move(snap));
      ++report.publishes;
      continue;
    }
    RECPRIV_ASSIGN_OR_RETURN(recpriv::table::Table raw, MakeRawTable(r));
    recpriv::core::PrivacyParams params;
    params.retention_p = r.retention_p;
    params.domain_m = r.sa_domain;
    RECPRIV_RETURN_NOT_OK(params.Validate());
    RECPRIV_ASSIGN_OR_RETURN(
        recpriv::core::StreamingPublisher publisher,
        recpriv::core::StreamingPublisher::Make(raw.schema(), params));
    std::vector<uint32_t> row(raw.num_columns());
    for (size_t i = 0; i < raw.num_rows(); ++i) {
      for (size_t c = 0; c < raw.num_columns(); ++c) row[c] = raw.at(i, c);
      RECPRIV_RETURN_NOT_OK(publisher.Insert(row));
    }
    auto state = std::make_unique<IncrementalState>(
        IncrementalState{std::move(publisher), Rng(InitialPerturbSeed(r))});
    RECPRIV_ASSIGN_OR_RETURN(
        serve::SnapshotPtr snap,
        store->PublishIncremental(r.name, state->publisher, state->rng,
                                  options.incremental_merge));
    oracle.RegisterRebuilt(r.name, snap);
    incremental.emplace(r.name, std::move(state));
    ++report.publishes;
  }

  std::unique_ptr<serve::Server> server;
  if (options.over_tcp) {
    RECPRIV_ASSIGN_OR_RETURN(server, serve::Server::Start(engine, {}));
  }
  auto make_client =
      [&]() -> Result<std::unique_ptr<recpriv::client::Client>> {
    if (options.over_tcp) {
      recpriv::client::TcpTransportOptions tcp_options;
      tcp_options.fault_injector = options.fault_injector;
      RECPRIV_ASSIGN_OR_RETURN(
          auto tcp, recpriv::client::ConnectTcp("127.0.0.1", server->port(),
                                                tcp_options));
      return std::unique_ptr<recpriv::client::Client>(std::move(tcp));
    }
    if (options.fault_injector != nullptr) {
      // In-process fault injection: the full wire round-trip over a
      // loopback transport, with the fault decorator in between — so
      // --faults exercises the retry path without a socket.
      auto faulty = std::make_unique<recpriv::client::FaultInjectingTransport>(
          std::make_unique<recpriv::client::LoopbackTransport>(*engine),
          options.fault_injector);
      return std::unique_ptr<recpriv::client::Client>(
          std::make_unique<recpriv::client::LineProtocolClient>(
              std::move(faulty)));
    }
    return std::unique_ptr<recpriv::client::Client>(
        std::make_unique<recpriv::client::InProcessClient>(engine));
  };

  std::vector<ThreadTally> tallies(spec.clients);
  ThreadTally writer_tally;
  uint64_t writer_publishes = 0;
  uint64_t writer_drops = 0;

  WallTimer timer;
  std::vector<std::thread> readers;
  readers.reserve(spec.clients);
  for (size_t c = 0; c < spec.clients; ++c) {
    readers.emplace_back([&, c] {
      ThreadTally& tally = tallies[c];
      // QoS identity: the leading abusive clients declare the abusive
      // tenant, flood at full speed (no pacing below), and are exactly the
      // traffic per-tenant quotas exist to contain.
      const bool abuser = c < spec.qos.abusive_clients;
      const std::string tenant =
          abuser ? spec.qos.abusive_tenant : spec.qos.tenant;
      std::unique_ptr<recpriv::client::Client> client;
      recpriv::client::RetryingClient* retrier = nullptr;
      if (options.retry) {
        auto created = recpriv::client::RetryingClient::Create(
            make_client, options.retry_policy);
        if (!created.ok()) {
          ++tally.hard_failures;
          return;
        }
        retrier = created->get();
        client = std::move(*created);
      } else {
        auto created = make_client();
        if (!created.ok()) {
          ++tally.hard_failures;
          return;
        }
        client = std::move(*created);
      }
      // A pinned reader pins the epoch it FIRST observes per release and
      // sticks to it; under churn that pin may age out (STALE_EPOCH) —
      // exactly the client behavior the retention window exists for.
      std::map<std::string, uint64_t> pins;
      size_t in_burst = 0;
      for (const WorkloadOp& op : workload.client_ops[c]) {
        QueryRequest request;
        request.release = op.release;
        request.queries = op.queries;
        request.tenant = tenant;
        if (spec.qos.deadline_ms > 0) {
          request.deadline_ms = spec.qos.deadline_ms;
        }
        if (op.pin) {
          auto it = pins.find(op.release);
          if (it == pins.end()) {
            auto snap = store->Get(op.release);
            if (snap.ok()) {
              it = pins.emplace(op.release, (*snap)->epoch).first;
            }
          }
          if (it != pins.end()) request.epoch = it->second;
        }
        ++tally.requests;
        tally.queries += request.queries.size();
        const auto issued = std::chrono::steady_clock::now();
        auto answer = client->Query(request);
        tally.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - issued)
                .count());
        if (!answer.ok()) {
          ++tally.latency_errors;
          CountError(tally, answer.status());
        } else if (options.verify) {
          std::string detail;
          auto verdict = oracle.Verify(op.release, op.queries, *answer,
                                       &detail);
          if (verdict == Oracle::Verdict::kUnknownEpoch) {
            // A reader can be answered from a fresh epoch in the instants
            // between the store's snapshot swap and the writer's
            // oracle.Register. The store retains the answered epoch's
            // immutable snapshot, so the reader registers it itself —
            // (name, epoch) identifies one snapshot, whoever files it.
            auto snap = store->Get(op.release, answer->epoch);
            if (snap.ok()) {
              oracle.Register(op.release, *std::move(snap));
              verdict =
                  oracle.Verify(op.release, op.queries, *answer, &detail);
            }
          }
          // Residual corner: the epoch already aged out of retention AND
          // the writer's Register has not landed yet — give it a bounded
          // moment before calling the epoch truly unknown.
          for (int retry = 0;
               verdict == Oracle::Verdict::kUnknownEpoch && retry < 200;
               ++retry) {
            std::this_thread::sleep_for(std::chrono::microseconds(500));
            verdict = oracle.Verify(op.release, op.queries, *answer, &detail);
          }
          switch (verdict) {
            case Oracle::Verdict::kVerified:
              ++tally.verified;
              break;
            case Oracle::Verdict::kMismatch:
              ++tally.mismatches;
              if (tally.mismatch_details.size() < 3) {
                tally.mismatch_details.push_back(std::move(detail));
              }
              break;
            case Oracle::Verdict::kUnknownEpoch:
              ++tally.unknown_epochs;
              break;
          }
        }
        if (!abuser && spec.pacing_us > 0 && ++in_burst >= spec.burst_size) {
          in_burst = 0;
          std::this_thread::sleep_for(
              std::chrono::microseconds(spec.pacing_us));
        }
      }
      if (retrier != nullptr) tally.retry = retrier->retry_stats();
    });
  }

  std::thread writer([&] {
    for (const WorkloadOp& op : workload.writer_ops) {
      auto it = release_specs.find(op.release);
      if (it == release_specs.end()) {
        ++writer_tally.hard_failures;
        continue;
      }
      if (op.kind == OpKind::kPublish) {
        serve::SnapshotPtr snap;
        if (options.incremental_delta > 0) {
          IncrementalState& state = *incremental.at(op.release);
          auto rows = MakeDeltaRows(*it->second, op.publish_seed,
                                    options.incremental_delta);
          bool inserted = rows.ok();
          for (size_t i = 0; inserted && i < rows->size(); ++i) {
            inserted = state.publisher.Insert((*rows)[i]).ok();
          }
          if (!inserted) {
            ++writer_tally.hard_failures;
            continue;
          }
          auto published = store->PublishIncremental(
              op.release, state.publisher, state.rng,
              options.incremental_merge);
          if (!published.ok()) {
            ++writer_tally.hard_failures;
            continue;
          }
          snap = *std::move(published);
        } else {
          auto bundle = MakeBundle(*it->second, op.publish_seed);
          if (!bundle.ok()) {
            ++writer_tally.hard_failures;
            continue;
          }
          auto published = store->Publish(op.release, *std::move(bundle));
          if (!published.ok()) {
            ++writer_tally.hard_failures;
            continue;
          }
          snap = *std::move(published);
        }
        // Register the WHOLE retention window, not just the snapshot this
        // publish handed back: Publish returns the epoch being served, so
        // under churn an intermediate epoch could otherwise stay
        // unregistered while still pinnable — a mid-churn pinned read must
        // verify too. Register is first-wins, so the sweep never displaces
        // an entry (in particular a RegisterRebuilt reference twin).
        if (auto window = store->Window(op.release); window.ok()) {
          for (const serve::SnapshotPtr& s : *window) {
            oracle.Register(op.release, s);
          }
        }
        if (options.incremental_delta > 0) {
          oracle.RegisterRebuilt(op.release, snap);
        } else {
          oracle.Register(op.release, std::move(snap));
        }
        ++writer_publishes;
      } else if (op.kind == OpKind::kDrop) {
        // Dropping an already-dropped release is a legal no-op race.
        auto dropped = store->Drop(op.release);
        if (dropped.ok()) ++writer_drops;
      } else {
        ++writer_tally.hard_failures;  // query ops never belong to the writer
      }
      if (spec.churn.pacing_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(spec.churn.pacing_us));
      }
    }
  });

  for (std::thread& t : readers) t.join();
  writer.join();
  report.elapsed_seconds = timer.Seconds();
  if (server != nullptr) server->Stop();

  report.publishes += writer_publishes;
  report.drops = writer_drops;

  // Per-tenant latency: pool each tenant's samples across its clients,
  // then take percentiles over the pooled (sorted) sample.
  std::map<std::string, std::vector<double>> samples_by_tenant;
  for (size_t c = 0; c < spec.clients; ++c) {
    const std::string tenant =
        c < spec.qos.abusive_clients ? spec.qos.abusive_tenant
                                     : spec.qos.tenant;
    TenantLatency& lat = report.tenant_latency[tenant];
    lat.requests += tallies[c].requests;
    lat.errors += tallies[c].latency_errors;
    auto& pooled = samples_by_tenant[tenant];
    pooled.insert(pooled.end(), tallies[c].latencies_ms.begin(),
                  tallies[c].latencies_ms.end());
  }
  for (auto& [tenant, samples] : samples_by_tenant) {
    std::sort(samples.begin(), samples.end());
    TenantLatency& lat = report.tenant_latency[tenant];
    lat.p50_ms = Percentile(samples, 0.5);
    lat.p99_ms = Percentile(samples, 0.99);
    lat.max_ms = samples.empty() ? 0.0 : samples.back();
  }

  if (options.retry) {
    recpriv::client::RetryStats retry;
    for (size_t c = 0; c < spec.clients; ++c) {
      retry.attempts += tallies[c].retry.attempts;
      retry.retries += tallies[c].retry.retries;
      retry.retried_ok += tallies[c].retry.retried_ok;
      retry.reconnects += tallies[c].retry.reconnects;
      retry.exhausted += tallies[c].retry.exhausted;
    }
    report.retry = retry;
  }
  if (options.fault_injector != nullptr) {
    report.faults = options.fault_injector->Stats();
  }

  tallies.push_back(std::move(writer_tally));
  for (const ThreadTally& tally : tallies) {
    report.requests += tally.requests;
    report.queries += tally.queries;
    report.verified += tally.verified;
    report.mismatches += tally.mismatches;
    report.unknown_epochs += tally.unknown_epochs;
    report.hard_failures += tally.hard_failures;
    for (const auto& [code, count] : tally.errors) {
      report.errors[code] += count;
    }
    for (const std::string& detail : tally.mismatch_details) {
      if (report.mismatch_details.size() < 5) {
        report.mismatch_details.push_back(detail);
      }
    }
  }
  if (report.elapsed_seconds > 0) {
    report.requests_per_second =
        double(report.requests) / report.elapsed_seconds;
    report.queries_per_second = double(report.queries) / report.elapsed_seconds;
  }
  report.tenants = engine->tenant_stats();
  return report;
}

Result<DriverReport> RunScenario(const ScenarioSpec& spec,
                                 const DriverOptions& options,
                                 const std::string& record_path) {
  RECPRIV_ASSIGN_OR_RETURN(GeneratedWorkload workload,
                           GenerateWorkload(spec));
  if (!record_path.empty()) {
    RECPRIV_RETURN_NOT_OK(WriteWorkload(workload, record_path));
  }
  return RunWorkload(workload, options);
}

}  // namespace recpriv::workload
