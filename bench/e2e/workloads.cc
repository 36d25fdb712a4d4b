#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "analysis/release.h"
#include "client/in_process_client.h"
#include "client/tcp_transport.h"
#include "core/sps.h"
#include "core/streaming.h"
#include "datagen/census.h"
#include "load.h"
#include "repl/replicator.h"
#include "repl/snapshot_provider.h"
#include "serve/release_store.h"
#include "serve/server.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"
#include "testing_util.h"

namespace recpriv::e2e {

namespace {

namespace fs = std::filesystem;

// --- workload constants ------------------------------------------------------
// Rates are absolute and fixed: a twentieth to a tenth of the closed-loop rate
// each mix reached at CENSUS 300k on a 4-core host. At a third of it, a slow
// spell of a shared host pushed the open loop towards saturation, so queueing
// multiplied the slowdown in the latencies (README.md, "Load model").

/// A read mix and its load shape.
struct ReadSpec {
  size_t connections;
  size_t queries_per_request;
  std::vector<double> dim_weights;  ///< weight of dimensionality 0, 1, 2, 3
  double zipf_s;                    ///< value and SA skew; 0 = uniform
  double rate_rps;                  ///< open-loop arrivals per second
  size_t cache_capacity;            ///< engine answer-cache entries
};

constexpr double kZipf = 1.1;
constexpr size_t kServeCache = 1 << 16;  // recpriv_serve's default --cache
const ReadSpec kHotPoint{3, 1, {0, 2, 2, 1}, kZipf, 2000.0, kServeCache};
const ReadSpec kColdScan{3, 32, {1, 2, 2, 1}, 0.0, 120.0, 0};
const ReadSpec kChurnReads{2, 1, {0, 2, 2, 1}, kZipf, 2000.0, kServeCache};

constexpr int kSetupReps = 7;
constexpr size_t kRetainedEpochs = serve::ReleaseStore::kDefaultRetainedEpochs;
constexpr double kPublishIntervalS = 1.0;
/// Bound on back-to-back republish cycles per second, for sizing the deltas
/// the saturated writer may use.
constexpr double kMaxCyclesPerSecond = 20.0;
constexpr double kDeltaShare = 0.01;  // rows inserted per republish
constexpr int kSyncTimeoutMs = 60000;
constexpr size_t kFingerprintQueries = 8;
constexpr double kMaxLateMs = 1.0;  // generator starvation bound
constexpr size_t kProbeRounds = 3;  // samples per publish-path stage
/// Requests an open-loop window is expected to hold: ten beyond its p99
/// even when the Poisson arrivals run short.
constexpr double kWindowRequests = 1200.0;

// Shares of --seconds per phase. A traced run has no closed loop: it runs the
// open-loop schedule twice, untraced and then traced.
constexpr double kWarmShare = 0.10;
constexpr double kOpenShare = 0.55;
constexpr double kClosedShare = 0.35;
constexpr double kTracedOpenShare = 0.45;

/// Per-layer samples of the publish path, by metric name.
using StageSamples = std::map<std::string, std::vector<double>>;

double MsSince(Clock::time_point t0) { return MillisBetween(t0, Clock::now()); }

/// Everything one run shares across its phases.
struct Run {
  explicit Run(const RunOptions& o) : options(o), streams(o.seed) {}

  double Seconds(double share) const { return options.seconds * share; }
  const table::Table& raw() const { return *raw_table; }
  const std::string& sa_name() const {
    return raw().schema()->sensitive().name;
  }
  const std::string& first_sa_value() const {
    return raw().schema()->sensitive().domain.value(0);
  }
  void Problem(std::string p) { result.problems.push_back(std::move(p)); }
  void Invalid(std::string why) { result.invalid.push_back(std::move(why)); }

  const RunOptions& options;
  Streams streams;
  std::optional<table::Table> raw_table;
  core::PrivacyParams params;
  RunResult result;
  StageSamples stages;
  Verification verification;
};

Status MakeRelease(Run& run) {
  RECPRIV_ASSIGN_OR_RETURN(
      table::Table raw,
      datagen::GenerateCensus({.num_records = run.options.rows},
                              run.streams.data));
  run.params.lambda = 0.3;
  run.params.delta = 0.3;
  run.params.retention_p = 0.5;
  run.params.domain_m = raw.schema()->sa_domain_size();
  RECPRIV_RETURN_NOT_OK(run.params.Validate());
  run.raw_table.emplace(std::move(raw));
  return Status::OK();
}

/// `count` batches of fresh CENSUS rows, 1% of the release each.
Result<std::vector<table::Table>> MakeDeltas(Run& run, size_t count) {
  const size_t per_delta =
      std::max<size_t>(1, size_t(double(run.options.rows) * kDeltaShare));
  std::vector<table::Table> deltas;
  for (size_t d = 0; d < count; ++d) {
    RECPRIV_ASSIGN_OR_RETURN(
        table::Table t,
        datagen::GenerateCensus({.num_records = per_delta}, run.streams.delta));
    deltas.push_back(std::move(t));
  }
  return deltas;
}

/// Buffers every row of `rows` in `publisher`.
Status InsertRows(core::StreamingPublisher& publisher,
                  const table::Table& rows) {
  std::vector<uint32_t> row(rows.num_columns());
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    for (size_t c = 0; c < row.size(); ++c) row[c] = rows.at(r, c);
    RECPRIV_RETURN_NOT_OK(publisher.Insert(row));
  }
  return Status::OK();
}

/// The set-up's end point: one query answered over a fresh TCP connection.
Status FirstAnswer(uint16_t port, const std::string& sa_value) {
  RECPRIV_ASSIGN_OR_RETURN(auto client, client::ConnectTcp("127.0.0.1", port));
  client::QueryRequest request;
  request.release = kRelease;
  request.queries.push_back(client::QuerySpec{{}, sa_value});
  return client->Query(request).status();
}

/// Runs `setup(rep)` kSetupReps times and reports the median as setup_s.
/// Each repetition's stack is torn down (untimed) before the next one
/// starts; the last one is returned to serve the run.
template <typename T, typename Setup>
Result<std::unique_ptr<T>> RepeatSetup(Run& run, Setup setup) {
  std::vector<double> seconds;
  std::unique_ptr<T> kept;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    kept.reset();
    const Clock::time_point t0 = Clock::now();
    RECPRIV_ASSIGN_OR_RETURN(kept, setup(rep));
    seconds.push_back(MsSince(t0) / 1e3);
  }
  const uint64_t reps = seconds.size();
  run.result.e2e["setup_s"] = Metric{Median(seconds), "s", "lower", reps};
  return kept;
}

void ReportPublishMs(Run& run, std::vector<double> publish_ms) {
  const uint64_t n = publish_ms.size();
  run.result.e2e["publish_ms"] = Metric{Median(publish_ms), "ms", "lower", n};
}

/// Adds an open or closed phase's outcome to the run's totals.
void Absorb(Run& run, PhaseTally&& tally, AnswerLog* records) {
  run.result.attempted += tally.requests;
  run.result.failed += tally.failed;
  for (const std::string& e : tally.errors) {
    std::cerr << "request failed: " << e << "\n";
  }
  for (auto& chunk : tally.answers) records->push_back(std::move(chunk));
}

/// --self-check: one recorded answer is corrupted, so verification must fail.
void MaybeCorrupt(const Run& run, std::vector<AnswerRecord>* records) {
  if (run.options.self_check && !records->empty()) (*records)[0].observed ^= 1;
}

// --- open/closed read phases -------------------------------------------------

/// Warm-up and open loop over TCP, then either the closed loop (untraced) or
/// a traced pass of the same open-loop schedule (traced). When
/// `saturate_writer` is set, the untraced closed phase saturates the
/// workload's writer instead: it is called, and the readers keep their
/// open-loop rate for the phase; the caller reports ops_per_s.
Status RunReadPhases(Run& run, const ReadSpec& spec, serve::QueryEngine& engine,
                     uint16_t port, const QueryMix& mix, AnswerLog* records,
                     const std::function<void()>& saturate_writer = nullptr) {
  RunResult& res = run.result;
  const bool trace = run.options.trace;
  RECPRIV_ASSIGN_OR_RETURN(TcpLoad load,
                           TcpLoad::Connect(port, spec.connections));
  auto plan = [&](double seconds) {
    return PlanOpenLoop(mix, spec.connections, spec.queries_per_request,
                        spec.rate_rps, seconds, run.streams.arrivals,
                        run.streams.queries);
  };
  const double open_s = run.Seconds(trace ? kTracedOpenShare : kOpenShare);
  const std::vector<ConnectionPlan> warm_plan = plan(run.Seconds(kWarmShare));
  const std::vector<ConnectionPlan> open_plan = plan(open_s);

  Absorb(run, load.RunOpen(warm_plan, mix), records);
  PhaseTally open = load.RunOpen(open_plan, mix);

  // The open loop is cut into equal windows of at least a second and
  // kWindowRequests requests; the run reports the median over windows of
  // each window's percentiles. The reported tail is p90: on a shared host
  // the window p99 spread 20-60% across runs where the p90 held the bound,
  // so p99 is kept in the record only.
  const size_t windows =
      std::clamp<size_t>(size_t(spec.rate_rps * open_s / kWindowRequests), 1,
                         std::max<size_t>(1, size_t(open_s)));
  const uint64_t n = open.latency_ms.size();
  std::vector<double> p50s, p90s, p99s;
  size_t smallest = SIZE_MAX;
  for (std::vector<double>& w :
       SplitWindows(open.at_s, open.latency_ms, open_s / double(windows),
                    open_s)) {
    smallest = std::min(smallest, w.size());
    p50s.push_back(Median(w));
    p90s.push_back(NearestRank(w, 0.90));
    p99s.push_back(NearestRank(w, 0.99));
  }
  const double p50 = Median(p50s);
  res.e2e["op_p50_ms"] = Metric{p50, "ms", "lower", n};
  res.e2e["op_p90_ms"] = Metric{Median(p90s), "ms", "lower", n};
  res.extra["open.windows"] = Metric{double(windows), "count", "", n};
  if (p50s.empty() || SamplesBeyond(smallest, 0.90) < 10) {
    run.Invalid("op_p90_ms: a window has fewer than 10 samples beyond p90");
  }
  if (!p99s.empty() && SamplesBeyond(smallest, 0.99) >= 10) {
    res.extra["op_p99_ms"] = Metric{Median(p99s), "ms", "lower", n};
  }
  std::vector<double> late = open.late_ms;
  const double late_p99 = NearestRank(late, 0.99);
  res.extra["gen.late_p99_ms"] = Metric{late_p99, "ms", "lower", late.size()};
  if (late_p99 > kMaxLateMs) {
    run.Invalid("gen.late_p99_ms above 1 ms: the load generator was starved");
  }
  res.extra["open.achieved_rps"] =
      Metric{double(open.requests) / open_s, "1/s", "", open.requests};
  res.layer["engine.cache_miss_ratio"] =
      Metric{open.queries > 0
                 ? 1.0 - double(open.cache_hits) / double(open.queries)
                 : 1.0,
             "ratio", "lower", open.queries};
  res.extra["engine.cache_hits"] =
      Metric{double(open.cache_hits), "count", "", open.queries};
  res.extra["engine.queries"] = Metric{double(open.queries), "count", "", 0};
  Absorb(run, std::move(open), records);

  if (!trace && saturate_writer) {
    saturate_writer();
    Absorb(run, load.RunOpen(plan(run.Seconds(kClosedShare)), mix), records);
    return Status::OK();
  }
  if (!trace) {
    PhaseTally closed = load.RunClosed(mix, spec.queries_per_request,
                                       run.Seconds(kClosedShare),
                                       run.streams.queries);
    const double closed_s = run.Seconds(kClosedShare);
    const double window_s =
        closed_s / double(std::max<size_t>(1, size_t(closed_s)));
    std::vector<double> rates;
    for (const std::vector<double>& w :
         SplitWindows(closed.at_s, closed.latency_ms, window_s, closed_s)) {
      rates.push_back(double(w.size()) / window_s);
    }
    res.e2e["ops_per_s"] =
        Metric{Median(rates), "1/s", "higher", closed.requests};
    res.extra["throughput_qps"] =
        Metric{double(closed.queries) / closed.seconds, "queries/s", "higher",
               closed.queries};
    Absorb(run, std::move(closed), records);
    return Status::OK();
  }
  const double span_cost_ns = MeasureSpanCostNs();
  RECPRIV_ASSIGN_OR_RETURN(TracedTally traced,
                           RunTracedOpen(engine, open_plan, mix));
  AddSpanMetrics(traced, span_cost_ns, p50, &res.layer, &res.extra);
  RECPRIV_RETURN_NOT_OK(
      AddReplayMetrics(engine, mix, traced.requests, &res.layer, &res.extra));
  res.spans = std::move(traced.spans);
  Absorb(run, std::move(traced.phase), records);
  return Status::OK();
}

// --- the replicated fleet ----------------------------------------------------

/// A replicated serving fleet over one streaming-published release: the
/// primary (durable ReleaseStore + QueryEngine + TCP server with the
/// replication ops) and one follower Replicator at default options, as
/// `recpriv_serve --follow` runs it. Every delta is remembered so that
/// verification can replay the exact epoch sequence (see Verify).
class Fleet {
 public:
  struct Republished {
    double publish_ms = 0.0;  ///< ReleaseStore::PublishIncremental wall time
    double lag_ms = 0.0;      ///< publish return -> follower WaitForEpoch
  };

  /// Inserts the raw release into a StreamingPublisher, publishes epoch 1,
  /// starts the server and the follower, waits for the follower to serve
  /// epoch 1 and for a first TCP answer.
  static Result<std::unique_ptr<Fleet>> Start(const Run& run,
                                              const QueryMix& mix,
                                              const ReadSpec& spec,
                                              std::string dir) {
    std::unique_ptr<Fleet> fleet(new Fleet(run, mix, std::move(dir)));
    fs::remove_all(fleet->dir_);
    fs::create_directories(fleet->dir_ + "/primary");
    Rng keys = run.streams.probe;
    for (size_t i = 0; i < kFingerprintQueries; ++i) {
      fleet->fingerprint_keys_.push_back(mix.Draw(keys));
    }

    RECPRIV_ASSIGN_OR_RETURN(core::StreamingPublisher publisher,
                             LoadPublisher(fleet->raw_, fleet->params_));
    fleet->publisher_ =
        std::make_unique<core::StreamingPublisher>(std::move(publisher));

    fleet->store_ = std::make_shared<serve::ReleaseStore>(
        serve::ReleaseStore::Options{kRetainedEpochs,
                                     fleet->dir_ + "/primary"});
    serve::QueryEngineOptions engine_options;
    engine_options.cache_capacity = spec.cache_capacity;
    fleet->engine_ =
        std::make_shared<serve::QueryEngine>(fleet->store_, engine_options);
    fleet->provider_ = std::make_unique<repl::SnapshotProvider>(*fleet->store_);
    serve::ServerOptions server_options;
    server_options.snapshot_provider = fleet->provider_.get();
    RECPRIV_ASSIGN_OR_RETURN(
        fleet->server_, serve::Server::Start(fleet->engine_, server_options));
    RECPRIV_ASSIGN_OR_RETURN(
        serve::SnapshotPtr snap,
        fleet->store_->PublishIncremental(kRelease, *fleet->publisher_,
                                          fleet->rng_));
    fleet->served_digest_.push_back(snap->content_digest);

    fleet->follower_store_ = std::make_shared<serve::ReleaseStore>(
        serve::ReleaseStore::Options{kRetainedEpochs,
                                     fleet->dir_ + "/follower"});
    RECPRIV_RETURN_NOT_OK(fleet->follower_store_->RecoverFromDir());
    fleet->follower_engine_ =
        std::make_shared<serve::QueryEngine>(fleet->follower_store_);
    repl::ReplicatorOptions repl_options;
    repl_options.primary_port = fleet->server_->port();
    RECPRIV_ASSIGN_OR_RETURN(
        fleet->replicator_,
        repl::Replicator::Start(*fleet->follower_store_, repl_options));
    if (!fleet->replicator_->WaitForEpoch(kRelease, 1, kSyncTimeoutMs)) {
      return Status::Unavailable("follower did not sync epoch 1");
    }
    RECPRIV_RETURN_NOT_OK(
        FirstAnswer(fleet->server_->port(), run.first_sa_value()));
    return fleet;
  }

  ~Fleet() {
    StopServing();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Inserts `delta`, republishes incrementally, waits for the follower and
  /// checks its answers fingerprint-equal the primary's at the new epoch.
  /// With `stages`, the publish stages first run on copies of the publisher
  /// and RNG, timed one by one, and the copy's content digest must equal
  /// the real publish's.
  Result<Republished> Republish(const table::Table& delta,
                                StageSamples* stages,
                                std::vector<std::string>* problems) {
    RECPRIV_RETURN_NOT_OK(InsertRows(*publisher_, delta));
    deltas_.push_back(delta);
    const uint64_t epoch = served_digest_.size() + 1;

    double shadow_ms = 0.0;
    uint64_t shadow_digest = 0;
    if (stages != nullptr) {
      RECPRIV_ASSIGN_OR_RETURN(shadow_digest, ShadowPublish(epoch, stages));
      for (const char* stage : {"core.sps_merge_ms", "analysis.assemble_ms",
                                "store.serialize_ms", "store.write_ms"}) {
        shadow_ms += (*stages)[stage].back();
      }
    }

    const client::ReplicationStats before = replicator_->Stats();
    const Clock::time_point t0 = Clock::now();
    RECPRIV_ASSIGN_OR_RETURN(
        serve::SnapshotPtr snap,
        store_->PublishIncremental(kRelease, *publisher_, rng_));
    Republished out;
    out.publish_ms = MsSince(t0);
    if (snap->epoch != epoch) {
      return Status::Internal("republish served epoch " +
                              std::to_string(snap->epoch) + ", expected " +
                              std::to_string(epoch));
    }
    served_digest_.push_back(snap->content_digest);

    const Clock::time_point t1 = Clock::now();
    if (!replicator_->WaitForEpoch(kRelease, epoch, kSyncTimeoutMs)) {
      return Status::Unavailable("follower did not converge on epoch " +
                                 std::to_string(epoch));
    }
    out.lag_ms = MsSince(t1);
    const client::ReplicationStats after = replicator_->Stats();

    if (stages != nullptr) {
      (*stages)["store.install_ms"].push_back(out.publish_ms - shadow_ms);
      (*stages)["repl.lag_ms"].push_back(out.lag_ms);
      (*stages)["repl.bytes_per_publish"].push_back(
          double(after.bytes_fetched - before.bytes_fetched));
      if (shadow_digest != snap->content_digest) {
        problems->push_back(
            "epoch " + std::to_string(epoch) +
            ": shadow publish digest differs from the real one");
      }
    }

    client::QueryRequest request;
    request.release = kRelease;
    request.epoch = epoch;
    for (uint64_t key : fingerprint_keys_) {
      request.queries.push_back(mix_.Spec(key));
    }
    client::InProcessClient primary(engine_), follower(follower_engine_);
    RECPRIV_ASSIGN_OR_RETURN(client::BatchAnswer want, primary.Query(request));
    RECPRIV_ASSIGN_OR_RETURN(client::BatchAnswer got, follower.Query(request));
    if (testing::AnswerFingerprint(want) != testing::AnswerFingerprint(got)) {
      problems->push_back("epoch " + std::to_string(epoch) +
                          ": follower answers differ from the primary's");
    }
    RecordAnswers(fingerprint_keys_, want, &records_);
    RecordAnswers(fingerprint_keys_, got, &records_);
    return out;
  }

  /// Replays the publish sequence from the raw release, checks each
  /// replayed epoch's content digest against the one served,
  /// and verifies `records` of each epoch against an oracle holding the
  /// replayed epoch through RegisterRebuilt (an independent full rebuild of
  /// the merged index). Retaining every served epoch instead would put
  /// dozens of snapshots into the run's memory peak.
  Verification Verify(std::vector<AnswerRecord> records,
                      std::vector<std::string>* problems) const {
    const QueryMix& mix = mix_;
    records.insert(records.end(), records_.begin(), records_.end());
    std::sort(records.begin(), records.end(),
              [](const AnswerRecord& a, const AnswerRecord& b) {
                return a.epoch < b.epoch;
              });
    Verification out;
    auto loaded = LoadPublisher(raw_, params_);
    if (!loaded.ok()) {
      problems->push_back("replay: " + loaded.status().ToString());
      return out;
    }
    core::StreamingPublisher publisher = *std::move(loaded);
    Rng rng = initial_rng_;
    auto next = records.begin();
    for (uint64_t epoch = 1; epoch <= served_digest_.size(); ++epoch) {
      Status inserted = Status::OK();
      if (epoch > 1) inserted = InsertRows(publisher, deltas_[epoch - 2]);
      auto merged = inserted.ok()
                        ? publisher.PublishIncremental(rng)
                        : Result<core::IncrementalPublishResult>(inserted);
      if (!merged.ok()) {
        problems->push_back("replay of epoch " + std::to_string(epoch) +
                            " failed: " + merged.status().ToString());
        break;
      }
      analysis::ReleaseBundle bundle{std::move(merged->table), params_,
                                     sensitive_, {}};
      auto snap = analysis::AssembleSnapshot(std::move(bundle), epoch,
                                             std::move(merged->index), {});
      if (!snap.ok() || (*snap)->content_digest != served_digest_[epoch - 1]) {
        problems->push_back("replayed epoch " + std::to_string(epoch) +
                            " does not reproduce the served content digest");
        break;
      }
      while (next != records.end() && next->epoch < epoch) ++next;
      auto end = next;
      while (end != records.end() && end->epoch == epoch) ++end;
      if (end != next) {
        workload::Oracle oracle;
        oracle.RegisterRebuilt(kRelease, *snap);
        out.Merge(VerifyRecords(oracle, mix, {next, end}));
      }
      next = end;
    }
    // Whatever is left answered an epoch the fleet never served.
    std::vector<AnswerRecord> rest;
    for (const AnswerRecord& r : records) {
      if (r.epoch == 0 || r.epoch > served_digest_.size()) rest.push_back(r);
    }
    if (!rest.empty()) {
      out.Merge(VerifyRecords(workload::Oracle(), mix, std::move(rest)));
    }
    return out;
  }

  /// Stops the follower and the server and releases both stores; Verify
  /// needs only the publish history. Idempotent.
  void StopServing() {
    if (replicator_ != nullptr) replicator_->Stop();
    if (server_ != nullptr) server_->Stop();
    replicator_.reset();
    follower_engine_.reset();
    follower_store_.reset();
    server_.reset();
    provider_.reset();
    engine_.reset();
    store_.reset();
  }

  uint16_t port() const { return server_->port(); }
  serve::QueryEngine& engine() { return *engine_; }
  client::ReplicationStats replication_stats() const {
    return replicator_->Stats();
  }

 private:
  Fleet(const Run& run, const QueryMix& mix, std::string dir)
      : raw_(run.raw()),
        params_(run.params),
        sensitive_(run.sa_name()),
        dir_(std::move(dir)),
        mix_(mix),
        rng_(run.streams.sps),
        initial_rng_(run.streams.sps) {}

  /// Runs the publish stages of `epoch` on copies of the publisher and RNG,
  /// recording each stage's time in `stages`; returns the copy's content
  /// digest.
  Result<uint64_t> ShadowPublish(uint64_t epoch, StageSamples* stages) {
    core::StreamingPublisher shadow = *publisher_;
    Rng shadow_rng = rng_;
    Clock::time_point t = Clock::now();
    RECPRIV_ASSIGN_OR_RETURN(core::IncrementalPublishResult merged,
                             shadow.PublishIncremental(shadow_rng));
    const double merge_ms = MsSince(t);
    analysis::ReleaseBundle bundle{std::move(merged.table), params_,
                                   sensitive_, {}};
    analysis::SnapshotSource source;
    source.kind = "incremental";
    t = Clock::now();
    RECPRIV_ASSIGN_OR_RETURN(
        auto snap, analysis::AssembleSnapshot(std::move(bundle), epoch,
                                              std::move(merged.index), source));
    const double assemble_ms = MsSince(t);
    t = Clock::now();
    RECPRIV_ASSIGN_OR_RETURN(std::vector<uint8_t> image,
                             store::SerializeSnapshot(*snap, kRelease));
    const double serialize_ms = MsSince(t);
    const std::string path = dir_ + "/shadow.rps";
    t = Clock::now();
    RECPRIV_RETURN_NOT_OK(store::WriteBytesAtomic(image, path));
    const double write_ms = MsSince(t);
    fs::remove(path);
    (*stages)["core.sps_merge_ms"].push_back(merge_ms);
    (*stages)["analysis.assemble_ms"].push_back(assemble_ms);
    (*stages)["analysis.posting_build_ms"].push_back(snap->source.build_ms);
    (*stages)["store.serialize_ms"].push_back(serialize_ms);
    (*stages)["store.write_ms"].push_back(write_ms);
    (*stages)["store.image_bytes"].push_back(double(image.size()));
    (*stages)["core.groups_touched"].push_back(
        double(merged.stats.groups_touched));
    (*stages)["core.delta_rows"].push_back(double(merged.stats.delta_rows));
    return snap->content_digest;
  }

  /// The raw release loaded into a fresh StreamingPublisher: the state
  /// before epoch 1, where publishing and the verification replay start.
  static Result<core::StreamingPublisher> LoadPublisher(
      const table::Table& raw, const core::PrivacyParams& params) {
    RECPRIV_ASSIGN_OR_RETURN(
        core::StreamingPublisher publisher,
        core::StreamingPublisher::Make(raw.schema(), params));
    RECPRIV_RETURN_NOT_OK(InsertRows(publisher, raw));
    return publisher;
  }

  const table::Table& raw_;  ///< owned by the run, which outlives the fleet
  const core::PrivacyParams params_;
  const std::string sensitive_;
  const std::string dir_;
  const QueryMix& mix_;  ///< outlives the fleet (owned by the workload)
  std::vector<uint64_t> fingerprint_keys_;
  std::unique_ptr<core::StreamingPublisher> publisher_;
  Rng rng_;
  Rng initial_rng_;
  std::vector<table::Table> deltas_;
  std::vector<uint64_t> served_digest_;  ///< by epoch - 1
  std::vector<AnswerRecord> records_;    ///< fingerprint answers, both sides

  std::shared_ptr<serve::ReleaseStore> store_;
  std::shared_ptr<serve::QueryEngine> engine_;
  std::unique_ptr<repl::SnapshotProvider> provider_;
  std::unique_ptr<serve::Server> server_;
  std::shared_ptr<serve::ReleaseStore> follower_store_;
  std::shared_ptr<serve::QueryEngine> follower_engine_;
  std::unique_ptr<repl::Replicator> replicator_;
};

// --- traced publish-path probe -----------------------------------------------

/// One full publish, stage by stage: SPS, snapshot, serialize, write, and
/// reopening the written file, whose digest must match.
Status ProbeFullPublish(Run& run, Rng& rng) {
  StageSamples& st = run.stages;
  Clock::time_point t = Clock::now();
  RECPRIV_ASSIGN_OR_RETURN(core::SpsTableResult sps,
                           core::SpsPerturbTable(run.params, run.raw(), rng));
  st["core.sps_ms"].push_back(MsSince(t));
  analysis::ReleaseBundle bundle{std::move(sps.table), run.params,
                                 run.sa_name(), {}};
  t = Clock::now();
  RECPRIV_ASSIGN_OR_RETURN(auto snap,
                           analysis::SnapshotRelease(std::move(bundle), 1));
  st["analysis.snapshot_ms"].push_back(MsSince(t));
  t = Clock::now();
  RECPRIV_ASSIGN_OR_RETURN(std::vector<uint8_t> image,
                           store::SerializeSnapshot(*snap, kRelease));
  st["store.serialize_ms"].push_back(MsSince(t));
  st["store.image_bytes"].push_back(double(image.size()));
  const std::string path = run.options.work_dir + "/probe.rps";
  t = Clock::now();
  RECPRIV_RETURN_NOT_OK(store::WriteBytesAtomic(image, path));
  st["store.write_ms"].push_back(MsSince(t));
  t = Clock::now();
  RECPRIV_ASSIGN_OR_RETURN(store::OpenedSnapshot opened,
                           store::OpenSnapshot(path));
  st["store.open_ms"].push_back(MsSince(t));
  if (opened.snapshot->content_digest != snap->content_digest) {
    run.Problem("probe: the reopened snapshot's digest differs from the "
                "written one");
  }
  fs::remove(path);
  return Status::OK();
}

/// Times every publish-path stage on this run's release, so every traced
/// run reports the whole per-layer list whatever path its workload takes:
/// kProbeRounds full publishes and as many shadowed incremental republishes
/// (one delta each) through a replicated fleet — `fleet` when the workload
/// has one, else a fresh one.
Status ProbePublishPath(Run& run, const QueryMix& mix, Fleet* fleet,
                        const std::vector<table::Table>& deltas) {
  Rng rng = run.streams.probe;
  for (size_t i = 0; i < kProbeRounds; ++i) {
    RECPRIV_RETURN_NOT_OK(ProbeFullPublish(run, rng));
  }
  std::unique_ptr<Fleet> own;
  if (fleet == nullptr) {
    RECPRIV_ASSIGN_OR_RETURN(
        own, Fleet::Start(run, mix, kChurnReads,
                          run.options.work_dir + "/probe"));
    fleet = own.get();
  }
  for (const table::Table& delta : deltas) {
    RECPRIV_RETURN_NOT_OK(
        fleet->Republish(delta, &run.stages, &run.result.problems).status());
  }
  if (own != nullptr) {
    own->StopServing();
    run.verification.Merge(own->Verify({}, &run.result.problems));
  }
  return Status::OK();
}

/// Medians of the publish-path samples: per-layer metrics, except the
/// counts that describe the delta rather than a cost, and store.install_ms.
/// That one is the real publish minus the shadow stages, a difference of two
/// noisy times: on a shared host it often reads negative, so it stays in
/// the record only.
void AddStageMetrics(Run& run) {
  static const std::set<std::string> kDescriptive = {
      "core.groups_touched", "core.delta_rows", "store.install_ms"};
  for (const auto& [name, samples] : run.stages) {
    std::vector<double> v = samples;
    const bool descriptive = kDescriptive.count(name) > 0;
    const std::string unit =
        name.ends_with("_ms")                    ? "ms"
        : name.find("bytes") != std::string::npos ? "bytes"
                                                  : "count";
    const Metric m{Median(v), unit, descriptive ? "" : "lower", v.size()};
    (descriptive ? run.result.extra : run.result.layer)[name] = m;
  }
}

// --- hot_point / cold_scan ---------------------------------------------------

/// An in-memory served release: SpsPerturbTable -> ReleaseStore::Publish ->
/// serve::Server, the path `recpriv_publish` + `recpriv_serve` take.
struct Served {
  std::shared_ptr<serve::ReleaseStore> store;
  std::shared_ptr<serve::QueryEngine> engine;
  std::unique_ptr<serve::Server> server;
  serve::SnapshotPtr snap;
};

Status RunServedReads(Run& run, const ReadSpec& spec) {
  const QueryMix mix(*run.raw().schema(), spec.dim_weights, spec.zipf_s);
  std::vector<double> publish_ms;
  auto setup = [&](int) -> Result<std::unique_ptr<Served>> {
    auto s = std::make_unique<Served>();
    Rng rng = run.streams.sps;  // every repetition publishes the same release
    RECPRIV_ASSIGN_OR_RETURN(core::SpsTableResult sps,
                             core::SpsPerturbTable(run.params, run.raw(), rng));
    analysis::ReleaseBundle bundle{std::move(sps.table), run.params,
                                   run.sa_name(), {}};
    s->store = std::make_shared<serve::ReleaseStore>();
    serve::QueryEngineOptions options;
    options.cache_capacity = spec.cache_capacity;
    s->engine = std::make_shared<serve::QueryEngine>(s->store, options);
    const Clock::time_point t = Clock::now();
    RECPRIV_ASSIGN_OR_RETURN(s->snap,
                             s->store->Publish(kRelease, std::move(bundle)));
    publish_ms.push_back(MsSince(t));
    RECPRIV_ASSIGN_OR_RETURN(s->server, serve::Server::Start(s->engine));
    RECPRIV_RETURN_NOT_OK(FirstAnswer(s->server->port(), run.first_sa_value()));
    return s;
  };
  RECPRIV_ASSIGN_OR_RETURN(std::unique_ptr<Served> served,
                           RepeatSetup<Served>(run, setup));
  ReportPublishMs(run, publish_ms);

  AnswerLog log;
  RECPRIV_RETURN_NOT_OK(RunReadPhases(run, spec, *served->engine,
                                      served->server->port(), mix, &log));
  if (run.options.trace) {
    RECPRIV_ASSIGN_OR_RETURN(std::vector<table::Table> deltas,
                             MakeDeltas(run, kProbeRounds));
    RECPRIV_RETURN_NOT_OK(ProbePublishPath(run, mix, nullptr, deltas));
  }
  served->server->Stop();
  workload::Oracle oracle;
  oracle.Register(kRelease, served->snap);
  std::vector<AnswerRecord> records = Flatten(std::move(log));
  MaybeCorrupt(run, &records);
  run.verification.Merge(VerifyRecords(oracle, mix, std::move(records)));
  return Status::OK();
}

// --- republish_churn ---------------------------------------------------------

Status RunChurn(Run& run) {
  const ReadSpec& spec = kChurnReads;
  const bool trace = run.options.trace;
  const QueryMix mix(*run.raw().schema(), spec.dim_weights, spec.zipf_s);
  const std::string dir = run.options.work_dir + "/fleet";
  RECPRIV_ASSIGN_OR_RETURN(
      std::unique_ptr<Fleet> fleet,
      RepeatSetup<Fleet>(
          run, [&](int) { return Fleet::Start(run, mix, spec, dir); }));

  // Warm-up and open loop: the writer republishes on a fixed schedule,
  // waiting for the follower each time. Untraced closed phase: it republishes
  // back to back while the readers keep their rate, and ops_per_s is
  // republish cycles (publish + follower convergence) per second.
  const double scheduled_s = run.Seconds(
      kWarmShare + (trace ? 2 * kTracedOpenShare : kOpenShare));
  const size_t scheduled = size_t(std::ceil(scheduled_s / kPublishIntervalS));
  const size_t saturated =
      trace ? 0
            : size_t(std::ceil(run.Seconds(kClosedShare) *
                               kMaxCyclesPerSecond));
  RECPRIV_ASSIGN_OR_RETURN(std::vector<table::Table> deltas,
                           MakeDeltas(run, scheduled + saturated));

  std::atomic<bool> stop{false};
  std::atomic<bool> saturate{false};
  std::vector<double> publish_ms, lag_ms, saturated_cycle_ms;
  std::vector<std::string> writer_problems;
  uint64_t writer_attempted = 0, writer_failed = 0;
  StageSamples* stages = trace ? &run.stages : nullptr;
  std::thread writer([&] {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < deltas.size(); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(double(i) *
                                                    kPublishIntervalS));
      while (!stop.load() && !saturate.load() && Clock::now() < due) {
        std::this_thread::sleep_for(std::min<Clock::duration>(
            due - Clock::now(), std::chrono::milliseconds(10)));
      }
      if (stop.load()) break;
      const bool in_saturation = saturate.load();
      const Clock::time_point t0 = Clock::now();
      ++writer_attempted;
      auto published = fleet->Republish(deltas[i], stages, &writer_problems);
      if (!published.ok()) {
        ++writer_failed;
        std::cerr << "republish failed: " << published.status() << "\n";
        continue;
      }
      publish_ms.push_back(published->publish_ms);
      lag_ms.push_back(published->lag_ms);
      if (in_saturation) saturated_cycle_ms.push_back(MsSince(t0));
    }
  });
  AnswerLog log;
  const Status reads =
      RunReadPhases(run, spec, fleet->engine(), fleet->port(), mix, &log,
                    [&] { saturate.store(true); });
  stop.store(true);
  writer.join();
  RECPRIV_RETURN_NOT_OK(reads);

  run.result.attempted += writer_attempted;
  run.result.failed += writer_failed;
  for (std::string& p : writer_problems) run.Problem(std::move(p));
  if (publish_ms.empty()) return Status::Internal("no republish completed");
  if (!trace) {
    if (saturated_cycle_ms.empty()) {
      return Status::Internal("no republish cycle in the closed phase");
    }
    const uint64_t cycles = saturated_cycle_ms.size();
    run.result.e2e["ops_per_s"] =
        Metric{1e3 / Median(saturated_cycle_ms), "1/s", "higher", cycles};
  }
  run.result.extra["writer.publishes"] =
      Metric{double(publish_ms.size()), "count", "", 0};
  const uint64_t lags = lag_ms.size();
  run.result.extra["follower_lag_p50_ms"] =
      Metric{Median(lag_ms), "ms", "lower", lags};
  ReportPublishMs(run, std::move(publish_ms));

  if (trace) {
    RECPRIV_ASSIGN_OR_RETURN(std::vector<table::Table> probe_deltas,
                             MakeDeltas(run, kProbeRounds));
    RECPRIV_RETURN_NOT_OK(
        ProbePublishPath(run, mix, fleet.get(), probe_deltas));
  }
  const client::ReplicationStats stats = fleet->replication_stats();
  run.result.extra["repl.reconnects"] =
      Metric{double(stats.reconnects), "count", "", 0};
  run.result.extra["repl.digest_mismatches"] =
      Metric{double(stats.digest_mismatches), "count", "", 0};
  if (stats.digest_mismatches > 0) {
    run.Problem("the follower rejected " +
                std::to_string(stats.digest_mismatches) +
                " transfers as digest mismatches");
  }
  fleet->StopServing();
  std::vector<AnswerRecord> records = Flatten(std::move(log));
  MaybeCorrupt(run, &records);
  run.verification.Merge(
      fleet->Verify(std::move(records), &run.result.problems));
  return Status::OK();
}

// --- restart_recover ---------------------------------------------------------

/// The durable epochs restart_recover reopens: kRetainedEpochs releases,
/// each its own SPS draw, persisted by a durable ReleaseStore, plus the
/// stack that published them (kept until the next repetition tears it down).
struct Persisted {
  std::string dir;
  std::vector<serve::SnapshotPtr> snaps;  ///< as published, epoch-ascending
  std::shared_ptr<serve::ReleaseStore> store;
  std::shared_ptr<serve::QueryEngine> engine;
  std::unique_ptr<serve::Server> server;
};

struct RestartLoop {
  std::vector<double> restart_ms;  ///< restart start -> first answer
  std::vector<double> rtt_ms;      ///< the first query alone (TCP loop)
  uint64_t queries = 0;
  uint64_t cache_hits = 0;
  uint64_t digest_mismatches = 0;
  double seconds = 0.0;
};

/// Restarts the durable stack from `persisted.dir` until `seconds` pass: a
/// new ReleaseStore + RecoverFromDir + QueryEngine + Server::Start + the
/// first query answered, over TCP or, in a traced run, through `pipe`.
/// Every recovered epoch's content digest must equal the persisted one.
Result<RestartLoop> RestartFor(Run& run, const Persisted& persisted,
                               const QueryMix& mix, double seconds,
                               TracedPipe* pipe, TracedTally* traced,
                               std::shared_ptr<serve::QueryEngine>* last,
                               std::vector<AnswerRecord>* records) {
  RestartLoop out;
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  uint64_t request_id = 0;
  while (Clock::now() < deadline) {
    const std::vector<uint64_t> keys{mix.Draw(run.streams.queries)};
    client::QueryRequest request;
    request.release = kRelease;
    request.queries.push_back(mix.Spec(keys[0]));
    ++run.result.attempted;

    const Clock::time_point t0 = Clock::now();
    auto store = std::make_shared<serve::ReleaseStore>(
        serve::ReleaseStore::Options{kRetainedEpochs, persisted.dir});
    std::shared_ptr<serve::QueryEngine> engine;
    std::unique_ptr<serve::Server> server;
    double rtt_ms = 0.0;
    Result<client::BatchAnswer> answer = [&]() -> Result<client::BatchAnswer> {
      RECPRIV_RETURN_NOT_OK(store->RecoverFromDir());
      engine = std::make_shared<serve::QueryEngine>(store);
      RECPRIV_ASSIGN_OR_RETURN(server, serve::Server::Start(engine));
      if (pipe != nullptr) {
        return pipe->Call(*engine, request, ++request_id, &traced->spans,
                          &traced->request_bytes, &traced->response_bytes);
      }
      RECPRIV_ASSIGN_OR_RETURN(auto client,
                               client::ConnectTcp("127.0.0.1", server->port()));
      const Clock::time_point sent = Clock::now();
      auto got = client->Query(request);
      rtt_ms = MsSince(sent);
      return got;
    }();
    const double restart_ms = MsSince(t0);

    if (!answer.ok()) {
      ++run.result.failed;
      std::cerr << "restart failed: " << answer.status() << "\n";
    } else {
      out.restart_ms.push_back(restart_ms);
      if (pipe == nullptr) out.rtt_ms.push_back(rtt_ms);
      ++out.queries;
      out.cache_hits += answer->cache_hits;
      RecordAnswers(keys, *answer, records);
      if (traced != nullptr) traced->requests.push_back(keys);
      auto window = store->Window(kRelease);
      if (!window.ok() || window->size() != persisted.snaps.size()) {
        ++out.digest_mismatches;
      } else {
        for (size_t i = 0; i < window->size(); ++i) {
          if ((*window)[i]->content_digest !=
              persisted.snaps[i]->content_digest) {
            ++out.digest_mismatches;
          }
        }
      }
    }
    if (server != nullptr) server->Stop();
    server.reset();
    *last = std::move(engine);
  }
  out.seconds = MsSince(begin) / 1e3;
  return out;
}

Status RunRestarts(Run& run) {
  const ReadSpec& spec = kHotPoint;  // the first query is a hot_point query
  const bool trace = run.options.trace;
  const QueryMix mix(*run.raw().schema(), spec.dim_weights, spec.zipf_s);
  std::vector<double> publish_ms;
  auto setup = [&](int rep) -> Result<std::unique_ptr<Persisted>> {
    auto p = std::make_unique<Persisted>();
    p->dir = run.options.work_dir + "/restart" + std::to_string(rep);
    fs::create_directories(p->dir);
    p->store = std::make_shared<serve::ReleaseStore>(
        serve::ReleaseStore::Options{kRetainedEpochs, p->dir});
    p->engine = std::make_shared<serve::QueryEngine>(p->store);
    Rng base = run.streams.sps;  // every repetition persists the same epochs
    for (size_t e = 0; e < kRetainedEpochs; ++e) {
      Rng rng = base.Fork();
      RECPRIV_ASSIGN_OR_RETURN(
          core::SpsTableResult sps,
          core::SpsPerturbTable(run.params, run.raw(), rng));
      analysis::ReleaseBundle bundle{std::move(sps.table), run.params,
                                     run.sa_name(), {}};
      const Clock::time_point t = Clock::now();
      RECPRIV_ASSIGN_OR_RETURN(serve::SnapshotPtr snap,
                               p->store->Publish(kRelease, std::move(bundle)));
      publish_ms.push_back(MsSince(t));
      p->snaps.push_back(std::move(snap));
    }
    RECPRIV_ASSIGN_OR_RETURN(p->server, serve::Server::Start(p->engine));
    RECPRIV_RETURN_NOT_OK(FirstAnswer(p->server->port(), run.first_sa_value()));
    return p;
  };
  RECPRIV_ASSIGN_OR_RETURN(std::unique_ptr<Persisted> persisted,
                           RepeatSetup<Persisted>(run, setup));
  ReportPublishMs(run, publish_ms);
  persisted->server.reset();
  persisted->engine.reset();
  persisted->store.reset();
  for (int rep = 0; rep + 1 < kSetupReps; ++rep) {
    fs::remove_all(run.options.work_dir + "/restart" + std::to_string(rep));
  }

  std::vector<AnswerRecord> records;
  std::shared_ptr<serve::QueryEngine> last;
  RECPRIV_ASSIGN_OR_RETURN(
      RestartLoop loop,
      RestartFor(run, *persisted, mix, run.Seconds(trace ? 0.5 : 1.0), nullptr,
                 nullptr, &last, &records));
  RunResult& res = run.result;
  std::vector<double> restart_ms = loop.restart_ms;
  const uint64_t n = restart_ms.size();
  res.e2e["op_p50_ms"] = Metric{Median(restart_ms), "ms", "lower", n};
  res.e2e["op_p90_ms"] =
      Metric{NearestRank(restart_ms, 0.90), "ms", "lower", n};
  if (SamplesBeyond(n, 0.90) < 10) {
    run.Invalid("op_p90_ms: fewer than 10 samples beyond p90");
  }
  res.e2e["ops_per_s"] = Metric{double(n) / loop.seconds, "1/s", "higher", n};
  std::vector<double> rtt = loop.rtt_ms;
  const double rtt_p50 = Median(rtt);
  res.extra["first_query_rtt_p50_ms"] = Metric{rtt_p50, "ms", "lower", n};
  res.layer["engine.cache_miss_ratio"] =
      Metric{loop.queries > 0
                 ? 1.0 - double(loop.cache_hits) / double(loop.queries)
                 : 1.0,
             "ratio", "lower", loop.queries};
  uint64_t digest_mismatches = loop.digest_mismatches;

  if (trace) {
    RECPRIV_ASSIGN_OR_RETURN(std::unique_ptr<TracedPipe> pipe,
                             TracedPipe::Open());
    TracedTally traced;
    const double span_cost_ns = MeasureSpanCostNs();
    RECPRIV_ASSIGN_OR_RETURN(
        RestartLoop traced_loop,
        RestartFor(run, *persisted, mix, run.Seconds(0.5), pipe.get(), &traced,
                   &last, &records));
    digest_mismatches += traced_loop.digest_mismatches;
    AddSpanMetrics(traced, span_cost_ns, rtt_p50, &res.layer, &res.extra);
    if (last != nullptr) {
      RECPRIV_RETURN_NOT_OK(AddReplayMetrics(*last, mix, traced.requests,
                                             &res.layer, &res.extra));
    }
    res.spans = std::move(traced.spans);
    last.reset();
    RECPRIV_ASSIGN_OR_RETURN(std::vector<table::Table> deltas,
                             MakeDeltas(run, kProbeRounds));
    RECPRIV_RETURN_NOT_OK(ProbePublishPath(run, mix, nullptr, deltas));
  }
  last.reset();
  if (digest_mismatches > 0) {
    run.Problem(std::to_string(digest_mismatches) +
                " recovered epochs did not carry the persisted content digest");
  }
  workload::Oracle oracle;
  for (const serve::SnapshotPtr& snap : persisted->snaps) {
    oracle.Register(kRelease, snap);
  }
  MaybeCorrupt(run, &records);
  run.verification.Merge(VerifyRecords(oracle, mix, std::move(records)));
  return Status::OK();
}

JsonValue ReadSpecJson(const ReadSpec& spec) {
  JsonValue out = JsonValue::Object();
  out.Set("connections", JsonValue::Int(int64_t(spec.connections)));
  out.Set("queries_per_request",
          JsonValue::Int(int64_t(spec.queries_per_request)));
  JsonValue dims = JsonValue::Array();
  for (double w : spec.dim_weights) dims.Append(JsonValue::Number(w));
  out.Set("dim_weights", std::move(dims));
  out.Set("zipf_s", JsonValue::Number(spec.zipf_s));
  out.Set("rate_rps", JsonValue::Number(spec.rate_rps));
  out.Set("cache_capacity", JsonValue::Int(int64_t(spec.cache_capacity)));
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "hot_point", "cold_scan", "republish_churn", "restart_recover"};
  return kNames;
}

Result<RunResult> RunWorkload(const RunOptions& options) {
  Run run(options);
  RECPRIV_RETURN_NOT_OK(MakeRelease(run));
  JsonValue& config = run.result.config;
  config.Set("rows", JsonValue::Int(int64_t(options.rows)));
  config.Set("seconds", JsonValue::Number(options.seconds));
  config.Set("setup_reps", JsonValue::Int(kSetupReps));
  config.Set("lambda", JsonValue::Number(run.params.lambda));
  config.Set("delta", JsonValue::Number(run.params.delta));
  config.Set("retention_p", JsonValue::Number(run.params.retention_p));

  Status status;
  if (options.workload == "hot_point") {
    config.Set("reads", ReadSpecJson(kHotPoint));
    status = RunServedReads(run, kHotPoint);
  } else if (options.workload == "cold_scan") {
    config.Set("reads", ReadSpecJson(kColdScan));
    status = RunServedReads(run, kColdScan);
  } else if (options.workload == "republish_churn") {
    config.Set("reads", ReadSpecJson(kChurnReads));
    config.Set("publish_interval_s", JsonValue::Number(kPublishIntervalS));
    config.Set("delta_share", JsonValue::Number(kDeltaShare));
    status = RunChurn(run);
  } else if (options.workload == "restart_recover") {
    config.Set("retained_epochs", JsonValue::Int(int64_t(kRetainedEpochs)));
    status = RunRestarts(run);
  } else {
    return Status::InvalidArgument("unknown workload '" + options.workload +
                                   "'");
  }
  RECPRIV_RETURN_NOT_OK(status);
  if (options.trace) AddStageMetrics(run);

  RunResult& res = run.result;
  const Verification& v = run.verification;
  res.extra["oracle.verified"] = Metric{double(v.verified), "count", "", 0};
  res.extra["oracle.mismatches"] = Metric{double(v.mismatches), "count", "", 0};
  res.extra["oracle.unknown_epochs"] =
      Metric{double(v.unknown_epochs), "count", "", 0};
  if (v.verified == 0) res.problems.push_back("no answer was verified");
  if (!v.clean()) {
    res.problems.push_back(std::to_string(v.mismatches) +
                           " oracle mismatches, " +
                           std::to_string(v.unknown_epochs) +
                           " unknown epochs");
    for (const std::string& d : v.details) res.problems.push_back("  " + d);
  }
  res.extra["error_rate"] =
      Metric{res.attempted > 0 ? double(res.failed) / double(res.attempted)
                               : 0.0,
             "fraction", "lower", res.attempted};
  res.e2e["rss_peak_mb"] = Metric{PeakRssMb(), "MB", "lower", 1};
  return std::move(run.result);
}

}  // namespace recpriv::e2e
