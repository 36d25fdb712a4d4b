// recpriv_serve — the release-serving front end: loads self-describing
// release bundles (see analysis/release.h), registers them through the
// typed client API (client/in_process_client.h), and answers
// line-delimited JSON count-query requests from stdin on stdout
// (protocol v1 + v2: src/serve/wire.h).
//
//   recpriv_publish --input patients.csv --sensitive Disease
//                   --output release.csv --manifest release
//   recpriv_serve --release release --name patients
//   > {"v":2,"id":1,"op":"query","release":"patients","queries":[{"where":{"Job":"eng"},"sa":"flu"}]}
//
// Multiple releases: positional NAME=BASENAME arguments. --demo publishes a
// small synthetic release named "demo" for protocol experiments without any
// input files. Republishing (wire op "publish") retains a bounded window of
// recent epochs per release (--retain) so pinned-epoch sessions stay
// consistent across republishes.
//
// Replication: every --port server is a potential primary (it answers the
// subscribe/fetch_snapshot ops of src/repl), and --follow HOST:PORT turns
// this process into a follower that mirrors that primary's releases and
// serves reads from the local copies — the read-scaling fleet topology.

#include <unistd.h>

#include <csignal>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <set>
#include <thread>

#include "recpriv.h"

namespace {

using namespace recpriv;  // NOLINT

constexpr const char* kUsage = R"(usage: recpriv_serve [options] [NAME=BASENAME ...]

Serves count queries over published releases as line-delimited JSON (the
wire protocol of src/serve/wire.h: v1 legacy + v2 with ids, structured
errors, epoch pinning, and publish/drop/schema/stats admin ops).

Two transports share the same protocol byte stream:
  default             one session on stdin/stdout
  --port N            concurrent sessions over TCP (src/serve/server.h);
                      N=0 binds a kernel-assigned port, printed on stderr
                      as "listening on HOST:PORT". SIGINT/SIGTERM drains
                      in-flight requests and exits cleanly.

release sources (at least one, unless --demo):
  --release BASE      load BASE.csv + BASE.manifest.json (written by
                      recpriv_publish --manifest) and serve it
  --name NAME         name for the --release bundle     [default "default"]
  NAME=BASENAME       additional positional releases, each a manifest base

options:
  --threads N         worker threads for batch evaluation  [default: cores]
  --cache N           answer-cache capacity (entries)      [default 65536]
  --retain N          retained epochs per release for pinned queries
                      [default 4]
  --snapshot-dir DIR  persist every publish as a binary snapshot under DIR
                      (src/store format, one .rps file per epoch) and, at
                      startup, recover the retained-epoch window from DIR;
                      a server restarted with the same DIR serves the same
                      releases without re-parsing any CSV
  --quota-qps X       per-tenant admission quota in queries/second (token
                      bucket, keyed by the request's "tenant" field; the
                      stats op reports a "tenants" section). Over-quota
                      requests get RESOURCE_EXHAUSTED.  [default 0: off]
  --quota-burst X     token-bucket burst capacity     [default: max(qps,1)]
  --host HOST         TCP bind address                [default 127.0.0.1]
  --max-conns N       concurrent TCP sessions; further connections get one
                      UNAVAILABLE error line            [default 64]
  --idle-timeout-ms N drop a TCP session silent this long  [default: never]
  --demo              publish a built-in synthetic release named "demo"
  --help              print this help and exit

replication (read-scaling fleet, src/repl):
  Every --port server answers the replication ops ("subscribe",
  "fetch_snapshot"), so any recpriv_serve can be a primary.

  --follow HOST:PORT  follow that primary instead of publishing: mirror its
                      releases into the local store (every fetched snapshot
                      is digest-verified and persisted before install, under
                      --snapshot-dir or a temp directory) and serve reads
                      from the local copies. Staleness is bounded and
                      observable: the stats op reports a "replication"
                      section with lag_epochs / lag_ms. The link always
                      offers binary wire frames (snapshot chunks ride as raw
                      bytes) and falls back to JSON lines when the primary
                      does not frame. Mutually exclusive with --release,
                      --demo, and NAME=BASENAME.
  --follow-faults R   inject seeded byte-level faults on the replication
                      link, rate R per fault kind (testing: proves a
                      follower that dies mid-transfer converges clean)
  --follow-fault-seed N  fault schedule seed               [default 2015]
)";

/// Boolean flags, declared so "--demo NAME=BASENAME" keeps NAME=BASENAME
/// positional instead of mis-parsing it as --demo's value.
const std::vector<std::string> kBooleanFlags = {"demo", "help"};

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int sig) { g_signal = sig; }

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

void PrintServing(const client::ReleaseDescriptor& desc) {
  std::cerr << "serving '" << desc.name << "' (epoch " << desc.epoch << "): "
            << FormatWithCommas(int64_t(desc.num_records)) << " records, "
            << FormatWithCommas(int64_t(desc.num_groups)) << " groups\n";
}

int Run(int argc, char** argv) {
  auto flags_or = FlagSet::Parse(argc, argv, kBooleanFlags);
  if (!flags_or.ok()) return Fail(flags_or.status());
  const FlagSet& flags = *flags_or;

  const std::set<std::string> known = {
      "release", "name", "threads",   "cache",           "retain", "demo",
      "help",    "host", "port",      "max-conns",       "idle-timeout-ms",
      "snapshot-dir",  "quota-qps",  "quota-burst",
      "follow",  "follow-faults",  "follow-fault-seed"};
  for (const auto& name : flags.FlagNames()) {
    if (!known.count(name)) {
      std::cerr << "unknown flag --" << name << "\n" << kUsage;
      return 1;
    }
  }
  if (flags.Has("help")) {
    std::cout << kUsage;
    return 0;
  }

  serve::QueryEngineOptions options;
  auto threads = flags.GetInt("threads", 0);
  auto cache = flags.GetInt("cache", int64_t(options.cache_capacity));
  auto retain =
      flags.GetInt("retain", int64_t(serve::ReleaseStore::kDefaultRetainedEpochs));
  if (!threads.ok()) return Fail(threads.status());
  if (!cache.ok()) return Fail(cache.status());
  if (!retain.ok()) return Fail(retain.status());
  if (*threads < 0 || *cache < 0 || *retain < 1) {
    return Fail(Status::InvalidArgument(
        "--threads/--cache must be >= 0 and --retain >= 1"));
  }
  options.num_threads = size_t(*threads);
  options.cache_capacity = size_t(*cache);

  auto quota_qps = flags.GetDouble("quota-qps", 0.0);
  auto quota_burst = flags.GetDouble("quota-burst", 0.0);
  if (!quota_qps.ok()) return Fail(quota_qps.status());
  if (!quota_burst.ok()) return Fail(quota_burst.status());
  if (*quota_qps < 0 || *quota_burst < 0) {
    return Fail(Status::InvalidArgument(
        "--quota-qps and --quota-burst must be >= 0"));
  }
  options.tenant_quota_qps = *quota_qps;
  options.tenant_quota_burst = *quota_burst;

  // --follow HOST:PORT — follower mode (replication, src/repl).
  const std::string follow = flags.GetString("follow", "");
  std::string follow_host;
  uint16_t follow_port = 0;
  if (!follow.empty()) {
    const auto colon = follow.rfind(':');
    int64_t parsed_port = 0;
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == follow.size()) {
      return Fail(Status::InvalidArgument("--follow must be HOST:PORT"));
    }
    try {
      parsed_port = std::stoll(follow.substr(colon + 1));
    } catch (...) {
      parsed_port = -1;
    }
    if (parsed_port < 1 || parsed_port > 65535) {
      return Fail(Status::InvalidArgument("--follow port must be 1..65535"));
    }
    follow_host = follow.substr(0, colon);
    follow_port = uint16_t(parsed_port);
    if (flags.Has("release") || flags.Has("demo") ||
        !flags.positional().empty()) {
      return Fail(Status::InvalidArgument(
          "--follow is mutually exclusive with --release/--demo/"
          "NAME=BASENAME: a follower serves only what its primary "
          "publishes"));
    }
  }
  auto follow_faults = flags.GetDouble("follow-faults", 0.0);
  auto follow_fault_seed = flags.GetInt("follow-fault-seed", 2015);
  if (!follow_faults.ok()) return Fail(follow_faults.status());
  if (!follow_fault_seed.ok()) return Fail(follow_fault_seed.status());
  if (*follow_faults < 0.0 || *follow_faults > 1.0) {
    return Fail(
        Status::InvalidArgument("--follow-faults must be in [0, 1]"));
  }

  serve::ReleaseStore::Options store_options;
  store_options.retained_epochs = size_t(*retain);
  store_options.snapshot_dir = flags.GetString("snapshot-dir", "");
  if (!follow.empty() && store_options.snapshot_dir.empty()) {
    // Persist-before-install needs a durable store; a follower without an
    // explicit --snapshot-dir gets a per-process scratch directory.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("recpriv_follow_" + std::to_string(getpid()));
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      return Fail(Status::IOError("cannot create follower snapshot dir " +
                                  dir.string() + ": " + ec.message()));
    }
    store_options.snapshot_dir = dir.string();
    std::cerr << "follower snapshots under " << store_options.snapshot_dir
              << " (use --snapshot-dir to keep them across restarts)\n";
  }
  auto store = std::make_shared<serve::ReleaseStore>(store_options);
  if (!store->snapshot_dir().empty()) {
    // Recover before any --release/--demo publish: recovered epochs must
    // precede this run's epochs in every release window.
    auto recovered = store->RecoverFromDir();
    if (!recovered.ok()) return Fail(recovered);
    for (const serve::ReleaseInfo& info : store->List()) {
      std::cerr << "recovered '" << info.name << "' from snapshots (epochs "
                << info.oldest_epoch << ".." << info.epoch << ")\n";
    }
  }
  auto engine = std::make_shared<serve::QueryEngine>(store, options);
  client::InProcessClient admin(engine);

  // Always available: any serving process can hand its snapshots to
  // followers (the TCP server enables subscribe/fetch_snapshot with it,
  // and the stdin front end at least answers fetch_snapshot).
  repl::SnapshotProvider snapshot_provider(*store);

  std::unique_ptr<repl::Replicator> replicator;
  std::function<client::ReplicationStats()> replication_stats;
  if (!follow.empty()) {
    repl::ReplicatorOptions repl_options;
    repl_options.primary_host = follow_host;
    repl_options.primary_port = follow_port;
    if (*follow_faults > 0.0) {
      net::FaultOptions fault_options;
      fault_options.seed = uint64_t(*follow_fault_seed);
      fault_options.drop_rate = *follow_faults;
      fault_options.disconnect_rate = *follow_faults;
      fault_options.truncate_rate = *follow_faults;
      fault_options.short_write_rate = *follow_faults;
      fault_options.delay_rate = *follow_faults;
      repl_options.fault_injector =
          std::make_shared<net::FaultInjector>(fault_options);
    }
    auto started = repl::Replicator::Start(*store, repl_options);
    if (!started.ok()) return Fail(started.status());
    replicator = std::move(*started);
    replication_stats = [r = replicator.get()] { return r->Stats(); };
    std::cerr << "following " << follow_host << ":" << follow_port << "\n";
  }

  if (flags.Has("release")) {
    auto desc = admin.Publish(flags.GetString("name", "default"),
                              flags.GetString("release"));
    if (!desc.ok()) return Fail(desc.status());
    PrintServing(*desc);
  }
  for (const std::string& arg : flags.positional()) {
    auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == arg.size()) {
      std::cerr << "positional argument must be NAME=BASENAME: " << arg
                << "\n" << kUsage;
      return 1;
    }
    auto desc = admin.Publish(arg.substr(0, eq), arg.substr(eq + 1));
    if (!desc.ok()) return Fail(desc.status());
    PrintServing(*desc);
  }
  auto demo = flags.GetBool("demo", false);
  if (!demo.ok()) return Fail(demo.status());
  if (*demo) {
    // Seed 2015, 10k records: the shape the golden transcripts pin.
    auto bundle = analysis::MakeDemoReleaseBundle(2015);
    if (!bundle.ok()) return Fail(bundle.status());
    auto desc = admin.PublishBundle("demo", std::move(*bundle));
    if (!desc.ok()) return Fail(desc.status());
    std::cerr << "serving synthetic release 'demo'\n";
  }
  if (store->size() == 0 && follow.empty()) {
    std::cerr << "no releases to serve (use --release, NAME=BASENAME, "
                 "--demo, or --follow)\n"
              << kUsage;
    return 1;
  }

  if (!flags.Has("port")) {
    // stdin/stdout single-session mode (the PR-1 transport, and still the
    // golden-test reference). No push stream here, but fetch_snapshot and
    // follower stats work.
    serve::RequestContext context;
    context.snapshots = &snapshot_provider;
    context.replication_stats = replication_stats;
    const size_t handled =
        serve::ServeLines(std::cin, std::cout, *engine, context);
    std::cerr << "served " << FormatWithCommas(int64_t(handled))
              << " requests (cache: " << engine->cache().hits() << " hits, "
              << engine->cache().misses() << " misses)\n";
    return 0;
  }

  auto port = flags.GetInt("port", 0);
  auto max_conns = flags.GetInt("max-conns", 64);
  auto idle_timeout = flags.GetInt("idle-timeout-ms", 0);
  if (!port.ok()) return Fail(port.status());
  if (!max_conns.ok()) return Fail(max_conns.status());
  if (!idle_timeout.ok()) return Fail(idle_timeout.status());
  if (*port < 0 || *port > 65535 || *max_conns < 1 || *idle_timeout < 0) {
    return Fail(Status::InvalidArgument(
        "--port must be 0..65535, --max-conns >= 1, --idle-timeout-ms >= 0"));
  }

  serve::ServerOptions server_options;
  server_options.host = flags.GetString("host", "127.0.0.1");
  server_options.port = uint16_t(*port);
  server_options.max_connections = size_t(*max_conns);
  server_options.idle_timeout_ms = int(*idle_timeout);
  server_options.snapshot_provider = &snapshot_provider;
  server_options.replication_stats = replication_stats;
  auto server = serve::Server::Start(engine, server_options);
  if (!server.ok()) return Fail(server.status());

  std::cerr << "listening on " << server_options.host << ":"
            << (*server)->port() << " (max " << *max_conns
            << " connections)\n";
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cerr << "signal " << int(g_signal) << ": draining...\n";
  if (replicator != nullptr) replicator->Stop();
  (*server)->Stop();

  // One structured line, machine-greppable from the service log: what was
  // drained, what was shed, and every error code's count. Keys are stable;
  // supervisors can parse this instead of scraping the prose above.
  const client::TransportStats metrics = (*server)->Metrics();
  JsonValue summary = JsonValue::Object();
  summary.Set("event", JsonValue::String("recpriv_serve_shutdown"));
  summary.Set("signal", JsonValue::Int(int64_t(g_signal)));
  summary.Set("sessions_drained",
              JsonValue::Int(int64_t(metrics.connections_accepted)));
  summary.Set("connections_rejected",
              JsonValue::Int(int64_t(metrics.connections_rejected)));
  summary.Set("requests", JsonValue::Int(int64_t(metrics.requests)));
  summary.Set("errors", JsonValue::Int(int64_t(metrics.errors)));
  JsonValue by_code = JsonValue::Object();
  for (const auto& [code, count] : (*server)->ErrorCodeCounts()) {
    by_code.Set(code, JsonValue::Int(int64_t(count)));
  }
  summary.Set("errors_by_code", std::move(by_code));
  if (auto tenants = engine->tenant_stats(); tenants.has_value()) {
    uint64_t rejected = 0, shed = 0;
    for (const auto& [name, c] : tenants->tenants) {
      rejected += c.rejected;
      shed += c.shed;
    }
    summary.Set("quota_rejections", JsonValue::Int(int64_t(rejected)));
    summary.Set("requests_shed", JsonValue::Int(int64_t(shed)));
  }
  summary.Set("cache_hits", JsonValue::Int(int64_t(engine->cache().hits())));
  summary.Set("cache_misses",
              JsonValue::Int(int64_t(engine->cache().misses())));
  if (replicator != nullptr) {
    summary.Set("replication",
                serve::wire::EncodeReplicationStats(replicator->Stats()));
  }
  std::cerr << summary.ToString() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
