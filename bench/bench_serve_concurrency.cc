// Serving concurrency: aggregate throughput of the TCP front end
// (serve/server.h) vs. number of concurrent client connections, on the
// demo-scale release. Each client is a LineProtocolClient over its own
// TcpTransport issuing synchronous single-query round trips (the
// latency-bound regime a real analyst session lives in), so one connection
// leaves the server mostly idle and added connections should pipeline into
// real throughput.
//
// Gate (CI): with >= 4 hardware threads, 16 concurrent connections must
// deliver >= 4x the single-connection throughput. With 2-3 threads the
// parallel headroom shrinks, so the gate relaxes to >= 1.5x; on a single
// hardware thread every request is CPU-serialized whatever the connection
// count, so the ratio is reported but not gated. Every arm runs for at
// least kMinArmSeconds, the sweep is repeated kRepeats times, and the gate
// reads the median of the repeats' ratios: a fixed request count made the
// 16-connection arm a few tens of milliseconds at today's throughput, and
// one scheduling hiccup then decided the verdict.
//
// A second table reports batched round trips (8 queries per request) to
// show amortization of the per-line transport cost.
//
// A third table measures wire throughput on the byte-heavy path — full
// snapshot transfers via chunked fetch_snapshot — once over JSON lines
// (base64 payloads) and once over negotiated binary frames (raw
// attachments, no base64, no JSON string escaping). Every reassembled
// image is compared byte-for-byte against the serialized reference, so
// the two framings are proven bit-identical before any ratio is reported.
// --frame-gate additionally requires binary >= 2x JSON at 16 connections
// (the PR 9 tentpole claim; CI applies it on main only).

#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "client/in_process_client.h"
#include "client/tcp_transport.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "exp/experiment.h"
#include "exp/reporting.h"
#include "repl/snapshot_provider.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "store/snapshot_writer.h"
#include "testing_util.h"

namespace {

using namespace recpriv;  // NOLINT

/// The request rotation every client cycles through (all cache-warm after
/// the first pass, so the measurement isolates the serving stack, not the
/// count kernel).
std::vector<client::QueryRequest> RequestRotation(size_t queries_per_request) {
  const std::vector<client::QuerySpec> specs = {
      {{{"Job", "eng"}}, "flu"},
      {{{"Job", "law"}}, "hiv"},
      {{{"City", "north"}}, "bc"},
      {{{"Job", "eng"}, {"City", "south"}}, "flu"},
      {{}, "hiv"},
      {{{"City", "south"}}, "flu"},
      {{{"Job", "law"}, {"City", "north"}}, "bc"},
      {{{"City", "north"}}, "flu"},
  };
  std::vector<client::QueryRequest> rotation;
  for (size_t start = 0; start < specs.size(); ++start) {
    client::QueryRequest request;
    request.release = "demo";
    for (size_t k = 0; k < queries_per_request; ++k) {
      request.queries.push_back(specs[(start + k) % specs.size()]);
    }
    rotation.push_back(std::move(request));
  }
  return rotation;
}

/// Shortest measured time of one throughput arm, and how often each sweep
/// runs; the scaling gate reads the median of the repeats.
constexpr double kMinArmSeconds = 0.5;
constexpr size_t kRepeats = 3;

struct Measurement {
  double seconds = 0.0;
  double qps = 0.0;      ///< queries per second, aggregate
  size_t failures = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// `connections` client threads issue synchronous round trips until
/// `seconds` have passed; returns aggregate queries/sec.
Measurement RunLoad(uint16_t port, size_t connections, double seconds,
                    size_t queries_per_request) {
  const std::vector<client::QueryRequest> rotation =
      RequestRotation(queries_per_request);
  std::vector<std::unique_ptr<client::LineProtocolClient>> clients;
  clients.reserve(connections);
  Measurement m;
  for (size_t c = 0; c < connections; ++c) {
    auto client = client::ConnectTcp("127.0.0.1", port);
    if (!client.ok()) {
      ++m.failures;
      return m;
    }
    clients.push_back(std::move(*client));
  }

  std::vector<size_t> failures(connections, 0);
  std::vector<size_t> requests(connections, 0);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  WallTimer timer;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      client::LineProtocolClient& client = *clients[c];
      for (size_t i = 0; timer.Seconds() < seconds; ++i) {
        if (!client.Query(rotation[(c + i) % rotation.size()]).ok()) {
          ++failures[c];
        }
        ++requests[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  m.seconds = timer.Seconds();
  size_t total_requests = 0;
  for (size_t c = 0; c < connections; ++c) {
    m.failures += failures[c];
    total_requests += requests[c];
  }
  const size_t total_queries = total_requests * queries_per_request;
  m.qps = m.seconds > 0 ? double(total_queries) / m.seconds : 0.0;
  return m;
}

struct WireMeasurement {
  double seconds = 0.0;
  double bytes_per_sec = 0.0;  ///< aggregate payload bytes per second
  size_t failures = 0;
  bool identical = true;  ///< every reassembled image matched the reference
};

/// `connections` client threads each fetch the full snapshot image
/// `fetches_per_client` times via chunked fetch_snapshot; `binary` selects
/// negotiated binary frames vs default JSON lines. Aggregate image bytes
/// per second, with every reassembly checked against `reference`.
WireMeasurement RunSnapshotLoad(uint16_t port, size_t connections,
                                size_t fetches_per_client, bool binary,
                                const std::vector<uint8_t>& reference) {
  WireMeasurement m;
  std::vector<std::unique_ptr<client::LineProtocolClient>> clients;
  clients.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    auto client = client::ConnectTcp("127.0.0.1", port);
    if (!client.ok()) {
      ++m.failures;
      return m;
    }
    if (binary) {
      auto negotiated = (*client)->NegotiateBinaryFrame();
      if (!negotiated.ok() || !*negotiated) {
        ++m.failures;
        return m;
      }
    }
    clients.push_back(std::move(*client));
  }

  std::vector<size_t> failures(connections, 0);
  std::vector<uint8_t> mismatched(connections, 0);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  WallTimer timer;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      client::LineProtocolClient& client = *clients[c];
      std::vector<uint8_t> image;
      for (size_t i = 0; i < fetches_per_client; ++i) {
        image.clear();
        image.reserve(reference.size());
        uint64_t offset = 0;
        for (;;) {
          auto chunk = client.FetchSnapshotChunk(
              "demo", 1, offset, serve::kDefaultFetchChunkBytes);
          if (!chunk.ok()) {
            ++failures[c];
            return;
          }
          image.insert(image.end(), chunk->data.begin(), chunk->data.end());
          offset += chunk->data.size();
          if (chunk->eof) break;
        }
        if (image != reference) mismatched[c] = 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  m.seconds = timer.Seconds();
  for (size_t f : failures) m.failures += f;
  for (uint8_t bad : mismatched) {
    if (bad != 0) m.identical = false;
  }
  const double total_bytes = double(connections) *
                             double(fetches_per_client) *
                             double(reference.size());
  m.bytes_per_sec = m.seconds > 0 ? total_bytes / m.seconds : 0.0;
  return m;
}

int Run(bool frame_gate) {
  exp::PrintBanner(std::cout,
                   "Serving concurrency: aggregate throughput vs concurrent "
                   "TCP connections",
                   "demo release, synchronous wire-v2 round trips per client");

  auto store = std::make_shared<serve::ReleaseStore>();
  auto engine = std::make_shared<serve::QueryEngine>(store);
  client::InProcessClient admin(engine);
  auto bundle = recpriv::testing::DemoBundle(
      recpriv::testing::HarnessSeed(2015), /*base_group_size=*/1000);
  auto desc = admin.PublishBundle("demo", std::move(bundle));
  if (!desc.ok()) {
    std::cerr << "publish: " << desc.status() << "\n";
    return 1;
  }

  repl::SnapshotProvider provider(*store);
  serve::ServerOptions options;
  options.max_connections = 64;
  options.snapshot_provider = &provider;
  auto server = serve::Server::Start(engine, options);
  if (!server.ok()) {
    std::cerr << "server: " << server.status() << "\n";
    return 1;
  }
  const uint16_t port = (*server)->port();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "release: "
            << FormatWithCommas(int64_t(desc->num_records)) << " records, "
            << desc->num_groups << " groups; engine threads "
            << engine->pool().num_threads() << "; port " << port << "\n\n";

  // Warm the answer cache so every timed round trip is cache-hit serving.
  (void)RunLoad(port, 1, 0.05, 8);

  const std::vector<size_t> kConnections = {1, 2, 4, 8, 16};
  // qps[arm][repeat]; the repeats interleave, so a slow spell of the host
  // lands on every arm of one repeat rather than on one arm.
  std::vector<std::vector<double>> qps(kConnections.size());
  std::vector<double> scaling_repeats;
  size_t failures = 0;
  for (size_t r = 0; r < kRepeats; ++r) {
    for (size_t a = 0; a < kConnections.size(); ++a) {
      const Measurement m = RunLoad(port, kConnections[a], kMinArmSeconds,
                                    /*queries_per_request=*/1);
      failures += m.failures;
      qps[a].push_back(m.qps);
    }
    scaling_repeats.push_back(qps[0][r] > 0 ? qps.back()[r] / qps[0][r]
                                            : 0.0);
  }
  exp::AsciiTable single({"connections", "req/s", "agg_q/s",
                          "scaling_vs_1conn"});
  const double qps_1 = Median(qps[0]);
  for (size_t a = 0; a < kConnections.size(); ++a) {
    const double median = Median(qps[a]);
    single.AddRow({std::to_string(kConnections[a]),
                   FormatWithCommas(int64_t(median)),
                   FormatWithCommas(int64_t(median)),
                   qps_1 > 0 ? FormatDouble(median / qps_1, 3) + "x" : "-"});
  }
  std::cout << "single-query round trips (median of " << kRepeats
            << " repeats, >= " << kMinArmSeconds << " s per arm):\n";
  single.Print(std::cout);

  exp::AsciiTable batched({"connections", "agg_q/s"});
  for (size_t conns : {size_t(1), size_t(16)}) {
    const Measurement m = RunLoad(port, conns, kMinArmSeconds,
                                  /*queries_per_request=*/8);
    failures += m.failures;
    batched.AddRow(
        {std::to_string(conns), FormatWithCommas(int64_t(m.qps))});
  }
  std::cout << "\nbatched round trips (8 queries per request):\n";
  batched.Print(std::cout);

  // --- wire framing: snapshot transfer over JSON lines vs binary frames ---
  auto snap = store->Get("demo");
  if (!snap.ok()) {
    std::cerr << "snapshot: " << snap.status() << "\n";
    return 1;
  }
  auto reference = store::SerializeSnapshot(**snap, "demo");
  if (!reference.ok()) {
    std::cerr << "serialize: " << reference.status() << "\n";
    return 1;
  }
  // Enough traffic per arm for a stable ratio: ~48 MB of image bytes
  // across the fleet, however large the demo image came out.
  const size_t total_target = size_t(48) << 20;
  bool frames_identical = true;
  double json_bps_16 = 0.0, binary_bps_16 = 0.0;
  exp::AsciiTable frames({"framing", "connections", "MB/s", "vs_json"});
  for (size_t conns : {size_t(1), size_t(16)}) {
    const size_t fetches =
        std::max(size_t(1), total_target / (reference->size() * conns));
    double json_bps = 0.0;
    for (const bool binary : {false, true}) {
      const WireMeasurement m =
          RunSnapshotLoad(port, conns, fetches, binary, *reference);
      failures += m.failures;
      frames_identical = frames_identical && m.identical;
      if (!binary) json_bps = m.bytes_per_sec;
      if (conns == 16 && !binary) json_bps_16 = m.bytes_per_sec;
      if (conns == 16 && binary) binary_bps_16 = m.bytes_per_sec;
      frames.AddRow({binary ? "binary" : "json", std::to_string(conns),
                     FormatWithCommas(int64_t(m.bytes_per_sec / (1 << 20))),
                     binary && json_bps > 0
                         ? FormatDouble(m.bytes_per_sec / json_bps, 2) + "x"
                         : "-"});
    }
  }
  std::cout << "\nsnapshot wire throughput ("
            << FormatWithCommas(int64_t(reference->size()))
            << "-byte image, chunked fetch_snapshot):\n";
  frames.Print(std::cout);

  const client::TransportStats metrics = (*server)->Metrics();
  std::cout << "\ntransport: "
            << FormatWithCommas(int64_t(metrics.requests)) << " requests over "
            << metrics.connections_accepted << " connections, "
            << metrics.errors << " errors\n";
  (*server)->Stop();

  // --- verdicts --------------------------------------------------------
  if (failures > 0) {
    std::cout << "\n" << failures << " failed round trips  [FAIL]\n";
    return 1;
  }
  if (!frames_identical) {
    std::cout << "\nbinary-framed snapshot bytes differ from the JSON "
                 "session's  [FAIL]\n";
    return 1;
  }
  const double frame_ratio =
      json_bps_16 > 0 ? binary_bps_16 / json_bps_16 : 0.0;
  std::cout << "\nbinary vs json wire throughput at 16 connections: "
            << FormatDouble(frame_ratio, 2) << "x (images bit-identical)  ";
  if (frame_gate) {
    std::cout << "(gate 2x)  [" << (frame_ratio >= 2.0 ? "PASS" : "FAIL")
              << "]\n";
    if (frame_ratio < 2.0) return 1;
  } else {
    std::cout << "(gate off; --frame-gate enables the 2x check)\n";
  }
  const double scaling = Median(scaling_repeats);
  std::cout << "\n16-connection scaling per repeat:";
  for (double x : scaling_repeats) {
    std::cout << " " << FormatDouble(x, 3) << "x";
  }
  // 16 synchronous connections only turn into throughput if the hardware
  // can run server slices beside the 16 client threads. With >= 4 threads
  // the acceptance gate applies; with 2-3 a relaxed pipelining gate; a
  // single hardware thread has zero parallel headroom (every request is
  // CPU-serialized whatever the connection count), so the ratio is
  // reported but not gated.
  std::cout << "\n16-connection scaling vs single connection (median): "
            << FormatDouble(scaling, 3) << "x at " << hw
            << " hardware threads  ";
  if (hw >= 4) {
    std::cout << "(gate 4x)  [" << (scaling >= 4.0 ? "PASS" : "FAIL")
              << "]\n";
    return scaling >= 4.0 ? 0 : 1;
  }
  if (hw >= 2) {
    std::cout << "(reduced gate 1.5x)  ["
              << (scaling >= 1.5 ? "PASS" : "FAIL") << "]\n";
    return scaling >= 1.5 ? 0 : 1;
  }
  std::cout << "(single hardware thread: gate SKIPPED)  [PASS]\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = recpriv::FlagSet::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 2;
  }
  return Run(*flags->GetBool("frame-gate", false));
}
