// Tests for the replication subsystem (src/repl): content digests, the
// subscribe push stream and its event ordering, checksummed snapshot
// transfer (including structured DATA_LOSS on tampered bytes), the
// follower Replicator's convergence under clean and fault-injected links,
// the bounded-staleness stats contract, and — the point of the whole
// subsystem — bit-identical answers from a follower, verified with the
// workload oracle on both client backends.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/in_process_client.h"
#include "client/line_protocol_client.h"
#include "client/tcp_transport.h"
#include "common/string_util.h"
#include "net/fault_injector.h"
#include "net/line_channel.h"
#include "net/socket.h"
#include "repl/digest.h"
#include "repl/replicator.h"
#include "repl/snapshot_provider.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "store/snapshot_writer.h"
#include "testing_util.h"
#include "workload/oracle.h"

namespace recpriv::repl {
namespace {

namespace fs = std::filesystem;

using recpriv::client::EpochEvent;
using recpriv::client::QueryRequest;
using recpriv::client::QuerySpec;
using recpriv::testing::AnswerFingerprint;
using recpriv::testing::DemoBundle;

std::string TempDir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("recpriv_repl_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

QueryRequest DemoQueries(const std::string& release) {
  QueryRequest request;
  request.release = release;
  request.queries.push_back(QuerySpec{{{"Job", "eng"}}, "flu"});
  request.queries.push_back(QuerySpec{{{"Job", "law"}, {"City", "south"}},
                                      "hiv"});
  request.queries.push_back(QuerySpec{{}, "bc"});
  return request;
}

/// A primary serving stack with the replication ops enabled.
struct Primary {
  std::shared_ptr<serve::ReleaseStore> store;
  std::shared_ptr<serve::QueryEngine> engine;
  std::unique_ptr<SnapshotProvider> provider;
  std::unique_ptr<serve::Server> server;

  static Primary Make(size_t retained_epochs = 4) {
    Primary p;
    p.store = std::make_shared<serve::ReleaseStore>(retained_epochs);
    serve::QueryEngineOptions options;
    options.num_threads = 2;
    p.engine = std::make_shared<serve::QueryEngine>(p.store, options);
    p.provider = std::make_unique<SnapshotProvider>(*p.store);
    serve::ServerOptions server_options;
    server_options.snapshot_provider = p.provider.get();
    auto server = serve::Server::Start(p.engine, server_options);
    EXPECT_TRUE(server.ok()) << server.status();
    p.server = std::move(*server);
    return p;
  }
};

/// A follower stack: durable store + engine over it + Replicator.
struct Follower {
  std::shared_ptr<serve::ReleaseStore> store;
  std::shared_ptr<serve::QueryEngine> engine;
  std::unique_ptr<Replicator> replicator;

  static Follower Make(const std::string& dir, uint16_t primary_port,
                       ReplicatorOptions repl_options = {}) {
    Follower f;
    serve::ReleaseStore::Options store_options;
    store_options.snapshot_dir = dir;
    f.store = std::make_shared<serve::ReleaseStore>(store_options);
    EXPECT_TRUE(f.store->RecoverFromDir().ok());
    serve::QueryEngineOptions options;
    options.num_threads = 2;
    f.engine = std::make_shared<serve::QueryEngine>(f.store, options);
    repl_options.primary_port = primary_port;
    auto replicator = Replicator::Start(*f.store, repl_options);
    EXPECT_TRUE(replicator.ok()) << replicator.status();
    f.replicator = std::move(*replicator);
    return f;
  }
};

// --- digests ---------------------------------------------------------------

TEST(ReplDigestTest, FormatParseRoundTrip) {
  const uint64_t value = 0x00ff12ab34cd56efULL;
  const std::string formatted = FormatDigest(value);
  EXPECT_EQ(formatted, "xxh64:00ff12ab34cd56ef");
  auto parsed = ParseDigest(formatted);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, value);

  EXPECT_FALSE(ParseDigest("xxh64:00FF12AB34CD56EF").ok());  // uppercase
  EXPECT_FALSE(ParseDigest("xxh64:00ff12ab34cd56e").ok());   // short
  EXPECT_FALSE(ParseDigest("md5:00ff12ab34cd56ef").ok());    // wrong scheme
  EXPECT_FALSE(ParseDigest("00ff12ab34cd56ef").ok());        // no scheme
}

TEST(ReplDigestTest, FileDigestMatchesBytesDigest) {
  const std::string dir = TempDir("file_digest");
  const std::string path = dir + "/blob.bin";
  std::vector<uint8_t> bytes(4099);
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = uint8_t(i * 31);
  ASSERT_TRUE(store::WriteBytesAtomic(bytes, path).ok());
  auto from_file = FileDigest(path);
  ASSERT_TRUE(from_file.ok()) << from_file.status();
  EXPECT_EQ(*from_file, BytesDigest(bytes.data(), bytes.size()));
  fs::remove_all(dir);
}

// --- ReleaseStore listener hook (satellite) --------------------------------

TEST(ReleaseStoreListenerTest, InstallRetireDropEventsInOrder) {
  serve::ReleaseStore store(/*retained_epochs=*/2);
  std::vector<serve::StoreEvent> seen;
  const uint64_t token = store.AddListener(
      [&seen](const serve::StoreEvent& e) { seen.push_back(e); });

  ASSERT_TRUE(store.Publish("rel", DemoBundle(1)).ok());
  ASSERT_TRUE(store.Publish("rel", DemoBundle(2)).ok());
  ASSERT_TRUE(store.Publish("rel", DemoBundle(3)).ok());  // evicts epoch 1
  ASSERT_TRUE(store.Drop("rel").ok());

  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[0].kind, serve::StoreEvent::Kind::kInstall);
  EXPECT_EQ(seen[0].epoch, 1u);
  ASSERT_NE(seen[0].snapshot, nullptr);  // handed the snapshot directly
  EXPECT_EQ(seen[1].kind, serve::StoreEvent::Kind::kInstall);
  EXPECT_EQ(seen[1].epoch, 2u);
  EXPECT_EQ(seen[2].kind, serve::StoreEvent::Kind::kInstall);
  EXPECT_EQ(seen[2].epoch, 3u);
  EXPECT_EQ(seen[3].kind, serve::StoreEvent::Kind::kRetire);
  EXPECT_EQ(seen[3].epoch, 1u);
  // Drop is one event for the whole release, not one per retained epoch.
  EXPECT_EQ(seen[4].kind, serve::StoreEvent::Kind::kDrop);
  EXPECT_EQ(seen[4].release, "rel");

  store.RemoveListener(token);
  const size_t before = seen.size();
  ASSERT_TRUE(store.Publish("rel", DemoBundle(4)).ok());
  EXPECT_EQ(seen.size(), before);  // quiescent after removal
}

// --- subscribe stream over TCP ---------------------------------------------

TEST(ReplSubscribeTest, ListingThenEventsInPublicationOrder) {
  Primary p = Primary::Make(/*retained_epochs=*/2);
  client::InProcessClient admin(p.engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(1)).ok());

  auto client = client::ConnectTcp("127.0.0.1", p.server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto subscription = (*client)->Subscribe();
  ASSERT_TRUE(subscription.ok()) << subscription.status();
  ASSERT_EQ(subscription->releases.size(), 1u);
  EXPECT_EQ(subscription->releases[0].name, "rel");
  ASSERT_EQ(subscription->releases[0].epochs.size(), 1u);
  EXPECT_EQ(subscription->releases[0].epochs[0].epoch, 1u);
  EXPECT_TRUE(
      ParseDigest(subscription->releases[0].epochs[0].digest).ok());

  // Publish twice more: epoch 2 installs, epoch 3 installs + retires 1.
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(2)).ok());
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(3)).ok());

  std::vector<EpochEvent> events;
  for (int spin = 0; spin < 100 && events.size() < 3; ++spin) {
    auto polled = (*client)->PollEvents(100);
    ASSERT_TRUE(polled.ok()) << polled.status();
    events.insert(events.end(), polled->begin(), polled->end());
  }
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EpochEvent::Kind::kPublish);
  EXPECT_EQ(events[0].epoch, 2u);
  EXPECT_TRUE(ParseDigest(events[0].digest).ok());
  EXPECT_EQ(events[1].kind, EpochEvent::Kind::kPublish);
  EXPECT_EQ(events[1].epoch, 3u);
  EXPECT_EQ(events[2].kind, EpochEvent::Kind::kRetire);
  EXPECT_EQ(events[2].epoch, 1u);

  // Unsubscribed sessions never see pushes: a fresh client's queries are
  // undisturbed by the publishes above.
  auto fresh = client::ConnectTcp("127.0.0.1", p.server->port());
  ASSERT_TRUE(fresh.ok());
  auto answer = (*fresh)->Query(DemoQueries("rel"));
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->epoch, 3u);
}

TEST(ReplSubscribeTest, PushInvalidatesStalePin) {
  Primary p = Primary::Make(/*retained_epochs=*/2);
  client::InProcessClient admin(p.engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(1)).ok());

  auto client = client::ConnectTcp("127.0.0.1", p.server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE((*client)->Subscribe().ok());
  (*client)->Pin("rel", 1);
  ASSERT_TRUE((*client)->PinnedEpoch("rel").has_value());

  auto pinned = (*client)->Query(DemoQueries("rel"));
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  EXPECT_EQ(pinned->epoch, 1u);  // the pin filled in the epoch

  // Age epoch 1 out of the window; the pushed retire clears the pin
  // before the next query instead of it failing STALE_EPOCH.
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(2)).ok());
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(3)).ok());
  bool cleared = false;
  for (int spin = 0; spin < 100 && !cleared; ++spin) {
    ASSERT_TRUE((*client)->PollEvents(100).ok());
    cleared = !(*client)->PinnedEpoch("rel").has_value();
  }
  EXPECT_TRUE(cleared);
  EXPECT_EQ((*client)->pin_invalidations(), 1u);
  ASSERT_TRUE((*client)->LatestKnownEpoch("rel").has_value());
  EXPECT_EQ(*(*client)->LatestKnownEpoch("rel"), 3u);

  auto unpinned = (*client)->Query(DemoQueries("rel"));
  ASSERT_TRUE(unpinned.ok()) << unpinned.status();
  EXPECT_EQ(unpinned->epoch, 3u);  // stepped forward, no STALE_EPOCH
}

// --- snapshot transfer -----------------------------------------------------

TEST(ReplFetchTest, ChunkedFetchReassemblesTheExactImage) {
  Primary p = Primary::Make();
  client::InProcessClient admin(p.engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(1)).ok());

  auto snap = p.store->Get("rel");
  ASSERT_TRUE(snap.ok());
  auto expect = store::SerializeSnapshot(**snap, "rel");
  ASSERT_TRUE(expect.ok()) << expect.status();

  serve::RequestContext context;
  context.snapshots = p.provider.get();
  client::LineProtocolClient client(
      std::make_unique<client::LoopbackTransport>(*p.engine, context));

  std::vector<uint8_t> image;
  std::string digest;
  uint64_t offset = 0;
  for (;;) {
    auto chunk = client.FetchSnapshotChunk("rel", 1, offset, 4096);
    ASSERT_TRUE(chunk.ok()) << chunk.status();
    EXPECT_EQ(chunk->total_bytes, expect->size());
    digest = chunk->digest;
    image.insert(image.end(), chunk->data.begin(), chunk->data.end());
    offset += chunk->data.size();
    if (chunk->eof) break;
    ASSERT_LE(chunk->data.size(), 4096u);
  }
  EXPECT_EQ(image, *expect);
  EXPECT_EQ(digest, FormatDigest(BytesDigest(image.data(), image.size())));

  // Out-of-range offset is a structured error, unknown epochs propagate
  // the store's taxonomy (STALE_EPOCH for aged-out, NOT_FOUND for unknown).
  EXPECT_EQ(client.FetchSnapshotChunk("rel", 1, expect->size() + 1, 4096)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.FetchSnapshotChunk("rel", 99, 0, 4096).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.FetchSnapshotChunk("nope", 1, 0, 4096).status().code(),
            StatusCode::kNotFound);
}

/// Wraps the loopback transport and corrupts the payload of every
/// fetch_snapshot response WITHOUT fixing the chunk digest — the decoder
/// must reject the chunk as DATA_LOSS before any byte is accepted.
class TamperingTransport : public client::LineTransport {
 public:
  TamperingTransport(serve::QueryEngine& engine,
                     serve::RequestContext context)
      : inner_(engine, std::move(context)) {}

  Result<std::string> RoundTrip(const std::string& request_line) override {
    RECPRIV_ASSIGN_OR_RETURN(std::string response,
                             inner_.RoundTrip(request_line));
    auto parsed = JsonValue::Parse(response);
    if (!parsed.ok() || !parsed->Has("data_b64")) return response;
    auto data = parsed->Get("data_b64");
    auto text = (*data)->AsString();
    if (!text.ok() || text->empty()) return response;
    auto bytes = Base64Decode(*text);
    if (!bytes.ok() || bytes->empty()) return response;
    (*bytes)[0] ^= 0xff;
    parsed->Set("data_b64",
                JsonValue::String(Base64Encode(bytes->data(), bytes->size())));
    return parsed->ToString();
  }

 private:
  client::LoopbackTransport inner_;
};

TEST(ReplFetchTest, TamperedChunkIsStructuredDataLoss) {
  Primary p = Primary::Make();
  client::InProcessClient admin(p.engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(1)).ok());

  serve::RequestContext context;
  context.snapshots = p.provider.get();
  client::LineProtocolClient client(
      std::make_unique<TamperingTransport>(*p.engine, context));
  auto chunk = client.FetchSnapshotChunk("rel", 1, 0, 4096);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.status().code(), StatusCode::kDataLoss);
}

/// A fake primary on plain JSON lines: its request context cannot frame,
/// so it answers a follower's "hello" with "frame":"json", and it never
/// pushes events (followers mirror its subscribe listing). With
/// `corrupt_images` its chunks pass the per-chunk check but the image
/// digest cannot: it recomputes chunk_digest over corrupted bytes, so only
/// the follower's whole-image verification can catch it.
class JsonOnlyPrimary {
 public:
  JsonOnlyPrimary(std::shared_ptr<serve::QueryEngine> engine,
                  SnapshotProvider* provider, bool corrupt_images)
      : engine_(std::move(engine)),
        provider_(provider),
        corrupt_images_(corrupt_images) {
    auto listener = net::Listener::Bind("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    listener_ = std::move(*listener);
    thread_ = std::thread([this] { Serve(); });
  }

  ~JsonOnlyPrimary() {
    // The serving thread polls stopping_ every 50 ms; join it before
    // closing the listener it reads.
    stopping_ = true;
    thread_.join();
    listener_.Close();
  }

  uint16_t port() const { return listener_.port(); }
  /// "hello" requests answered, every one of them with "frame":"json".
  int hellos_answered_json() const { return hellos_answered_json_; }

 private:
  void Serve() {
    while (!stopping_) {
      auto accepted = listener_.Accept(50);
      if (!accepted.ok()) return;  // listener closed
      if (accepted->timed_out) continue;
      net::LineChannel channel(std::move(accepted->fd));
      serve::RequestContext context;
      context.snapshots = provider_;
      context.on_subscribe = [] { return true; };
      while (!stopping_) {
        auto read = channel.ReadLine(50);
        if (!read.ok() || read->event == net::ReadEvent::kEof) break;
        if (read->event != net::ReadEvent::kLine) continue;
        serve::RequestInfo info;
        std::string response = serve::HandleRequestLine(
            read->line, *engine_, context, &info);
        if (info.op == "hello" && info.ok && !info.negotiated_binary &&
            response.find("\"frame\":\"json\"") != std::string::npos) {
          ++hellos_answered_json_;
        }
        if (corrupt_images_) Corrupt(&response);
        if (!channel.WriteLine(response, 1000).ok()) break;
      }
    }
  }

  /// Flips a payload byte and re-signs the chunk, leaving the advertised
  /// whole-image digest untouched.
  static void Corrupt(std::string* response) {
    auto parsed = JsonValue::Parse(*response);
    if (!parsed.ok() || !parsed->Has("data_b64")) return;
    auto text = (*parsed->Get("data_b64"))->AsString();
    if (!text.ok() || text->empty()) return;
    auto bytes = Base64Decode(*text);
    if (!bytes.ok() || bytes->empty()) return;
    (*bytes)[0] ^= 0xff;
    parsed->Set("data_b64",
                JsonValue::String(Base64Encode(bytes->data(), bytes->size())));
    parsed->Set("chunk_digest",
                JsonValue::String(FormatDigest(
                    BytesDigest(bytes->data(), bytes->size()))));
    *response = parsed->ToString();
  }

  std::shared_ptr<serve::QueryEngine> engine_;
  SnapshotProvider* provider_;
  const bool corrupt_images_;
  net::Listener listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> hellos_answered_json_{0};
  std::thread thread_;
};

TEST(ReplicatorTest, RejectsCorruptImageAndNeverInstalls) {
  auto store = std::make_shared<serve::ReleaseStore>();
  serve::QueryEngineOptions options;
  options.num_threads = 1;
  auto engine = std::make_shared<serve::QueryEngine>(store, options);
  client::InProcessClient admin(engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(1)).ok());
  SnapshotProvider provider(*store);
  JsonOnlyPrimary primary(engine, &provider, /*corrupt_images=*/true);

  const std::string dir = TempDir("corrupt_image");
  ReplicatorOptions repl_options;
  repl_options.retry.initial_backoff_ms = 1;
  repl_options.retry.max_backoff_ms = 10;
  Follower f = Follower::Make(dir, primary.port(), repl_options);

  // The follower keeps reconnecting and re-failing; give it a few rounds.
  for (int spin = 0; spin < 200; ++spin) {
    if (f.replicator->Stats().digest_mismatches >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const client::ReplicationStats stats = f.replicator->Stats();
  EXPECT_GE(stats.digest_mismatches, 2u);  // rejected on every attempt
  EXPECT_EQ(stats.installs, 0u);           // nothing corrupt was installed
  EXPECT_EQ(f.store->size(), 0u);
  f.replicator->Stop();
  // Each DATA_LOSS verdict deleted its partial transfer: nothing of the
  // corrupt image is left on disk.
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST(ReplicatorTest, FollowsAJsonOnlyPrimary) {
  auto store = std::make_shared<serve::ReleaseStore>();
  serve::QueryEngineOptions options;
  options.num_threads = 1;
  auto engine = std::make_shared<serve::QueryEngine>(store, options);
  client::InProcessClient admin(engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(1)).ok());
  SnapshotProvider provider(*store);
  JsonOnlyPrimary primary(engine, &provider, /*corrupt_images=*/false);

  // The follower offers binary frames, is told "json", and mirrors over
  // line-framed base64 chunks: verified, persisted, installed.
  const std::string dir = TempDir("json_only");
  Follower f = Follower::Make(dir, primary.port());
  ASSERT_TRUE(f.replicator->WaitForEpoch("rel", 1, 5000));
  EXPECT_GE(primary.hellos_answered_json(), 1);
  const client::ReplicationStats stats = f.replicator->Stats();
  EXPECT_EQ(stats.installs, 1u);
  EXPECT_EQ(stats.digest_mismatches, 0u);

  auto path = f.store->ManagedSnapshotPath("rel", 1);
  ASSERT_TRUE(path.ok());
  auto file_digest = FileDigest(*path);
  ASSERT_TRUE(file_digest.ok());
  auto image = provider.Get("rel", 1);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(*file_digest, (*image)->digest());
  EXPECT_EQ(stats.bytes_fetched, (*image)->size());

  client::InProcessClient primary_reader(engine);
  client::InProcessClient follower_reader(f.engine);
  auto want = primary_reader.Query(DemoQueries("rel"));
  auto got = follower_reader.Query(DemoQueries("rel"));
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(AnswerFingerprint(*want), AnswerFingerprint(*got));

  f.replicator->Stop();
  fs::remove_all(dir);
}

// --- follower convergence --------------------------------------------------

TEST(ReplicatorTest, MirrorsPublishesAndDrops) {
  Primary p = Primary::Make();
  client::InProcessClient admin(p.engine);
  ASSERT_TRUE(admin.PublishBundle("alpha", DemoBundle(1)).ok());
  ASSERT_TRUE(admin.PublishBundle("beta", DemoBundle(2)).ok());

  const std::string dir = TempDir("mirrors");
  Follower f = Follower::Make(dir, p.server->port());
  ASSERT_TRUE(f.replicator->WaitForConnected(5000));
  ASSERT_TRUE(f.replicator->WaitForEpoch("alpha", 1, 5000));
  ASSERT_TRUE(f.replicator->WaitForEpoch("beta", 1, 5000));

  // Live churn: a republish and a drop arrive as pushed events.
  ASSERT_TRUE(admin.PublishBundle("alpha", DemoBundle(3)).ok());
  ASSERT_TRUE(admin.Drop("beta").ok());
  ASSERT_TRUE(f.replicator->WaitForEpoch("alpha", 2, 5000));
  // The replicator counts a drop just after the store shows it, so wait
  // for both.
  for (int spin = 0; spin < 500 && (f.store->Get("beta").ok() ||
                                    f.replicator->Stats().drops == 0);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(f.store->Get("beta").ok());

  const client::ReplicationStats stats = f.replicator->Stats();
  EXPECT_TRUE(stats.connected);
  EXPECT_EQ(stats.installs, 3u);
  EXPECT_EQ(stats.drops, 1u);
  EXPECT_EQ(stats.digest_mismatches, 0u);
  EXPECT_EQ(stats.lag_epochs, 0u);  // fully caught up
  EXPECT_EQ(stats.lag_ms, 0.0);

  // The follower's file for the served epoch hashes to the primary's
  // advertisement — the on-disk state is bit-identical, not just the
  // answers.
  auto path = f.store->ManagedSnapshotPath("alpha", 2);
  ASSERT_TRUE(path.ok());
  auto file_digest = FileDigest(*path);
  ASSERT_TRUE(file_digest.ok());
  auto primary_snap = p.store->Get("alpha", 2);
  ASSERT_TRUE(primary_snap.ok());
  auto image = p.provider->Pack("alpha", *primary_snap);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(*file_digest, (*image)->digest());

  f.replicator->Stop();
  fs::remove_all(dir);
}

TEST(ReplicatorTest, ConvergesCleanUnderInjectedFaults) {
  Primary p = Primary::Make();
  client::InProcessClient admin(p.engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(1)).ok());
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(2)).ok());
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(3)).ok());

  net::FaultOptions fault_options;
  fault_options.seed = recpriv::testing::HarnessSeed(2015);
  fault_options.drop_rate = 0.03;
  fault_options.disconnect_rate = 0.03;
  fault_options.truncate_rate = 0.03;  // dies mid-line, mid-transfer

  const std::string dir = TempDir("faulted");
  ReplicatorOptions repl_options;
  // ~35 chunk round trips per epoch: at 8 KiB a demo image is ~3 writes,
  // and some seeds' fault schedules never fire within so few.
  repl_options.chunk_bytes = 512;
  repl_options.retry.initial_backoff_ms = 1;
  repl_options.retry.max_backoff_ms = 20;
  repl_options.fault_injector =
      std::make_shared<net::FaultInjector>(fault_options);
  Follower f = Follower::Make(dir, p.server->port(), repl_options);

  ASSERT_TRUE(f.replicator->WaitForEpoch("rel", 1, 30000));
  ASSERT_TRUE(f.replicator->WaitForEpoch("rel", 2, 30000));
  ASSERT_TRUE(f.replicator->WaitForEpoch("rel", 3, 30000));

  const client::ReplicationStats stats = f.replicator->Stats();
  EXPECT_GE(stats.reconnects, 1u);  // the schedule really fired
  EXPECT_EQ(stats.digest_mismatches, 0u);  // faults never corrupt, only kill

  // Answer-clean: every epoch the follower serves is bit-identical to the
  // primary's.
  client::InProcessClient primary_reader(p.engine);
  client::InProcessClient follower_reader(f.engine);
  for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
    QueryRequest request = DemoQueries("rel");
    request.epoch = epoch;
    auto want = primary_reader.Query(request);
    auto got = follower_reader.Query(request);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(AnswerFingerprint(*want), AnswerFingerprint(*got));
  }

  f.replicator->Stop();
  fs::remove_all(dir);
}

TEST(ReplicatorTest, ResumedTransfersFetchNoByteTwice) {
  Primary p = Primary::Make();
  client::InProcessClient admin(p.engine);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(seed)).ok());
  }

  // Faults that kill the link, never the data: each transfer is cut off
  // mid-image several times and resumes from its temp file.
  net::FaultOptions fault_options;
  fault_options.seed = recpriv::testing::HarnessSeed(2015);
  fault_options.drop_rate = 0.04;
  fault_options.disconnect_rate = 0.04;
  fault_options.truncate_rate = 0.04;

  const std::string dir = TempDir("resumed");
  ReplicatorOptions repl_options;
  repl_options.chunk_bytes = 512;  // ~35 chunk round trips per epoch
  repl_options.retry.initial_backoff_ms = 1;
  repl_options.retry.max_backoff_ms = 20;
  repl_options.fault_injector =
      std::make_shared<net::FaultInjector>(fault_options);
  Follower f = Follower::Make(dir, p.server->port(), repl_options);
  for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
    ASSERT_TRUE(f.replicator->WaitForEpoch("rel", epoch, 30000));
  }
  const client::ReplicationStats stats = f.replicator->Stats();
  f.replicator->Stop();

  EXPECT_GE(stats.reconnects, 1u);  // the schedule really fired
  EXPECT_EQ(stats.digest_mismatches, 0u);
  uint64_t image_bytes = 0;
  for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
    auto image = p.provider->Get("rel", epoch);
    ASSERT_TRUE(image.ok()) << image.status();
    image_bytes += (*image)->size();
    auto path = f.store->ManagedSnapshotPath("rel", epoch);
    ASSERT_TRUE(path.ok());
    auto file_digest = FileDigest(*path);
    ASSERT_TRUE(file_digest.ok());
    EXPECT_EQ(*file_digest, (*image)->digest());
  }
  EXPECT_EQ(stats.bytes_fetched, image_bytes);
  // Only the three installed images remain; no partial file leaked.
  size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().extension(), ".rps") << e.path();
    ++files;
  }
  EXPECT_EQ(files, 3u);
  fs::remove_all(dir);
}

// --- bounded staleness stats contract --------------------------------------

TEST(ReplStatsTest, ReplicationSectionPresentOnlyWhenFollowing) {
  Primary p = Primary::Make();
  client::InProcessClient admin(p.engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(1)).ok());

  // A primary (not following anyone) has no "replication" section — the
  // golden transcripts of non-replicating servers must not change.
  auto primary_client = client::ConnectTcp("127.0.0.1", p.server->port());
  ASSERT_TRUE(primary_client.ok());
  auto primary_stats = (*primary_client)->Stats();
  ASSERT_TRUE(primary_stats.ok()) << primary_stats.status();
  EXPECT_FALSE(primary_stats->replication.has_value());

  // A follower's own serving endpoint reports the section.
  const std::string dir = TempDir("stats_contract");
  Follower f = Follower::Make(dir, p.server->port());
  ASSERT_TRUE(f.replicator->WaitForEpoch("rel", 1, 5000));

  serve::ServerOptions follower_server_options;
  follower_server_options.replication_stats = [r = f.replicator.get()] {
    return r->Stats();
  };
  auto follower_server =
      serve::Server::Start(f.engine, follower_server_options);
  ASSERT_TRUE(follower_server.ok()) << follower_server.status();
  auto follower_client =
      client::ConnectTcp("127.0.0.1", (*follower_server)->port());
  ASSERT_TRUE(follower_client.ok());
  auto follower_stats = (*follower_client)->Stats();
  ASSERT_TRUE(follower_stats.ok()) << follower_stats.status();
  ASSERT_TRUE(follower_stats->replication.has_value());
  const client::ReplicationStats& repl = *follower_stats->replication;
  EXPECT_EQ(repl.primary,
            "127.0.0.1:" + std::to_string(p.server->port()));
  EXPECT_TRUE(repl.connected);
  EXPECT_GE(repl.installs, 1u);
  EXPECT_GE(repl.snapshots_fetched, 1u);
  EXPECT_GE(repl.bytes_fetched, 1u);
  EXPECT_EQ(repl.lag_epochs, 0u);  // caught up => bounded staleness is 0
  EXPECT_EQ(repl.lag_ms, 0.0);

  f.replicator->Stop();
  fs::remove_all(dir);
}

TEST(ReplStatsTest, DisconnectedFollowerReportsNotConnected) {
  // Point a follower at a port nothing listens on: it must keep retrying
  // and report connected=false rather than erroring out.
  auto closed = net::Listener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(closed.ok()) << closed.status();
  const uint16_t dead_port = closed->port();
  closed->Close();

  const std::string dir = TempDir("disconnected");
  ReplicatorOptions repl_options;
  repl_options.retry.initial_backoff_ms = 1;
  repl_options.retry.max_backoff_ms = 10;
  Follower f = Follower::Make(dir, dead_port, repl_options);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const client::ReplicationStats stats = f.replicator->Stats();
  EXPECT_FALSE(stats.connected);
  EXPECT_EQ(stats.installs, 0u);
  f.replicator->Stop();
  fs::remove_all(dir);
}

// --- bit-identity under the workload oracle --------------------------------

TEST(ReplOracleTest, FollowerAnswersBitIdenticalOnBothBackends) {
  Primary p = Primary::Make();
  client::InProcessClient admin(p.engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(7)).ok());
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(8)).ok());

  // The oracle holds the PRIMARY's snapshots: any answer a follower gives
  // must recompute bit-exactly from what the primary published.
  workload::Oracle oracle;
  for (uint64_t epoch = 1; epoch <= 2; ++epoch) {
    auto snap = p.store->Get("rel", epoch);
    ASSERT_TRUE(snap.ok());
    oracle.Register("rel", *snap);
  }

  const std::string dir = TempDir("oracle");
  Follower f = Follower::Make(dir, p.server->port());
  ASSERT_TRUE(f.replicator->WaitForEpoch("rel", 2, 5000));

  serve::ServerOptions follower_server_options;
  auto follower_server =
      serve::Server::Start(f.engine, follower_server_options);
  ASSERT_TRUE(follower_server.ok());

  const QueryRequest request = DemoQueries("rel");

  // Backend 1: in-process client over the follower's engine.
  client::InProcessClient in_process(f.engine);
  auto local = in_process.Query(request);
  ASSERT_TRUE(local.ok()) << local.status();
  std::string detail;
  EXPECT_EQ(oracle.Verify("rel", request.queries, *local, &detail),
            workload::Oracle::Verdict::kVerified)
      << detail;

  // Backend 2: the full TCP wire to the follower's server.
  auto tcp = client::ConnectTcp("127.0.0.1", (*follower_server)->port());
  ASSERT_TRUE(tcp.ok());
  auto remote = (*tcp)->Query(request);
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ(oracle.Verify("rel", request.queries, *remote, &detail),
            workload::Oracle::Verdict::kVerified)
      << detail;

  // And the two backends agree with each other and with the primary.
  auto from_primary = admin.Query(request);
  ASSERT_TRUE(from_primary.ok());
  EXPECT_EQ(AnswerFingerprint(*local), AnswerFingerprint(*remote));
  EXPECT_EQ(AnswerFingerprint(*local), AnswerFingerprint(*from_primary));

  f.replicator->Stop();
  fs::remove_all(dir);
}

// --- binary frames (wire "hello" negotiation) -------------------------------

TEST(BinaryFrameTest, TranscriptMatchesJsonSessionByteForByte) {
  Primary p = Primary::Make();
  client::InProcessClient admin(p.engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(1)).ok());
  // Warm the answer cache so both sessions' query responses report the
  // same hit/miss counters regardless of which session asks first.
  ASSERT_TRUE(admin.Query(DemoQueries("rel")).ok());

  auto json_session =
      client::TcpTransport::Connect("127.0.0.1", p.server->port());
  ASSERT_TRUE(json_session.ok()) << json_session.status();
  auto bin_session =
      client::TcpTransport::Connect("127.0.0.1", p.server->port());
  ASSERT_TRUE(bin_session.ok()) << bin_session.status();
  auto hello = (*bin_session)
                   ->RoundTrip(serve::wire::EncodeHelloRequest("binary", 1)
                                   .ToString());
  ASSERT_TRUE(hello.ok()) << hello.status();
  EXPECT_NE(hello->find("\"frame\":\"binary\""), std::string::npos) << *hello;
  ASSERT_TRUE((*bin_session)->SetBinaryFrame(true).ok());

  // The golden-transcript contract: the same request bytes produce the
  // same response bytes on a line-framed and a binary-framed session —
  // success shapes, v1 shapes, structured errors, and MALFORMED alike
  // (the "stats" op is excluded: its counters are session-dependent).
  const std::vector<std::string> transcript = {
      "{\"v\":2,\"id\":10,\"op\":\"list\"}",
      "{\"v\":2,\"id\":11,\"op\":\"schema\",\"release\":\"rel\"}",
      serve::wire::EncodeQueryRequest(DemoQueries("rel"), 12).ToString(),
      "{\"v\":2,\"id\":13,\"op\":\"schema\",\"release\":\"nope\"}",
      "{\"v\":2,\"id\":14,\"op\":\"frobnicate\"}",
      "this is not json",
      "{\"op\":\"list\"}",  // a v1-shaped request rides frames unchanged
  };
  for (const std::string& request : transcript) {
    auto from_json = (*json_session)->RoundTrip(request);
    auto from_binary = (*bin_session)->RoundTrip(request);
    ASSERT_TRUE(from_json.ok()) << from_json.status();
    ASSERT_TRUE(from_binary.ok()) << from_binary.status();
    EXPECT_EQ(*from_json, *from_binary) << "request: " << request;
  }
}

TEST(BinaryFrameTest, FetchSnapshotChunkRidesAsRawAttachment) {
  Primary p = Primary::Make();
  client::InProcessClient admin(p.engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(1)).ok());
  auto snap = p.store->Get("rel");
  ASSERT_TRUE(snap.ok());
  auto expect = store::SerializeSnapshot(**snap, "rel");
  ASSERT_TRUE(expect.ok()) << expect.status();

  // Fetch the image over a JSON session and over a binary session; the
  // reassembled bytes must be identical, and the binary path must carry
  // the chunk as a raw frame attachment ("data_bytes"), never base64.
  auto fetch_image = [&](client::LineProtocolClient& client) {
    std::vector<uint8_t> image;
    uint64_t offset = 0;
    for (;;) {
      auto chunk = client.FetchSnapshotChunk("rel", 1, offset, 4096);
      EXPECT_TRUE(chunk.ok()) << chunk.status();
      if (!chunk.ok()) break;
      image.insert(image.end(), chunk->data.begin(), chunk->data.end());
      offset += chunk->data.size();
      if (chunk->eof) break;
    }
    return image;
  };

  auto json_client = client::ConnectTcp("127.0.0.1", p.server->port());
  ASSERT_TRUE(json_client.ok());
  const std::vector<uint8_t> via_json = fetch_image(**json_client);
  EXPECT_EQ(via_json, *expect);

  auto bin_client = client::ConnectTcp("127.0.0.1", p.server->port());
  ASSERT_TRUE(bin_client.ok());
  auto negotiated = (*bin_client)->NegotiateBinaryFrame();
  ASSERT_TRUE(negotiated.ok()) << negotiated.status();
  EXPECT_TRUE(*negotiated);
  const std::vector<uint8_t> via_binary = fetch_image(**bin_client);
  EXPECT_EQ(via_binary, *expect);

  // Peek under the client: the raw binary-framed response says
  // "data_bytes" and carries a non-empty attachment.
  auto raw = client::TcpTransport::Connect("127.0.0.1", p.server->port());
  ASSERT_TRUE(raw.ok());
  auto hello = (*raw)->RoundTrip(
      serve::wire::EncodeHelloRequest("binary", 1).ToString());
  ASSERT_TRUE(hello.ok()) << hello.status();
  ASSERT_TRUE((*raw)->SetBinaryFrame(true).ok());
  auto response = (*raw)->RoundTrip(
      serve::wire::EncodeFetchSnapshotRequest("rel", 1, 0, 4096, 2)
          .ToString());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response->find("\"data_bytes\":"), std::string::npos) << *response;
  EXPECT_EQ(response->find("\"data_b64\""), std::string::npos) << *response;
  ASSERT_NE((*raw)->LastAttachment(), nullptr);
  EXPECT_EQ((*raw)->LastAttachment()->size(),
            std::min<size_t>(4096, expect->size()));
}

TEST(BinaryFrameTest, PushedEventsRideFrames) {
  Primary p = Primary::Make();
  client::InProcessClient admin(p.engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(1)).ok());

  auto client = client::ConnectTcp("127.0.0.1", p.server->port());
  ASSERT_TRUE(client.ok());
  auto negotiated = (*client)->NegotiateBinaryFrame();
  ASSERT_TRUE(negotiated.ok()) << negotiated.status();
  EXPECT_TRUE(*negotiated);
  auto sub = (*client)->Subscribe();
  ASSERT_TRUE(sub.ok()) << sub.status();
  ASSERT_EQ(sub->releases.size(), 1u);

  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(2)).ok());
  std::vector<EpochEvent> events;
  for (int spin = 0; spin < 100 && events.empty(); ++spin) {
    auto polled = (*client)->PollEvents(100);
    ASSERT_TRUE(polled.ok()) << polled.status();
    events.insert(events.end(), polled->begin(), polled->end());
  }
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].kind, EpochEvent::Kind::kPublish);
  EXPECT_EQ(events[0].release, "rel");
  EXPECT_EQ(events[0].epoch, 2u);
}

TEST(BinaryFrameTest, LoopbackDegradesToJsonGracefully) {
  Primary p = Primary::Make();
  client::InProcessClient admin(p.engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(1)).ok());
  // A loopback transport cannot switch framings: negotiation reports a
  // JSON session without touching the wire, and everything still works.
  client::LineProtocolClient client(
      std::make_unique<client::LoopbackTransport>(*p.engine));
  auto negotiated = client.NegotiateBinaryFrame();
  ASSERT_TRUE(negotiated.ok()) << negotiated.status();
  EXPECT_FALSE(*negotiated);
  EXPECT_TRUE(client.List().ok());
}

TEST(ReplicatorTest, MirrorsOverBinaryFrames) {
  Primary p = Primary::Make();
  client::InProcessClient admin(p.engine);
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(1)).ok());

  // Followers offer binary frames by default; a real server accepts.
  const std::string dir = TempDir("binary_frames");
  Follower f = Follower::Make(dir, p.server->port());
  ASSERT_TRUE(f.replicator->WaitForConnected(5000));
  ASSERT_TRUE(f.replicator->WaitForEpoch("rel", 1, 5000));
  EXPECT_GE(p.server->Metrics().ops["hello"], 1u);

  // Live publish arrives as a framed push and fetches as raw attachments;
  // the installed file still hashes to the primary's advertisement.
  ASSERT_TRUE(admin.PublishBundle("rel", DemoBundle(2)).ok());
  ASSERT_TRUE(f.replicator->WaitForEpoch("rel", 2, 5000));
  auto path = f.store->ManagedSnapshotPath("rel", 2);
  ASSERT_TRUE(path.ok());
  auto file_digest = FileDigest(*path);
  ASSERT_TRUE(file_digest.ok());
  auto primary_snap = p.store->Get("rel", 2);
  ASSERT_TRUE(primary_snap.ok());
  auto image = p.provider->Pack("rel", *primary_snap);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(*file_digest, (*image)->digest());
  EXPECT_EQ(f.replicator->Stats().digest_mismatches, 0u);

  f.replicator->Stop();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace recpriv::repl
