// Concurrency stress for the TCP serving front end (serve/server.h): many
// client threads querying over loopback sockets while a writer thread
// republishes and drops releases through the shared engine's in-process
// client. Asserts the paper's serving contract under churn — a pinned
// epoch answers bit-identically no matter how often the release is
// republished over it — plus admission control at max_connections, clean
// drain on Stop() with clients still connected, and transport-counter
// consistency after the dust settles.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/in_process_client.h"
#include "client/tcp_transport.h"
#include "net/line_channel.h"
#include "net/socket.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "serve/server.h"
#include "testing_util.h"

namespace recpriv::serve {
namespace {

using recpriv::analysis::ReleaseBundle;
using recpriv::client::BatchAnswer;
using recpriv::client::QueryRequest;
using recpriv::client::QuerySpec;
using recpriv::testing::AnswerFingerprint;
using recpriv::testing::DemoBundle;

/// The shared demo release at test scale; different seeds give different
/// SPS noise, so republishing with a new seed genuinely changes the
/// served counts.
ReleaseBundle MakeBundle(uint64_t seed) { return DemoBundle(seed); }

QueryRequest PinnedRequest() {
  QueryRequest request;
  request.release = "pinned";
  request.epoch = 1;
  request.queries.push_back(QuerySpec{{{"Job", "eng"}}, "flu"});
  request.queries.push_back(QuerySpec{{{"Job", "law"}, {"City", "south"}},
                                      "hiv"});
  request.queries.push_back(QuerySpec{{}, "bc"});
  return request;
}

struct Harness {
  std::shared_ptr<ReleaseStore> store;
  std::shared_ptr<QueryEngine> engine;
  std::unique_ptr<Server> server;

  static Harness Make(size_t max_connections = 32) {
    Harness h;
    // A wide retention window keeps epoch 1 pinnable across every
    // republish the writer thread performs.
    h.store = std::make_shared<ReleaseStore>(/*retained_epochs=*/64);
    QueryEngineOptions options;
    options.num_threads = 2;
    h.engine = std::make_shared<QueryEngine>(h.store, options);
    ServerOptions server_options;
    server_options.max_connections = max_connections;
    auto server = Server::Start(h.engine, server_options);
    EXPECT_TRUE(server.ok()) << server.status();
    h.server = std::move(*server);
    return h;
  }
};

TEST(ServeStressTest, PinnedAnswersBitIdenticalAcrossConcurrentRepublish) {
  Harness h = Harness::Make();
  client::InProcessClient admin(h.engine);
  ASSERT_TRUE(admin.PublishBundle("pinned", MakeBundle(1)).ok());
  ASSERT_TRUE(admin.PublishBundle("churn", MakeBundle(2)).ok());

  const QueryRequest pinned = PinnedRequest();
  auto reference = admin.Query(pinned);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference->epoch, 1u);
  const std::string reference_fp = AnswerFingerprint(*reference);

  constexpr size_t kClients = 4;
  constexpr size_t kIterations = 25;
  constexpr size_t kRepublishes = 15;

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> hard_failures{0};
  std::atomic<size_t> pinned_queries{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = client::ConnectTcp("127.0.0.1", h.server->port());
      if (!client.ok()) {
        hard_failures.fetch_add(1);
        return;
      }
      QueryRequest churn_request;
      churn_request.release = "churn";
      churn_request.queries.push_back(QuerySpec{{{"Job", "eng"}}, "flu"});
      for (size_t i = 0; i < kIterations; ++i) {
        auto batch = (*client)->Query(pinned);
        if (!batch.ok()) {
          hard_failures.fetch_add(1);
          return;
        }
        pinned_queries.fetch_add(1);
        if (AnswerFingerprint(*batch) != reference_fp) {
          mismatches.fetch_add(1);
        }
        // The churn release may be dropped at any moment: NOT_FOUND is
        // legal, a transport failure or crash is not.
        auto churn = (*client)->Query(churn_request);
        if (!churn.ok() && churn.status().code() != StatusCode::kNotFound) {
          hard_failures.fetch_add(1);
          return;
        }
        if ((c + i) % 5 == 0) {
          if (!(*client)->List().ok()) {
            hard_failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }

  std::thread writer([&] {
    for (size_t r = 0; r < kRepublishes; ++r) {
      ASSERT_TRUE(admin.PublishBundle("pinned", MakeBundle(100 + r)).ok());
      if (r % 2 == 0) {
        (void)admin.Drop("churn");
      } else {
        ASSERT_TRUE(admin.PublishBundle("churn", MakeBundle(200 + r)).ok());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  for (std::thread& t : clients) t.join();
  writer.join();

  EXPECT_EQ(hard_failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(pinned_queries.load(), kClients * kIterations);

  // The writer really did move the current epoch past the pin.
  QueryRequest unpinned = PinnedRequest();
  unpinned.epoch = std::nullopt;
  auto current = admin.Query(unpinned);
  ASSERT_TRUE(current.ok()) << current.status();
  EXPECT_EQ(current->epoch, 1u + kRepublishes);

  // And the pinned snapshot still answers identically after the storm.
  auto after = admin.Query(pinned);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(AnswerFingerprint(*after), reference_fp);

  h.server->Stop();
  const client::TransportStats metrics = h.server->Metrics();
  EXPECT_EQ(metrics.connections_active, 0u);
  EXPECT_GE(metrics.connections_accepted, kClients);
  EXPECT_GE(metrics.requests, kClients * kIterations * 2);
  EXPECT_GE(metrics.epoch_pins, kClients * kIterations);
  EXPECT_EQ(metrics.sessions_v2, metrics.connections_accepted);
}

TEST(ServeStressTest, StopDrainsWithClientsStillConnected) {
  Harness h = Harness::Make();
  client::InProcessClient admin(h.engine);
  ASSERT_TRUE(admin.PublishBundle("pinned", MakeBundle(1)).ok());

  // Three live sessions, each having completed a round trip, then left
  // connected and idle.
  std::vector<std::unique_ptr<client::LineProtocolClient>> clients;
  for (int i = 0; i < 3; ++i) {
    auto client = client::ConnectTcp("127.0.0.1", h.server->port());
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE((*client)->List().ok());
    clients.push_back(std::move(*client));
  }

  const auto start = std::chrono::steady_clock::now();
  h.server->Stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Drain must not wait on the idle clients.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_EQ(h.server->Metrics().connections_active, 0u);

  // The sessions are gone: the next round trip fails instead of hanging.
  for (auto& client : clients) {
    EXPECT_FALSE(client->List().ok());
  }
}

TEST(ServeStressTest, OverCapacityConnectionGetsStructuredUnavailable) {
  Harness h = Harness::Make(/*max_connections=*/2);
  client::InProcessClient admin(h.engine);
  ASSERT_TRUE(admin.PublishBundle("pinned", MakeBundle(1)).ok());

  auto first = client::ConnectTcp("127.0.0.1", h.server->port());
  auto second = client::ConnectTcp("127.0.0.1", h.server->port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Round trips prove both sessions are admitted, not just queued.
  ASSERT_TRUE((*first)->List().ok());
  ASSERT_TRUE((*second)->List().ok());

  auto fd = net::ConnectTcp("127.0.0.1", h.server->port(), 2000);
  ASSERT_TRUE(fd.ok()) << fd.status();
  net::LineChannel channel(std::move(*fd));
  auto read = channel.ReadLine(5000);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->event, net::ReadEvent::kLine);
  EXPECT_NE(read->line.find("UNAVAILABLE"), std::string::npos) << read->line;
  auto eof = channel.ReadLine(5000);
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(eof->event, net::ReadEvent::kEof);

  EXPECT_EQ(h.server->Metrics().connections_rejected, 1u);

  // Capacity frees up when an admitted session leaves.
  first->reset();
  bool admitted = false;
  for (int attempt = 0; attempt < 50 && !admitted; ++attempt) {
    auto retry = client::ConnectTcp("127.0.0.1", h.server->port());
    admitted = retry.ok() && (*retry)->List().ok();
    if (!admitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(admitted);
}

TEST(ServeStressTest, TcpBackendMatchesInProcessBackend) {
  Harness h = Harness::Make();
  client::InProcessClient in_process(h.engine);
  ASSERT_TRUE(in_process.PublishBundle("pinned", MakeBundle(1)).ok());

  auto tcp = client::ConnectTcp("127.0.0.1", h.server->port());
  ASSERT_TRUE(tcp.ok()) << tcp.status();

  const QueryRequest request = PinnedRequest();
  auto via_tcp = (*tcp)->Query(request);
  auto via_memory = in_process.Query(request);
  ASSERT_TRUE(via_tcp.ok()) << via_tcp.status();
  ASSERT_TRUE(via_memory.ok()) << via_memory.status();
  EXPECT_EQ(AnswerFingerprint(*via_tcp), AnswerFingerprint(*via_memory));

  // Error taxonomy crosses the socket intact.
  QueryRequest missing;
  missing.release = "ghost";
  missing.queries.push_back(QuerySpec{{}, "flu"});
  auto tcp_error = (*tcp)->Query(missing);
  auto memory_error = in_process.Query(missing);
  ASSERT_FALSE(tcp_error.ok());
  ASSERT_FALSE(memory_error.ok());
  EXPECT_EQ(tcp_error.status().code(), memory_error.status().code());
}

}  // namespace
}  // namespace recpriv::serve
