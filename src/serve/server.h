// Server: the multi-client TCP front end of the serving stack.
//
// One thread per session. An accept thread polls the listener and a stop
// pipe, admits each connection, and starts a thread that owns the session
// for its whole life: it blocks on the session's socket and on the
// session's own wake pipe, and runs every request through the same wire-v2
// dispatcher the stdin front end uses (serve/wire.h) — the transport
// changes, the protocol byte stream does not. A session thread is not a
// pool task, so the query batches it answers fan out across the engine's
// pool (a pool task calling ParallelFor would run it inline). The kernel
// scheduler shares cores between busy sessions; an idle session is a
// thread parked in poll(2).
//
// Admission and backpressure: at most max_connections concurrent sessions,
// and so at most that many session threads; a connection over the limit
// receives one structured UNAVAILABLE error line and is closed. Per-line
// bounds (max_line_bytes), write timeouts, and optional idle timeouts keep
// any single misbehaving peer from wedging its thread or growing memory.
// Finished session threads are joined by the accept thread, never detached.
//
// Session state: each session tracks the protocol version it negotiated
// (the first v2 request upgrades it) and its framing. Aggregated counters
// are served to clients through the wire "stats" op as the "transport"
// section (client::TransportStats).
//
// Replication push: when ServerOptions carries a SnapshotProvider, the
// server registers a ReleaseStore listener and fans every install/retire/
// drop out to subscribed sessions as pushed event lines. An install's
// event carries the image digest, which the listener takes from the
// provider: on a durable store that is the layout the publish was just
// persisted from (no second pass over the image); on an in-memory store
// the listener lays the image out once, on the publishing thread. The
// listener never writes a socket: it appends the encoded line to the
// session's locked push queue and writes the session's wake pipe. The
// session thread flushes the queue before it reads its next request, so a
// push goes out at once on an idle session and after the current response
// on a busy one — never inside a response.
//
// Shutdown: Stop() stops accepting, wakes every session, lets each finish
// the request it is executing — in-flight batches drain, nothing is torn
// down mid-response — and joins every thread. The destructor calls Stop().

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/api.h"
#include "common/result.h"
#include "net/line_channel.h"
#include "net/socket.h"
#include "serve/query_engine.h"
#include "serve/wire.h"

namespace recpriv::repl {
class SnapshotProvider;
}  // namespace recpriv::repl

namespace recpriv::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;             ///< 0 = kernel-assigned; read via port()
  size_t max_connections = 64;   ///< admission limit, so also the session-
                                 ///< thread limit; beyond it: UNAVAILABLE
  size_t max_line_bytes = 1 << 20;  ///< request-line bound (net/line_channel.h)
  int idle_timeout_ms = 0;       ///< disconnect a silent session; 0 = never
  int write_timeout_ms = 5000;   ///< give up on a peer that stopped reading
  int poll_tick_ms = 50;         ///< accept-thread poll cadence, and its
                                 ///< back-off after a failed accept
  /// Enables the replication ops ("subscribe"/"fetch_snapshot") and epoch
  /// event push. Not owned; must outlive the server. Null = both ops
  /// answer UNSUPPORTED and no store listener is registered.
  repl::SnapshotProvider* snapshot_provider = nullptr;
  /// When set, the "stats" op reports a "replication" section — a
  /// follower exposes its own link counters and staleness bounds here.
  std::function<client::ReplicationStats()> replication_stats;
};

/// Multi-client TCP wire server over a shared QueryEngine.
class Server {
 public:
  /// Binds and starts serving immediately. The engine is shared: an
  /// InProcessClient over the same engine sees (and can administer) the
  /// same releases the TCP sessions query.
  static Result<std::unique_ptr<Server>> Start(
      std::shared_ptr<QueryEngine> engine, ServerOptions options = {});

  /// Stops (drains) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the kernel's pick when options.port was 0).
  uint16_t port() const { return port_; }
  const ServerOptions& options() const { return options_; }

  /// Stops accepting, wakes every session, drains each session's
  /// in-flight request, and joins every server thread. Idempotent; a
  /// concurrent caller returns once the first has finished.
  void Stop();

  /// Point-in-time snapshot of the transport counters.
  client::TransportStats Metrics() const;

  /// Error responses by wire code name ("RESOURCE_EXHAUSTED", ...), for
  /// the shutdown summary. Keys are bounded by the ErrorCode enum (plus
  /// UNAVAILABLE from max_connections rejections), so the map cannot be
  /// grown by a hostile peer. Deliberately not part of the wire
  /// TransportStats shape.
  std::map<std::string, uint64_t> ErrorCodeCounts() const;

 private:
  /// A non-blocking self-pipe: Notify() makes the read end readable until
  /// Drain(), so a poll(2) on it cannot miss a wakeup.
  struct WakePipe {
    static Result<WakePipe> Make();
    void Notify() const;
    void Drain() const;
    net::UniqueFd read, write;
  };

  /// One admitted connection. The session thread owns the channel and the
  /// protocol state; the accept thread owns `thread`; `wake`, `done`, and
  /// the push queue are shared.
  struct Session {
    Session(net::LineChannel ch, WakePipe w)
        : channel(std::move(ch)), wake(std::move(w)) {}
    net::LineChannel channel;
    WakePipe wake;  ///< written by Stop and the push fan-out
    int64_t version = 1;  ///< highest protocol version negotiated
    /// True once a "hello" negotiated binary frames: requests, responses,
    /// and pushes all switch to net::LineChannel frames.
    bool binary = false;
    bool subscribed = false;
    SessionBuffers buffers;  ///< the direct query path's, reused per request
    std::chrono::steady_clock::time_point last_activity =
        std::chrono::steady_clock::now();
    /// The store-listener thread appends under push_mu while the session
    /// thread drains, so both sides take this lock (and nothing else
    /// under it).
    std::mutex push_mu;
    std::vector<std::string> pending_push;  ///< encoded event lines
    std::atomic<bool> done{false};  ///< the thread is about to exit
    std::thread thread;  ///< started, and joined, by the accept thread
  };
  using SessionPtr = std::shared_ptr<Session>;

  Server(std::shared_ptr<QueryEngine> engine, ServerOptions options);

  /// The accept thread: admit connections, start and reap session threads.
  void AcceptLoop();
  /// Admits one accepted connection, or rejects it at max_connections.
  void Admit(net::UniqueFd fd);
  /// Joins the threads of sessions that have finished.
  void ReapSessions();
  /// A session thread: serves requests until the peer leaves, the session
  /// fails or times out, or the server stops.
  void RunSession(const SessionPtr& session);
  /// Blocks until the session's socket is readable, its wake pipe fires,
  /// or its idle timeout expires; false on the timeout.
  bool WaitForInput(Session& session);
  /// Handles one request line; false when the session must close.
  bool HandleLine(Session& session, const RequestContext& context,
                  const std::string& line);
  /// Writes one response/error JSON in the session's current framing
  /// (line, or a kFrameJson frame on binary sessions).
  bool WriteToSession(Session& session, std::string_view json);
  /// Writes the session's queued push lines; false when the peer is gone.
  bool FlushPushes(Session& session);
  /// The ReleaseStore listener: encodes the event once and enqueues it on
  /// every subscribed session (runs on the publishing thread).
  void OnStoreEvent(const StoreEvent& event);
  void CountError(client::ErrorCode code);

  std::shared_ptr<QueryEngine> engine_;
  ServerOptions options_;
  net::Listener listener_;
  uint16_t port_ = 0;
  WakePipe wake_;  ///< unblocks the accept thread's poll()
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;  ///< serializes Stop()

  std::mutex sessions_mu_;
  std::vector<SessionPtr> sessions_;  ///< every session not yet joined

  /// Subscribed sessions, as weak refs: a closed session just expires out
  /// of the fan-out, no unsubscribe bookkeeping on the close paths.
  std::mutex subs_mu_;
  std::vector<std::weak_ptr<Session>> subscribers_;
  uint64_t store_listener_token_ = 0;  ///< 0 = no listener registered

  /// Per-request counters, lock-free: requests by op (kKnownOps order,
  /// then one bucket for every other name) and errors by code.
  std::array<std::atomic<uint64_t>, kKnownOps.size() + 1> ops_{};
  std::array<std::atomic<uint64_t>, client::kNumErrorCodes> error_codes_{};

  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> sessions_v2_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> malformed_{0};
  std::atomic<uint64_t> oversized_{0};
  std::atomic<uint64_t> epoch_pins_{0};
  std::atomic<uint64_t> idle_disconnects_{0};

  std::thread accept_thread_;  ///< last: it uses every member above
};

}  // namespace recpriv::serve
