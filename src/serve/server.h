// Server: the multi-client TCP front end of the serving stack.
//
// Event-loop + pool architecture. One poller thread owns the listener and
// every idle connection: it poll(2)s them all (plus a self-pipe for
// wakeups), accepts new connections, and when a session's socket turns
// readable hands that session to the engine's existing work-stealing
// thread pool. A pool slice drains the session's buffered requests through
// the same wire-v2 dispatcher the stdin front end uses (serve/wire.h) —
// the transport changes, the protocol byte stream does not — and runs up
// to max_requests_per_slice of them before requeueing itself, so hot
// sessions share workers fairly. When the socket runs dry the session
// returns to the poller. Idle connections therefore cost zero worker time:
// a thousand quiet clients are one poll set, not a thousand parked tasks.
//
// Admission and backpressure: at most max_connections concurrent sessions;
// a connection over the limit receives one structured UNAVAILABLE error
// line and is closed. Per-line bounds (max_line_bytes), write timeouts,
// and optional idle timeouts keep any single misbehaving peer from
// wedging a worker or growing memory.
//
// Session state: each session tracks the protocol version it negotiated
// (the first v2 request upgrades it), its request/error counts, and how
// many of its requests pinned a release epoch. Aggregated counters are
// served to clients through the wire "stats" op as the "transport" section
// (client::TransportStats).
//
// Replication push: when ServerOptions carries a SnapshotProvider, the
// server registers a ReleaseStore listener and fans every install/retire/
// drop out to subscribed sessions as pushed event lines. An install's
// event carries the image digest, which the listener takes from the
// provider: on a durable store that is the layout the publish was just
// persisted from (no second pass over the image); on an in-memory store
// the listener lays the image out once, on the publishing thread. The listener
// thread never writes a socket directly — a session is owned by exactly
// one party at a time (poller or slice), so the fan-out only appends the
// pre-encoded line to the session's own locked push queue and wakes the
// poller; whichever party owns the session next flushes the queue. Push
// latency is therefore bounded by poll_tick_ms, not by peer traffic.
//
// Shutdown: Stop() stops accepting, closes idle connections, then lets
// every running session finish the request it is executing — in-flight
// batches drain, nothing is torn down mid-response. The destructor calls
// Stop().

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
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

namespace recpriv::repl {
class SnapshotProvider;
}  // namespace recpriv::repl

namespace recpriv::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;             ///< 0 = kernel-assigned; read via port()
  size_t max_connections = 64;   ///< admission limit; beyond it: UNAVAILABLE
  size_t max_line_bytes = 1 << 20;  ///< request-line bound (net/line_channel.h)
  int idle_timeout_ms = 0;       ///< disconnect a silent session; 0 = never
  int write_timeout_ms = 5000;   ///< give up on a peer that stopped reading
  int poll_tick_ms = 50;         ///< poller wakeup cadence (stop latency,
                                 ///< idle-timeout granularity)
  size_t max_requests_per_slice = 64;  ///< fairness quantum per pool slice
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

  /// Stops accepting, closes idle sessions, drains every running session's
  /// in-flight request, and joins the poller thread. Idempotent.
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
  /// One admitted connection's framing + session state. Owned by exactly
  /// one party at a time — the poller (idle) or a pool slice (running) —
  /// so its fields need no locking.
  struct Session {
    explicit Session(net::LineChannel ch) : channel(std::move(ch)) {}
    net::LineChannel channel;
    int64_t version = 1;          ///< highest protocol version negotiated
    /// True once a "hello" negotiated binary frames: requests, responses,
    /// and pushes all switch to net::LineChannel frames. Only touched by
    /// the session's current owner (a successful hello flips it in the
    /// pool slice that handled the request).
    bool binary = false;
    uint64_t requests = 0;
    uint64_t errors = 0;
    uint64_t epoch_pins = 0;
    std::chrono::steady_clock::time_point last_activity =
        std::chrono::steady_clock::now();
    /// Push state is the one exception to single-party ownership: the
    /// store-listener thread appends under push_mu while the owner reads,
    /// so both sides take this lock (and nothing else under it).
    std::mutex push_mu;
    bool subscribed = false;               ///< guarded by push_mu
    std::vector<std::string> pending_push;  ///< encoded event lines
  };
  using SessionPtr = std::shared_ptr<Session>;

  Server(std::shared_ptr<QueryEngine> engine, ServerOptions options);

  /// The poller thread: accept + poll idle sessions + dispatch to the pool.
  void PollLoop();
  /// Runs one cooperative slice of a session's wire loop on the pool.
  void PumpSession(const SessionPtr& session);
  void SubmitSlice(SessionPtr session);
  /// Hands a drained session back to the poller (or closes it when the
  /// poller is gone).
  void ReturnToPoller(const SessionPtr& session);
  /// Closes the session and releases its admission slot.
  void FinishSession(Session& session);
  /// Handles one request line; false when the session must close.
  bool HandleLine(const SessionPtr& session, const std::string& line);
  /// Writes one response/error JSON in the session's current framing
  /// (line, or a kFrameJson frame on binary sessions).
  bool WriteToSession(Session& session, const std::string& json);
  /// Writes the session's queued push lines; false when the peer is gone.
  bool FlushPushes(Session& session);
  /// The ReleaseStore listener: encodes the event once and enqueues it on
  /// every subscribed session (runs on the publishing thread).
  void OnStoreEvent(const StoreEvent& event);
  void WakePoller();

  std::shared_ptr<QueryEngine> engine_;
  ServerOptions options_;
  net::Listener listener_;
  uint16_t port_ = 0;
  net::UniqueFd wake_read_, wake_write_;  ///< self-pipe: unblock poll()
  std::thread poller_thread_;
  std::atomic<bool> stopping_{false};

  /// Handoff of drained sessions from pool slices back to the poller.
  std::mutex handoff_mu_;
  std::vector<SessionPtr> returned_;
  bool poller_exited_ = false;

  /// Subscribed sessions, as weak refs: a closed session just expires out
  /// of the fan-out, no unsubscribe bookkeeping on the close paths.
  std::mutex subs_mu_;
  std::vector<std::weak_ptr<Session>> subscribers_;
  uint64_t store_listener_token_ = 0;  ///< 0 = no listener registered
  std::atomic<uint64_t> events_pushed_{0};

  mutable std::mutex mu_;  ///< guards active_, ops_, and error_codes_
  std::condition_variable drained_cv_;   ///< active_ reached zero
  size_t active_ = 0;
  std::map<std::string, uint64_t> ops_;  ///< per-op request counts
  std::map<std::string, uint64_t> error_codes_;  ///< errors by wire code

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> sessions_v2_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> malformed_{0};
  std::atomic<uint64_t> oversized_{0};
  std::atomic<uint64_t> epoch_pins_{0};
  std::atomic<uint64_t> idle_disconnects_{0};
};

}  // namespace recpriv::serve
