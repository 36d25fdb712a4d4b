// Replicator: the follower half of the replication subsystem — turns a
// local durable ReleaseStore into a bit-identical mirror of a primary's
// retained releases, so a fleet of recpriv_serve processes scales reads
// behind one publisher.
//
// Protocol (all over one TCP session to the primary, client/tcp_transport):
//
//   subscribe            -> the full retained-epoch listing with content
//                           digests, then pushed epoch events on the same
//                           session (serve/wire.h).
//   hello                -> always offered first: binary frames, so
//                           snapshot chunks arrive as raw attachments. A
//                           primary that answers "frame":"json" leaves the
//                           session line-framed (base64 chunks) and
//                           replication proceeds identically.
//   fetch_snapshot       -> the `.rps` image of one (release, epoch),
//                           streamed in checksummed chunks.
//
// The follower reconciles the listing against its local store (drop what
// the primary dropped, fetch what it is missing, oldest epoch first), then
// sits in the event loop: each pushed publish triggers a fetch + verify +
// install, each pushed drop mirrors the drop. Retire events need no local
// action — the local store's own retention window trims on install, which
// keeps the mirror byte-identical without replaying the primary's eviction
// schedule.
//
// Integrity: every fetched image is persisted before it is installed.
// Each verified chunk is appended to a temp file beside the store's
// managed path (`<path>.part`) while a streaming XXH64 runs over it; the
// follower never holds the image in memory. Once the last chunk lands,
// the whole-image digest is checked against both the fetch response's
// digest and the digest the subscribe listing / publish event advertised,
// and only then is the file renamed into place and OpenSnapshot'd — so a
// follower crash mid-transfer never leaves a half-written epoch (recovery
// deletes stale `.part` files), a restart recovers everything already
// fetched (RecoverFromDir), and a corrupt image never installs. Any
// mismatch is DATA_LOSS: the transfer and its temp file are abandoned,
// the connection dropped, and the resync after reconnect refetches from
// scratch.
//
// Transfers RESUME across reconnects: when the link dies mid-fetch, the
// temp file and the paused hash are kept (epochs are immutable, so offset
// continuation is always coherent) and the next session continues from
// that offset instead of restarting at zero. Without this, a large image
// over a lossy link could retry forever — every reconnect must then win
// image_bytes/chunk_bytes consecutive round trips, a probability that
// collapses with image size; with it, convergence needs only positive
// expected progress per session. Resumed bytes are still covered by the
// whole-image digest check, and a DATA_LOSS verdict, a retire or drop of
// the epoch, and Stop all delete the partial file.
//
// Liveness: the connection loop reconnects with the RetryingClient's
// seeded exponential backoff schedule (client/retry.h BackoffDelayMs) and
// resyncs from a fresh listing on every reconnect, so a follower that
// missed events while disconnected converges without any event-replay
// protocol. Bounded staleness is observable: Stats() reports how many
// published-but-not-installed epochs the follower knows about and the age
// of the oldest (lag_epochs / lag_ms), surfaced through the serving
// "stats" op as the "replication" section when running --follow.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "client/api.h"
#include "client/line_protocol_client.h"
#include "client/retry.h"
#include "common/checksum.h"
#include "common/random.h"
#include "common/result.h"
#include "net/fault_injector.h"
#include "serve/release_store.h"
#include "serve/wire.h"

namespace recpriv::repl {

struct ReplicatorOptions {
  std::string primary_host = "127.0.0.1";
  uint16_t primary_port = 0;
  /// Bytes requested per fetch_snapshot chunk.
  uint64_t chunk_bytes = serve::kDefaultFetchChunkBytes;
  /// Event-loop poll cadence; also bounds how fast Stop() is noticed.
  int idle_poll_ms = 50;
  /// Per-request response timeout on the replication link. Deliberately
  /// shorter than the interactive default: a wedged primary should trip
  /// the reconnect loop, not park the follower for a minute.
  int response_timeout_ms = 5000;
  /// Longest accepted line: a base64-expanded max-size chunk
  /// (wire::kMaxFetchChunkBytes) plus framing fits with room to spare.
  size_t max_line_bytes = 8 << 20;
  /// Reconnect pacing; the same seeded schedule RetryingClient uses.
  client::RetryPolicy retry;
  /// When set, connection writes draw byte-level faults (drops,
  /// disconnects, truncations) — how tests prove a follower that dies
  /// mid-transfer converges clean after reconnect.
  std::shared_ptr<net::FaultInjector> fault_injector;
};

/// Follows one primary, mirroring its releases into `store`. Owns one
/// background thread; Start spawns it, Stop (or the destructor) joins it.
class Replicator {
 public:
  /// `store` must be durable (have a snapshot_dir): persist-before-install
  /// is the crash-safety contract. Not owned; must outlive the replicator.
  static Result<std::unique_ptr<Replicator>> Start(serve::ReleaseStore& store,
                                                   ReplicatorOptions options);

  ~Replicator();
  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Signals the thread and joins it, then deletes the temp files of
  /// transfers kept for resumption. Idempotent. Bounded by the largest
  /// in-flight timeout (one chunk round trip worst case).
  void Stop();

  /// Point-in-time snapshot of the link counters and staleness bounds.
  client::ReplicationStats Stats() const;

  /// Blocks until the local store serves (release, epoch) or `timeout_ms`
  /// elapses; true when the epoch is installed. Test/bench convergence
  /// helper.
  bool WaitForEpoch(const std::string& release, uint64_t epoch,
                    int timeout_ms) const;

  /// Blocks until the subscribe stream is live (a listing has been
  /// reconciled on the current connection) or `timeout_ms` elapses.
  bool WaitForConnected(int timeout_ms) const;

 private:
  Replicator(serve::ReleaseStore& store, ReplicatorOptions options)
      : store_(store), options_(std::move(options)),
        backoff_rng_(options_.retry.jitter_seed) {}

  /// The follower thread: connect / subscribe / resync / event loop,
  /// forever until Stop.
  void Run();
  /// One connection lifetime: subscribe, resync, then the event loop;
  /// returns when the link fails or Stop is signalled. Resets `*attempt`
  /// (the backoff schedule) once the subscription is established.
  Status RunSession(client::LineProtocolClient& client, int* attempt);
  /// Reconciles a fresh subscribe listing against the local store.
  Status Resync(client::LineProtocolClient& client,
                const client::Subscription& listing);
  /// Applies one pushed event.
  Status ApplyEvent(client::LineProtocolClient& client,
                    const client::EpochEvent& event);
  /// Fetches (streaming to a temp file), verifies, persists, and installs
  /// one epoch. `advertised_digest` is the listing's/event's digest
  /// spelling.
  Status FetchEpoch(client::LineProtocolClient& client,
                    const std::string& release, uint64_t epoch,
                    const std::string& advertised_digest);
  /// True when the local store already retains (release, epoch).
  bool HasEpoch(const std::string& release, uint64_t epoch) const;
  /// Marks (release, epoch) as known-but-not-installed for the staleness
  /// bound; no-op if already pending.
  void MarkPending(const std::string& release, uint64_t epoch);
  void ClearPending(const std::string& release, uint64_t epoch);
  void ClearPendingRelease(const std::string& release);
  /// Forgets a kept transfer and deletes its temp file.
  void DiscardPartial(const std::pair<std::string, uint64_t>& key);
  /// DiscardPartial for every kept transfer of `release`.
  void DiscardPartials(const std::string& release);
  /// Sleeps the seeded backoff for `attempt`, in slices that notice Stop.
  void Backoff(int attempt);

  serve::ReleaseStore& store_;
  const ReplicatorOptions options_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;  ///< guards counters_, pending_, backoff_rng_
  client::ReplicationStats counters_;  ///< lag fields computed in Stats()
  /// Published-but-not-installed epochs and when each was first seen.
  std::map<std::pair<std::string, uint64_t>,
           std::chrono::steady_clock::time_point>
      pending_;
  Rng backoff_rng_;

  /// A fetch interrupted by a link failure, kept so the next session
  /// resumes at `hash.size()`: the temp file holds exactly the bytes
  /// hashed so far. Touched only from the follower thread (no lock) and
  /// from Stop after the join; discarded (file deleted) on DATA_LOSS,
  /// retire, drop, and Stop.
  struct PartialFetch {
    std::string temp_path;
    XxHash64Stream hash;  ///< paused whole-image digest
    std::string declared_digest;
  };
  std::map<std::pair<std::string, uint64_t>, PartialFetch> partials_;
};

}  // namespace recpriv::repl
