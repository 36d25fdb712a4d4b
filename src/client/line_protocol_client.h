// LineProtocolClient: the remote backend of recpriv::client::Client —
// speaks wire protocol v2 (serve/wire.h), one JSON request line out, one
// JSON response line back, over a pluggable LineTransport.
//
// Every request carries a monotonically increasing correlation id; the
// client verifies the server's id echo before trusting a success
// response, and maps structured wire errors back onto the same Status
// taxonomy InProcessClient reports — so the two backends are
// interchangeable down to their error codes.
//
// Transports:
//  * IoStreamTransport — an (istream, ostream) pair, e.g. pipes to the
//    stdin/stdout of a recpriv_serve process.
//  * LoopbackTransport — dispatches each line through a local engine's
//    wire front end with no process boundary; full protocol round-trip
//    (encode -> parse -> dispatch -> encode -> parse) in-process. The
//    reference harness for protocol tests and examples.
//
// A LineProtocolClient serializes one request at a time and is not
// thread-safe; give each session its own client (the paper's consumption
// model — analysts each querying an immutable release — makes sessions
// naturally independent).
//
// Push streams: after Subscribe(), the server interleaves epoch-event
// lines (no "id"/"ok" — see wire::IsEventLine) into the session. The
// client routes them transparently: a RoundTrip that reads an event line
// buffers it and keeps reading until the real response arrives, and
// PollEvents() drains buffered plus newly arrived events. Pushed retire/
// drop events proactively clear a matching epoch pin, so a subscribed
// session never sends a query it already knows will answer STALE_EPOCH.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/client.h"
#include "common/json.h"
#include "net/fault_injector.h"
#include "serve/query_engine.h"
#include "serve/wire.h"

namespace recpriv::client {

/// One request line out, one response line back.
class LineTransport {
 public:
  virtual ~LineTransport() = default;
  /// Sends `request_line` (no trailing newline) and returns the
  /// corresponding response line, or an error when the peer is gone.
  virtual Result<std::string> RoundTrip(const std::string& request_line) = 0;
  /// Waits up to `timeout_ms` for a line the server sent without being
  /// asked (a pushed event, or a late response after events displaced
  /// it); nullopt on timeout. Only transports with a live full-duplex
  /// connection can carry pushes; the default says so with UNSUPPORTED.
  virtual Result<std::optional<std::string>> ReadPushedLine(int timeout_ms);

  // --- binary framing (wire "hello" negotiation) ---------------------------

  /// True when this transport can switch its session to binary frames
  /// (net/line_channel.h). Stream/loopback transports cannot.
  virtual bool SupportsBinaryFrame() const { return false; }
  /// Switches the framing after a successful negotiation; the NEXT
  /// round trip uses the new framing. Unsupported transports error.
  virtual Status SetBinaryFrame(bool binary);
  /// Raw attachment bytes of the most recently read response frame
  /// (kFrameJsonWithBytes), or nullptr when it carried none. Valid until
  /// the next read on this transport.
  virtual const std::string* LastAttachment() const { return nullptr; }
};

/// Writes request lines to `out`, reads response lines from `in`.
class IoStreamTransport : public LineTransport {
 public:
  IoStreamTransport(std::istream& in, std::ostream& out)
      : in_(in), out_(out) {}
  Result<std::string> RoundTrip(const std::string& request_line) override;

 private:
  std::istream& in_;
  std::ostream& out_;
};

/// Dispatches lines through a local engine's wire front end. The context
/// overload forwards a RequestContext, so protocol tests can exercise
/// e.g. "fetch_snapshot" or replication stats without a socket (loopback
/// has no push stream — "subscribe" needs the TCP server).
class LoopbackTransport : public LineTransport {
 public:
  explicit LoopbackTransport(serve::QueryEngine& engine) : engine_(engine) {}
  LoopbackTransport(serve::QueryEngine& engine, serve::RequestContext context)
      : engine_(engine), context_(std::move(context)) {}
  Result<std::string> RoundTrip(const std::string& request_line) override;

 private:
  serve::QueryEngine& engine_;
  serve::RequestContext context_;
};

/// Decorates any LineTransport with a seeded fault schedule
/// (net/fault_injector.h) — the transport-agnostic half of fault
/// injection, so `recpriv_workload --faults` exercises the retry path even
/// in-process. Drop/disconnect/truncate surface as UNAVAILABLE with a
/// "fault injection:" message (the request never reaches the peer and the
/// transport is considered dead); a delay sleeps then proceeds; a short
/// write has no distinct meaning without a real socket and passes through.
/// The TCP path applies the same schedule at the byte level instead
/// (client/tcp_transport.h).
class FaultInjectingTransport : public LineTransport {
 public:
  FaultInjectingTransport(std::unique_ptr<LineTransport> inner,
                          std::shared_ptr<net::FaultInjector> injector)
      : inner_(std::move(inner)), injector_(std::move(injector)) {}

  Result<std::string> RoundTrip(const std::string& request_line) override;

  /// True once a drop/disconnect/truncate fault killed this transport;
  /// every later RoundTrip fails UNAVAILABLE (a real dead socket does not
  /// resurrect either — the retry layer must reconnect).
  bool dead() const { return dead_; }

 private:
  std::unique_ptr<LineTransport> inner_;
  std::shared_ptr<net::FaultInjector> injector_;
  bool dead_ = false;
};

class LineProtocolClient : public Client {
 public:
  explicit LineProtocolClient(std::unique_ptr<LineTransport> transport);
  /// Convenience: an owned IoStreamTransport over the given streams.
  LineProtocolClient(std::istream& responses, std::ostream& requests);

  Result<std::vector<ReleaseDescriptor>> List() override;
  Result<BatchAnswer> Query(const QueryRequest& request) override;
  Result<ReleaseSchema> GetSchema(
      const std::string& release,
      std::optional<uint64_t> epoch = std::nullopt) override;
  Result<ServerStats> Stats() override;
  Result<ReleaseDescriptor> Publish(const std::string& name,
                                    const std::string& basename) override;
  Result<ReleaseDescriptor> Drop(const std::string& name) override;

  // --- session framing -----------------------------------------------------

  /// Negotiates binary frames for this session (the wire "hello" op) when
  /// the transport supports them; returns whether the session ended up
  /// binary-framed. A server that cannot frame answers "json" and this
  /// returns false — same protocol, line framing, no error. Call before
  /// bulk transfers (snapshot replication) to skip base64 entirely.
  Result<bool> NegotiateBinaryFrame();

  // --- replication / push stream -------------------------------------------

  /// Upgrades this session into a push stream of epoch events; returns the
  /// full retained-epoch listing at subscription time.
  Result<Subscription> Subscribe();

  /// Drains pushed epoch events: waits up to `timeout_ms` for the first
  /// line when nothing is buffered, then returns everything that has
  /// arrived (possibly empty). Pin invalidation and the latest-epoch map
  /// are updated as each event is seen — including events absorbed during
  /// a RoundTrip — not just here.
  Result<std::vector<EpochEvent>> PollEvents(int timeout_ms);

  /// One chunk of a snapshot transfer; chunk integrity is verified in the
  /// decoder (DataLoss on mismatch).
  Result<SnapshotChunk> FetchSnapshotChunk(const std::string& release,
                                           uint64_t epoch, uint64_t offset,
                                           uint64_t max_bytes);

  // --- epoch pinning (satellite: push-based stale-epoch invalidation) ------

  /// Pins queries of `release` (those not already carrying an epoch) to
  /// `epoch`. A pushed retire/drop of that epoch clears the pin before the
  /// next query, so a subscribed session steps forward instead of sending
  /// a request it already knows will answer STALE_EPOCH.
  void Pin(const std::string& release, uint64_t epoch);
  std::optional<uint64_t> PinnedEpoch(const std::string& release) const;
  void ClearPin(const std::string& release);
  /// Pins cleared by pushed retire/drop events (not by ClearPin).
  uint64_t pin_invalidations() const { return pin_invalidations_; }
  /// Highest epoch a pushed publish event has announced for `release`.
  std::optional<uint64_t> LatestKnownEpoch(const std::string& release) const;

 private:
  /// Serializes `request`, round-trips it, and validates the envelope;
  /// returns the response object for the per-op decoder. Pushed event
  /// lines that arrive in place of the response are absorbed (buffered +
  /// side effects applied) and the read continues.
  Result<JsonValue> RoundTrip(const JsonValue& request, uint64_t id);
  /// The envelope-checked response to request `id`, starting from the
  /// line the transport returned for it.
  Result<JsonValue> AwaitResponse(std::string response_line, uint64_t id);
  /// Applies one decoded event's side effects and buffers it for
  /// PollEvents.
  Status AbsorbEvent(const JsonValue& line);

  std::unique_ptr<LineTransport> transport_;
  uint64_t next_id_ = 1;
  std::string request_line_;  ///< Query's request line, capacity reused
  std::vector<EpochEvent> pending_events_;
  std::map<std::string, uint64_t> pins_;
  std::map<std::string, uint64_t> latest_epoch_;
  uint64_t pin_invalidations_ = 0;
};

}  // namespace recpriv::client
