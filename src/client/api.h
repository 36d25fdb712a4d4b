// Typed request/response contract of the serving layer — the structs a
// consumer program works with instead of raw protocol JSON.
//
// These types are shared by every access path: the wire codec
// (serve/wire.cc) encodes/decodes them, the typed service layer
// (serve/service.h) produces them, and both client backends
// (client/in_process_client.h, client/line_protocol_client.h) return them.
// A program written against them runs unchanged embedded or remote.
//
// Errors cross the wire as a stable (code, message) pair — see ApiError —
// so remote callers can branch on the same taxonomy an in-process caller
// gets from Status, without parsing message strings.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace recpriv::client {

/// Stable wire error taxonomy. Every value maps 1:1 to a StatusCode (the
/// in-process error vocabulary), so the two client backends report the
/// same error for the same failure. kMalformed is the one wire-layer
/// refinement: a request line that is not valid JSON (an in-process caller
/// can never produce one).
enum class ErrorCode {
  kOk = 0,
  kInvalidRequest,  ///< kInvalidArgument: value outside the documented domain
  kOutOfRange,      ///< kOutOfRange: index / key outside a container
  kNotFound,        ///< kNotFound: unknown release, attribute, value, file
  kAlreadyExists,   ///< kAlreadyExists: duplicate insertion
  kIoError,         ///< kIOError: filesystem / parse failure
  kStaleEpoch,      ///< kFailedPrecondition: pinned epoch no longer retained
  kInternal,        ///< kInternal: invariant violation inside the server
  kUnsupported,     ///< kNotImplemented: protocol version / operation
  kMalformed,       ///< request line was not parseable JSON (wire only)
  kUnavailable,     ///< kUnavailable: server at max_connections; retry later
  kDataLoss,        ///< kDataLoss: a persisted snapshot is corrupt/unreadable
  kResourceExhausted,  ///< kResourceExhausted: tenant over quota; retry later
  kDeadlineExceeded,   ///< kDeadlineExceeded: deadline passed; shed unserved
};

/// Number of ErrorCode values (the last enumerator above plus one), for
/// arrays indexed by code.
inline constexpr size_t kNumErrorCodes =
    size_t(ErrorCode::kDeadlineExceeded) + 1;

/// Stable wire name of a code, e.g. "STALE_EPOCH".
std::string_view ErrorCodeName(ErrorCode code);

/// Inverse of ErrorCodeName; nullopt for unknown names.
std::optional<ErrorCode> ErrorCodeFromName(std::string_view name);

/// The taxonomy mapping (see the enum comments). OK maps to kOk.
ErrorCode ErrorCodeFromStatus(const Status& status);

/// A failed operation as it crosses the API boundary.
struct ApiError {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  /// The Status an in-process caller would have seen (kMalformed becomes
  /// kIOError: the line never reached the JSON layer intact).
  Status ToStatus() const;
  static ApiError FromStatus(const Status& status);
};

/// One count query at the string level of the release's own schema:
/// WHERE attr = value AND ... AND SA = sa (Eq. 11). Attribute and value
/// names resolve against the served snapshot's dictionaries server-side,
/// so clients need no out-of-band knowledge of the generator — fetch the
/// domains with Client::GetSchema.
struct QuerySpec {
  std::vector<std::pair<std::string, std::string>> where;
  std::string sa;
};

/// A batch of count queries against one release. When `epoch` is set the
/// batch is answered from that retained snapshot (see
/// serve/release_store.h), so a multi-request analysis session reads a
/// consistent release across concurrent republishes.
struct QueryRequest {
  std::string release;
  std::optional<uint64_t> epoch;
  std::vector<QuerySpec> queries;
  /// Tenant the request is accounted against for quota admission. Empty
  /// means the default tenant — the bucket every legacy/undeclared session
  /// shares (see serve/admission.h).
  std::string tenant;
  /// Relative deadline budget in milliseconds. When set, the serving side
  /// fast-fails the batch with DEADLINE_EXCEEDED once the budget has
  /// elapsed instead of occupying the engine pool past its usefulness.
  std::optional<int64_t> deadline_ms;
};

/// One query's answer: the observed perturbed count O*, the matched
/// release size |S*|, and the MLE reconstruction est = |S*| F' (Lemma 2).
struct AnswerRow {
  uint64_t observed = 0;
  uint64_t matched_size = 0;
  double estimate = 0.0;
  bool cached = false;
};

/// One batch's answers plus serving diagnostics.
struct BatchAnswer {
  std::string release;
  uint64_t epoch = 0;  ///< snapshot epoch the batch was served from
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  std::vector<AnswerRow> answers;  ///< parallel to QueryRequest::queries
};

/// Serving-visible metadata of one named release.
struct ReleaseDescriptor {
  std::string name;
  uint64_t epoch = 0;
  uint64_t num_records = 0;
  uint64_t num_groups = 0;
  uint64_t retained_epochs = 1;  ///< snapshots pinnable right now
  uint64_t oldest_epoch = 0;     ///< smallest epoch still pinnable
};

/// One attribute of a release schema: its name, whether it is the
/// sensitive attribute, and its full value domain in code order.
struct AttributeInfo {
  std::string name;
  bool sensitive = false;
  std::vector<std::string> values;
};

/// A release's public/sensitive attributes and domain values — everything
/// needed to build QuerySpecs without out-of-band knowledge.
struct ReleaseSchema {
  std::string release;
  uint64_t epoch = 0;
  std::vector<AttributeInfo> attributes;
};

/// Answer-cache counters of the serving process.
struct CacheStats {
  uint64_t size = 0;
  uint64_t capacity = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

/// Counters of the network front end (serve/server.h): connection
/// admission, per-op request counts, and protocol hygiene. Present in
/// ServerStats only when the stats request was answered by a process with
/// a TCP front end — an in-process or stdin-served engine has none.
struct TransportStats {
  uint64_t connections_active = 0;
  uint64_t connections_accepted = 0;  ///< admitted sessions, lifetime
  uint64_t connections_rejected = 0;  ///< refused at max_connections
  uint64_t sessions_v2 = 0;           ///< sessions that sent a v2 request
  uint64_t requests = 0;              ///< request lines answered, all ops
  uint64_t errors = 0;                ///< responses with ok:false
  uint64_t malformed_lines = 0;       ///< lines that were not valid JSON
  uint64_t oversized_lines = 0;       ///< lines dropped by the read bound
  uint64_t idle_disconnects = 0;      ///< sessions dropped by idle timeout
  uint64_t epoch_pins = 0;            ///< requests that pinned an epoch
  std::map<std::string, uint64_t> ops;  ///< per-op request counts
};

/// Provenance of one served release: which path produced its snapshot
/// ("memory" published in-process, "csv" parsed from a release file,
/// "snapshot" mapped from a persisted binary snapshot) and what each stage
/// of making it queryable cost.
struct StoreReleaseStats {
  std::string release;
  uint64_t epoch = 0;
  std::string source;           ///< "memory" | "csv" | "snapshot"
  double open_ms = 0.0;         ///< whole open: map..assemble ("snapshot")
  double parse_ms = 0.0;        ///< CSV + manifest parse ("csv")
  double build_ms = 0.0;        ///< index / posting build
  uint64_t bytes_mapped = 0;    ///< mmap'd bytes held alive ("snapshot")
};

/// Admission counters of one tenant's token bucket (serve/admission.h).
struct TenantCounters {
  uint64_t admitted = 0;  ///< query batches admitted past the bucket
  uint64_t rejected = 0;  ///< batches refused with RESOURCE_EXHAUSTED
  uint64_t shed = 0;      ///< batches fast-failed with DEADLINE_EXCEEDED
};

/// Per-tenant quota admission counters. Present in ServerStats only when
/// the serving engine was started with a tenant quota
/// (recpriv_serve --quota-qps).
struct TenantStats {
  double quota_qps = 0.0;    ///< configured refill rate (queries/second)
  double quota_burst = 0.0;  ///< configured bucket depth (queries)
  std::map<std::string, TenantCounters> tenants;
};

/// One retained epoch as advertised by the replication subscribe stream:
/// its number and the content digest ("xxh64:<hex>", repl/digest.h) of its
/// serialized snapshot image.
struct EpochDigest {
  uint64_t epoch = 0;
  std::string digest;
};

/// One release's retained-epoch window in a subscribe listing,
/// epoch-ascending; back() is the served epoch.
struct SubscribedRelease {
  std::string name;
  std::vector<EpochDigest> epochs;
};

/// The response of the "subscribe" wire op: the full epoch listing at
/// subscription time. Every later change arrives as an EpochEvent pushed
/// on the same session.
struct Subscription {
  std::vector<SubscribedRelease> releases;
};

/// One pushed replication event (wire shape: {"v":2,"event":"epoch",...}).
/// kPublish announces a newly served epoch (digest set); kRetire an epoch
/// aged out of the retention window; kDrop a retired release (epoch = the
/// last served epoch).
struct EpochEvent {
  enum class Kind { kPublish, kRetire, kDrop };
  Kind kind = Kind::kPublish;
  std::string release;
  uint64_t epoch = 0;
  std::string digest;  ///< set for kPublish; empty otherwise
};

/// One chunk of a snapshot transfer (the "fetch_snapshot" wire op). The
/// chunk bytes are base64 inside the JSON frame; `digest` is the whole
/// file's content digest so the fetcher can verify the reassembled image.
struct SnapshotChunk {
  std::string release;
  uint64_t epoch = 0;
  uint64_t offset = 0;       ///< first byte of `data` within the file
  uint64_t total_bytes = 0;  ///< full serialized image size
  std::string digest;        ///< whole-image digest ("xxh64:<hex>")
  std::vector<uint8_t> data;
  bool eof = false;  ///< offset + data.size() == total_bytes
};

/// Counters and staleness bounds of a follower's replication link
/// (repl/replicator.h). Present in ServerStats only when the serving
/// process is following a primary (recpriv_serve --follow), so golden
/// transcripts of non-replicating servers are unchanged.
struct ReplicationStats {
  std::string primary;        ///< "host:port" being followed
  bool connected = false;     ///< the subscribe stream is live right now
  uint64_t events_seen = 0;   ///< pushed epoch events processed
  uint64_t snapshots_fetched = 0;  ///< completed fetch_snapshot transfers
  uint64_t bytes_fetched = 0;      ///< snapshot payload bytes received
  uint64_t installs = 0;           ///< epochs installed into the local store
  uint64_t drops = 0;              ///< releases dropped to mirror the primary
  uint64_t digest_mismatches = 0;  ///< transfers rejected as DATA_LOSS
  uint64_t reconnects = 0;         ///< connection lifetimes after the first
  uint64_t resyncs = 0;            ///< full listings reconciled
  /// Bounded staleness, observable per the tentpole contract: how many
  /// published-but-not-yet-installed epochs the follower knows about, and
  /// the age in ms of the oldest such epoch (0 when fully caught up).
  uint64_t lag_epochs = 0;
  double lag_ms = 0.0;
};

/// Engine-wide counters plus per-release serving metadata.
struct ServerStats {
  uint64_t threads = 0;
  CacheStats cache;
  std::vector<ReleaseDescriptor> releases;
  std::optional<TransportStats> transport;  ///< see TransportStats
  std::vector<StoreReleaseStats> store;     ///< see StoreReleaseStats
  std::optional<TenantStats> tenants;       ///< see TenantStats
  std::optional<ReplicationStats> replication;  ///< see ReplicationStats
};

}  // namespace recpriv::client
