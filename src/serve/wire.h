// Line-delimited JSON front end for the serving layer — the protocol
// behind tools/recpriv_serve, and the ONLY place in the tree where
// protocol JSON is built or parsed. Everything outside this file works
// with the typed structs of client/api.h; the server dispatches through
// serve/service.h and the remote client backend
// (client/line_protocol_client.h) uses the codec declared below.
//
// One JSON object per input line, one JSON object per output line, always
// with an "ok" field. Two protocol versions coexist:
//
// v1 (legacy, the PR-1 protocol; selected by omitting "v"):
//
//   {"op":"list"}
//     -> {"ok":true,"releases":[{"name":...,"epoch":...,
//         "num_records":...,"num_groups":...,...}]}
//   {"op":"query","release":"adult","queries":[
//       {"where":{"Workclass":"private","Education":"hs"},"sa":">50k"}]}
//     -> {"ok":true,"release":"adult","epoch":1,"cache_hits":0,
//         "cache_misses":1,"answers":[{"observed":12,"matched_size":310,
//         "estimate":18.7,"cached":false}]}
//   {"op":"stats"}
//     -> {"ok":true,"threads":4,"cache":{...},"releases":[...]}
//
//   v1 errors are a flat string: {"ok":false,"error":"NotFound: ..."}.
//
// v2 (current; selected with "v":2):
//
//   * every request may carry a client-chosen "id", echoed verbatim on the
//     response — success or error — so a pipelined client can correlate;
//   * responses carry "v":2;
//   * errors are structured, with a stable code taxonomy (client/api.h):
//     {"v":2,"id":7,"ok":false,
//      "error":{"code":"STALE_EPOCH","message":"..."}}
//   * query and schema ops accept "epoch":N to pin a retained snapshot
//     (serve/release_store.h), so a multi-batch analysis session reads a
//     consistent release across republishes;
//   * admin/introspection ops: "schema" (attribute names + domain values),
//     "publish" (load a release bundle from the server's filesystem),
//     "drop" (retire a release);
//   * replication ops (TCP front end only): "subscribe" upgrades the
//     session into a push stream of epoch events and returns the full
//     retained-epoch listing with content digests; "fetch_snapshot"
//     streams an `.rps` image in checksummed chunks (base64 on line
//     sessions, raw attachments on binary ones — see "hello");
//   * "hello" negotiates the session framing. JSON lines are the default
//     and the compatibility surface; a client on a frame-capable transport
//     may ask for length-prefixed binary frames (net/line_channel.h):
//
//       {"v":2,"id":0,"op":"hello","frame":"binary"}
//         -> {"v":2,"id":0,"ok":true,"frame":"binary"}
//
//     The response is sent in the session's CURRENT framing and states the
//     framing the server accepted ("json" when this front end cannot frame,
//     e.g. stdin — negotiation degrades, it never errors); both sides
//     switch immediately after it. On a binary session every request and
//     response is one kFrameJson frame carrying the same JSON text a line
//     session would carry — byte-identical payloads, so transcripts match
//     across framings — except "fetch_snapshot" responses, which become
//     kFrameJsonWithBytes frames: the chunk rides as a raw attachment
//     (JSON carries "data_bytes":N instead of "data_b64"), skipping base64
//     expansion and JSON string escaping entirely.
//
//   {"v":2,"id":5,"op":"subscribe"}
//     -> {"v":2,"id":5,"ok":true,"subscribed":true,"releases":[
//         {"release":"adult","epochs":[
//           {"epoch":1,"digest":"xxh64:00ff12ab34cd56ef"},...]}]}
//     ...then, interleaved with this session's responses, pushed lines
//     with no "id"/"ok" (distinguish by the "event" key — wire::IsEventLine):
//     {"v":2,"event":"epoch","kind":"publish","release":"adult","epoch":2,
//      "digest":"xxh64:..."}
//     {"v":2,"event":"epoch","kind":"retire","release":"adult","epoch":1}
//     {"v":2,"event":"epoch","kind":"drop","release":"adult","epoch":2}
//   {"v":2,"id":6,"op":"fetch_snapshot","release":"adult","epoch":2,
//    "offset":0,"max_bytes":262144}
//     -> {"v":2,"id":6,"ok":true,"release":"adult","epoch":2,"offset":0,
//         "total_bytes":1048576,"digest":"xxh64:...",
//         "chunk_digest":"xxh64:...","data_b64":"...","eof":false}
//
//   {"v":2,"id":1,"op":"schema","release":"adult"}
//     -> {"v":2,"id":1,"ok":true,"release":"adult","epoch":1,
//         "attributes":[{"name":"Workclass","sensitive":false,
//                        "values":["private",...]},...]}
//   {"v":2,"id":2,"op":"publish","name":"adult","release":"bundles/adult"}
//     -> {"v":2,"id":2,"ok":true,"release":{"name":"adult","epoch":2,...}}
//   {"v":2,"id":3,"op":"drop","release":"adult"}
//     -> {"v":2,"id":3,"ok":true,"dropped":{"name":"adult",...}}
//   {"v":2,"id":4,"op":"query","release":"adult","epoch":1,"queries":[...]}
//     -> answered from the pinned epoch-1 snapshot
//
// Errors never tear down the session: a malformed line or unknown release
// yields an error response and the loop continues. A line that is not
// parseable JSON at all gets the v2 error shape with code "MALFORMED"
// (its version field is unreadable by definition). Values in "where" and
// "sa" are domain strings of the release's own schema; unknown attributes
// or values are reported as errors rather than silently matching nothing,
// so analysts catch typos instead of reading zeros.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "client/api.h"
#include "common/json.h"
#include "common/result.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"

namespace recpriv::repl {
class SnapshotProvider;
}  // namespace recpriv::repl

namespace recpriv::serve {

inline constexpr int64_t kWireVersionLegacy = 1;
inline constexpr int64_t kWireVersionCurrent = 2;

/// Default / maximum payload bytes per "fetch_snapshot" chunk. The cap
/// keeps one response line well under the server's max line length even
/// after base64 expansion (4/3) plus framing.
inline constexpr uint64_t kDefaultFetchChunkBytes = 256 * 1024;
inline constexpr uint64_t kMaxFetchChunkBytes = 1024 * 1024;

/// Transport-level context a front end may attach to request handling.
/// `transport_stats`, when set, is invoked by the "stats" op so its
/// response includes the front end's connection/op counters (the stdin and
/// in-process paths leave it unset and the field stays absent).
struct RequestContext {
  std::function<client::TransportStats()> transport_stats;
  /// Snapshot images for the replication ops ("fetch_snapshot" copies each
  /// chunk straight out of the snapshot's arrays); "subscribe" and
  /// "fetch_snapshot" answer UNSUPPORTED while this is null.
  repl::SnapshotProvider* snapshots = nullptr;
  /// Invoked by a successful "subscribe" to upgrade the session into a
  /// push stream; returns false when this front end cannot push (stdin).
  /// Unset (like null `snapshots`) means subscribe is UNSUPPORTED.
  std::function<bool()> on_subscribe;
  /// When set, the "stats" op adds a "replication" section — a follower's
  /// link counters and staleness bounds. Absent on non-replicating
  /// servers, so their golden transcripts are unchanged.
  std::function<client::ReplicationStats()> replication_stats;
  /// True when this front end can switch the session to binary frames (a
  /// live socket it controls). "hello" negotiates "frame":"json" while
  /// false — stdin and loopback front ends leave it unset.
  bool allow_binary_frame = false;
  /// True when the CURRENT request arrived on a binary-framed session;
  /// "fetch_snapshot" then emits its chunk as a raw frame attachment
  /// (RequestInfo::attachment) instead of base64.
  bool binary_session = false;
};

/// What one handled request looked like — filled for the front end's
/// metrics, without it re-parsing the line.
struct RequestInfo {
  bool parsed = false;      ///< the line was valid JSON
  bool ok = false;          ///< the response carried ok:true
  int64_t version = kWireVersionLegacy;  ///< protocol version requested
  bool pinned_epoch = false;             ///< the request pinned an epoch
  bool subscribed = false;  ///< a "subscribe" op succeeded on this request
  std::string op;           ///< "op" value when present and a string
  client::ErrorCode error_code = client::ErrorCode::kOk;  ///< set iff !ok
  /// Outcome of a "hello": the framing the session should use from the
  /// next request on (the hello response itself goes out in the old one).
  bool negotiated_binary = false;
  /// Raw bytes to ship as the response frame's attachment
  /// (kFrameJsonWithBytes). Only ever set on binary sessions
  /// (RequestContext::binary_session); empty means a plain JSON frame.
  std::string attachment;
};

/// Dispatches one parsed request object; never returns an error — failures
/// become {"ok":false,...} responses in the request's protocol version.
JsonValue HandleRequest(const JsonValue& request, QueryEngine& engine,
                        const RequestContext& context = {},
                        RequestInfo* info = nullptr);

/// Parses one request line and dispatches it; the returned string is the
/// serialized one-line response (no trailing newline).
///
/// A well-formed "query" line takes the direct path: it is decoded
/// straight into a client::QueryRequest (wire::ReadQueryRequest) and its
/// answer written straight to the response (wire::WriteQueryResponse),
/// with no JsonValue tree on either side. Every other line — control ops,
/// and any query line the direct decoder does not take — goes through
/// JsonValue::Parse + HandleRequest, so its response bytes are exactly
/// the tree's.
std::string HandleRequestLine(const std::string& line, QueryEngine& engine);
std::string HandleRequestLine(const std::string& line, QueryEngine& engine,
                              const RequestContext& context,
                              RequestInfo* info);

/// What a front end keeps per session so the direct query path reuses its
/// buffers from one request to the next: the decoded request (its vectors
/// and strings keep their capacity) and the response line.
struct SessionBuffers {
  client::QueryRequest query;
  std::string response;
};

/// HandleRequestLine into `buffers->response` (overwritten).
void HandleRequestLine(const std::string& line, QueryEngine& engine,
                       const RequestContext& context, RequestInfo* info,
                       SessionBuffers* buffers);

/// A standalone v2-shaped error response line (no id echo) for conditions
/// the dispatcher never sees: an oversized request line, a connection
/// refused at max_connections.
std::string ErrorResponseLine(client::ErrorCode code,
                              const std::string& message);

/// The op names the dispatcher implements, in a fixed order.
inline constexpr std::array<std::string_view, 9> kKnownOps = {
    "query", "list", "stats", "schema", "publish",
    "drop", "hello", "subscribe", "fetch_snapshot"};

/// Index of `op` in kKnownOps, or kKnownOps.size() for any other name.
/// Front ends keying metrics by op name MUST bucket unknown names through
/// this, or a peer sending distinct made-up ops grows the metrics without
/// bound.
size_t KnownOpIndex(std::string_view op);

/// Reads request lines from `in` until EOF, writing one response line per
/// request to `out` (blank lines are skipped). Returns the number of
/// requests handled. The context overload lets the stdin front end expose
/// e.g. replication stats; it cannot push, so leave `on_subscribe` unset.
size_t ServeLines(std::istream& in, std::ostream& out, QueryEngine& engine);
size_t ServeLines(std::istream& in, std::ostream& out, QueryEngine& engine,
                  const RequestContext& context);

// --- v2 codec --------------------------------------------------------------
// Request encoders and response decoders for the client side of the wire,
// used by client::LineProtocolClient. Encoders stamp "v":2 and the given
// correlation id; decoders verify the envelope (ok / version / id echo)
// and map structured wire errors back onto the Status taxonomy via
// client::ApiError, so a remote caller sees the same Status an in-process
// caller would.
namespace wire {

/// The "tenants" section of the stats payload. Exposed because tools that
/// report the same struct outside the protocol (recpriv_workload's report
/// JSON) must stay field-for-field identical to the wire shape.
JsonValue EncodeTenantStats(const client::TenantStats& stats);

/// The "replication" section of the stats payload (same shape contract;
/// recpriv_serve's shutdown summary reuses it).
JsonValue EncodeReplicationStats(const client::ReplicationStats& stats);

JsonValue EncodeListRequest(uint64_t id);
JsonValue EncodeQueryRequest(const client::QueryRequest& request, uint64_t id);
JsonValue EncodeSchemaRequest(const std::string& release,
                              std::optional<uint64_t> epoch, uint64_t id);
JsonValue EncodeStatsRequest(uint64_t id);
JsonValue EncodePublishRequest(const std::string& name,
                               const std::string& basename, uint64_t id);
JsonValue EncodeDropRequest(const std::string& release, uint64_t id);

/// Parses one response line and validates the v2 envelope: the object
/// must carry ok:true and echo `expect_id`; a server-reported error
/// becomes its mapped Status.
Result<JsonValue> ParseResponse(const std::string& line, uint64_t expect_id);
/// The same, for a line the caller already parsed.
Result<JsonValue> ParseResponse(JsonValue response, uint64_t expect_id);

Result<std::vector<client::ReleaseDescriptor>> DecodeListResponse(
    const JsonValue& response);
Result<client::BatchAnswer> DecodeQueryResponse(const JsonValue& response);
Result<client::ReleaseSchema> DecodeSchemaResponse(const JsonValue& response);
Result<client::ServerStats> DecodeStatsResponse(const JsonValue& response);
Result<client::ReleaseDescriptor> DecodePublishResponse(
    const JsonValue& response);
Result<client::ReleaseDescriptor> DecodeDropResponse(const JsonValue& response);

// --- replication codec -----------------------------------------------------

JsonValue EncodeSubscribeRequest(uint64_t id);
Result<client::Subscription> DecodeSubscribeResponse(const JsonValue& response);

JsonValue EncodeFetchSnapshotRequest(const std::string& release,
                                     uint64_t epoch, uint64_t offset,
                                     uint64_t max_bytes, uint64_t id);
/// Decodes one chunk, base64-expands its payload, and verifies the chunk
/// digest — a corrupted transfer surfaces here as DataLoss, before any
/// byte reaches a follower's reassembly buffer. The attachment overload
/// handles binary-framed responses, where the chunk arrives as raw frame
/// bytes ("data_bytes":N) instead of "data_b64"; pass nullptr when the
/// transport carried no attachment.
Result<client::SnapshotChunk> DecodeFetchSnapshotResponse(
    const JsonValue& response);
Result<client::SnapshotChunk> DecodeFetchSnapshotResponse(
    const JsonValue& response, const std::string* attachment);

// --- direct query codec (both ends) ------------------------------------------
// The "query" op read and written without a JsonValue tree. Each function
// produces exactly the bytes or values of its tree counterpart — the golden
// transcripts pin the key order (std::map order) and the number format
// (json::NumberInto) — and the tree functions stay as the reference they
// are tested against. A reader returns false for anything it does not take
// (another op, an event line, an error response, a duplicate key, any
// grammar or shape error); the caller then goes the tree path, which owns
// every error message.

/// The tree reference of ReadQueryRequest: the request HandleRequest
/// dispatches for a parsed "query" op (the envelope fields aside).
Result<client::QueryRequest> DecodeQueryRequest(const JsonValue& request);

/// The tree reference of WriteQueryResponse: the ok response HandleRequest
/// sends for `batch` in protocol `version`, echoing `id` when non-null.
JsonValue EncodeQueryResponse(const client::BatchAnswer& batch,
                              int64_t version, const JsonValue* id);

/// Appends EncodeQueryRequest(request, id).ToString(), except that
/// `epoch` (the request's own, or a session pin) replaces request.epoch.
void WriteQueryRequest(const client::QueryRequest& request,
                       std::optional<uint64_t> epoch, uint64_t id,
                       std::string& out);

/// The envelope of a query line that ReadQueryRequest took.
struct QueryEnvelope {
  int64_t version = kWireVersionLegacy;
  std::optional<JsonValue> id;  ///< echoed verbatim on the response
  bool pinned_epoch = false;    ///< the line carried "epoch"
};

/// Decodes a query request line into `request` (fully overwritten, its
/// buffers reused). True only when HandleRequest would dispatch the same
/// request: a JSON object with "op":"query", a supported "v", a string
/// "release", an array of query objects, well-typed optional fields, and
/// no repeated key.
bool ReadQueryRequest(std::string_view line, client::QueryRequest* request,
                      QueryEnvelope* envelope);

/// Appends EncodeQueryResponse(batch, version, id).ToString().
void WriteQueryResponse(const client::BatchAnswer& batch, int64_t version,
                        const JsonValue* id, std::string& out);

/// Decodes an ok query response line for request `expect_id` into `out`.
/// True only when ParseResponse + DecodeQueryResponse would return the
/// same answer; false for errors, event lines, and anything unexpected.
bool ReadQueryResponse(std::string_view line, uint64_t expect_id,
                       client::BatchAnswer* out);

// --- session framing codec ---------------------------------------------------

/// `frame` is "json" or "binary"; the server answers with the framing it
/// accepted (graceful degradation, never an error for a supported name).
JsonValue EncodeHelloRequest(const std::string& frame, uint64_t id);
/// The accepted framing name from a hello response.
Result<std::string> DecodeHelloResponse(const JsonValue& response);

/// A pushed epoch-event line (server side). Events are not responses:
/// they carry no "id"/"ok", and a subscribed client must route any line
/// where IsEventLine() holds to its event handler instead of the
/// request/response correlator.
JsonValue EncodeEpochEvent(const client::EpochEvent& event);
bool IsEventLine(const JsonValue& line);
Result<client::EpochEvent> DecodeEpochEvent(const JsonValue& line);

}  // namespace wire

}  // namespace recpriv::serve
