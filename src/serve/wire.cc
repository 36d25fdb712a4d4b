#include "serve/wire.h"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "repl/digest.h"
#include "repl/snapshot_provider.h"
#include "serve/service.h"

namespace recpriv::serve {

using recpriv::client::ApiError;
using recpriv::client::ErrorCode;

namespace {

// Field access (RequireField/RequireString/RequireUint64) comes from
// common/json.h — the same protocol-grade messages every codec shares.
// Every integral wire field (epochs, offsets, byte counts, counters) is
// decoded through the integer-exact accessor: a 64-bit value above 2^53
// must survive the wire bit-for-bit, and negative / non-integral /
// beyond-exact values are wire-level shape errors.

Result<std::optional<uint64_t>> OptionalEpoch(const JsonValue& obj) {
  if (!obj.Has("epoch")) return std::optional<uint64_t>{};
  // Negative epochs are unrepresentable in the typed API, so they are a
  // wire-level shape error (RequireUint64 rejects them). Epoch 0 (or any
  // never-published epoch) flows through to the store, which reports it
  // stale — the same Status an in-process caller gets, keeping the two
  // backends' taxonomies aligned.
  RECPRIV_ASSIGN_OR_RETURN(uint64_t epoch, RequireUint64(obj, "epoch"));
  return std::optional<uint64_t>{epoch};
}

// --- payload encoders (shared by server responses and client decoding) -----

JsonValue EncodeDescriptor(const client::ReleaseDescriptor& d) {
  JsonValue out = JsonValue::Object();
  out.Set("name", JsonValue::String(d.name));
  out.Set("epoch", JsonValue::Uint(uint64_t(d.epoch)));
  out.Set("num_records", JsonValue::Uint(uint64_t(d.num_records)));
  out.Set("num_groups", JsonValue::Uint(uint64_t(d.num_groups)));
  out.Set("retained_epochs", JsonValue::Uint(uint64_t(d.retained_epochs)));
  out.Set("oldest_epoch", JsonValue::Uint(uint64_t(d.oldest_epoch)));
  return out;
}

Result<client::ReleaseDescriptor> DecodeDescriptor(const JsonValue& obj) {
  client::ReleaseDescriptor d;
  RECPRIV_ASSIGN_OR_RETURN(d.name, RequireString(obj, "name"));
  RECPRIV_ASSIGN_OR_RETURN(d.epoch, RequireUint64(obj, "epoch"));
  RECPRIV_ASSIGN_OR_RETURN(d.num_records, RequireUint64(obj, "num_records"));
  RECPRIV_ASSIGN_OR_RETURN(d.num_groups, RequireUint64(obj, "num_groups"));
  RECPRIV_ASSIGN_OR_RETURN(d.retained_epochs,
                           RequireUint64(obj, "retained_epochs"));
  RECPRIV_ASSIGN_OR_RETURN(d.oldest_epoch,
                           RequireUint64(obj, "oldest_epoch"));
  return d;
}

JsonValue EncodeListPayload(const std::vector<client::ReleaseDescriptor>& v) {
  JsonValue releases = JsonValue::Array();
  for (const client::ReleaseDescriptor& d : v) {
    releases.Append(EncodeDescriptor(d));
  }
  JsonValue out = JsonValue::Object();
  out.Set("releases", std::move(releases));
  return out;
}

JsonValue EncodeBatchAnswerPayload(const client::BatchAnswer& batch) {
  JsonValue answers = JsonValue::Array();
  for (const client::AnswerRow& a : batch.answers) {
    JsonValue entry = JsonValue::Object();
    entry.Set("observed", JsonValue::Uint(uint64_t(a.observed)));
    entry.Set("matched_size", JsonValue::Uint(uint64_t(a.matched_size)));
    entry.Set("estimate", JsonValue::Number(a.estimate));
    entry.Set("cached", JsonValue::Bool(a.cached));
    answers.Append(std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Set("release", JsonValue::String(batch.release));
  out.Set("epoch", JsonValue::Uint(uint64_t(batch.epoch)));
  out.Set("cache_hits", JsonValue::Uint(uint64_t(batch.cache_hits)));
  out.Set("cache_misses", JsonValue::Uint(uint64_t(batch.cache_misses)));
  out.Set("answers", std::move(answers));
  return out;
}

JsonValue EncodeSchemaPayload(const client::ReleaseSchema& schema) {
  JsonValue attributes = JsonValue::Array();
  for (const client::AttributeInfo& attr : schema.attributes) {
    JsonValue values = JsonValue::Array();
    for (const std::string& value : attr.values) {
      values.Append(JsonValue::String(value));
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(attr.name));
    entry.Set("sensitive", JsonValue::Bool(attr.sensitive));
    entry.Set("values", std::move(values));
    attributes.Append(std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Set("release", JsonValue::String(schema.release));
  out.Set("epoch", JsonValue::Uint(uint64_t(schema.epoch)));
  out.Set("attributes", std::move(attributes));
  return out;
}

JsonValue EncodeStatsPayload(const client::ServerStats& stats) {
  JsonValue cache = JsonValue::Object();
  cache.Set("size", JsonValue::Uint(uint64_t(stats.cache.size)));
  cache.Set("capacity", JsonValue::Uint(uint64_t(stats.cache.capacity)));
  cache.Set("hits", JsonValue::Uint(uint64_t(stats.cache.hits)));
  cache.Set("misses", JsonValue::Uint(uint64_t(stats.cache.misses)));
  JsonValue releases = JsonValue::Array();
  for (const client::ReleaseDescriptor& d : stats.releases) {
    releases.Append(EncodeDescriptor(d));
  }
  JsonValue out = JsonValue::Object();
  out.Set("threads", JsonValue::Uint(uint64_t(stats.threads)));
  out.Set("cache", std::move(cache));
  out.Set("releases", std::move(releases));
  if (stats.transport.has_value()) {
    const client::TransportStats& t = *stats.transport;
    JsonValue ops = JsonValue::Object();
    for (const auto& [op, count] : t.ops) {
      ops.Set(op, JsonValue::Uint(uint64_t(count)));
    }
    JsonValue transport = JsonValue::Object();
    transport.Set("connections_active",
                  JsonValue::Uint(uint64_t(t.connections_active)));
    transport.Set("connections_accepted",
                  JsonValue::Uint(uint64_t(t.connections_accepted)));
    transport.Set("connections_rejected",
                  JsonValue::Uint(uint64_t(t.connections_rejected)));
    transport.Set("sessions_v2", JsonValue::Uint(uint64_t(t.sessions_v2)));
    transport.Set("requests", JsonValue::Uint(uint64_t(t.requests)));
    transport.Set("errors", JsonValue::Uint(uint64_t(t.errors)));
    transport.Set("malformed_lines",
                  JsonValue::Uint(uint64_t(t.malformed_lines)));
    transport.Set("oversized_lines",
                  JsonValue::Uint(uint64_t(t.oversized_lines)));
    transport.Set("idle_disconnects",
                  JsonValue::Uint(uint64_t(t.idle_disconnects)));
    transport.Set("epoch_pins", JsonValue::Uint(uint64_t(t.epoch_pins)));
    transport.Set("ops", std::move(ops));
    out.Set("transport", std::move(transport));
  }
  if (stats.tenants.has_value()) {
    // Absent when quotas are disabled, like "transport", so
    // golden transcripts of quota-less servers are unchanged.
    out.Set("tenants", wire::EncodeTenantStats(*stats.tenants));
  }
  if (stats.replication.has_value()) {
    // Absent on non-replicating servers (same golden-transcript contract).
    out.Set("replication", wire::EncodeReplicationStats(*stats.replication));
  }
  if (!stats.store.empty()) {
    // Flat objects only: the golden-session harness strips this array with
    // a regex (timings are nondeterministic), which relies on no nested
    // brackets inside it.
    JsonValue store = JsonValue::Array();
    for (const client::StoreReleaseStats& s : stats.store) {
      JsonValue entry = JsonValue::Object();
      entry.Set("release", JsonValue::String(s.release));
      entry.Set("epoch", JsonValue::Uint(uint64_t(s.epoch)));
      entry.Set("source", JsonValue::String(s.source));
      entry.Set("open_ms", JsonValue::Number(s.open_ms));
      entry.Set("parse_ms", JsonValue::Number(s.parse_ms));
      entry.Set("build_ms", JsonValue::Number(s.build_ms));
      entry.Set("bytes_mapped", JsonValue::Uint(uint64_t(s.bytes_mapped)));
      store.Append(std::move(entry));
    }
    out.Set("store", std::move(store));
  }
  return out;
}

}  // namespace

// --- request decoding (server side) ----------------------------------------

Result<client::QueryRequest> wire::DecodeQueryRequest(
    const JsonValue& request) {
  client::QueryRequest req;
  RECPRIV_ASSIGN_OR_RETURN(req.release, RequireString(request, "release"));
  RECPRIV_ASSIGN_OR_RETURN(req.epoch, OptionalEpoch(request));

  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* queries,
                           RequireField(request, "queries"));
  if (!queries->is_array()) {
    return Status::InvalidArgument("'queries' must be an array");
  }
  req.queries.reserve(queries->size());
  for (size_t i = 0; i < queries->size(); ++i) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* spec, queries->At(i));
    if (!spec->is_object()) {
      return Status::InvalidArgument("each query must be an object");
    }
    client::QuerySpec qs;
    if (spec->Has("where")) {
      RECPRIV_ASSIGN_OR_RETURN(const JsonValue* where, spec->Get("where"));
      if (!where->is_object()) {
        return Status::InvalidArgument("'where' must be an object");
      }
      for (const std::string& attr : where->Keys()) {
        RECPRIV_ASSIGN_OR_RETURN(const JsonValue* value, where->Get(attr));
        if (!value->is_string()) {
          return Status::InvalidArgument("'where' values must be strings");
        }
        RECPRIV_ASSIGN_OR_RETURN(std::string value_str, value->AsString());
        qs.where.emplace_back(attr, std::move(value_str));
      }
    }
    RECPRIV_ASSIGN_OR_RETURN(qs.sa, RequireString(*spec, "sa"));
    req.queries.push_back(std::move(qs));
  }
  if (request.Has("tenant")) {
    RECPRIV_ASSIGN_OR_RETURN(req.tenant, RequireString(request, "tenant"));
  }
  if (request.Has("deadline_ms")) {
    RECPRIV_ASSIGN_OR_RETURN(int64_t deadline,
                             RequireInt(request, "deadline_ms"));
    // A negative budget is a shape error; 0 is legal and sheds immediately
    // (the request reports what work *would* have been admitted).
    if (deadline < 0) {
      return Status::InvalidArgument(
          "'deadline_ms' must be a non-negative integer");
    }
    req.deadline_ms = deadline;
  }
  return req;
}

namespace {

// --- replication op handlers -----------------------------------------------

Result<JsonValue> HandleSubscribe(QueryEngine& engine,
                                  const RequestContext& context) {
  if (context.snapshots == nullptr || !context.on_subscribe) {
    return Status::NotImplemented(
        "this front end does not serve replication subscriptions");
  }
  // Mark the session subscribed BEFORE reading the listing: a publish
  // landing in between then shows up both here and as a pushed event
  // (duplicate installs are benign — the follower's store answers
  // AlreadyExists), whereas the reverse order could lose it forever.
  if (!context.on_subscribe()) {
    return Status::NotImplemented("this session cannot carry a push stream");
  }
  JsonValue releases = JsonValue::Array();
  for (const ReleaseInfo& rel : engine.store().List()) {
    auto window = engine.store().Window(rel.name);
    if (!window.ok()) continue;  // dropped between List() and Window()
    JsonValue epochs = JsonValue::Array();
    for (const SnapshotPtr& snap : *window) {
      RECPRIV_ASSIGN_OR_RETURN(repl::SnapshotProvider::Image image,
                               context.snapshots->Pack(rel.name, snap));
      JsonValue entry = JsonValue::Object();
      entry.Set("epoch", JsonValue::Uint(uint64_t(snap->epoch)));
      entry.Set("digest",
                JsonValue::String(repl::FormatDigest(image->digest())));
      epochs.Append(std::move(entry));
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("release", JsonValue::String(rel.name));
    entry.Set("epochs", std::move(epochs));
    releases.Append(std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Set("subscribed", JsonValue::Bool(true));
  out.Set("releases", std::move(releases));
  return out;
}

Result<JsonValue> HandleFetchSnapshot(const JsonValue& request,
                                      const RequestContext& context,
                                      RequestInfo* info) {
  if (context.snapshots == nullptr) {
    return Status::NotImplemented(
        "this front end does not serve snapshot transfers");
  }
  RECPRIV_ASSIGN_OR_RETURN(std::string release,
                           RequireString(request, "release"));
  RECPRIV_ASSIGN_OR_RETURN(uint64_t epoch, RequireUint64(request, "epoch"));
  uint64_t offset = 0;
  if (request.Has("offset")) {
    RECPRIV_ASSIGN_OR_RETURN(offset, RequireUint64(request, "offset"));
  }
  uint64_t max_bytes = kDefaultFetchChunkBytes;
  if (request.Has("max_bytes")) {
    RECPRIV_ASSIGN_OR_RETURN(uint64_t raw,
                             RequireUint64(request, "max_bytes"));
    if (raw == 0) {
      return Status::InvalidArgument("'max_bytes' must be a positive integer");
    }
    max_bytes = std::min(raw, kMaxFetchChunkBytes);
  }
  RECPRIV_ASSIGN_OR_RETURN(repl::SnapshotProvider::Image image,
                           context.snapshots->Get(release, epoch));
  if (offset > image->size()) {
    return Status::InvalidArgument(
        "'offset' " + std::to_string(offset) + " is beyond the image (" +
        std::to_string(image->size()) + " bytes)");
  }
  const uint64_t len = std::min<uint64_t>(max_bytes, image->size() - offset);
  // Only this chunk is ever copied out of the snapshot's arrays.
  std::string chunk(size_t(len), '\0');
  RECPRIV_RETURN_NOT_OK(image->Read(
      offset, {reinterpret_cast<uint8_t*>(chunk.data()), chunk.size()}));
  const auto* bytes = reinterpret_cast<const uint8_t*>(chunk.data());
  JsonValue out = JsonValue::Object();
  out.Set("release", JsonValue::String(release));
  out.Set("epoch", JsonValue::Uint(epoch));
  out.Set("offset", JsonValue::Uint(offset));
  out.Set("total_bytes", JsonValue::Uint(image->size()));
  out.Set("digest", JsonValue::String(repl::FormatDigest(image->digest())));
  out.Set("chunk_digest", JsonValue::String(repl::FormatDigest(
                              repl::BytesDigest(bytes, chunk.size()))));
  if (context.binary_session) {
    // The chunk rides as the response frame's raw attachment: no base64
    // expansion, no JSON string escaping pass over the payload.
    out.Set("data_bytes", JsonValue::Uint(len));
    info->attachment = std::move(chunk);
  } else {
    out.Set("data_b64",
            JsonValue::String(Base64Encode(bytes, chunk.size())));
  }
  out.Set("eof", JsonValue::Bool(offset + len == image->size()));
  return out;
}

// --- session framing ("hello") ----------------------------------------------

Result<JsonValue> HandleHello(const JsonValue& request,
                              const RequestContext& context,
                              RequestInfo* info) {
  std::string frame = "json";
  if (request.Has("frame")) {
    RECPRIV_ASSIGN_OR_RETURN(frame, RequireString(request, "frame"));
  }
  if (frame != "json" && frame != "binary") {
    return Status::InvalidArgument(
        "'frame' must be \"json\" or \"binary\", got \"" + frame + "\"");
  }
  // Degrade, don't error: a front end that cannot frame (stdin, loopback)
  // answers "json" and the session simply stays line-framed.
  const bool binary = frame == "binary" && context.allow_binary_frame;
  info->negotiated_binary = binary;
  JsonValue out = JsonValue::Object();
  out.Set("frame", JsonValue::String(binary ? "binary" : "json"));
  return out;
}

// --- dispatch --------------------------------------------------------------

Result<JsonValue> Dispatch(const std::string& op, const JsonValue& request,
                           QueryEngine& engine, const RequestContext& context,
                           int64_t version, RequestInfo* info) {
  if (op == "query") {
    RECPRIV_ASSIGN_OR_RETURN(client::QueryRequest req,
                             wire::DecodeQueryRequest(request));
    RECPRIV_ASSIGN_OR_RETURN(client::BatchAnswer batch,
                             ExecuteQuery(engine, req));
    return EncodeBatchAnswerPayload(batch);
  }
  if (op == "list") {
    RECPRIV_ASSIGN_OR_RETURN(std::vector<client::ReleaseDescriptor> releases,
                             ListReleases(engine));
    return EncodeListPayload(releases);
  }
  if (op == "stats") {
    RECPRIV_ASSIGN_OR_RETURN(client::ServerStats stats, CollectStats(engine));
    if (context.transport_stats) stats.transport = context.transport_stats();
    if (context.replication_stats) {
      stats.replication = context.replication_stats();
    }
    return EncodeStatsPayload(stats);
  }
  if (op == "schema") {
    RECPRIV_ASSIGN_OR_RETURN(std::string release,
                             RequireString(request, "release"));
    RECPRIV_ASSIGN_OR_RETURN(std::optional<uint64_t> epoch,
                             OptionalEpoch(request));
    RECPRIV_ASSIGN_OR_RETURN(client::ReleaseSchema schema,
                             DescribeRelease(engine, release, epoch));
    return EncodeSchemaPayload(schema);
  }
  if (op == "publish") {
    RECPRIV_ASSIGN_OR_RETURN(std::string name, RequireString(request, "name"));
    RECPRIV_ASSIGN_OR_RETURN(std::string basename,
                             RequireString(request, "release"));
    RECPRIV_ASSIGN_OR_RETURN(client::ReleaseDescriptor desc,
                             PublishFromFile(engine, name, basename));
    JsonValue out = JsonValue::Object();
    out.Set("release", EncodeDescriptor(desc));
    return out;
  }
  if (op == "drop") {
    RECPRIV_ASSIGN_OR_RETURN(std::string release,
                             RequireString(request, "release"));
    RECPRIV_ASSIGN_OR_RETURN(client::ReleaseDescriptor desc,
                             DropRelease(engine, release));
    JsonValue out = JsonValue::Object();
    out.Set("dropped", EncodeDescriptor(desc));
    return out;
  }
  if (op == "hello" || op == "subscribe" || op == "fetch_snapshot") {
    // These ops postdate v1; a legacy-framed request would have no way to
    // read structured DATA_LOSS errors, pushed event lines, or frames.
    if (version < kWireVersionCurrent) {
      return Status::NotImplemented("'" + op + "' requires protocol version 2");
    }
    if (op == "hello") return HandleHello(request, context, info);
    if (op == "subscribe") return HandleSubscribe(engine, context);
    return HandleFetchSnapshot(request, context, info);
  }
  return Status::InvalidArgument(
      "unknown op '" + op +
      "' (expected query, list, stats, schema, publish, drop, hello, "
      "subscribe, or fetch_snapshot)");
}

// --- response envelopes ----------------------------------------------------

JsonValue EncodeError(const ApiError& error) {
  JsonValue out = JsonValue::Object();
  out.Set("code", JsonValue::String(std::string(ErrorCodeName(error.code))));
  out.Set("message", JsonValue::String(error.message));
  return out;
}

/// The id is echoed verbatim on every response that has one, v1 or v2.
JsonValue OkBody(int64_t version, const JsonValue* id, JsonValue payload) {
  payload.Set("ok", JsonValue::Bool(true));
  if (version >= kWireVersionCurrent) {
    payload.Set("v", JsonValue::Int(kWireVersionCurrent));
  }
  if (id != nullptr) payload.Set("id", *id);
  return payload;
}

JsonValue ErrorBody(int64_t version, const JsonValue* id,
                    const ApiError& error) {
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(false));
  if (version >= kWireVersionCurrent) {
    out.Set("v", JsonValue::Int(kWireVersionCurrent));
    out.Set("error", EncodeError(error));
  } else {
    // v1 errors are the flat "<Code>: <message>" string of PR-1.
    out.Set("error", JsonValue::String(error.ToStatus().ToString()));
  }
  if (id != nullptr) out.Set("id", *id);
  return out;
}

}  // namespace

JsonValue HandleRequest(const JsonValue& request, QueryEngine& engine,
                        const RequestContext& context, RequestInfo* info) {
  RequestInfo scratch;
  if (info == nullptr) info = &scratch;
  info->parsed = true;
  // Every error path funnels through here so the front end's per-code
  // counters (the shutdown summary) see the same taxonomy the wire does.
  const auto fail = [info](int64_t v, const JsonValue* id,
                           const ApiError& error) {
    info->error_code = error.code;
    return ErrorBody(v, id, error);
  };

  if (!request.is_object()) {
    // Valid JSON of the wrong shape is a request error, not MALFORMED
    // (which is reserved for lines that never parsed); the version field
    // is unreadable on a non-object, so answer in the current shape.
    return fail(
        kWireVersionCurrent, nullptr,
        ApiError{ErrorCode::kInvalidRequest, "request must be a JSON object"});
  }
  const JsonValue* id = nullptr;
  if (request.Has("id")) id = *request.Get("id");
  info->pinned_epoch = request.Has("epoch");

  int64_t version = kWireVersionLegacy;
  if (request.Has("v")) {
    auto v = (*request.Get("v"))->AsInt();
    if (!v.ok()) {
      return fail(kWireVersionCurrent, id,
                  ApiError{ErrorCode::kInvalidRequest,
                           "'v' must be an integer protocol version"});
    }
    version = *v;
    if (version != kWireVersionLegacy && version != kWireVersionCurrent) {
      return fail(kWireVersionCurrent, id,
                  ApiError{ErrorCode::kUnsupported,
                           "unsupported protocol version " +
                               std::to_string(version) +
                               " (supported: 1, 2)"});
    }
  }
  info->version = version;

  auto op = RequireString(request, "op");
  if (!op.ok()) {
    return fail(version, id, ApiError::FromStatus(op.status()));
  }
  info->op = *op;
  Result<JsonValue> payload =
      Dispatch(*op, request, engine, context, version, info);
  if (!payload.ok()) {
    return fail(version, id, ApiError::FromStatus(payload.status()));
  }
  info->ok = true;
  info->subscribed = (*op == "subscribe");
  return OkBody(version, id, std::move(*payload));
}

JsonValue wire::EncodeQueryResponse(const client::BatchAnswer& batch,
                                    int64_t version, const JsonValue* id) {
  return OkBody(version, id, EncodeBatchAnswerPayload(batch));
}

std::string HandleRequestLine(const std::string& line, QueryEngine& engine) {
  return HandleRequestLine(line, engine, RequestContext{}, nullptr);
}

std::string HandleRequestLine(const std::string& line, QueryEngine& engine,
                              const RequestContext& context,
                              RequestInfo* info) {
  SessionBuffers buffers;
  HandleRequestLine(line, engine, context, info, &buffers);
  return std::move(buffers.response);
}

void HandleRequestLine(const std::string& line, QueryEngine& engine,
                       const RequestContext& context, RequestInfo* info,
                       SessionBuffers* buffers) {
  RequestInfo scratch;
  if (info == nullptr) info = &scratch;
  std::string& out = buffers->response;
  out.clear();
  wire::QueryEnvelope envelope;
  if (wire::ReadQueryRequest(line, &buffers->query, &envelope)) {
    // The direct path: the same fields HandleRequest fills for this line.
    info->parsed = true;
    info->version = envelope.version;
    info->pinned_epoch = envelope.pinned_epoch;
    info->op = "query";
    const JsonValue* id = envelope.id ? &*envelope.id : nullptr;
    Result<client::BatchAnswer> batch = ExecuteQuery(engine, buffers->query);
    if (!batch.ok()) {
      const ApiError error = ApiError::FromStatus(batch.status());
      info->error_code = error.code;
      ErrorBody(envelope.version, id, error).AppendTo(out);
      return;
    }
    info->ok = true;
    wire::WriteQueryResponse(*batch, envelope.version, id, out);
    return;
  }
  auto request = JsonValue::Parse(line);
  if (!request.ok()) {
    // The line never became JSON, so its protocol version is unknowable;
    // report in the current (structured) shape with the MALFORMED code.
    info->parsed = false;
    info->error_code = ErrorCode::kMalformed;
    ErrorBody(kWireVersionCurrent, nullptr,
              ApiError{ErrorCode::kMalformed, request.status().message()})
        .AppendTo(out);
    return;
  }
  HandleRequest(*request, engine, context, info).AppendTo(out);
}

std::string ErrorResponseLine(ErrorCode code, const std::string& message) {
  return ErrorBody(kWireVersionCurrent, nullptr, ApiError{code, message})
      .ToString();
}

size_t KnownOpIndex(std::string_view op) {
  return size_t(std::find(kKnownOps.begin(), kKnownOps.end(), op) -
                kKnownOps.begin());
}

size_t ServeLines(std::istream& in, std::ostream& out, QueryEngine& engine) {
  return ServeLines(in, out, engine, RequestContext{});
}

size_t ServeLines(std::istream& in, std::ostream& out, QueryEngine& engine,
                  const RequestContext& context) {
  size_t handled = 0;
  std::string line;
  SessionBuffers buffers;
  while (std::getline(in, line)) {
    bool blank = true;
    for (char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    HandleRequestLine(line, engine, context, nullptr, &buffers);
    out << buffers.response << "\n" << std::flush;
    ++handled;
  }
  return handled;
}

// --- v2 codec (client side) ------------------------------------------------

namespace wire {

namespace {

JsonValue Envelope(const char* op, uint64_t id) {
  JsonValue request = JsonValue::Object();
  request.Set("v", JsonValue::Int(kWireVersionCurrent));
  request.Set("id", JsonValue::Uint(uint64_t(id)));
  request.Set("op", JsonValue::String(op));
  return request;
}

Result<client::AnswerRow> DecodeAnswerRow(const JsonValue& obj) {
  client::AnswerRow row;
  RECPRIV_ASSIGN_OR_RETURN(row.observed, RequireUint64(obj, "observed"));
  RECPRIV_ASSIGN_OR_RETURN(row.matched_size,
                           RequireUint64(obj, "matched_size"));
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* estimate,
                           RequireField(obj, "estimate"));
  RECPRIV_ASSIGN_OR_RETURN(row.estimate, estimate->AsDouble());
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* cached,
                           RequireField(obj, "cached"));
  RECPRIV_ASSIGN_OR_RETURN(row.cached, cached->AsBool());
  return row;
}

Result<std::vector<client::ReleaseDescriptor>> DecodeDescriptorArray(
    const JsonValue& response, const std::string& key) {
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* array,
                           RequireField(response, key));
  if (!array->is_array()) {
    return Status::InvalidArgument("'" + key + "' must be an array");
  }
  std::vector<client::ReleaseDescriptor> out;
  out.reserve(array->size());
  for (size_t i = 0; i < array->size(); ++i) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* entry, array->At(i));
    RECPRIV_ASSIGN_OR_RETURN(client::ReleaseDescriptor d,
                             DecodeDescriptor(*entry));
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace

JsonValue EncodeTenantStats(const client::TenantStats& stats) {
  JsonValue by_tenant = JsonValue::Object();
  for (const auto& [name, c] : stats.tenants) {
    JsonValue entry = JsonValue::Object();
    entry.Set("admitted", JsonValue::Uint(uint64_t(c.admitted)));
    entry.Set("rejected", JsonValue::Uint(uint64_t(c.rejected)));
    entry.Set("shed", JsonValue::Uint(uint64_t(c.shed)));
    by_tenant.Set(name, std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Set("quota_qps", JsonValue::Number(stats.quota_qps));
  out.Set("quota_burst", JsonValue::Number(stats.quota_burst));
  out.Set("by_tenant", std::move(by_tenant));
  return out;
}

JsonValue EncodeReplicationStats(const client::ReplicationStats& stats) {
  JsonValue out = JsonValue::Object();
  out.Set("primary", JsonValue::String(stats.primary));
  out.Set("connected", JsonValue::Bool(stats.connected));
  out.Set("events_seen", JsonValue::Uint(uint64_t(stats.events_seen)));
  out.Set("snapshots_fetched",
          JsonValue::Uint(uint64_t(stats.snapshots_fetched)));
  out.Set("bytes_fetched", JsonValue::Uint(uint64_t(stats.bytes_fetched)));
  out.Set("installs", JsonValue::Uint(uint64_t(stats.installs)));
  out.Set("drops", JsonValue::Uint(uint64_t(stats.drops)));
  out.Set("digest_mismatches",
          JsonValue::Uint(uint64_t(stats.digest_mismatches)));
  out.Set("reconnects", JsonValue::Uint(uint64_t(stats.reconnects)));
  out.Set("resyncs", JsonValue::Uint(uint64_t(stats.resyncs)));
  out.Set("lag_epochs", JsonValue::Uint(uint64_t(stats.lag_epochs)));
  out.Set("lag_ms", JsonValue::Number(stats.lag_ms));
  return out;
}

JsonValue EncodeListRequest(uint64_t id) { return Envelope("list", id); }

JsonValue EncodeQueryRequest(const client::QueryRequest& request,
                             uint64_t id) {
  JsonValue out = Envelope("query", id);
  out.Set("release", JsonValue::String(request.release));
  if (request.epoch.has_value()) {
    out.Set("epoch", JsonValue::Uint(uint64_t(*request.epoch)));
  }
  JsonValue queries = JsonValue::Array();
  for (const client::QuerySpec& spec : request.queries) {
    JsonValue entry = JsonValue::Object();
    if (!spec.where.empty()) {
      JsonValue where = JsonValue::Object();
      for (const auto& [attr, value] : spec.where) {
        where.Set(attr, JsonValue::String(value));
      }
      entry.Set("where", std::move(where));
    }
    entry.Set("sa", JsonValue::String(spec.sa));
    queries.Append(std::move(entry));
  }
  out.Set("queries", std::move(queries));
  if (!request.tenant.empty()) {
    out.Set("tenant", JsonValue::String(request.tenant));
  }
  if (request.deadline_ms.has_value()) {
    out.Set("deadline_ms", JsonValue::Int(*request.deadline_ms));
  }
  return out;
}

JsonValue EncodeSchemaRequest(const std::string& release,
                              std::optional<uint64_t> epoch, uint64_t id) {
  JsonValue out = Envelope("schema", id);
  out.Set("release", JsonValue::String(release));
  if (epoch.has_value()) out.Set("epoch", JsonValue::Uint(uint64_t(*epoch)));
  return out;
}

JsonValue EncodeStatsRequest(uint64_t id) { return Envelope("stats", id); }

JsonValue EncodePublishRequest(const std::string& name,
                               const std::string& basename, uint64_t id) {
  JsonValue out = Envelope("publish", id);
  out.Set("name", JsonValue::String(name));
  out.Set("release", JsonValue::String(basename));
  return out;
}

JsonValue EncodeDropRequest(const std::string& release, uint64_t id) {
  JsonValue out = Envelope("drop", id);
  out.Set("release", JsonValue::String(release));
  return out;
}

Result<JsonValue> ParseResponse(const std::string& line, uint64_t expect_id) {
  auto parsed = JsonValue::Parse(line);
  if (!parsed.ok()) {
    return Status::Internal("unparseable response line: " +
                            parsed.status().message());
  }
  return ParseResponse(std::move(*parsed), expect_id);
}

Result<JsonValue> ParseResponse(JsonValue response, uint64_t expect_id) {
  if (!response.is_object()) {
    return Status::Internal("response is not a JSON object");
  }
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* ok_node,
                           RequireField(response, "ok"));
  RECPRIV_ASSIGN_OR_RETURN(bool ok, ok_node->AsBool());

  if (!ok) {
    // Surface the server's error before any envelope complaint — it is
    // the more useful diagnostic.
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* error,
                             RequireField(response, "error"));
    if (error->is_object()) {
      RECPRIV_ASSIGN_OR_RETURN(std::string code_name,
                               RequireString(*error, "code"));
      RECPRIV_ASSIGN_OR_RETURN(std::string message,
                               RequireString(*error, "message"));
      auto code = client::ErrorCodeFromName(code_name);
      if (!code.has_value()) {
        return Status::Internal("unknown wire error code '" + code_name +
                                "': " + message);
      }
      return client::ApiError{*code, std::move(message)}.ToStatus();
    }
    if (error->is_string()) {  // a v1-shaped error from a legacy server
      return Status::Internal("server error: " + *error->AsString());
    }
    return Status::Internal("malformed error response");
  }

  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* v_node,
                           RequireField(response, "v"));
  auto v = v_node->AsInt();
  if (!v.ok() || *v != kWireVersionCurrent) {
    return Status::Internal("response is not protocol version " +
                            std::to_string(kWireVersionCurrent));
  }
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* id_node,
                           RequireField(response, "id"));
  auto id = id_node->AsInt();
  if (!id.ok() || uint64_t(*id) != expect_id) {
    return Status::Internal("response id mismatch (expected " +
                            std::to_string(expect_id) + ")");
  }
  return response;
}

Result<std::vector<client::ReleaseDescriptor>> DecodeListResponse(
    const JsonValue& response) {
  return DecodeDescriptorArray(response, "releases");
}

Result<client::BatchAnswer> DecodeQueryResponse(const JsonValue& response) {
  client::BatchAnswer batch;
  RECPRIV_ASSIGN_OR_RETURN(batch.release, RequireString(response, "release"));
  RECPRIV_ASSIGN_OR_RETURN(batch.epoch, RequireUint64(response, "epoch"));
  RECPRIV_ASSIGN_OR_RETURN(batch.cache_hits,
                           RequireUint64(response, "cache_hits"));
  RECPRIV_ASSIGN_OR_RETURN(batch.cache_misses,
                           RequireUint64(response, "cache_misses"));
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* answers,
                           RequireField(response, "answers"));
  if (!answers->is_array()) {
    return Status::InvalidArgument("'answers' must be an array");
  }
  batch.answers.reserve(answers->size());
  for (size_t i = 0; i < answers->size(); ++i) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* entry, answers->At(i));
    RECPRIV_ASSIGN_OR_RETURN(client::AnswerRow row, DecodeAnswerRow(*entry));
    batch.answers.push_back(row);
  }
  return batch;
}

Result<client::ReleaseSchema> DecodeSchemaResponse(const JsonValue& response) {
  client::ReleaseSchema schema;
  RECPRIV_ASSIGN_OR_RETURN(schema.release, RequireString(response, "release"));
  RECPRIV_ASSIGN_OR_RETURN(schema.epoch, RequireUint64(response, "epoch"));
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* attributes,
                           RequireField(response, "attributes"));
  if (!attributes->is_array()) {
    return Status::InvalidArgument("'attributes' must be an array");
  }
  schema.attributes.reserve(attributes->size());
  for (size_t i = 0; i < attributes->size(); ++i) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* entry, attributes->At(i));
    client::AttributeInfo attr;
    RECPRIV_ASSIGN_OR_RETURN(attr.name, RequireString(*entry, "name"));
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* sensitive,
                             RequireField(*entry, "sensitive"));
    RECPRIV_ASSIGN_OR_RETURN(attr.sensitive, sensitive->AsBool());
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* values,
                             RequireField(*entry, "values"));
    if (!values->is_array()) {
      return Status::InvalidArgument("'values' must be an array");
    }
    attr.values.reserve(values->size());
    for (size_t k = 0; k < values->size(); ++k) {
      RECPRIV_ASSIGN_OR_RETURN(const JsonValue* value, values->At(k));
      RECPRIV_ASSIGN_OR_RETURN(std::string value_str, value->AsString());
      attr.values.push_back(std::move(value_str));
    }
    schema.attributes.push_back(std::move(attr));
  }
  return schema;
}

Result<client::ServerStats> DecodeStatsResponse(const JsonValue& response) {
  client::ServerStats stats;
  RECPRIV_ASSIGN_OR_RETURN(stats.threads, RequireUint64(response, "threads"));
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* cache,
                           RequireField(response, "cache"));
  RECPRIV_ASSIGN_OR_RETURN(uint64_t size, RequireUint64(*cache, "size"));
  RECPRIV_ASSIGN_OR_RETURN(uint64_t capacity,
                           RequireUint64(*cache, "capacity"));
  RECPRIV_ASSIGN_OR_RETURN(uint64_t hits, RequireUint64(*cache, "hits"));
  RECPRIV_ASSIGN_OR_RETURN(uint64_t misses, RequireUint64(*cache, "misses"));
  stats.cache = client::CacheStats{size, capacity, hits, misses};
  RECPRIV_ASSIGN_OR_RETURN(stats.releases,
                           DecodeDescriptorArray(response, "releases"));
  if (response.Has("transport")) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* node,
                             RequireField(response, "transport"));
    if (!node->is_object()) {
      return Status::InvalidArgument("'transport' must be an object");
    }
    client::TransportStats t;
    RECPRIV_ASSIGN_OR_RETURN(t.connections_active,
                             RequireUint64(*node, "connections_active"));
    RECPRIV_ASSIGN_OR_RETURN(t.connections_accepted,
                             RequireUint64(*node, "connections_accepted"));
    RECPRIV_ASSIGN_OR_RETURN(t.connections_rejected,
                             RequireUint64(*node, "connections_rejected"));
    RECPRIV_ASSIGN_OR_RETURN(t.sessions_v2,
                             RequireUint64(*node, "sessions_v2"));
    RECPRIV_ASSIGN_OR_RETURN(t.requests, RequireUint64(*node, "requests"));
    RECPRIV_ASSIGN_OR_RETURN(t.errors, RequireUint64(*node, "errors"));
    RECPRIV_ASSIGN_OR_RETURN(t.malformed_lines,
                             RequireUint64(*node, "malformed_lines"));
    RECPRIV_ASSIGN_OR_RETURN(t.oversized_lines,
                             RequireUint64(*node, "oversized_lines"));
    RECPRIV_ASSIGN_OR_RETURN(t.idle_disconnects,
                             RequireUint64(*node, "idle_disconnects"));
    RECPRIV_ASSIGN_OR_RETURN(t.epoch_pins,
                             RequireUint64(*node, "epoch_pins"));
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* ops, RequireField(*node, "ops"));
    if (!ops->is_object()) {
      return Status::InvalidArgument("'ops' must be an object");
    }
    for (const std::string& op : ops->Keys()) {
      RECPRIV_ASSIGN_OR_RETURN(uint64_t count, RequireUint64(*ops, op));
      t.ops[op] = count;
    }
    stats.transport = std::move(t);
  }
  if (response.Has("tenants")) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* node,
                             RequireField(response, "tenants"));
    if (!node->is_object()) {
      return Status::InvalidArgument("'tenants' must be an object");
    }
    client::TenantStats q;
    RECPRIV_ASSIGN_OR_RETURN(q.quota_qps, RequireDouble(*node, "quota_qps"));
    RECPRIV_ASSIGN_OR_RETURN(q.quota_burst,
                             RequireDouble(*node, "quota_burst"));
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* by_tenant,
                             RequireField(*node, "by_tenant"));
    if (!by_tenant->is_object()) {
      return Status::InvalidArgument("'by_tenant' must be an object");
    }
    for (const std::string& name : by_tenant->Keys()) {
      RECPRIV_ASSIGN_OR_RETURN(const JsonValue* entry, by_tenant->Get(name));
      if (!entry->is_object()) {
        return Status::InvalidArgument("each tenant entry must be an object");
      }
      client::TenantCounters c;
      RECPRIV_ASSIGN_OR_RETURN(c.admitted, RequireUint64(*entry, "admitted"));
      RECPRIV_ASSIGN_OR_RETURN(c.rejected, RequireUint64(*entry, "rejected"));
      RECPRIV_ASSIGN_OR_RETURN(c.shed, RequireUint64(*entry, "shed"));
      q.tenants[name] = c;
    }
    stats.tenants = std::move(q);
  }
  if (response.Has("replication")) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* node,
                             RequireField(response, "replication"));
    if (!node->is_object()) {
      return Status::InvalidArgument("'replication' must be an object");
    }
    client::ReplicationStats r;
    RECPRIV_ASSIGN_OR_RETURN(r.primary, RequireString(*node, "primary"));
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* connected,
                             RequireField(*node, "connected"));
    RECPRIV_ASSIGN_OR_RETURN(r.connected, connected->AsBool());
    RECPRIV_ASSIGN_OR_RETURN(r.events_seen,
                             RequireUint64(*node, "events_seen"));
    RECPRIV_ASSIGN_OR_RETURN(r.snapshots_fetched,
                             RequireUint64(*node, "snapshots_fetched"));
    RECPRIV_ASSIGN_OR_RETURN(r.bytes_fetched,
                             RequireUint64(*node, "bytes_fetched"));
    RECPRIV_ASSIGN_OR_RETURN(r.installs, RequireUint64(*node, "installs"));
    RECPRIV_ASSIGN_OR_RETURN(r.drops, RequireUint64(*node, "drops"));
    RECPRIV_ASSIGN_OR_RETURN(r.digest_mismatches,
                             RequireUint64(*node, "digest_mismatches"));
    RECPRIV_ASSIGN_OR_RETURN(r.reconnects,
                             RequireUint64(*node, "reconnects"));
    RECPRIV_ASSIGN_OR_RETURN(r.resyncs, RequireUint64(*node, "resyncs"));
    RECPRIV_ASSIGN_OR_RETURN(r.lag_epochs,
                             RequireUint64(*node, "lag_epochs"));
    RECPRIV_ASSIGN_OR_RETURN(r.lag_ms, RequireDouble(*node, "lag_ms"));
    stats.replication = std::move(r);
  }
  if (response.Has("store")) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* node,
                             RequireField(response, "store"));
    if (!node->is_array()) {
      return Status::InvalidArgument("'store' must be an array");
    }
    for (size_t i = 0; i < node->size(); ++i) {
      RECPRIV_ASSIGN_OR_RETURN(const JsonValue* entry, node->At(i));
      if (!entry->is_object()) {
        return Status::InvalidArgument("each store entry must be an object");
      }
      client::StoreReleaseStats s;
      RECPRIV_ASSIGN_OR_RETURN(s.release, RequireString(*entry, "release"));
      RECPRIV_ASSIGN_OR_RETURN(s.epoch, RequireUint64(*entry, "epoch"));
      RECPRIV_ASSIGN_OR_RETURN(s.source, RequireString(*entry, "source"));
      RECPRIV_ASSIGN_OR_RETURN(s.open_ms, RequireDouble(*entry, "open_ms"));
      RECPRIV_ASSIGN_OR_RETURN(s.parse_ms, RequireDouble(*entry, "parse_ms"));
      RECPRIV_ASSIGN_OR_RETURN(s.build_ms, RequireDouble(*entry, "build_ms"));
      RECPRIV_ASSIGN_OR_RETURN(s.bytes_mapped,
                               RequireUint64(*entry, "bytes_mapped"));
      stats.store.push_back(std::move(s));
    }
  }
  return stats;
}

Result<client::ReleaseDescriptor> DecodePublishResponse(
    const JsonValue& response) {
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* release,
                           RequireField(response, "release"));
  return DecodeDescriptor(*release);
}

Result<client::ReleaseDescriptor> DecodeDropResponse(
    const JsonValue& response) {
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* dropped,
                           RequireField(response, "dropped"));
  return DecodeDescriptor(*dropped);
}

// --- direct query codec ----------------------------------------------------

namespace {

void UintInto(uint64_t v, std::string& out) {
  JsonNumber::Uint(v).AppendTo(out);
}

/// Appends one QuerySpec's where-clause object as JsonValue::Set would
/// hold it: sorted by attribute, the last binding of a repeated attribute
/// winning. A clause is a handful of bindings, so a stable insertion sort
/// of pointers on the stack orders it without allocating.
void WhereInto(const std::vector<std::pair<std::string, std::string>>& where,
               std::string& out) {
  using Binding = std::pair<std::string, std::string>;
  std::array<const Binding*, 16> stack;
  std::vector<const Binding*> heap;
  if (where.size() > stack.size()) heap.resize(where.size());
  const Binding** sorted = heap.empty() ? stack.data() : heap.data();
  for (size_t n = 0; n < where.size(); ++n) {
    size_t i = n;
    for (; i > 0 && where[n].first < sorted[i - 1]->first; --i) {
      sorted[i] = sorted[i - 1];
    }
    sorted[i] = &where[n];
  }
  out += '{';
  bool first = true;
  for (size_t i = 0; i < where.size(); ++i) {
    if (i + 1 < where.size() && sorted[i + 1]->first == sorted[i]->first) {
      continue;  // a later binding of the same attribute wins
    }
    if (!first) out += ',';
    first = false;
    json::EscapeInto(sorted[i]->first, out);
    out += ':';
    json::EscapeInto(sorted[i]->second, out);
  }
  out += '}';
}

/// Reads a number as JsonNumber::AsUint64 / AsInt take it.
bool ReadUint(JsonReader& r, uint64_t& dst) {
  JsonNumber n;
  if (!r.ReadNumber(&n)) return false;
  const Result<uint64_t> v = n.AsUint64();
  if (!v.ok()) return false;
  dst = *v;
  return true;
}

bool ReadInt(JsonReader& r, int64_t& dst) {
  JsonNumber n;
  if (!r.ReadNumber(&n)) return false;
  const Result<int64_t> v = n.AsInt();
  if (!v.ok()) return false;
  dst = *v;
  return true;
}

/// Reads a string value into `dst` (capacity reused).
bool ReadStringInto(JsonReader& r, std::string& dst, std::string* scratch) {
  std::string_view s;
  if (!r.ReadString(&s, scratch)) return false;
  dst.assign(s.data(), s.size());
  return true;
}

/// Marks `bit` seen in `seen`; false when it already was (a repeated key:
/// the tree keeps the last value, which the direct path leaves to it).
bool FirstSight(unsigned& seen, unsigned bit) {
  if ((seen & bit) != 0) return false;
  seen |= bit;
  return true;
}

/// One element of "queries" into `spec` (buffers reused).
bool ReadQuerySpec(JsonReader& r, client::QuerySpec& spec,
                   std::string* scratch) {
  enum : unsigned { kWhere = 1, kSa = 2 };
  unsigned seen = 0;
  size_t bindings = 0;
  if (!r.BeginObject()) return false;
  std::string_view key;
  bool more = false;
  while (r.NextMember(&key, scratch, &more) && more) {
    if (key == "where") {
      if (!FirstSight(seen, kWhere) || !r.BeginObject()) return false;
      bool attrs = false;
      while (r.NextMember(&key, scratch, &attrs) && attrs) {
        if (bindings == spec.where.size()) spec.where.emplace_back();
        auto& [attr, value] = spec.where[bindings++];
        attr.assign(key.data(), key.size());
        if (!ReadStringInto(r, value, scratch)) return false;
      }
      if (!r.ok()) return false;
    } else if (key == "sa") {
      if (!FirstSight(seen, kSa) || !ReadStringInto(r, spec.sa, scratch)) {
        return false;
      }
    } else if (!JsonValue::Read(r).ok()) {
      return false;
    }
  }
  if (!r.ok() || (seen & kSa) == 0) return false;
  spec.where.resize(bindings);
  // HandleRequest binds in the tree's key order; a repeated attribute is
  // the tree's to resolve.
  const auto by_attr = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(spec.where.begin(), spec.where.end(), by_attr);
  return std::adjacent_find(spec.where.begin(), spec.where.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }) == spec.where.end();
}

}  // namespace

void WriteQueryRequest(const client::QueryRequest& request,
                       std::optional<uint64_t> epoch, uint64_t id,
                       std::string& out) {
  out += '{';
  if (request.deadline_ms.has_value()) {
    out += "\"deadline_ms\":";
    JsonNumber::Int(*request.deadline_ms).AppendTo(out);
    out += ',';
  }
  if (epoch.has_value()) {
    out += "\"epoch\":";
    UintInto(*epoch, out);
    out += ',';
  }
  out += "\"id\":";
  UintInto(id, out);
  out += ",\"op\":\"query\",\"queries\":[";
  for (size_t q = 0; q < request.queries.size(); ++q) {
    const client::QuerySpec& spec = request.queries[q];
    if (q > 0) out += ',';
    out += "{\"sa\":";
    json::EscapeInto(spec.sa, out);
    if (!spec.where.empty()) {
      out += ",\"where\":";
      WhereInto(spec.where, out);
    }
    out += '}';
  }
  out += "],\"release\":";
  json::EscapeInto(request.release, out);
  if (!request.tenant.empty()) {
    out += ",\"tenant\":";
    json::EscapeInto(request.tenant, out);
  }
  out += ",\"v\":2}";
}

bool ReadQueryRequest(std::string_view line, client::QueryRequest* request,
                      QueryEnvelope* envelope) {
  enum : unsigned {
    kV = 1,
    kId = 2,
    kOp = 4,
    kRelease = 8,
    kEpoch = 16,
    kQueries = 32,
    kTenant = 64,
    kDeadline = 128,
  };
  JsonReader r(line);
  std::string scratch;
  unsigned seen = 0;
  size_t queries = 0;
  request->epoch.reset();
  request->tenant.clear();
  request->deadline_ms.reset();
  *envelope = QueryEnvelope{};
  if (!r.BeginObject()) return false;
  std::string_view key;
  bool more = false;
  while (r.NextMember(&key, &scratch, &more) && more) {
    if (key == "v") {
      int64_t& v = envelope->version;
      if (!FirstSight(seen, kV) || !ReadInt(r, v) ||
          (v != kWireVersionLegacy && v != kWireVersionCurrent)) {
        return false;
      }
    } else if (key == "id") {
      if (!FirstSight(seen, kId)) return false;
      Result<JsonValue> id = JsonValue::Read(r);
      if (!id.ok()) return false;
      envelope->id = std::move(*id);
    } else if (key == "op") {
      std::string_view op;
      if (!FirstSight(seen, kOp) || !r.ReadString(&op, &scratch) ||
          op != "query") {
        return false;
      }
    } else if (key == "release") {
      if (!FirstSight(seen, kRelease) ||
          !ReadStringInto(r, request->release, &scratch)) {
        return false;
      }
    } else if (key == "epoch") {
      if (!FirstSight(seen, kEpoch) ||
          !ReadUint(r, request->epoch.emplace())) {
        return false;
      }
    } else if (key == "queries") {
      if (!FirstSight(seen, kQueries) || !r.BeginArray()) return false;
      bool element = false;
      while (r.NextElement(&element) && element) {
        if (queries == request->queries.size()) request->queries.emplace_back();
        if (!ReadQuerySpec(r, request->queries[queries++], &scratch)) {
          return false;
        }
      }
      if (!r.ok()) return false;
    } else if (key == "tenant") {
      if (!FirstSight(seen, kTenant) ||
          !ReadStringInto(r, request->tenant, &scratch)) {
        return false;
      }
    } else if (key == "deadline_ms") {
      int64_t& deadline = request->deadline_ms.emplace();
      if (!FirstSight(seen, kDeadline) || !ReadInt(r, deadline) ||
          deadline < 0) {
        return false;
      }
    } else if (!JsonValue::Read(r).ok()) {
      return false;
    }
  }
  if (!r.End()) return false;
  constexpr unsigned kRequired = kOp | kRelease | kQueries;
  if ((seen & kRequired) != kRequired) return false;
  request->queries.resize(queries);
  envelope->pinned_epoch = (seen & kEpoch) != 0;
  return true;
}

void WriteQueryResponse(const client::BatchAnswer& batch, int64_t version,
                        const JsonValue* id, std::string& out) {
  out += "{\"answers\":[";
  for (size_t i = 0; i < batch.answers.size(); ++i) {
    const client::AnswerRow& a = batch.answers[i];
    if (i > 0) out += ',';
    out += a.cached ? "{\"cached\":true" : "{\"cached\":false";
    out += ",\"estimate\":";
    json::NumberInto(a.estimate, out);
    out += ",\"matched_size\":";
    UintInto(a.matched_size, out);
    out += ",\"observed\":";
    UintInto(a.observed, out);
    out += '}';
  }
  out += "],\"cache_hits\":";
  UintInto(batch.cache_hits, out);
  out += ",\"cache_misses\":";
  UintInto(batch.cache_misses, out);
  out += ",\"epoch\":";
  UintInto(batch.epoch, out);
  if (id != nullptr) {
    out += ",\"id\":";
    id->AppendTo(out);
  }
  out += ",\"ok\":true,\"release\":";
  json::EscapeInto(batch.release, out);
  if (version >= kWireVersionCurrent) out += ",\"v\":2";
  out += '}';
}

bool ReadQueryResponse(std::string_view line, uint64_t expect_id,
                       client::BatchAnswer* out) {
  enum : unsigned {
    kAnswers = 1,
    kHits = 2,
    kMisses = 4,
    kEpoch = 8,
    kId = 16,
    kOk = 32,
    kRelease = 64,
    kV = 128,
  };
  JsonReader r(line);
  std::string scratch;
  unsigned seen = 0;
  size_t rows = 0;
  if (!r.BeginObject()) return false;
  std::string_view key;
  bool more = false;
  while (r.NextMember(&key, &scratch, &more) && more) {
    if (key == "ok") {
      bool ok = false;
      if (!FirstSight(seen, kOk) || !r.ReadBool(&ok) || !ok) return false;
    } else if (key == "v") {
      int64_t v = 0;
      if (!FirstSight(seen, kV) || !ReadInt(r, v) ||
          v != kWireVersionCurrent) {
        return false;
      }
    } else if (key == "id") {
      int64_t id = 0;
      if (!FirstSight(seen, kId) || !ReadInt(r, id) ||
          uint64_t(id) != expect_id) {
        return false;
      }
    } else if (key == "release") {
      if (!FirstSight(seen, kRelease) ||
          !ReadStringInto(r, out->release, &scratch)) {
        return false;
      }
    } else if (key == "epoch") {
      if (!FirstSight(seen, kEpoch) || !ReadUint(r, out->epoch)) return false;
    } else if (key == "cache_hits") {
      if (!FirstSight(seen, kHits) || !ReadUint(r, out->cache_hits)) {
        return false;
      }
    } else if (key == "cache_misses") {
      if (!FirstSight(seen, kMisses) || !ReadUint(r, out->cache_misses)) {
        return false;
      }
    } else if (key == "answers") {
      if (!FirstSight(seen, kAnswers) || !r.BeginArray()) return false;
      bool element = false;
      while (r.NextElement(&element) && element) {
        if (rows == out->answers.size()) out->answers.emplace_back();
        client::AnswerRow& row = out->answers[rows++];
        enum : unsigned { kObserved = 1, kMatched = 2, kEstimate = 4,
                          kCached = 8 };
        unsigned fields = 0;
        if (!r.BeginObject()) return false;
        bool member = false;
        while (r.NextMember(&key, &scratch, &member) && member) {
          if (key == "observed") {
            if (!FirstSight(fields, kObserved) || !ReadUint(r, row.observed)) {
              return false;
            }
          } else if (key == "matched_size") {
            if (!FirstSight(fields, kMatched) ||
                !ReadUint(r, row.matched_size)) {
              return false;
            }
          } else if (key == "estimate") {
            JsonNumber n;
            if (!FirstSight(fields, kEstimate) || !r.ReadNumber(&n)) {
              return false;
            }
            row.estimate = n.AsDouble();
          } else if (key == "cached") {
            if (!FirstSight(fields, kCached) || !r.ReadBool(&row.cached)) {
              return false;
            }
          } else if (!JsonValue::Read(r).ok()) {
            return false;
          }
        }
        if (!r.ok() || fields != (kObserved | kMatched | kEstimate | kCached)) {
          return false;
        }
      }
      if (!r.ok()) return false;
    } else if (key == "event" || !JsonValue::Read(r).ok()) {
      // An event line is the push stream's, not a response.
      return false;
    }
  }
  if (!r.End() || seen != (kAnswers | kHits | kMisses | kEpoch | kId | kOk |
                           kRelease | kV)) {
    return false;
  }
  out->answers.resize(rows);
  return true;
}

// --- replication codec -----------------------------------------------------

JsonValue EncodeSubscribeRequest(uint64_t id) {
  return Envelope("subscribe", id);
}

Result<client::Subscription> DecodeSubscribeResponse(
    const JsonValue& response) {
  client::Subscription sub;
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* releases,
                           RequireField(response, "releases"));
  if (!releases->is_array()) {
    return Status::InvalidArgument("'releases' must be an array");
  }
  sub.releases.reserve(releases->size());
  for (size_t i = 0; i < releases->size(); ++i) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* entry, releases->At(i));
    if (!entry->is_object()) {
      return Status::InvalidArgument("each release entry must be an object");
    }
    client::SubscribedRelease rel;
    RECPRIV_ASSIGN_OR_RETURN(rel.name, RequireString(*entry, "release"));
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* epochs,
                             RequireField(*entry, "epochs"));
    if (!epochs->is_array()) {
      return Status::InvalidArgument("'epochs' must be an array");
    }
    rel.epochs.reserve(epochs->size());
    for (size_t k = 0; k < epochs->size(); ++k) {
      RECPRIV_ASSIGN_OR_RETURN(const JsonValue* e, epochs->At(k));
      if (!e->is_object()) {
        return Status::InvalidArgument("each epoch entry must be an object");
      }
      client::EpochDigest ed;
      RECPRIV_ASSIGN_OR_RETURN(ed.epoch, RequireUint64(*e, "epoch"));
      RECPRIV_ASSIGN_OR_RETURN(ed.digest, RequireString(*e, "digest"));
      RECPRIV_RETURN_NOT_OK(repl::ParseDigest(ed.digest).status());
      rel.epochs.push_back(std::move(ed));
    }
    sub.releases.push_back(std::move(rel));
  }
  return sub;
}

JsonValue EncodeFetchSnapshotRequest(const std::string& release,
                                     uint64_t epoch, uint64_t offset,
                                     uint64_t max_bytes, uint64_t id) {
  JsonValue out = Envelope("fetch_snapshot", id);
  out.Set("release", JsonValue::String(release));
  out.Set("epoch", JsonValue::Uint(epoch));
  out.Set("offset", JsonValue::Uint(offset));
  out.Set("max_bytes", JsonValue::Uint(max_bytes));
  return out;
}

Result<client::SnapshotChunk> DecodeFetchSnapshotResponse(
    const JsonValue& response) {
  return DecodeFetchSnapshotResponse(response, nullptr);
}

Result<client::SnapshotChunk> DecodeFetchSnapshotResponse(
    const JsonValue& response, const std::string* attachment) {
  client::SnapshotChunk chunk;
  RECPRIV_ASSIGN_OR_RETURN(chunk.release, RequireString(response, "release"));
  RECPRIV_ASSIGN_OR_RETURN(chunk.epoch, RequireUint64(response, "epoch"));
  RECPRIV_ASSIGN_OR_RETURN(chunk.offset, RequireUint64(response, "offset"));
  RECPRIV_ASSIGN_OR_RETURN(chunk.total_bytes,
                           RequireUint64(response, "total_bytes"));
  RECPRIV_ASSIGN_OR_RETURN(chunk.digest, RequireString(response, "digest"));
  RECPRIV_RETURN_NOT_OK(repl::ParseDigest(chunk.digest).status());
  RECPRIV_ASSIGN_OR_RETURN(std::string chunk_digest,
                           RequireString(response, "chunk_digest"));
  RECPRIV_ASSIGN_OR_RETURN(uint64_t expect, repl::ParseDigest(chunk_digest));
  if (response.Has("data_bytes")) {
    // Binary-framed response: the chunk is the frame's raw attachment and
    // "data_bytes" declares its length. Both must agree with what the
    // transport actually carried.
    RECPRIV_ASSIGN_OR_RETURN(uint64_t declared,
                             RequireUint64(response, "data_bytes"));
    const size_t carried = attachment == nullptr ? 0 : attachment->size();
    if (declared != carried) {
      return Status::DataLoss(
          "'data_bytes' declares " + std::to_string(declared) +
          " bytes but the frame attachment carried " +
          std::to_string(carried));
    }
    if (attachment != nullptr) {
      chunk.data.assign(attachment->begin(), attachment->end());
    }
  } else {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* data_node,
                             RequireField(response, "data_b64"));
    if (!data_node->is_string()) {
      return Status::InvalidArgument("'data_b64' must be a string");
    }
    // View, not copy: the chunk payload is the one field big enough that an
    // extra pass shows up in follower convergence time.
    RECPRIV_ASSIGN_OR_RETURN(std::string_view data_b64,
                             data_node->AsStringView());
    RECPRIV_ASSIGN_OR_RETURN(chunk.data, Base64Decode(data_b64));
  }
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* eof,
                           RequireField(response, "eof"));
  RECPRIV_ASSIGN_OR_RETURN(chunk.eof, eof->AsBool());
  if (repl::BytesDigest(chunk.data.data(), chunk.data.size()) != expect) {
    return Status::DataLoss("snapshot chunk digest mismatch (release '" +
                            chunk.release + "' epoch " +
                            std::to_string(chunk.epoch) + " offset " +
                            std::to_string(chunk.offset) + ")");
  }
  const uint64_t end = chunk.offset + chunk.data.size();
  if (end > chunk.total_bytes || (chunk.eof != (end == chunk.total_bytes))) {
    return Status::DataLoss(
        "inconsistent snapshot chunk framing (offset " +
        std::to_string(chunk.offset) + " + " +
        std::to_string(chunk.data.size()) + " bytes vs total " +
        std::to_string(chunk.total_bytes) + ", eof=" +
        (chunk.eof ? "true" : "false") + ")");
  }
  return chunk;
}

JsonValue EncodeHelloRequest(const std::string& frame, uint64_t id) {
  JsonValue out = Envelope("hello", id);
  out.Set("frame", JsonValue::String(frame));
  return out;
}

Result<std::string> DecodeHelloResponse(const JsonValue& response) {
  return RequireString(response, "frame");
}

JsonValue EncodeEpochEvent(const client::EpochEvent& event) {
  JsonValue out = JsonValue::Object();
  out.Set("v", JsonValue::Int(kWireVersionCurrent));
  out.Set("event", JsonValue::String("epoch"));
  const char* kind = event.kind == client::EpochEvent::Kind::kPublish
                         ? "publish"
                         : event.kind == client::EpochEvent::Kind::kRetire
                               ? "retire"
                               : "drop";
  out.Set("kind", JsonValue::String(kind));
  out.Set("release", JsonValue::String(event.release));
  out.Set("epoch", JsonValue::Uint(uint64_t(event.epoch)));
  if (event.kind == client::EpochEvent::Kind::kPublish) {
    out.Set("digest", JsonValue::String(event.digest));
  }
  return out;
}

bool IsEventLine(const JsonValue& line) {
  return line.is_object() && line.Has("event");
}

Result<client::EpochEvent> DecodeEpochEvent(const JsonValue& line) {
  RECPRIV_ASSIGN_OR_RETURN(std::string event, RequireString(line, "event"));
  if (event != "epoch") {
    return Status::InvalidArgument("unknown event type '" + event + "'");
  }
  client::EpochEvent out;
  RECPRIV_ASSIGN_OR_RETURN(std::string kind, RequireString(line, "kind"));
  if (kind == "publish") {
    out.kind = client::EpochEvent::Kind::kPublish;
  } else if (kind == "retire") {
    out.kind = client::EpochEvent::Kind::kRetire;
  } else if (kind == "drop") {
    out.kind = client::EpochEvent::Kind::kDrop;
  } else {
    return Status::InvalidArgument("unknown epoch event kind '" + kind + "'");
  }
  RECPRIV_ASSIGN_OR_RETURN(out.release, RequireString(line, "release"));
  RECPRIV_ASSIGN_OR_RETURN(out.epoch, RequireUint64(line, "epoch"));
  if (out.kind == client::EpochEvent::Kind::kPublish) {
    RECPRIV_ASSIGN_OR_RETURN(out.digest, RequireString(line, "digest"));
    RECPRIV_RETURN_NOT_OK(repl::ParseDigest(out.digest).status());
  }
  return out;
}

}  // namespace wire

}  // namespace recpriv::serve
