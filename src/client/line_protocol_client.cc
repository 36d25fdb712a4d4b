#include "client/line_protocol_client.h"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>
#include <thread>
#include <utility>

#include "serve/wire.h"

namespace recpriv::client {

namespace {

/// How long a RoundTrip keeps reading for its response after absorbing a
/// pushed event line; matches TcpTransportOptions::response_timeout_ms.
constexpr int kResponseBehindEventsTimeoutMs = 60000;

}  // namespace

Result<std::optional<std::string>> LineTransport::ReadPushedLine(
    int /*timeout_ms*/) {
  return Status::NotImplemented(
      "this transport does not carry pushed lines (subscribe needs a live "
      "TCP connection)");
}

Status LineTransport::SetBinaryFrame(bool /*binary*/) {
  return Status::NotImplemented(
      "this transport cannot switch its session framing");
}

Result<std::string> IoStreamTransport::RoundTrip(
    const std::string& request_line) {
  out_ << request_line << "\n" << std::flush;
  if (!out_.good()) {
    return Status::IOError("line transport: write failed (peer gone?)");
  }
  std::string response;
  if (!std::getline(in_, response)) {
    return Status::IOError("line transport: no response (peer closed)");
  }
  return response;
}

Result<std::string> LoopbackTransport::RoundTrip(
    const std::string& request_line) {
  return serve::HandleRequestLine(request_line, engine_, context_, nullptr);
}

Result<std::string> FaultInjectingTransport::RoundTrip(
    const std::string& request_line) {
  if (dead_) {
    return Status::Unavailable(
        "fault injection: transport was disconnected; reconnect");
  }
  switch (injector_->SampleWrite()) {
    case net::FaultKind::kNone:
    case net::FaultKind::kShortWrite:  // no byte-level split without a socket
      break;
    case net::FaultKind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(injector_->options().delay_ms));
      break;
    case net::FaultKind::kDrop:
      dead_ = true;
      return Status::Unavailable("fault injection: request dropped");
    case net::FaultKind::kDisconnect:
      dead_ = true;
      return Status::Unavailable(
          "fault injection: connection closed before the request");
    case net::FaultKind::kTruncate:
      dead_ = true;
      return Status::Unavailable(
          "fault injection: request truncated mid-line");
  }
  return inner_->RoundTrip(request_line);
}

LineProtocolClient::LineProtocolClient(
    std::unique_ptr<LineTransport> transport)
    : transport_(std::move(transport)) {}

LineProtocolClient::LineProtocolClient(std::istream& responses,
                                       std::ostream& requests)
    : transport_(std::make_unique<IoStreamTransport>(responses, requests)) {}

Result<JsonValue> LineProtocolClient::RoundTrip(const JsonValue& request,
                                                uint64_t id) {
  RECPRIV_ASSIGN_OR_RETURN(std::string response_line,
                           transport_->RoundTrip(request.ToString()));
  return AwaitResponse(std::move(response_line), id);
}

Result<JsonValue> LineProtocolClient::AwaitResponse(std::string response_line,
                                                    uint64_t id) {
  // A subscribed session may receive pushed event lines in place of the
  // response; absorb each one and keep reading until the real response
  // (or anything malformed — ParseResponse rules on that) shows up.
  for (;;) {
    Result<JsonValue> parsed = JsonValue::Parse(response_line);
    if (!parsed.ok()) return serve::wire::ParseResponse(response_line, id);
    if (!serve::wire::IsEventLine(*parsed)) {
      return serve::wire::ParseResponse(std::move(*parsed), id);
    }
    RECPRIV_RETURN_NOT_OK(AbsorbEvent(*parsed));
    RECPRIV_ASSIGN_OR_RETURN(
        std::optional<std::string> next,
        transport_->ReadPushedLine(kResponseBehindEventsTimeoutMs));
    if (!next.has_value()) {
      return Status::IOError(
          "line protocol: response never arrived behind pushed events");
    }
    response_line = std::move(*next);
  }
}

Status LineProtocolClient::AbsorbEvent(const JsonValue& line) {
  RECPRIV_ASSIGN_OR_RETURN(EpochEvent event,
                           serve::wire::DecodeEpochEvent(line));
  switch (event.kind) {
    case EpochEvent::Kind::kPublish: {
      uint64_t& latest = latest_epoch_[event.release];
      latest = std::max(latest, event.epoch);
      break;
    }
    case EpochEvent::Kind::kRetire: {
      // Satellite: push-based stale-epoch invalidation. The server just
      // told us this epoch left the retention window — clear a matching
      // pin now instead of learning it from the next query's STALE_EPOCH.
      auto it = pins_.find(event.release);
      if (it != pins_.end() && it->second == event.epoch) {
        pins_.erase(it);
        ++pin_invalidations_;
      }
      break;
    }
    case EpochEvent::Kind::kDrop: {
      if (pins_.erase(event.release) > 0) ++pin_invalidations_;
      latest_epoch_.erase(event.release);
      break;
    }
  }
  pending_events_.push_back(std::move(event));
  return Status::OK();
}

Result<std::vector<ReleaseDescriptor>> LineProtocolClient::List() {
  const uint64_t id = next_id_++;
  RECPRIV_ASSIGN_OR_RETURN(JsonValue response,
                           RoundTrip(serve::wire::EncodeListRequest(id), id));
  return serve::wire::DecodeListResponse(response);
}

Result<BatchAnswer> LineProtocolClient::Query(const QueryRequest& request) {
  const uint64_t id = next_id_++;
  // An explicit epoch in the request wins; otherwise a live pin fills it
  // in, so a pinned session reads a consistent release without each call
  // site threading the epoch through.
  std::optional<uint64_t> epoch = request.epoch;
  if (!epoch.has_value()) {
    auto it = pins_.find(request.release);
    if (it != pins_.end()) epoch = it->second;
  }
  request_line_.clear();
  serve::wire::WriteQueryRequest(request, epoch, id, request_line_);
  RECPRIV_ASSIGN_OR_RETURN(std::string response_line,
                           transport_->RoundTrip(request_line_));
  // An ok answer decodes in one pass; errors and pushed event lines ahead
  // of the response go the tree path.
  BatchAnswer answer;
  if (serve::wire::ReadQueryResponse(response_line, id, &answer)) {
    return answer;
  }
  RECPRIV_ASSIGN_OR_RETURN(JsonValue response,
                           AwaitResponse(std::move(response_line), id));
  return serve::wire::DecodeQueryResponse(response);
}

Result<ReleaseSchema> LineProtocolClient::GetSchema(
    const std::string& release, std::optional<uint64_t> epoch) {
  const uint64_t id = next_id_++;
  RECPRIV_ASSIGN_OR_RETURN(
      JsonValue response,
      RoundTrip(serve::wire::EncodeSchemaRequest(release, epoch, id), id));
  return serve::wire::DecodeSchemaResponse(response);
}

Result<ServerStats> LineProtocolClient::Stats() {
  const uint64_t id = next_id_++;
  RECPRIV_ASSIGN_OR_RETURN(JsonValue response,
                           RoundTrip(serve::wire::EncodeStatsRequest(id), id));
  return serve::wire::DecodeStatsResponse(response);
}

Result<ReleaseDescriptor> LineProtocolClient::Publish(
    const std::string& name, const std::string& basename) {
  const uint64_t id = next_id_++;
  RECPRIV_ASSIGN_OR_RETURN(
      JsonValue response,
      RoundTrip(serve::wire::EncodePublishRequest(name, basename, id), id));
  return serve::wire::DecodePublishResponse(response);
}

Result<ReleaseDescriptor> LineProtocolClient::Drop(const std::string& name) {
  const uint64_t id = next_id_++;
  RECPRIV_ASSIGN_OR_RETURN(
      JsonValue response,
      RoundTrip(serve::wire::EncodeDropRequest(name, id), id));
  return serve::wire::DecodeDropResponse(response);
}

Result<bool> LineProtocolClient::NegotiateBinaryFrame() {
  if (!transport_->SupportsBinaryFrame()) return false;
  const uint64_t id = next_id_++;
  RECPRIV_ASSIGN_OR_RETURN(
      JsonValue response,
      RoundTrip(serve::wire::EncodeHelloRequest("binary", id), id));
  RECPRIV_ASSIGN_OR_RETURN(std::string frame,
                           serve::wire::DecodeHelloResponse(response));
  if (frame != "binary") return false;
  RECPRIV_RETURN_NOT_OK(transport_->SetBinaryFrame(true));
  return true;
}

Result<Subscription> LineProtocolClient::Subscribe() {
  const uint64_t id = next_id_++;
  RECPRIV_ASSIGN_OR_RETURN(
      JsonValue response,
      RoundTrip(serve::wire::EncodeSubscribeRequest(id), id));
  return serve::wire::DecodeSubscribeResponse(response);
}

Result<std::vector<EpochEvent>> LineProtocolClient::PollEvents(
    int timeout_ms) {
  // Block only for the first line and only when nothing is buffered;
  // after that, drain whatever has already arrived without waiting.
  int wait_ms = pending_events_.empty() ? timeout_ms : 0;
  for (;;) {
    RECPRIV_ASSIGN_OR_RETURN(std::optional<std::string> line,
                             transport_->ReadPushedLine(wait_ms));
    if (!line.has_value()) break;
    RECPRIV_ASSIGN_OR_RETURN(JsonValue parsed, JsonValue::Parse(*line));
    if (!serve::wire::IsEventLine(parsed)) {
      return Status::Internal(
          "line protocol: unsolicited non-event line on an idle session: " +
          *line);
    }
    RECPRIV_RETURN_NOT_OK(AbsorbEvent(parsed));
    wait_ms = 0;
  }
  std::vector<EpochEvent> drained;
  drained.swap(pending_events_);
  return drained;
}

Result<SnapshotChunk> LineProtocolClient::FetchSnapshotChunk(
    const std::string& release, uint64_t epoch, uint64_t offset,
    uint64_t max_bytes) {
  const uint64_t id = next_id_++;
  RECPRIV_ASSIGN_OR_RETURN(
      JsonValue response,
      RoundTrip(serve::wire::EncodeFetchSnapshotRequest(release, epoch, offset,
                                                        max_bytes, id),
                id));
  // On a binary-framed session the chunk rides as the response frame's raw
  // attachment; the decoder falls back to "data_b64" when there is none.
  return serve::wire::DecodeFetchSnapshotResponse(response,
                                                  transport_->LastAttachment());
}

void LineProtocolClient::Pin(const std::string& release, uint64_t epoch) {
  pins_[release] = epoch;
}

std::optional<uint64_t> LineProtocolClient::PinnedEpoch(
    const std::string& release) const {
  auto it = pins_.find(release);
  if (it == pins_.end()) return std::nullopt;
  return it->second;
}

void LineProtocolClient::ClearPin(const std::string& release) {
  pins_.erase(release);
}

std::optional<uint64_t> LineProtocolClient::LatestKnownEpoch(
    const std::string& release) const {
  auto it = latest_epoch_.find(release);
  if (it == latest_epoch_.end()) return std::nullopt;
  return it->second;
}

}  // namespace recpriv::client
