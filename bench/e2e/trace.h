// The traced run's instruments: a request pipeline that walks every read
// through the serving stack's public calls with one span per layer, the
// span statistics, and the post-phase replay that times resolution,
// evaluation and the index kernels on the served snapshot.
//
// Spans are recorded from the benchmark's own files around calls into each
// module; nothing inside src/ is instrumented. End-to-end metrics never come
// from a traced run.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/api.h"
#include "common/result.h"
#include "e2e.h"
#include "load.h"
#include "net/line_channel.h"
#include "serve/query_engine.h"

namespace recpriv::e2e {

/// The spans of one traced request, in pipeline order. kRequest is the
/// root; every other span is its child.
enum class SpanName : uint8_t {
  kRequest,
  kClientEncode,   ///< wire::EncodeQueryRequest + ToString
  kNetRequest,     ///< LineChannel::WriteLine + peer ReadLine
  kWireParse,      ///< JsonValue::Parse
  kDispatch,       ///< serve::HandleRequest
  kWireSerialize,  ///< response ToString
  kNetResponse,    ///< LineChannel::WriteLine + peer ReadLine
  kClientDecode,   ///< wire::ParseResponse + DecodeQueryResponse
  kCount
};

struct Span {
  uint64_t request = 0;  ///< shared by the spans of one request
  SpanName name = SpanName::kRequest;
  int64_t start_ns = 0;  ///< steady clock
  int64_t end_ns = 0;
};

/// A loopback TCP pair whose both ends one thread owns: the client half
/// writes a request line, the server half reads and dispatches it, and the
/// response travels back the same way. This replaces the server's poller
/// and pool hand-off; serve.server_us estimates what that hand-off costs.
class TracedPipe {
 public:
  static Result<std::unique_ptr<TracedPipe>> Open();

  /// One traced round trip against `engine`. Spans go to `spans`; the
  /// request and response line sizes (with '\n') are added to the byte
  /// counters.
  Result<client::BatchAnswer> Call(serve::QueryEngine& engine,
                                   const client::QueryRequest& request,
                                   uint64_t request_id,
                                   std::vector<Span>* spans,
                                   uint64_t* request_bytes,
                                   uint64_t* response_bytes);

 private:
  TracedPipe(net::LineChannel client, net::LineChannel server)
      : client_(std::move(client)), server_(std::move(server)) {}
  net::LineChannel client_;
  net::LineChannel server_;
};

/// Everything a traced phase produced.
struct TracedTally {
  PhaseTally phase;
  std::vector<Span> spans;
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  std::vector<std::vector<uint64_t>> requests;  ///< keys, in sending order
  void Merge(TracedTally&& other);
};

/// Runs an open-loop schedule through one TracedPipe per connection, with
/// the same due-time discipline as TcpLoad::RunOpen.
Result<TracedTally> RunTracedOpen(serve::QueryEngine& engine,
                                  const std::vector<ConnectionPlan>& plan,
                                  const QueryMix& mix);

/// Mean cost of recording one span (two clock reads and an append), ns.
double MeasureSpanCostNs();

/// Per-span p50 self times, the root's unattributed time, dispatch p99,
/// byte sizes and serve.server_us (the untraced read p50 minus the traced
/// request p50 and the spans' own cost) go to `out`; trace.coverage (the
/// p50 self times summed over the request p50) goes to `extra`.
void AddSpanMetrics(const TracedTally& traced, double span_cost_ns,
                    double untraced_read_p50_ms, Metrics* out, Metrics* extra);

/// Writes the first `max_requests` requests' spans as JSON lines.
Status DumpSpans(const std::vector<Span>& spans, size_t max_requests,
                 const std::string& path);

/// Replays the recorded request sequence on the engine's served snapshot:
/// service.resolve_us and engine.answer_us per request, and per distinct
/// query index.fused_us (serve::EvaluateUncached) and index.postings_us
/// (GroupPostingIndex::CountAnswer). Also reports the mix's dimensionality
/// shares and mean groups matched. Fails if the two kernels disagree.
Status AddReplayMetrics(serve::QueryEngine& engine, const QueryMix& mix,
                        const std::vector<std::vector<uint64_t>>& requests,
                        Metrics* out, Metrics* extra);

}  // namespace recpriv::e2e
