#include "trace.h"

#include <cinttypes>
#include <cstdio>
#include <set>
#include <thread>
#include <utility>

#include "common/json.h"
#include "net/socket.h"
#include "query/count_query.h"
#include "serve/wire.h"
#include "table/predicate.h"

namespace recpriv::e2e {

namespace {

constexpr int kIoTimeoutMs = 10000;
constexpr size_t kNumSpanNames = size_t(SpanName::kCount);

/// Replay bounds: enough samples for stable medians, bounded run time.
constexpr size_t kReplayRequests = 1000;
constexpr size_t kReplayDistinctQueries = 20000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double P50(std::vector<double> v) { return Median(v); }

const char* SpanNameString(SpanName name) {
  static constexpr const char* kNames[kNumSpanNames] = {
      "request",        "client.encode",  "net.request",  "wire.parse",
      "serve.dispatch", "wire.serialize", "net.response", "client.decode"};
  return kNames[size_t(name)];
}

Metric Us(double value, uint64_t samples) {
  return Metric{value, "us", "lower", samples};
}

}  // namespace

// --- TracedPipe --------------------------------------------------------------

Result<std::unique_ptr<TracedPipe>> TracedPipe::Open() {
  RECPRIV_ASSIGN_OR_RETURN(net::Listener listener,
                           net::Listener::Bind("127.0.0.1", 0));
  RECPRIV_ASSIGN_OR_RETURN(
      net::UniqueFd client_fd,
      net::ConnectTcp("127.0.0.1", listener.port(), kIoTimeoutMs));
  RECPRIV_ASSIGN_OR_RETURN(net::AcceptResult accepted,
                           listener.Accept(kIoTimeoutMs));
  if (accepted.timed_out) {
    return Status::IOError("traced pipe: accept timed out");
  }
  return std::unique_ptr<TracedPipe>(
      new TracedPipe(net::LineChannel(std::move(client_fd)),
                     net::LineChannel(std::move(accepted.fd))));
}

namespace {

/// Sends `line` on `from` and reads it back on `to`.
Result<std::string> Carry(net::LineChannel& from, net::LineChannel& to,
                          const std::string& line) {
  RECPRIV_RETURN_NOT_OK(from.WriteLine(line, kIoTimeoutMs));
  RECPRIV_ASSIGN_OR_RETURN(net::ReadResult got, to.ReadLine(kIoTimeoutMs));
  if (got.event != net::ReadEvent::kLine) {
    return Status::IOError("traced pipe: no line arrived");
  }
  return std::move(got.line);
}

}  // namespace

Result<client::BatchAnswer> TracedPipe::Call(
    serve::QueryEngine& engine, const client::QueryRequest& request,
    uint64_t request_id, std::vector<Span>* spans, uint64_t* request_bytes,
    uint64_t* response_bytes) {
  const size_t root = spans->size();
  auto open = [&](SpanName name) {
    spans->push_back(Span{request_id, name, NowNs(), 0});
  };
  auto close = [&] { spans->back().end_ns = NowNs(); };
  auto fail = [&](const Status& status) {
    spans->resize(root);  // a failed request leaves no partial trace
    return status;
  };

  open(SpanName::kRequest);
  open(SpanName::kClientEncode);
  const std::string line =
      serve::wire::EncodeQueryRequest(request, request_id).ToString();
  close();

  open(SpanName::kNetRequest);
  Result<std::string> received = Carry(client_, server_, line);
  close();
  if (!received.ok()) return fail(received.status());

  open(SpanName::kWireParse);
  Result<JsonValue> parsed = JsonValue::Parse(*received);
  close();
  if (!parsed.ok()) return fail(parsed.status());

  open(SpanName::kDispatch);
  const JsonValue response = serve::HandleRequest(*parsed, engine);
  close();

  open(SpanName::kWireSerialize);
  const std::string out = response.ToString();
  close();

  open(SpanName::kNetResponse);
  Result<std::string> returned = Carry(server_, client_, out);
  close();
  if (!returned.ok()) return fail(returned.status());

  open(SpanName::kClientDecode);
  Result<client::BatchAnswer> answer = [&]() -> Result<client::BatchAnswer> {
    RECPRIV_ASSIGN_OR_RETURN(JsonValue envelope,
                             serve::wire::ParseResponse(*returned, request_id));
    return serve::wire::DecodeQueryResponse(envelope);
  }();
  close();
  if (!answer.ok()) return fail(answer.status());
  (*spans)[root].end_ns = NowNs();

  *request_bytes += line.size() + 1;
  *response_bytes += out.size() + 1;
  return answer;
}

// --- traced phase ------------------------------------------------------------

void TracedTally::Merge(TracedTally&& other) {
  phase.Merge(std::move(other.phase));
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
  request_bytes += other.request_bytes;
  response_bytes += other.response_bytes;
  for (auto& keys : other.requests) requests.push_back(std::move(keys));
}

Result<TracedTally> RunTracedOpen(serve::QueryEngine& engine,
                                  const std::vector<ConnectionPlan>& plan,
                                  const QueryMix& mix) {
  std::vector<std::unique_ptr<TracedPipe>> pipes;
  for (size_t c = 0; c < plan.size(); ++c) {
    RECPRIV_ASSIGN_OR_RETURN(auto pipe, TracedPipe::Open());
    pipes.push_back(std::move(pipe));
  }
  std::vector<TracedTally> tallies(plan.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point begin = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < plan.size(); ++c) {
    threads.emplace_back([&, c] {
      TracedTally& tally = tallies[c];
      tally.spans.reserve(plan[c].size() * kNumSpanNames);
      tally.phase.answers.emplace_back();
      for (size_t i = 0; i < plan[c].size(); ++i) {
        const PlannedRequest& planned = plan[c][i];
        client::QueryRequest request;
        request.release = kRelease;
        for (uint64_t key : planned.keys) {
          request.queries.push_back(mix.Spec(key));
        }
        const Clock::time_point due = start + planned.due;
        if (Clock::now() < due) {
          std::this_thread::sleep_until(due);
          tally.phase.late_ms.push_back(MillisBetween(due, Clock::now()));
        }
        const uint64_t id = (uint64_t(c) << 40) | i;
        auto answer = pipes[c]->Call(engine, request, id, &tally.spans,
                                     &tally.request_bytes,
                                     &tally.response_bytes);
        const Clock::time_point done = Clock::now();
        ++tally.phase.requests;
        tally.phase.queries += planned.keys.size();
        if (!answer.ok()) {
          tally.phase.CountFailure(answer.status());
          continue;
        }
        tally.phase.latency_ms.push_back(MillisBetween(due, done));
        tally.phase.at_s.push_back(MillisBetween(start, due) / 1e3);
        tally.phase.cache_hits += answer->cache_hits;
        RecordAnswers(planned.keys, *answer, &tally.phase.answers.back());
        tally.requests.push_back(planned.keys);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  TracedTally out;
  for (TracedTally& t : tallies) out.Merge(std::move(t));
  out.phase.seconds = MillisBetween(begin, Clock::now()) / 1e3;
  return out;
}

double MeasureSpanCostNs() {
  constexpr size_t kSpans = 200000;
  std::vector<Span> spans;
  spans.reserve(kSpans);
  const int64_t begin = NowNs();
  for (size_t i = 0; i < kSpans; ++i) {
    spans.push_back(Span{i, SpanName::kDispatch, NowNs(), 0});
    spans.back().end_ns = NowNs();
  }
  return double(NowNs() - begin) / double(kSpans);
}

void AddSpanMetrics(const TracedTally& traced, double span_cost_ns,
                    double untraced_read_p50_ms, Metrics* out, Metrics* extra) {
  std::vector<std::vector<double>> self_us(kNumSpanNames);
  std::vector<double> root_us, unattributed_us;
  const std::vector<Span>& spans = traced.spans;
  for (size_t i = 0; i < spans.size();) {
    // Spans of one request are contiguous: the root, then its children.
    const Span& root = spans[i];
    double children_ns = 0.0;
    size_t j = i + 1;
    for (; j < spans.size() && spans[j].name != SpanName::kRequest; ++j) {
      const double ns = double(spans[j].end_ns - spans[j].start_ns);
      children_ns += ns;
      self_us[size_t(spans[j].name)].push_back(ns / 1e3);
    }
    const double root_ns = double(root.end_ns - root.start_ns);
    root_us.push_back(root_ns / 1e3);
    unattributed_us.push_back((root_ns - children_ns) / 1e3);
    i = j;
  }
  const uint64_t n = root_us.size();
  double children_p50_sum = 0.0;
  for (size_t s = 1; s < kNumSpanNames; ++s) {
    const double p50 = P50(self_us[s]);
    children_p50_sum += p50;
    (*out)[std::string(SpanNameString(SpanName(s))) + "_us"] = Us(p50, n);
  }
  std::vector<double> dispatch = self_us[size_t(SpanName::kDispatch)];
  (*out)["serve.dispatch_p99_us"] = Us(NearestRank(dispatch, 0.99), n);
  const double request_p50 = P50(root_us);
  const double unattributed_p50 = P50(unattributed_us);
  (*out)["request.p50_us"] = Us(request_p50, n);
  (*out)["request.unattributed_us"] = Us(unattributed_p50, n);
  (*out)["trace.span_cost_ns"] = Metric{span_cost_ns, "ns", "lower", 0};
  (*extra)["trace.coverage"] =
      Metric{request_p50 > 0 ? (children_p50_sum + unattributed_p50) /
                                   request_p50
                             : 0.0,
             "ratio", "", n};
  const double per_request_span_cost_us =
      span_cost_ns * double(kNumSpanNames) / 1e3;
  (*out)["serve.server_us"] =
      Us(untraced_read_p50_ms * 1e3 - request_p50 - per_request_span_cost_us,
         n);
  if (n > 0) {
    (*out)["net.request_bytes"] =
        Metric{double(traced.request_bytes) / double(n), "bytes", "lower", n};
    (*out)["net.response_bytes"] =
        Metric{double(traced.response_bytes) / double(n), "bytes", "lower", n};
  }
}

Status DumpSpans(const std::vector<Span>& spans, size_t max_requests,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write spans to " + path);
  size_t requests = 0;
  for (const Span& s : spans) {
    if (s.name == SpanName::kRequest && ++requests > max_requests) break;
    std::fprintf(f,
                 "{\"request\":%" PRIu64 ",\"span\":\"%s\",\"parent\":%s,"
                 "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 "}\n",
                 s.request, SpanNameString(s.name),
                 s.name == SpanName::kRequest ? "null" : "\"request\"",
                 s.start_ns, s.end_ns);
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IOError("short write to " + path);
}

// --- replay ------------------------------------------------------------------

Status AddReplayMetrics(serve::QueryEngine& engine, const QueryMix& mix,
                        const std::vector<std::vector<uint64_t>>& requests,
                        Metrics* out, Metrics* extra) {
  RECPRIV_ASSIGN_OR_RETURN(serve::SnapshotPtr snap,
                           engine.store().Get(kRelease));
  const table::Schema& schema = *snap->bundle.data.schema();

  std::vector<double> resolve_us, answer_us;
  const size_t replayed = std::min(requests.size(), kReplayRequests);
  for (size_t r = 0; r < replayed; ++r) {
    std::vector<client::QuerySpec> specs;
    for (uint64_t key : requests[r]) specs.push_back(mix.Spec(key));
    const Clock::time_point t0 = Clock::now();
    RECPRIV_ASSIGN_OR_RETURN(serve::SnapshotPtr pinned,
                             engine.store().Get(kRelease));
    std::vector<query::CountQuery> batch;
    for (const client::QuerySpec& spec : specs) {
      query::CountQuery q(schema.num_attributes());
      RECPRIV_ASSIGN_OR_RETURN(
          q.na_predicate, table::Predicate::FromBindings(schema, spec.where));
      RECPRIV_ASSIGN_OR_RETURN(q.sa_code,
                               schema.sensitive().domain.GetCode(spec.sa));
      q.dimensionality = q.na_predicate.num_bound();
      batch.push_back(std::move(q));
    }
    const Clock::time_point t1 = Clock::now();
    RECPRIV_RETURN_NOT_OK(engine.AnswerBatch(kRelease, pinned, batch).status());
    const Clock::time_point t2 = Clock::now();
    resolve_us.push_back(MillisBetween(t0, t1) * 1e3);
    answer_us.push_back(MillisBetween(t1, t2) * 1e3);
  }
  (*out)["service.resolve_us"] = Us(P50(resolve_us), replayed);
  (*out)["engine.answer_us"] = Us(P50(answer_us), replayed);

  std::set<uint64_t> distinct;
  std::vector<uint64_t> dims(4, 0);
  uint64_t total = 0;
  for (const auto& keys : requests) {
    for (uint64_t key : keys) {
      ++dims[std::min<size_t>(mix.Dimensionality(key), 3)];
      ++total;
      if (distinct.size() < kReplayDistinctQueries) distinct.insert(key);
    }
  }
  std::vector<double> fused_us, postings_us, groups;
  table::AnswerScratch scratch;
  for (uint64_t key : distinct) {
    const client::QuerySpec spec = mix.Spec(key);
    query::CountQuery q(schema.num_attributes());
    RECPRIV_ASSIGN_OR_RETURN(
        q.na_predicate, table::Predicate::FromBindings(schema, spec.where));
    RECPRIV_ASSIGN_OR_RETURN(q.sa_code,
                             schema.sensitive().domain.GetCode(spec.sa));
    const Clock::time_point t0 = Clock::now();
    const serve::Answer fused = serve::EvaluateUncached(*snap, q);
    const Clock::time_point t1 = Clock::now();
    const uint64_t posted =
        snap->postings->CountAnswer(q.na_predicate, q.sa_code, scratch);
    const Clock::time_point t2 = Clock::now();
    if (fused.observed != posted) {
      return Status::Internal("fused and posting kernels disagree on key " +
                              std::to_string(key));
    }
    fused_us.push_back(MillisBetween(t0, t1) * 1e3);
    postings_us.push_back(MillisBetween(t1, t2) * 1e3);
    snap->postings->MatchingGroupsInto(q.na_predicate, scratch.intersect,
                                       scratch.groups);
    groups.push_back(double(scratch.groups.size()));
  }
  (*out)["index.fused_us"] = Us(P50(fused_us), distinct.size());
  (*out)["index.postings_us"] = Us(P50(postings_us), distinct.size());
  (*extra)["index.groups_matched"] =
      Metric{Mean(groups), "count", "", distinct.size()};
  for (size_t d = 0; d < dims.size(); ++d) {
    (*extra)["mix.dim" + std::to_string(d) + "_share"] =
        Metric{total > 0 ? double(dims[d]) / double(total) : 0.0, "ratio", "",
               total};
  }
  return Status::OK();
}

}  // namespace recpriv::e2e
