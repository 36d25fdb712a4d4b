#include "load.h"

#include <cmath>
#include <thread>
#include <utility>

#include "client/tcp_transport.h"

namespace recpriv::e2e {

std::vector<ConnectionPlan> PlanOpenLoop(const QueryMix& mix,
                                         size_t connections,
                                         size_t queries_per_request,
                                         double rate_rps, double seconds,
                                         Rng& arrivals, Rng& queries) {
  std::vector<ConnectionPlan> plan(connections);
  double t = 0.0;
  for (size_t i = 0;; ++i) {
    t += -std::log(1.0 - arrivals.NextDouble()) / rate_rps;
    if (t >= seconds) break;
    PlannedRequest request;
    request.due = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t));
    for (size_t q = 0; q < queries_per_request; ++q) {
      request.keys.push_back(mix.Draw(queries));
    }
    plan[i % connections].push_back(std::move(request));
  }
  return plan;
}

void PhaseTally::Merge(PhaseTally&& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  at_s.insert(at_s.end(), other.at_s.begin(), other.at_s.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  requests += other.requests;
  queries += other.queries;
  failed += other.failed;
  cache_hits += other.cache_hits;
  for (auto& chunk : other.answers) answers.push_back(std::move(chunk));
  for (std::string& e : other.errors) {
    if (errors.size() < 5) errors.push_back(std::move(e));
  }
}

void PhaseTally::CountFailure(const Status& status) {
  ++failed;
  if (errors.size() < 5) errors.push_back(status.ToString());
}

Result<TcpLoad> TcpLoad::Connect(uint16_t port, size_t connections) {
  TcpLoad load;
  for (size_t c = 0; c < connections; ++c) {
    RECPRIV_ASSIGN_OR_RETURN(auto client,
                             client::ConnectTcp("127.0.0.1", port));
    load.clients_.push_back(std::move(client));
  }
  return load;
}

namespace {

/// Upper bound on closed-loop throughput, used to reserve the logs up front.
/// Reserved but untouched memory is not resident, so the peak RSS grows with
/// the answers actually recorded, never in vector-doubling steps.
constexpr double kMaxQueriesPerSecond = 200000.0;

client::QueryRequest MakeRequest(const QueryMix& mix,
                                 const std::vector<uint64_t>& keys) {
  client::QueryRequest request;
  request.release = kRelease;
  request.queries.reserve(keys.size());
  for (uint64_t key : keys) request.queries.push_back(mix.Spec(key));
  return request;
}

/// Runs `body(c, tally)` on one thread per connection and merges the tallies.
/// `expected_queries(c)` sizes connection c's logs before it starts.
template <typename Expected, typename Body>
PhaseTally OnEveryConnection(size_t connections, Expected expected_queries,
                             Body body) {
  std::vector<PhaseTally> tallies(connections);
  for (size_t c = 0; c < connections; ++c) {
    const size_t queries = expected_queries(c);
    tallies[c].latency_ms.reserve(queries);
    tallies[c].at_s.reserve(queries);
    tallies[c].answers.emplace_back().reserve(queries);
  }
  const Clock::time_point begin = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] { body(c, tallies[c]); });
  }
  for (std::thread& t : threads) t.join();
  PhaseTally out;
  out.seconds = MillisBetween(begin, Clock::now()) / 1e3;
  size_t latencies = 0;
  for (const PhaseTally& t : tallies) latencies += t.latency_ms.size();
  out.latency_ms.reserve(latencies);
  out.at_s.reserve(latencies);
  for (PhaseTally& t : tallies) out.Merge(std::move(t));
  return out;
}

}  // namespace

PhaseTally TcpLoad::RunOpen(const std::vector<ConnectionPlan>& plan,
                            const QueryMix& mix) {
  // A common start a little ahead, so no connection begins late.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto planned_queries = [&](size_t c) {
    size_t queries = 0;
    for (const PlannedRequest& p : plan[c]) queries += p.keys.size();
    return queries;
  };
  return OnEveryConnection(
      clients_.size(), planned_queries, [&](size_t c, PhaseTally& tally) {
    for (const PlannedRequest& planned : plan[c]) {
      const client::QueryRequest request = MakeRequest(mix, planned.keys);
      const Clock::time_point due = start + planned.due;
      if (Clock::now() < due) {
        std::this_thread::sleep_until(due);
        tally.late_ms.push_back(MillisBetween(due, Clock::now()));
      }
      auto answer = clients_[c]->Query(request);
      const Clock::time_point done = Clock::now();
      ++tally.requests;
      tally.queries += planned.keys.size();
      if (!answer.ok()) {
        tally.CountFailure(answer.status());
        continue;
      }
      tally.latency_ms.push_back(MillisBetween(due, done));
      tally.at_s.push_back(MillisBetween(start, due) / 1e3);
      tally.cache_hits += answer->cache_hits;
      RecordAnswers(planned.keys, *answer, &tally.answers.back());
    }
  });
}

PhaseTally TcpLoad::RunClosed(const QueryMix& mix, size_t queries_per_request,
                              double seconds, Rng& queries) {
  std::vector<Rng> streams;
  for (size_t c = 0; c < clients_.size(); ++c) {
    streams.push_back(queries.Fork());
  }
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const size_t bound =
      size_t(kMaxQueriesPerSecond * seconds / double(clients_.size()));
  return OnEveryConnection(
      clients_.size(), [&](size_t) { return bound; },
      [&](size_t c, PhaseTally& tally) {
    std::vector<uint64_t> keys(queries_per_request);
    while (Clock::now() < deadline) {
      for (uint64_t& key : keys) key = mix.Draw(streams[c]);
      const client::QueryRequest request = MakeRequest(mix, keys);
      const Clock::time_point sent = Clock::now();
      auto answer = clients_[c]->Query(request);
      ++tally.requests;
      tally.queries += keys.size();
      if (!answer.ok()) {
        tally.CountFailure(answer.status());
        continue;
      }
      const Clock::time_point done = Clock::now();
      tally.latency_ms.push_back(MillisBetween(sent, done));
      tally.at_s.push_back(MillisBetween(begin, done) / 1e3);
      tally.cache_hits += answer->cache_hits;
      RecordAnswers(keys, *answer, &tally.answers.back());
    }
  });
}

}  // namespace recpriv::e2e
