// Load generation over loopback TCP: seeded open-loop schedules (Poisson
// arrivals dealt round-robin to synchronous connections, latency timed
// from each request's due time) and closed-loop saturation phases, both
// through the real client (client::LineProtocolClient over TcpTransport).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/line_protocol_client.h"
#include "common/result.h"
#include "e2e.h"

namespace recpriv::e2e {

/// One request of an open-loop schedule.
struct PlannedRequest {
  Clock::duration due{};  ///< offset from the phase start
  std::vector<uint64_t> keys;
};
using ConnectionPlan = std::vector<PlannedRequest>;

/// Poisson arrivals at `rate_rps` over `seconds`, dealt round-robin to
/// `connections` plans; each request carries `queries_per_request` keys.
/// Arrivals and queries draw from separate streams so the schedule and the
/// mix vary independently with the seed.
std::vector<ConnectionPlan> PlanOpenLoop(const QueryMix& mix,
                                         size_t connections,
                                         size_t queries_per_request,
                                         double rate_rps, double seconds,
                                         Rng& arrivals, Rng& queries);

/// What one phase produced, summed over its connections.
struct PhaseTally {
  std::vector<double> latency_ms;  ///< answered requests only
  /// Parallel to latency_ms: seconds from the phase start to the request's
  /// due time (open loop) or to its answer (closed loop).
  std::vector<double> at_s;
  std::vector<double> late_ms;     ///< wake-up lateness on idle connections
  uint64_t requests = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t cache_hits = 0;
  double seconds = 0.0;  ///< phase wall time
  AnswerLog answers;
  std::vector<std::string> errors;  ///< first few failures

  void Merge(PhaseTally&& other);
  void CountFailure(const Status& status);
};

/// A fixed set of client connections to one server.
class TcpLoad {
 public:
  static Result<TcpLoad> Connect(uint16_t port, size_t connections);

  /// Runs one open-loop phase: connection c walks plan[c], waiting for each
  /// request's due time (never early), one request in flight at a time.
  PhaseTally RunOpen(const std::vector<ConnectionPlan>& plan,
                     const QueryMix& mix);

  /// Runs one closed-loop phase of `seconds`: every connection sends its
  /// next request as soon as the previous answer arrives.
  PhaseTally RunClosed(const QueryMix& mix, size_t queries_per_request,
                       double seconds, Rng& queries);

 private:
  std::vector<std::unique_ptr<client::LineProtocolClient>> clients_;
};

}  // namespace recpriv::e2e
