// Shared types of the served-path end-to-end benchmark (bench_e2e).
//
// The benchmark hosts the real serving stack in-process (ReleaseStore +
// QueryEngine + serve::Server on loopback TCP, plus a repl::Replicator
// follower where a workload needs one), drives one named workload with
// seeded load, verifies every answer after the timed phases, and reports
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
// README.md explains the workloads, the metrics and how to run them.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "client/api.h"
#include "common/random.h"
#include "table/schema.h"
#include "workload/oracle.h"

namespace recpriv::e2e {

using Clock = std::chrono::steady_clock;

/// The one release every workload serves.
inline constexpr const char* kRelease = "census";

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- metrics -------------------------------------------------------------

/// One reported number. `better` is "lower"/"higher" for metrics a
/// regression check reads, empty for informational ones.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string better;
  uint64_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

/// Nearest-rank percentile (rank = ceil(p * n)) of `v`, which is sorted in
/// place. 0 for an empty sample.
double NearestRank(std::vector<double>& v, double p);

/// Samples strictly above the nearest-rank `p` percentile of n samples: a
/// percentile is reported as valid only with at least ten beyond it.
size_t SamplesBeyond(size_t n, double p);

/// Median of `v` (nearest-rank p50); sorts in place.
inline double Median(std::vector<double>& v) { return NearestRank(v, 0.5); }

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& v);

/// Splits `values` into the whole time windows of `window_s` that fit in
/// [0, span_s), by the times in the parallel `at_s`. Medians over windows
/// keep a transient disturbance on a shared host from moving a whole run.
std::vector<std::vector<double>> SplitWindows(const std::vector<double>& at_s,
                                              const std::vector<double>& values,
                                              double window_s, double span_s);

/// Peak resident set size of this process (VmHWM) in MB.
double PeakRssMb();

// --- seeds ---------------------------------------------------------------

/// Every random stream of a run, forked in a fixed order from the one
/// --seed, so the same seed gives the same data, perturbation, queries,
/// arrival schedule and delta rows.
struct Streams {
  explicit Streams(uint64_t seed);
  Rng data;
  Rng sps;
  Rng queries;
  Rng arrivals;
  Rng delta;
  Rng probe;  ///< fingerprint queries and the traced publish-path probe
};

// --- queries -------------------------------------------------------------

/// A count query as one integer: for every public attribute its code + 1
/// (0 = unbound), then the SA code, in mixed radix over the domain sizes.
/// Recording answers by key keeps the post-phase verification log compact.
class QueryMix {
 public:
  /// `dim_weights[d]` weighs dimensionality d (distinct public attributes
  /// drawn uniformly); values and SA are Zipf(`zipf_s`) over each domain in
  /// code order, uniform when `zipf_s` is 0.
  QueryMix(const table::Schema& schema, const std::vector<double>& dim_weights,
           double zipf_s);

  uint64_t Draw(Rng& rng) const;
  client::QuerySpec Spec(uint64_t key) const;
  size_t Dimensionality(uint64_t key) const;

 private:
  struct Attr {
    std::string name;
    std::vector<std::string> values;
  };
  std::vector<Attr> attrs_;             ///< public attributes, schema order
  std::vector<std::string> sa_values_;  ///< SA domain, code order
  std::vector<AliasSampler> value_samplers_;
  AliasSampler sa_sampler_;
  AliasSampler dim_sampler_;
};

// --- verification ----------------------------------------------------------

/// One answered query, recorded for verification after the timed phases.
struct AnswerRecord {
  uint64_t key = 0;
  uint64_t epoch = 0;
  uint64_t observed = 0;
  uint64_t matched = 0;
  double estimate = 0.0;
};

/// Recorded answers, one chunk per connection and phase. Chunks are moved,
/// never copied, so the log's memory follows the answers recorded.
using AnswerLog = std::vector<std::vector<AnswerRecord>>;

/// Concatenates the chunks, releasing each one as it is copied.
std::vector<AnswerRecord> Flatten(AnswerLog log);

/// Appends one record per answered row of `answer` (parallel to `keys`).
void RecordAnswers(const std::vector<uint64_t>& keys,
                   const client::BatchAnswer& answer,
                   std::vector<AnswerRecord>* out);

/// Outcome of verifying a set of records.
struct Verification {
  uint64_t verified = 0;
  uint64_t mismatches = 0;
  uint64_t unknown_epochs = 0;
  std::vector<std::string> details;  ///< first few failures, human-readable

  void Merge(const Verification& other);
  bool clean() const { return mismatches == 0 && unknown_epochs == 0; }
};

/// Verifies every record against `oracle`: each distinct (epoch, key) is
/// recomputed once by the oracle's reference evaluator, and every record of
/// that pair must equal it bit for bit. Runs on a few threads.
Verification VerifyRecords(const workload::Oracle& oracle, const QueryMix& mix,
                           std::vector<AnswerRecord> records);

}  // namespace recpriv::e2e
