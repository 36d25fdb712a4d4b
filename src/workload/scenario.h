// Scenario specifications: the typed, serializable description of one
// multi-tenant workload — which synthetic releases exist, how many client
// streams query them with what mix (dimensionality distribution,
// uniform/Zipf value skew, hot-release concentration), which clients pin
// epochs, how requests burst, and how a writer stream churns releases with
// republishes and drops.
//
// A ScenarioSpec plus its seed fully determines the generated op streams
// (workload/generator.h): scenarios are executable artifacts, not prose.
// They round-trip through JSON (ScenarioToJson/ScenarioFromJson) so a
// scenario file checked into a repo replays identically forever, and a set
// of builtin profiles covers the standard shapes (BuiltinScenario).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "workload/synthetic.h"

namespace recpriv::workload {

/// How attribute/SA values are picked when building query predicates.
enum class ValueSkew {
  kUniform,  ///< every domain value equally likely
  kZipf      ///< low-code values hot (exponent QueryMix::zipf_s)
};

/// The per-client query profile.
struct QueryMix {
  /// Weight of dimensionality d = index (0 = unconstrained COUNT per SA
  /// value, 1 = one NA condition, ...). Clipped to the release's public
  /// attribute count at generation time.
  std::vector<double> dimensionality_weights = {1.0, 2.0, 1.0};
  ValueSkew value_skew = ValueSkew::kUniform;
  double zipf_s = 1.1;  ///< skew exponent when value_skew == kZipf
};

/// The writer stream: republish/drop churn over the scenario's releases,
/// round-robin. Every `drop_every`-th op drops the target instead of
/// republishing it (the release then 404s until its next republish turn).
struct ChurnSpec {
  size_t writer_ops = 0;  ///< 0 = no writer stream
  size_t drop_every = 0;  ///< 0 = never drop
  int pacing_us = 500;    ///< pause between writer ops at run time
};

/// Multi-tenant QoS shape: which clients misbehave and under what tenant
/// id. The leading `abusive_clients` clients issue `abusive_ops_multiplier`
/// times the normal op count and ignore pacing at run time — a noisy
/// neighbor the server's per-tenant quotas (serve/admission.h) must
/// contain. Serialized as an optional "qos" object, so scenario files from
/// before this block parse unchanged.
struct QosSpec {
  size_t abusive_clients = 0;         ///< leading clients that misbehave
  size_t abusive_ops_multiplier = 4;  ///< op-count multiplier for abusers
  std::string abusive_tenant = "abuser";  ///< tenant id abusers declare
  std::string tenant;        ///< tenant id of well-behaved clients
                             ///< ("" = the server's default tenant)
  int64_t deadline_ms = 0;   ///< per-request deadline; 0 = none attached
};

/// One complete workload scenario.
struct ScenarioSpec {
  std::string name = "scenario";
  uint64_t seed = 2015;
  std::vector<SyntheticReleaseSpec> releases;
  size_t clients = 4;
  size_t ops_per_client = 50;
  size_t queries_per_request = 1;
  /// Release choice across client requests: 0 = uniform, > 0 = Zipf
  /// exponent concentrating traffic on releases[0] (hot-release tenants).
  double hot_release_zipf = 0.0;
  /// Leading fraction of clients that pin the epoch they first observe and
  /// query it for their whole stream (pin-heavy readers).
  double pinned_fraction = 0.0;
  /// Requests issued back-to-back before a `pacing_us` pause (burst
  /// arrivals when > 1).
  size_t burst_size = 1;
  int pacing_us = 0;  ///< pause between bursts at run time
  QueryMix mix;
  ChurnSpec churn;
  QosSpec qos;
};

JsonValue ScenarioToJson(const ScenarioSpec& spec);
Result<ScenarioSpec> ScenarioFromJson(const JsonValue& json);

/// File forms of the above (one pretty-printed JSON object).
Status SaveScenario(const ScenarioSpec& spec, const std::string& path);
Result<ScenarioSpec> LoadScenario(const std::string& path);

/// Names accepted by BuiltinScenario, in documentation order.
std::vector<std::string> BuiltinScenarioNames();

/// A builtin profile, reseeded with `seed`:
///   steady_uniform      uniform mix over two releases, steady arrivals
///   hot_release_zipf    Zipf-skewed values, traffic concentrated on one
///                       hot release across four tenants
///   burst_same_release  many clients bursting broad queries at one
///                       release
///   republish_churn     readers (half pinned) racing a writer that
///                       republishes and drops releases
///   pin_heavy           every reader pins its first-seen epoch under
///                       republish churn (no drops)
///   abusive_tenant      two "abuser" clients flooding a shared release at
///                       6x volume with no pacing while four "victim"
///                       clients query politely — the per-tenant quota
///                       showcase (run it with tenant_quota_qps set)
Result<ScenarioSpec> BuiltinScenario(const std::string& name,
                                     uint64_t seed = 2015);

}  // namespace recpriv::workload
