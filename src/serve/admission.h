// Per-tenant token-bucket admission for the serving layer.
//
// Every query batch is accounted against a tenant (a client-declared
// string; legacy/undeclared sessions share the "default" tenant). Each
// tenant owns one token bucket: `quota_qps` tokens per second of refill,
// capped at `quota_burst` tokens of depth, one token per query. A batch
// whose tenant has too few tokens is rejected with RESOURCE_EXHAUSTED
// before it touches the engine pool, so one abusive tenant exhausts its
// own bucket — not the shared workers or cache.
//
// The controller lives on the QueryEngine (built iff a quota is
// configured), so the wire front end and in-process clients share one
// admission decision — the same discipline as the answer cache.
// The tenant map is bounded: past `max_tenants` distinct names, new
// tenants share one "(other)" bucket, so a peer inventing tenant names
// cannot grow server memory (the same rule serve/server.h applies to
// per-op metric keys).

#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>

#include "client/api.h"

namespace recpriv::serve {

/// The tenant every request without a declared tenant is accounted to.
inline constexpr const char* kDefaultTenant = "default";

/// The shared bucket once max_tenants distinct names exist.
inline constexpr const char* kOverflowTenant = "(other)";

struct AdmissionOptions {
  double quota_qps = 0.0;    ///< bucket refill, queries per second (> 0)
  double quota_burst = 0.0;  ///< bucket depth; <= 0 means max(quota_qps, 1)
  size_t max_tenants = 64;   ///< distinct buckets before "(other)" sharing
};

/// Thread-safe per-tenant token buckets plus admit/reject/shed counters.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Charges `queries` tokens (at least one) against `tenant`'s bucket.
  /// True = admitted (tokens taken); false = over quota (reject counted).
  bool Admit(const std::string& tenant, size_t queries);

  /// Counts a batch fast-failed past its deadline against `tenant`.
  void CountShed(const std::string& tenant);

  /// Point-in-time counters for the wire "tenants" stats section.
  client::TenantStats Stats() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last_refill;
    client::TenantCounters counters;
  };

  /// Resolves (creating if room) the bucket for `tenant`; requires mu_.
  Bucket& BucketFor(const std::string& tenant);

  AdmissionOptions options_;
  double burst_;  ///< resolved bucket depth
  mutable std::mutex mu_;
  std::map<std::string, Bucket> buckets_;
};

}  // namespace recpriv::serve
