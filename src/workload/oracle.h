// Answer oracle: re-derives what every workload response MUST have been.
//
// The driver registers each published snapshot (the store hands back the
// exact immutable ReleaseSnapshot it now serves), so for any response the
// oracle can look up the snapshot of the answered (release, epoch), bind
// the request's string-level QuerySpecs against that snapshot's schema,
// and recompute each answer with the engine's reference evaluator
// (serve::EvaluateUncached). The comparison is BIT-exact on (observed,
// matched_size, estimate) — serving, transport, caching, and admission
// must all be answer-preserving, and any
// divergence under concurrency or churn is a mismatch, not noise.
//
// Publish never reuses an epoch per name (serve/release_store.h), so
// within one driver run a registered (release, epoch) key is unambiguous.
// (Drop + OpenSnapshot can reinstall an old epoch number, but the driver
// recovers snapshots before any of its own publishes — never mid-run.)
//
// For incrementally merged snapshots, Register alone would verify the
// serving stack against the SAME merged index that produced the answers —
// a correct merge and a wrong-but-consistent merge would both pass.
// RegisterRebuilt closes that hole: it re-indexes the snapshot's table
// from scratch through the full radix-sort build, so verification pits
// the merge path against an independently constructed reference.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "client/api.h"
#include "serve/release_store.h"

namespace recpriv::workload {

/// Thread-safe registry + verifier of served snapshots.
class Oracle {
 public:
  enum class Verdict {
    kVerified,     ///< every row matched the recomputation bit-for-bit
    kMismatch,     ///< at least one row diverged (details in *detail)
    kUnknownEpoch  ///< the answered epoch was never registered
  };

  /// Records the snapshot now served for its release/epoch. Called by the
  /// driver under the same ordering as the publishes themselves. First
  /// registration of a (release, epoch) wins — later calls are no-ops
  /// (within a run the pair names one immutable snapshot).
  void Register(const std::string& release, serve::SnapshotPtr snap);

  /// Registers an independently rebuilt twin of `snap`: same data, same
  /// epoch, but the group index reconstructed from the snapshot's table by
  /// the full radix-sort build — the reference an incrementally merged
  /// index must agree with bit-for-bit (see file comment). Falls back to
  /// registering `snap` itself if the rebuild fails.
  void RegisterRebuilt(const std::string& release,
                       const serve::SnapshotPtr& snap);

  /// Verifies one answered batch against the snapshot it claims to have
  /// been served from. `specs` are the request's queries, parallel to
  /// `answer.answers`. On kMismatch, `detail` (when non-null) receives a
  /// human-readable description of the first diverging row.
  Verdict Verify(const std::string& release,
                 const std::vector<recpriv::client::QuerySpec>& specs,
                 const recpriv::client::BatchAnswer& answer,
                 std::string* detail = nullptr) const;

  /// Number of registered snapshots (across all releases and epochs).
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::pair<std::string, uint64_t>, serve::SnapshotPtr> snapshots_;
};

}  // namespace recpriv::workload
