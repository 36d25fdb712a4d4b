// Self-describing releases: a published CSV plus a JSON manifest recording
// everything a consumer needs to reconstruct correctly — the mechanism
// parameters (p, m), the privacy specification (lambda, delta), the
// sensitive attribute, and the generalization mapping that was applied.
//
// Without the manifest a consumer must be told p and m out of band; with
// it, `LoadRelease` + `Reconstructor` is a complete analyst toolchain.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "analysis/reconstructor.h"
#include "common/json.h"
#include "common/result.h"
#include "core/generalization.h"
#include "core/reconstruction_privacy.h"
#include "perturb/uniform_perturbation.h"
#include "table/flat_group_index.h"
#include "table/table.h"

namespace recpriv::analysis {

/// Everything shipped to the consumer.
struct ReleaseBundle {
  recpriv::table::Table data;
  recpriv::core::PrivacyParams params;
  std::string sensitive_attribute;
  /// Generalized value names per attribute (empty when no generalization
  /// was applied): generalization[attr] lists the merged-value labels.
  std::vector<std::vector<std::string>> generalization;
};

/// Writes `bundle.data` to `<basename>.csv` and the manifest to
/// `<basename>.manifest.json`.
Status WriteRelease(const ReleaseBundle& bundle, const std::string& basename);

/// Loads a release written by WriteRelease. Errors when the manifest and
/// CSV disagree (schema arity, SA name, SA domain size).
Result<ReleaseBundle> LoadRelease(const std::string& basename);

/// Builds the manifest JSON (exposed for tests and for embedding).
recpriv::JsonValue BuildManifest(const ReleaseBundle& bundle);

/// Convenience: a Reconstructor configured from a loaded bundle.
Result<Reconstructor> MakeReconstructor(const ReleaseBundle& bundle);

/// Provenance of a served snapshot: where its data came from and how long
/// each stage of making it queryable took. Surfaced through the serving
/// layer's `stats` op so an operator can see, per release, whether it was
/// built from memory, parsed from CSV, or mapped from a binary snapshot.
struct SnapshotSource {
  /// "memory" (published in-process), "csv" (LoadRelease), "snapshot"
  /// (mmap'd from a persisted .rps file — see src/store/), or
  /// "incremental" (delta-merge republish — ReleaseStore::PublishIncremental).
  std::string kind = "memory";
  /// The whole open of a "snapshot": map, verify, decode, then assemble
  /// (so it includes the posting build that build_ms also reports).
  double open_ms = 0.0;
  double parse_ms = 0.0;  ///< CSV + manifest parse ("csv")
  double build_ms = 0.0;  ///< group-index and/or posting-index build
  uint64_t bytes_mapped = 0;  ///< mmap'd bytes kept alive ("snapshot")
};

/// An immutable, query-ready view of one published release: the bundle plus
/// its columnar personal-group index and posting index, built once at
/// publish time and shared (via shared_ptr<const>) by every concurrent
/// reader. The group index is built over the *perturbed* release table, so
/// its per-group SA histograms are exactly the observed counts O* a
/// consumer reconstructs from (Lemma 2). `epoch` distinguishes
/// republications of the same named release — the serving layer keys its
/// answer cache on it.
struct ReleaseSnapshot {
  ReleaseSnapshot(ReleaseBundle bundle_in, uint64_t epoch_in)
      : bundle(std::move(bundle_in)), epoch(epoch_in) {}
  /// Non-copyable and non-movable: `postings` refers to `index` by address,
  /// so a snapshot must stay at the address it was built at — it is only
  /// ever handled through a stable shared_ptr.
  ReleaseSnapshot(const ReleaseSnapshot&) = delete;
  ReleaseSnapshot& operator=(const ReleaseSnapshot&) = delete;

  ReleaseBundle bundle;
  recpriv::table::FlatGroupIndex index;
  std::unique_ptr<const recpriv::table::GroupPostingIndex> postings;
  /// The release's perturbation operator (p, m), validated once at
  /// snapshot time so per-answer reconstruction never re-validates.
  recpriv::perturb::UniformPerturbation up{0.5, 2};
  uint64_t epoch = 0;
  /// XXH64 chained over the answer-determining content: the index's
  /// storage sections plus (p, m). Two snapshots answer every count query
  /// identically iff these agree, so the serving layer keys its answer
  /// cache on this instead of the epoch number — an epoch number can be
  /// reused with different data (Drop followed by OpenSnapshot of a
  /// same-epoch file, e.g. via replication or restart recovery), and a
  /// digest-keyed cache can never serve answers from the dropped data.
  uint64_t content_digest = 0;
  SnapshotSource source;
  /// Keepalive for storage `index` borrows instead of owning — an mmap'd
  /// snapshot file, type-erased so this layer needs no dependency on the
  /// store. Null when the index owns its arrays.
  std::shared_ptr<const void> backing;
};

/// Builds a snapshot: validates the bundle's params against its schema,
/// indexes the release table, and freezes everything behind a const
/// pointer. `source` carries provenance already accrued by the caller
/// (e.g. CSV parse time); index build time is added to its build_ms.
Result<std::shared_ptr<const ReleaseSnapshot>> SnapshotRelease(
    ReleaseBundle bundle, uint64_t epoch, SnapshotSource source = {});

/// Assembles a snapshot around an already-built index (the store's open
/// path hands in one reconstructed over mmap'd storage): validates the
/// bundle's params, builds the posting index (adding its cost to
/// source.build_ms), and freezes everything behind a const pointer.
/// `backing` must keep any memory `index` borrows alive.
Result<std::shared_ptr<const ReleaseSnapshot>> AssembleSnapshot(
    ReleaseBundle bundle, uint64_t epoch, recpriv::table::FlatGroupIndex index,
    SnapshotSource source, std::shared_ptr<const void> backing = nullptr);

}  // namespace recpriv::analysis
