// ReleaseStore: the registry the serving layer reads from — named,
// versioned, immutable snapshots of published releases.
//
// Copy-on-publish: Publish() builds a fresh analysis::ReleaseSnapshot (data
// + group index + posting index) off to the side and then atomically swaps
// the name's entry under a short critical section. Readers hold
// shared_ptr<const ReleaseSnapshot>s, so a StreamingPublisher republishing
// a release never blocks in-flight query batches and never mutates data a
// reader is scanning — old epochs simply drain when their last reader drops
// the pointer. This is the paper's consumption model taken seriously: the
// user-facing artifact is an immutable perturbed table (§3.1), so serving
// it is a pointer swap, not a lock hierarchy.
//
// Epoch retention: each name keeps a bounded window of its most recent
// epochs (default kDefaultRetainedEpochs, including the current one), so a
// client that pinned an epoch mid-analysis keeps reading that exact
// snapshot across republishes — Get(name, epoch) — until the epoch ages
// out of the window. Publish never reuses an epoch number for a name, even
// across Drop + republish; OpenSnapshot, however, installs whatever epoch
// a file's manifest declares, so Drop followed by recovery or replication
// CAN legitimately reinstall a previously-used epoch number with different
// content — which is why the serving layer's answer cache keys on each
// snapshot's content digest, never on the (name, epoch) pair.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/release.h"
#include "common/random.h"
#include "common/result.h"
#include "core/streaming.h"

namespace recpriv::store {
class SnapshotImage;
}  // namespace recpriv::store

namespace recpriv::serve {

using SnapshotPtr = std::shared_ptr<const recpriv::analysis::ReleaseSnapshot>;

/// One row of List(): the serving-visible metadata of a named release.
struct ReleaseInfo {
  std::string name;
  uint64_t epoch = 0;            ///< currently served epoch
  uint64_t num_records = 0;
  uint64_t num_groups = 0;
  uint64_t retained_epochs = 1;  ///< snapshots pinnable right now
  uint64_t oldest_epoch = 0;     ///< smallest epoch still pinnable
  /// Provenance of the served snapshot (see analysis::SnapshotSource):
  /// where its data came from and what making it queryable cost.
  std::string source_kind = "memory";
  double source_open_ms = 0.0;
  double source_parse_ms = 0.0;
  double source_build_ms = 0.0;
  uint64_t source_bytes_mapped = 0;
};

/// A store mutation a listener observes (see ReleaseStore::AddListener).
struct StoreEvent {
  enum class Kind {
    kInstall,  ///< an epoch became pinnable (publish or snapshot recovery)
    kRetire,   ///< an epoch aged out of the retention window
    kDrop,     ///< the whole release was dropped (epoch = last served)
  };
  Kind kind = Kind::kInstall;
  std::string release;
  uint64_t epoch = 0;
  /// The installed snapshot (kInstall only) — handed to listeners directly
  /// so they never race the retention window to re-look it up.
  SnapshotPtr snapshot;
  /// The image layout a durable store persisted the snapshot from
  /// (kInstall from a durable publish only; null otherwise). It pins the
  /// snapshot and carries the section checksums and image digest, so a
  /// replication provider reuses them instead of laying the image out again.
  std::shared_ptr<const recpriv::store::SnapshotImage> image;
};

/// Thread-safe registry of named release snapshots.
class ReleaseStore {
 public:
  /// Epochs retained per name (including the currently served one).
  static constexpr size_t kDefaultRetainedEpochs = 4;

  struct Options {
    size_t retained_epochs = kDefaultRetainedEpochs;
    /// When non-empty the store is durable: every publish also writes a
    /// binary snapshot (store/snapshot_writer.h) under this directory,
    /// epochs evicted from the retention window have their files deleted,
    /// and RecoverFromDir() restores the whole retained window on restart.
    std::string snapshot_dir;
  };

  /// `retained_epochs` < 1 is clamped to 1 (only the current epoch).
  explicit ReleaseStore(size_t retained_epochs = kDefaultRetainedEpochs);
  explicit ReleaseStore(Options options);

  /// Publishes `bundle` under `name`. A first publication gets epoch 1;
  /// republication bumps the previous epoch and swaps the snapshot in
  /// atomically, retiring the oldest retained epoch once the window is
  /// full. Returns the snapshot that is now being served. When `info` is
  /// non-null it is filled with the name's post-publish metadata under the
  /// same critical section that installs the snapshot, so a concurrent
  /// Drop/republish cannot slip between publish and observation.
  Result<SnapshotPtr> Publish(const std::string& name,
                              recpriv::analysis::ReleaseBundle bundle,
                              ReleaseInfo* info = nullptr);

  /// Publish with explicit provenance — the path a caller takes when it
  /// already spent time acquiring the bundle (e.g. CSV parse) and wants
  /// that cost surfaced in the release's stats.
  Result<SnapshotPtr> PublishWithSource(
      const std::string& name, recpriv::analysis::ReleaseBundle bundle,
      recpriv::analysis::SnapshotSource source, ReleaseInfo* info = nullptr);

  /// Republishes from a streaming publisher: runs a full SPS snapshot of
  /// its current buffer (core::StreamingPublisher::Publish) and publishes
  /// the result under `name`. The SPS pass and indexing happen outside the
  /// store lock; concurrent readers keep the previous epoch meanwhile.
  Result<SnapshotPtr> PublishFromStreaming(
      const std::string& name,
      const recpriv::core::StreamingPublisher& publisher, Rng& rng);

  /// Incremental republish from a streaming publisher
  /// (core::StreamingPublisher::PublishIncremental): only groups touched
  /// by rows inserted since the publisher's previous incremental publish
  /// are re-run through SPS, and the next index is assembled by a
  /// two-level run merge instead of a full rebuild. The currently served
  /// snapshot of `name` (the merge's base level) is pinned for the whole
  /// merge, so a concurrent Drop or window trim cannot release it while
  /// sections derived from it are being read. Persisted snapshots are
  /// always written self-contained — the borrow is an in-memory seam only.
  /// `merge_index=false` builds the same bit-identical snapshot through
  /// the full radix-sort path (the reference arm for tests and CI). When
  /// `stats` is non-null it receives the publish's delta bookkeeping.
  Result<SnapshotPtr> PublishIncremental(
      const std::string& name, recpriv::core::StreamingPublisher& publisher,
      Rng& rng, bool merge_index = true,
      recpriv::core::IncrementalPublishStats* stats = nullptr);

  /// The current snapshot of `name`, or NotFound.
  Result<SnapshotPtr> Get(const std::string& name) const;

  /// The retained snapshot of `name` at exactly `epoch`. NotFound when the
  /// name is unknown; FailedPrecondition when the epoch is not in the
  /// retention window (aged out, never published, or not yet published) —
  /// the wire layer reports that as STALE_EPOCH.
  Result<SnapshotPtr> Get(const std::string& name, uint64_t epoch) const;

  /// Retires `name` entirely: the served snapshot and every retained
  /// epoch. Returns the dropped release's info, or NotFound. The name's
  /// epoch counter survives, so republication continues the sequence.
  Result<ReleaseInfo> Drop(const std::string& name);

  /// Metadata of `name`, or NotFound.
  Result<ReleaseInfo> Info(const std::string& name) const;

  /// Metadata of every release, name-sorted.
  std::vector<ReleaseInfo> List() const;

  /// Every retained snapshot of `name`, epoch-ascending (back() is the
  /// served one), or NotFound. The replication listing is built from this.
  Result<std::vector<SnapshotPtr>> Window(const std::string& name) const;

  /// Registers a listener for install/retire/drop events; returns a token
  /// for RemoveListener. Listeners run after the store lock is released,
  /// serialized with each other (one event's fan-out completes before the
  /// next begins). Under concurrent publishers, events of different
  /// mutations may fan out in either order — consumers needing exact state
  /// resync from Window()/List(). A listener may read the store but MUST
  /// NOT mutate the same store synchronously (it would self-deadlock on
  /// the listener lock).
  uint64_t AddListener(std::function<void(const StoreEvent&)> listener);

  /// Unregisters; blocks until any in-flight fan-out to this listener
  /// finishes, so after return the callback will never run again.
  void RemoveListener(uint64_t token);

  size_t size() const;
  size_t retained_epochs() const { return retained_; }
  const std::string& snapshot_dir() const { return snapshot_dir_; }

  /// The managed `.rps` path of (name, epoch) under snapshot_dir — where a
  /// durable store persists that epoch and where a replication follower
  /// writes a fetched image before OpenSnapshot installs it.
  /// FailedPrecondition when the store has no snapshot directory.
  Result<std::string> ManagedSnapshotPath(const std::string& name,
                                          uint64_t epoch) const;

  /// Writes the currently served snapshot of `name` to `path` in the
  /// binary snapshot format; NotFound when the name is unknown.
  Status SaveSnapshot(const std::string& name, const std::string& path) const;

  /// Opens one snapshot file and installs it under the release name and
  /// epoch recorded in its manifest (not its filename). AlreadyExists when
  /// that epoch is already installed; the name's epoch counter is advanced
  /// past the recovered epoch so future publishes never collide.
  Result<ReleaseInfo> OpenSnapshot(const std::string& path);

  /// Recovers every `*.rps` file under snapshot_dir (creating the
  /// directory if absent), first deleting the temp files a crash can leave
  /// there (`*.rps.tmp` from an atomic write, `*.rps.part` from a
  /// follower's transfer) — nothing ever resumes from them. The files are
  /// opened and fully verified in parallel (at most one thread per file
  /// and per hardware thread, all joined before return), then installed
  /// in path order in one step: all of them or none. When any file is
  /// unreadable or corrupt, or two files carry the same (release, epoch)
  /// (AlreadyExists, naming both paths), nothing is installed, no listener
  /// hears an event and no file is deleted; the error names the first
  /// failing file in path order — a durable store that silently skipped a
  /// corrupt epoch would serve different data than it persisted.
  /// FailedPrecondition when the store has no snapshot directory.
  Status RecoverFromDir();

 private:
  ReleaseInfo InfoLocked(const std::string& name,
                         const std::vector<SnapshotPtr>& window) const;
  /// The shared publish tail: persists `snap` (durable stores persist
  /// before they install), installs it into `name`'s window, fills `info`
  /// under the install's critical section, deletes evicted files, and
  /// notifies listeners. Returns the snapshot now being served.
  Result<SnapshotPtr> InstallBuilt(const std::string& name, SnapshotPtr snap,
                                   ReleaseInfo* info);
  /// The managed file path of (name, epoch) under snapshot_dir.
  std::string ManagedPath(const std::string& name, uint64_t epoch) const;
  /// Inserts `snap` into `name`'s window (epoch-sorted), trims the window,
  /// and returns the epochs retired by the trim (whose managed files, when
  /// the store is durable, should now be deleted). Caller holds mu_.
  std::vector<uint64_t> InstallLocked(const std::string& name,
                                      SnapshotPtr snap);
  /// One verified snapshot file on its way into the store.
  struct OpenedFile {
    std::string path;
    std::string release;  ///< from the manifest, never empty
    SnapshotPtr snapshot;
  };
  /// Maps and verifies `path` (store::OpenSnapshot) and rejects an empty
  /// release name. Touches no store state, so it may run on any thread.
  static Result<OpenedFile> OpenFile(const std::string& path);
  /// The one install path of OpenSnapshot and RecoverFromDir. Checks that
  /// no (release, epoch) of `files` is already installed or carried twice
  /// (AlreadyExists), and only then installs every file in order under one
  /// critical section, advancing each name's epoch counter past the file's
  /// epoch. Deletes the files of evicted epochs and notifies listeners
  /// (per file: its install, then its retires). Returns each file's
  /// post-install ReleaseInfo.
  Result<std::vector<ReleaseInfo>> InstallOpened(std::vector<OpenedFile> files);
  /// Fans `events` out to every listener, in order. Caller must NOT hold
  /// mu_ (listeners may read the store).
  void Notify(const std::vector<StoreEvent>& events) const;

  const size_t retained_;
  const std::string snapshot_dir_;
  mutable std::mutex mu_;
  /// Retained snapshots per name, epoch-ascending; back() is served.
  std::map<std::string, std::vector<SnapshotPtr>> releases_;
  /// Highest epoch ever reserved per name (>= the served snapshot's
  /// epoch); survives Drop so epochs are never reused.
  std::map<std::string, uint64_t> next_epoch_;

  /// Listener registry, under its own lock: Notify holds listeners_mu_
  /// (never mu_) while invoking callbacks, which both serializes fan-out
  /// and lets RemoveListener guarantee quiescence by acquiring it.
  mutable std::mutex listeners_mu_;
  std::map<uint64_t, std::function<void(const StoreEvent&)>> listeners_;
  uint64_t next_listener_token_ = 0;
};

}  // namespace recpriv::serve
