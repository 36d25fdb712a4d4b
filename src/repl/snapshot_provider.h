// SnapshotProvider: snapshot images for the replication wire.
//
// The primary's subscribe/fetch_snapshot ops need the `.rps` image of a
// (release, epoch) — exactly the bytes store::WriteSnapshot persists —
// plus its content digest. The provider hands out store::SnapshotImage
// layouts: small per-epoch entries that pin their snapshot and read the
// image straight from its arrays, so no image is ever copied whole onto
// the heap, and a fetch never depends on a file a retire may delete. Laying
// an image out costs one checksum pass and one digest pass over it, and
// one publish typically triggers several consumers (the pushed event's
// digest, then one fetch per follower), so the provider remembers the
// layouts of a few recent epochs keyed by (release, epoch). A durable
// store's publish hands over the layout it already persisted from
// (StoreEvent::image), so those passes run once per epoch. Epochs are
// immutable and never reused (serve/release_store.h), which makes the
// cache safe: a (release, epoch) key can only ever map to one image.
//
// Memory: an entry holds no image bytes, only its snapshot alive — at most
// cache_entries snapshots, which are normally still inside the store's own
// retention window.
//
// Thread-safe; shared by the server's store listener (which fills the
// cache via Pack at publish time) and the per-session fetch handlers.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/result.h"
#include "serve/release_store.h"
#include "store/snapshot_writer.h"

namespace recpriv::repl {

class SnapshotProvider {
 public:
  /// Layouts remembered at once; the default covers the common fleet
  /// pattern of several followers fetching the same just-published epoch.
  static constexpr size_t kDefaultCacheEntries = 4;

  /// An epoch's image layout; it pins the snapshot it reads from.
  using Image = std::shared_ptr<const store::SnapshotImage>;

  explicit SnapshotProvider(const serve::ReleaseStore& store,
                            size_t cache_entries = kDefaultCacheEntries);

  /// The image of (release, epoch), from cache or by looking the epoch up
  /// in the store and laying it out. NotFound / FailedPrecondition
  /// propagate from the store when the release or epoch is gone.
  Result<Image> Get(const std::string& release, uint64_t epoch);

  /// The image of a snapshot the caller already holds (the publish
  /// listener's path) — no store lookup, so it cannot race the retention
  /// window. `image`, when non-null, is the layout the store already
  /// persisted `snap` from, adopted as is.
  Result<Image> Pack(const std::string& release, serve::SnapshotPtr snap,
                     Image image = nullptr);

 private:
  using Key = std::pair<std::string, uint64_t>;

  /// Cache lookup; promotes a hit to most-recently-used. Caller holds mu_.
  Image FindLocked(const Key& key);

  const serve::ReleaseStore& store_;
  const size_t cache_entries_;
  std::mutex mu_;
  /// MRU-first; small enough that linear scans beat a map.
  std::list<std::pair<Key, Image>> cache_;
};

}  // namespace recpriv::repl
