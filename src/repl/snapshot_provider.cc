#include "repl/snapshot_provider.h"

#include <algorithm>

namespace recpriv::repl {

SnapshotProvider::SnapshotProvider(const serve::ReleaseStore& store,
                                   size_t cache_entries)
    : store_(store), cache_entries_(std::max<size_t>(cache_entries, 1)) {}

SnapshotProvider::Image SnapshotProvider::FindLocked(const Key& key) {
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->first == key) {
      cache_.splice(cache_.begin(), cache_, it);
      return cache_.front().second;
    }
  }
  return nullptr;
}

Result<SnapshotProvider::Image> SnapshotProvider::Get(
    const std::string& release, uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (Image hit = FindLocked({release, epoch})) return hit;
  }
  RECPRIV_ASSIGN_OR_RETURN(serve::SnapshotPtr snap,
                           store_.Get(release, epoch));
  return Pack(release, std::move(snap));
}

Result<SnapshotProvider::Image> SnapshotProvider::Pack(
    const std::string& release, serve::SnapshotPtr snap, Image image) {
  Key key{release, snap->epoch};
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (Image hit = FindLocked(key)) return hit;
  }
  if (image == nullptr) {
    // Lay out outside the cache lock — concurrent fetches of two different
    // epochs shouldn't serialize each other. A duplicate miss for the same
    // key just lays out twice; the first insert wins below.
    RECPRIV_ASSIGN_OR_RETURN(
        image, store::SnapshotImage::Make(*snap, release, snap));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (Image hit = FindLocked(key)) return hit;
  cache_.emplace_front(std::move(key), image);
  while (cache_.size() > cache_entries_) cache_.pop_back();
  return image;
}

}  // namespace recpriv::repl
