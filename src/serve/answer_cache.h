// Thread-safe LRU cache of count-query answers.
//
// Keys are release-name + snapshot content digest + canonical query bytes
// (see query/canonical.h and analysis::ReleaseSnapshot::content_digest), so
// a republished release invalidates implicitly: its content digest changes,
// every new lookup misses, and the stale snapshot's entries age out of the
// LRU tail without any explicit flush. The digest — not the epoch number —
// is what identifies a snapshot's answers: Drop + OpenSnapshot can
// reinstall a previously-used epoch with different content, which an
// epoch-keyed cache would silently answer from the dropped data. Repeated
// queries against a stable release are O(1) — the property the paper's
// consumption model makes possible, because a published release is
// immutable and an answer over it never goes stale.

#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace recpriv::serve {

/// One cached answer: the observed perturbed count over the matching
/// groups, the matched release size |S*|, and the MLE count estimate.
struct CachedAnswer {
  uint64_t observed = 0;
  uint64_t matched_size = 0;
  double estimate = 0.0;
};

/// Mutex-guarded LRU map; capacity 0 disables caching entirely.
class AnswerCache {
 public:
  explicit AnswerCache(size_t capacity) : capacity_(capacity) {}

  /// On hit, fills `out`, promotes the entry to most-recently-used, and
  /// counts a hit; on miss counts a miss.
  bool Lookup(const std::string& key, CachedAnswer* out);

  /// Inserts or refreshes `key`, evicting least-recently-used entries past
  /// capacity.
  void Insert(const std::string& key, const CachedAnswer& value);

  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  using Entry = std::pair<std::string, CachedAnswer>;

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recent
  /// Keyed by views of the keys the list entries own, so each key is
  /// stored once: list nodes never move, and an index entry is erased
  /// before its node.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace recpriv::serve
