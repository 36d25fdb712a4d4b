#include "serve/answer_cache.h"

namespace recpriv::serve {

bool AnswerCache::Lookup(const std::string& key, CachedAnswer* out) {
  if (capacity_ == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->second;
  ++hits_;
  return true;
}

void AnswerCache::Insert(const std::string& key, const CachedAnswer& value) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, value);
  map_.emplace(lru_.front().first, lru_.begin());
  while (lru_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void AnswerCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
}

size_t AnswerCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

uint64_t AnswerCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t AnswerCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace recpriv::serve
