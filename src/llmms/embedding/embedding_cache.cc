#include "llmms/embedding/embedding_cache.h"

namespace llmms::embedding {

EmbeddingCache::EmbeddingCache(std::shared_ptr<const Embedder> inner,
                               size_t capacity)
    : inner_(std::move(inner)), capacity_(capacity) {}

Vector EmbeddingCache::Embed(std::string_view text) const {
  if (capacity_ == 0) return inner_->Embed(text);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(text);
    if (it != index_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->vector;
    }
    ++misses_;
  }
  Vector vec = inner_->Embed(text);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (index_.find(text) == index_.end()) {
      lru_.push_front(Entry{std::string(text), vec});
      // The key views the node's own string: list nodes never move, and the
      // index entry is erased before its node is.
      index_.emplace(lru_.front().key, lru_.begin());
      while (lru_.size() > capacity_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
      }
    }
  }
  return vec;
}

Vector EmbeddingCache::EmbedOnce(std::string_view text) const {
  return inner_->EmbedOnce(text);
}

size_t EmbeddingCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

uint64_t EmbeddingCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t EmbeddingCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void EmbeddingCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
}

}  // namespace llmms::embedding
