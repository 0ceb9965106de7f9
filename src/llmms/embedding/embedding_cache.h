#ifndef LLMMS_EMBEDDING_EMBEDDING_CACHE_H_
#define LLMMS_EMBEDDING_EMBEDDING_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "llmms/embedding/embedder.h"

namespace llmms::embedding {

// Thread-safe LRU cache in front of an Embedder, for texts that come back
// across requests: memory-graph recall, the evaluation's reference answers
// and the router's and agents' texts. The orchestrators no longer go
// through it: a QueryRun embeds its prompt and responses itself and holds
// them for the query only, and the knowledge base resolves each prompt
// once in its own memo (DESIGN.md §5, §15).
//
// Embed caches what may be embedded again. EmbedOnce goes around the cache:
// it neither looks up nor stores, and leaves hits(), misses() and size()
// unchanged. Uploaded document chunks (whose vectors the vector index
// holds) and scoring texts use it because they are not embedded again.
// Retrieval questions use it although they repeat: re-embedding a short
// question costs less than holding it (DESIGN.md §15).
class EmbeddingCache final : public Embedder {
 public:
  // `inner` must outlive the cache. `capacity` is the max number of cached
  // texts; 0 disables caching.
  EmbeddingCache(std::shared_ptr<const Embedder> inner, size_t capacity);

  Vector Embed(std::string_view text) const override;
  Vector EmbedOnce(std::string_view text) const override;
  size_t dimension() const override { return inner_->dimension(); }
  std::string name() const override { return inner_->name() + "+lru"; }

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;
  void Clear();

 private:
  struct Entry {
    std::string key;
    Vector vector;
  };

  std::shared_ptr<const Embedder> inner_;
  size_t capacity_;

  mutable std::mutex mu_;
  mutable std::list<Entry> lru_;  // front = most recent
  // Keyed by a view of the entry's own `key`, so each text is held once.
  mutable std::unordered_map<std::string_view, std::list<Entry>::iterator>
      index_;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
};

}  // namespace llmms::embedding

#endif  // LLMMS_EMBEDDING_EMBEDDING_CACHE_H_
