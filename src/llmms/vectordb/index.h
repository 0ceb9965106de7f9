#ifndef LLMMS_VECTORDB_INDEX_H_
#define LLMMS_VECTORDB_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/vectordb/distance.h"
#include "llmms/vectordb/types.h"

namespace llmms::vectordb {

// Internal slot handle assigned by the index on insertion.
using SlotId = uint32_t;

// A search hit at the index level: (slot, distance). Smaller distance =
// closer, for every metric (see Distance()).
struct IndexHit {
  SlotId slot;
  double distance;
};

// The index tie order: distance ascending, then slot ascending.
inline bool CloserHit(const IndexHit& a, const IndexHit& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.slot < b.slot;
}

// The `limit` closest hits pushed so far, under CloserHit. A max-heap keeps
// the worst kept hit on top, so a scan costs one comparison per farther hit
// and builds no hit for it. Room for `limit` hits is reserved up front, so
// callers cap it at their live count.
class TopHits {
 public:
  explicit TopHits(size_t limit) : limit_(limit) { heap_.reserve(limit); }

  void Push(const IndexHit& hit) {
    if (heap_.size() < limit_) {
      heap_.push_back(hit);
      std::push_heap(heap_.begin(), heap_.end(), CloserHit);
    } else if (limit_ > 0 && CloserHit(hit, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), CloserHit);
      heap_.back() = hit;
      std::push_heap(heap_.begin(), heap_.end(), CloserHit);
    }
  }

  // The kept hits, closest first.
  std::vector<IndexHit> Take() && {
    std::sort(heap_.begin(), heap_.end(), CloserHit);
    return std::move(heap_);
  }

 private:
  size_t limit_;
  std::vector<IndexHit> heap_;
};

// Nearest-neighbor index over raw vectors. Implementations: FlatIndex
// (exact, brute force) and HnswIndex (approximate graph index, the
// structure Chroma/FAISS use).
//
// Concurrency contract: const methods (Search, GetVector, size) may run
// concurrently with each other but not with Add/Remove. Collection enforces
// this with a shared/exclusive lock — readers search in parallel under the
// shared lock, the single writer mutates under the exclusive one — so
// implementations must keep their const methods free of hidden shared
// mutable state.
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  // Inserts a vector and returns its slot. Fails on dimension mismatch,
  // consuming no slot. Slots are dense and never reused: the n-th
  // successful Add returns n - 1 (0, 1, 2, ...), whatever was removed
  // before it, so callers may keep per-slot state in arrays indexed by
  // slot (Collection's records, KnowledgeBase's items).
  virtual StatusOr<SlotId> Add(const Vector& vector) = 0;

  // Tombstones a slot; it no longer appears in search results and its
  // number is not handed out again.
  virtual Status Remove(SlotId slot) = 0;

  // Returns up to k nearest live slots to `query`, closest first.
  virtual StatusOr<std::vector<IndexHit>> Search(const Vector& query,
                                                 size_t k) const = 0;

  // Number of live (non-removed) vectors.
  virtual size_t size() const = 0;

  virtual size_t dimension() const = 0;
  virtual DistanceMetric metric() const = 0;

  // The stored vector of a live slot (for Collection::Get); empty for a
  // removed or unknown slot. Callers copy what they keep: the span is
  // valid only while the caller's hold on the index lasts (for
  // Collection, its lock). FlatIndex and HnswIndex view their
  // RowStore row, which never moves, so the span outlives later Adds and
  // Removes, up to the index's destruction.
  virtual std::span<const float> GetVector(SlotId slot) const = 0;
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_INDEX_H_
