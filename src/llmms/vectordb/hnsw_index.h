#ifndef LLMMS_VECTORDB_HNSW_INDEX_H_
#define LLMMS_VECTORDB_HNSW_INDEX_H_

#include <cstdint>
#include <vector>

#include "llmms/common/rng.h"
#include "llmms/vectordb/index.h"

namespace llmms::vectordb {

// Hierarchical Navigable Small World graph index (Malkov & Yashunin, 2018) —
// the approximate-nearest-neighbor structure behind Chroma's and FAISS's
// default indexes, which the paper uses for "sub-millisecond" top-k
// retrieval (§7.1).
//
// Levels are drawn from a geometric distribution with a deterministic,
// seeded RNG; neighbor selection uses the paper's select-neighbors
// heuristic. Deleted slots are tombstoned: they still route traversals but
// never appear in results.
class HnswIndex final : public VectorIndex {
 public:
  // Largest M: a level-0 list's 2*M links must fit LinkList's counts.
  static constexpr size_t kMaxM = 32767;

  struct Options {
    // Max bidirectional links per node on levels > 0; level 0 allows 2*M.
    // Clamped to kMaxM.
    size_t M = 16;
    // Candidate-list width during construction.
    size_t ef_construction = 200;
    // Candidate-list width during search; raised automatically to k.
    size_t ef_search = 64;
    uint64_t seed = 0x48e5f1ULL;
  };

  HnswIndex(size_t dimension, DistanceMetric metric)
      : HnswIndex(dimension, metric, Options{}) {}
  HnswIndex(size_t dimension, DistanceMetric metric, const Options& options);

  StatusOr<SlotId> Add(const Vector& vector) override;
  Status Remove(SlotId slot) override;
  StatusOr<std::vector<IndexHit>> Search(const Vector& query,
                                         size_t k) const override;
  // Search with an explicit candidate-list width in place of
  // Options::ef_search (still raised to k and widened past tombstones) —
  // lets recall sweeps walk the ef axis over one built graph instead of
  // rebuilding per setting.
  StatusOr<std::vector<IndexHit>> SearchWithEf(const Vector& query, size_t k,
                                               size_t ef) const;
  size_t size() const override { return live_count_; }
  size_t dimension() const override { return dimension_; }
  DistanceMetric metric() const override { return metric_; }
  const Vector* GetVector(SlotId slot) const override;

  const Options& options() const { return options_; }
  int max_level() const { return max_level_; }
  // Slots assigned so far, tombstoned ones included.
  size_t slot_count() const { return nodes_.size(); }
  // `slot`'s adjacency lists, one per level (0..its level), in stored order;
  // lets tests pin the built graph. Requires slot < slot_count().
  std::vector<std::vector<SlotId>> links(SlotId slot) const;

 private:
  // One level's adjacency list. distances[i] is the distance from the owner
  // to links[i], kept so pruning an overflowing list needs no distance to
  // the owner. The list also keeps the split its last selection made:
  // links[0, kept) were kept and links[kept, evaluated) discarded by the
  // select-neighbors heuristic, each in (distance, slot) order, and
  // links[evaluated, size) were appended since. A list holds at most
  // 2 * kMaxM + 1 links, so the counts fit 16 bits.
  struct LinkList {
    std::vector<SlotId> links;
    std::vector<double> distances;
    uint16_t kept = 0;
    uint16_t evaluated = 0;
  };

  struct Node {
    std::vector<LinkList> levels;  // levels[l] for l in 0..the node's level
    bool removed = false;
  };

  struct Candidate {
    double distance;
    SlotId slot;
    bool operator<(const Candidate& other) const {
      if (distance != other.distance) return distance < other.distance;
      return slot < other.slot;
    }
    bool operator>(const Candidate& other) const { return other < *this; }
  };

  // Distances through the cached norms: query-to-slot and slot-to-slot.
  double Dist(const Vector& query, double query_norm, SlotId b) const;
  double Dist(SlotId a, SlotId b) const;
  int DrawLevel();

  // Greedy descent from `entry` through levels top..bottom+1, moving to a
  // closer neighbor until none is closer; returns the last slot reached.
  SlotId GreedyDescend(const Vector& query, double query_norm, SlotId entry,
                       int top, int bottom) const;

  // Greedy best-first search restricted to one level; returns up to `ef`
  // closest candidates to `query` starting from `entry`.
  std::vector<Candidate> SearchLayer(const Vector& query, double query_norm,
                                     SlotId entry, size_t ef, int level) const;

  // Select-neighbors heuristic (keeps diverse edges): replaces `out`'s
  // links with up to `m` of `candidates`, whose distances are to the node
  // being linked, and records the split.
  void SelectNeighbors(std::vector<Candidate> candidates, size_t m,
                       LinkList* out) const;
  // Re-selects `cap` of an overflowing list's links: the result of
  // SelectNeighbors over the whole list, computing only the distances whose
  // outcome the links appended since the last selection can change.
  void PruneLinks(LinkList* list, size_t cap) const;

  size_t MaxNeighbors(int level) const {
    return level == 0 ? options_.M * 2 : options_.M;
  }

  size_t dimension_;
  DistanceMetric metric_;
  Options options_;
  double level_lambda_;  // 1 / ln(M)

  std::vector<Vector> vectors_;
  std::vector<double> norms_;  // Norm(vectors_[slot]), fixed at Add
  std::vector<Node> nodes_;
  SlotId entry_point_ = 0;
  int max_level_ = -1;
  size_t live_count_ = 0;
  Rng rng_;
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_HNSW_INDEX_H_
