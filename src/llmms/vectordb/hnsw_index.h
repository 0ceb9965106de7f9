#ifndef LLMMS_VECTORDB_HNSW_INDEX_H_
#define LLMMS_VECTORDB_HNSW_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "llmms/common/rng.h"
#include "llmms/vectordb/index.h"
#include "llmms/vectordb/row_store.h"

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
//
// Storage: the rows sit in a RowStore. Each node's level-0 list sits in
// fixed-stride records with room for 2*M + 1 links and distances, so a
// node on level 0 alone makes no allocation of its own; a node with upper
// levels (about 1 in M) gets one pair of arrays holding them all.
class HnswIndex final : public VectorIndex {
 public:
  // Largest M. It bounds a node's level-0 record (2*M + 1 links and
  // distances).
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
  size_t size() const override { return rows_.live_count(); }
  size_t dimension() const override { return rows_.dimension(); }
  DistanceMetric metric() const override { return metric_; }
  std::span<const float> GetVector(SlotId slot) const override {
    return rows_.Get(slot);
  }

  const Options& options() const { return options_; }
  int max_level() const { return max_level_; }
  // Slots assigned so far, tombstoned ones included.
  size_t slot_count() const { return rows_.slot_count(); }
  // `slot`'s adjacency lists, one per level (0..its level), in stored order;
  // lets tests pin the built graph. Requires slot < slot_count().
  std::vector<std::vector<SlotId>> links(SlotId slot) const;

 private:
  // A view of one level's adjacency list in the link records: `words`
  // holds the size, kept and evaluated counts and then the links, and
  // distances[i] is the distance from the owner to link i, kept so pruning
  // an overflowing list needs no distance to the owner. The counts keep
  // the split the last selection made: links[0, kept) were kept and
  // links[kept, evaluated) discarded by the select-neighbors heuristic,
  // each in (distance, slot) order, and links[evaluated, size) were
  // appended since. A record has room for MaxNeighbors(level) + 1 links:
  // a list overflows by one reverse edge before it is pruned.
  class LinkList {
   public:
    // The words before the links, and their count.
    enum Word : size_t { kSize, kKept, kEvaluated, kHeaderWords };

    LinkList(uint32_t* words, double* distances)
        : words_(words), distances_(distances) {}

    // The links of the list whose words start at `words`.
    static std::span<const SlotId> LinksAt(const uint32_t* words) {
      return {words + kHeaderWords, words[kSize]};
    }

    size_t size() const { return words_[kSize]; }
    size_t kept() const { return words_[kKept]; }
    size_t evaluated() const { return words_[kEvaluated]; }
    SlotId link(size_t i) const { return words_[kHeaderWords + i]; }
    double distance(size_t i) const { return distances_[i]; }

    void Clear() { words_[kSize] = 0; }
    void Push(SlotId slot, double distance) {
      const uint32_t n = words_[kSize];
      words_[kHeaderWords + n] = slot;
      distances_[n] = distance;
      words_[kSize] = n + 1;
    }
    // Records the links pushed so far as the kept, then the evaluated, ones.
    void MarkKept() { words_[kKept] = words_[kSize]; }
    void MarkEvaluated() { words_[kEvaluated] = words_[kSize]; }

   private:
    uint32_t* words_;
    double* distances_;
  };

  // A node's lists on levels 1..levels: record l - 1 of each array, with
  // room for M + 1 links and distances per level.
  struct UpperLevels {
    uint32_t levels;
    std::unique_ptr<uint32_t[]> words;
    std::unique_ptr<double[]> distances;
  };

  // A node's level-0 record opens with one header word, the node's index
  // in upper_ (kNoUpper when it has no upper levels); its level-0 list's
  // words follow.
  static constexpr size_t kNodeHeaderWords = 1;
  static constexpr uint32_t kNoUpper = UINT32_MAX;

  struct Candidate {
    double distance;
    SlotId slot;
    bool operator<(const Candidate& other) const {
      if (distance != other.distance) return distance < other.distance;
      return slot < other.slot;
    }
    bool operator>(const Candidate& other) const { return other < *this; }
  };

  // Distances through the stored norms: query-to-slot and slot-to-slot.
  double Dist(std::span<const float> query, double query_norm,
              SlotId b) const;
  double Dist(SlotId a, SlotId b) const;
  int DrawLevel();

  uint32_t UpperIndex(SlotId slot) const { return level0_words_[slot][0]; }
  // The node's highest level.
  int Level(SlotId slot) const;
  // `slot`'s list on `level`, which must be at most Level(slot): its links
  // for reading, or the whole list for linking.
  std::span<const SlotId> Links(SlotId slot, int level) const;
  LinkList List(SlotId slot, int level);

  // Greedy descent from `entry` through levels top..bottom+1, moving to a
  // closer neighbor until none is closer; returns the last slot reached.
  SlotId GreedyDescend(std::span<const float> query, double query_norm,
                       SlotId entry, int top, int bottom) const;

  // Greedy best-first search restricted to one level; returns up to `ef`
  // closest candidates to `query` starting from `entry`.
  std::vector<Candidate> SearchLayer(std::span<const float> query,
                                     double query_norm, SlotId entry,
                                     size_t ef, int level) const;

  // Select-neighbors heuristic (keeps diverse edges): replaces `out`'s
  // links with up to `m` of `candidates`, whose distances are to the node
  // being linked, and records the split.
  void SelectNeighbors(std::vector<Candidate> candidates, size_t m,
                       LinkList out) const;
  // Re-selects `cap` of an overflowing list's links: the result of
  // SelectNeighbors over the whole list, computing only the distances whose
  // outcome the links appended since the last selection can change.
  void PruneLinks(LinkList list, size_t cap) const;

  size_t MaxNeighbors(int level) const {
    return level == 0 ? options_.M * 2 : options_.M;
  }

  // Words and distances in one upper-level record.
  size_t UpperWords() const { return LinkList::kHeaderWords + options_.M + 1; }
  size_t UpperDistances() const { return options_.M + 1; }

  DistanceMetric metric_;
  Options options_;
  double level_lambda_;  // 1 / ln(M)

  RowStore rows_;
  // One record per slot: the node header, then its level-0 list's words
  // (kNodeHeaderWords + LinkList::kHeaderWords + 2*M + 1), and beside it
  // the list's 2*M + 1 distances.
  FixedBlocks<uint32_t> level0_words_;
  FixedBlocks<double> level0_distances_;
  // The nodes above level 0, in slot order.
  std::vector<UpperLevels> upper_;
  SlotId entry_point_ = 0;
  int max_level_ = -1;
  Rng rng_;
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_HNSW_INDEX_H_
