#ifndef LLMMS_VECTORDB_COLLECTION_H_
#define LLMMS_VECTORDB_COLLECTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/shared_mutex.h"
#include "llmms/common/status.h"
#include "llmms/vectordb/index.h"
#include "llmms/vectordb/types.h"

namespace llmms::vectordb {

enum class IndexKind { kFlat, kHnsw };

// A named, thread-safe set of (id, vector, metadata, document) records with
// top-k similarity queries — the Chroma "collection" abstraction — over
// one FlatIndex or HnswIndex. Upserts replace existing ids; queries support
// equality metadata filters by over-fetching from the index and
// post-filtering.
//
// Concurrency: reads (Query/Get/Contains/Ids/size) take a shared lock and
// run in parallel; mutations (Upsert/Delete) take the lock exclusively.
// The lock prefers writers, so readers that query back to back cannot
// starve an upload; no method takes it while already holding it.
class Collection {
 public:
  struct Options {
    size_t dimension = 384;
    DistanceMetric metric = DistanceMetric::kCosine;
    // The exact scan. A session holds hundreds of chunks, and up to 1,500
    // dim-384 rows bench/hnsw_recall measures it faster than an HNSW graph;
    // it is exact and needs no build (DESIGN.md §15). Ask for kHnsw for a
    // graph.
    IndexKind index_kind = IndexKind::kFlat;
    // HNSW tuning (ignored for flat collections).
    size_t hnsw_m = 16;
    size_t hnsw_ef_construction = 200;
    size_t hnsw_ef_search = 64;
    uint64_t seed = 0x48e5f1ULL;
  };

  Collection(std::string name, const Options& options);

  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;

  // Inserts or replaces the record with record.id.
  Status Upsert(VectorRecord record);

  // Removes a record; NotFound if absent.
  Status Delete(const std::string& id);

  // Fetches a record by id.
  StatusOr<VectorRecord> Get(const std::string& id) const;
  bool Contains(const std::string& id) const;

  // Returns up to k most similar records (larger score = closer), optionally
  // restricted by a metadata equality filter. Results are ordered by
  // (score desc, id asc) — a total order, so equal-scoring records at the k
  // boundary resolve by id, whatever slots the index gave them.
  StatusOr<std::vector<QueryResult>> Query(
      const Vector& query, size_t k, const MetadataFilter& filter = {}) const;

  // All live record ids (unordered).
  std::vector<std::string> Ids() const;

  size_t size() const;
  const std::string& name() const { return name_; }

  const Options& options() const { return options_; }

  // Queries served since construction (QPS gauge for /api/health).
  uint64_t query_count() const {
    return queries_.load(std::memory_order_relaxed);
  }
  // Bytes held by the live records' vectors, one copy each, in the index
  // (health gauge).
  size_t approx_vector_bytes() const;

 private:
  // One record without its vector (the index holds that copy), packed into
  // a single allocation: a header of uint32 sizes (entry count, id,
  // document, then each key and value), followed by the id, the document
  // and the metadata entries in key order. Queries filter on the packed
  // entries and build a Metadata only for the records they return. Empty
  // once its record is deleted or replaced.
  class StoredRecord {
   public:
    StoredRecord() = default;
    // InvalidArgument when the packed record would exceed 4 GiB.
    static StatusOr<StoredRecord> Pack(const VectorRecord& record);

    bool live() const { return bytes_ != nullptr; }
    std::string_view id() const;
    std::string_view document() const;
    // Whether every (key, value) pair of `filter` is among the entries.
    bool MatchesFilter(const MetadataFilter& filter) const;
    Metadata metadata() const;

   private:
    uint32_t Word(size_t i) const;
    // Where the id starts, after the header.
    const char* Payload() const;
    // Calls fn(key, value) per entry in key order until it returns false.
    template <typename Fn>
    void ForEachEntry(Fn&& fn) const;

    std::unique_ptr<char[]> bytes_;
  };

  std::unique_ptr<VectorIndex> MakeIndex() const;
  // Tombstones the record `it` names in the index and frees it; caller
  // holds the exclusive lock.
  Status RemoveLocked(
      std::unordered_map<std::string_view, SlotId>::iterator it);

  std::string name_;
  Options options_;

  mutable WriterPreferringSharedMutex mu_;
  std::unique_ptr<VectorIndex> index_;
  // Live ids; each key views the id inside its record's packed bytes, so
  // an entry is erased before its record is freed. std::hash of a view
  // equals that of the string, so the map iterates, and Ids() lists, in
  // the order a string-keyed map would.
  std::unordered_map<std::string_view, SlotId> id_to_slot_;
  // Indexed by slot: index_ assigns slots densely (VectorIndex::Add), so
  // slot i's record is records_[i], empty for a deleted slot.
  std::vector<StoredRecord> records_;
  mutable std::atomic<uint64_t> queries_{0};
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_COLLECTION_H_
