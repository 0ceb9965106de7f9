#ifndef LLMMS_VECTORDB_COLLECTION_H_
#define LLMMS_VECTORDB_COLLECTION_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/shared_mutex.h"
#include "llmms/common/status.h"
#include "llmms/vectordb/index.h"
#include "llmms/vectordb/quantizer.h"
#include "llmms/vectordb/types.h"

namespace llmms::vectordb {

enum class IndexKind { kFlat, kHnsw };

// The query/mutation surface shared by Collection (one shard) and
// ShardedCollection (hash-partitioned fan-out over Collections), so the RAG
// layer and the database registry compose over either without caring how
// the records are placed.
class CollectionBase {
 public:
  virtual ~CollectionBase() = default;

  // Inserts or replaces the record with record.id.
  virtual Status Upsert(VectorRecord record) = 0;
  virtual Status UpsertBatch(std::vector<VectorRecord> records) = 0;

  // Removes a record; NotFound if absent.
  virtual Status Delete(const std::string& id) = 0;

  // Fetches a record by id.
  virtual StatusOr<VectorRecord> Get(const std::string& id) const = 0;
  virtual bool Contains(const std::string& id) const = 0;

  // Returns up to k most similar records (larger score = closer), optionally
  // restricted by a metadata equality filter. Results are ordered by
  // (score desc, id asc) — a total order, so equal-scoring records at the k
  // boundary resolve identically however the data is sharded.
  virtual StatusOr<std::vector<QueryResult>> Query(
      const Vector& query, size_t k, const MetadataFilter& filter = {}) const = 0;

  // All live record ids (unordered).
  virtual std::vector<std::string> Ids() const = 0;

  virtual size_t size() const = 0;
  virtual const std::string& name() const = 0;
};

// A named, thread-safe set of (id, vector, metadata, document) records with
// top-k similarity queries — the Chroma "collection" abstraction. Upserts
// replace existing ids; queries support equality metadata filters by
// over-fetching from the index and post-filtering.
//
// Concurrency: reads (Query/Get/Contains/Ids/size) take a shared lock and
// run in parallel; mutations (Upsert/Delete) take the lock exclusively.
// The lock prefers writers, so readers that query back to back cannot
// starve an upload; no method takes it while already holding it.
class Collection final : public CollectionBase {
 public:
  // Opt-in two-stage retrieval: once `train_size` records exist, a
  // ScalarQuantizer is trained over the live set and every query scans the
  // int8 codes for k*overfetch candidates, which are then re-ranked against
  // the full-precision vectors (FAISS's SQ8 + refine pattern). Off by
  // default: the exact path is untouched.
  struct Quantization {
    bool enabled = false;
    // Candidate multiplier for the first (quantized) stage.
    size_t overfetch = 4;
    // Records required before the quantizer trains; until then queries use
    // the exact path.
    size_t train_size = 256;
  };

  struct Options {
    size_t dimension = 384;
    DistanceMetric metric = DistanceMetric::kCosine;
    IndexKind index_kind = IndexKind::kHnsw;
    // HNSW tuning (ignored for flat collections).
    size_t hnsw_m = 16;
    size_t hnsw_ef_construction = 200;
    size_t hnsw_ef_search = 64;
    uint64_t seed = 0x48e5f1ULL;
    Quantization quantization;
  };

  Collection(std::string name, const Options& options);

  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;

  Status Upsert(VectorRecord record) override;
  Status UpsertBatch(std::vector<VectorRecord> records) override;
  Status Delete(const std::string& id) override;
  StatusOr<VectorRecord> Get(const std::string& id) const override;
  bool Contains(const std::string& id) const override;
  StatusOr<std::vector<QueryResult>> Query(
      const Vector& query, size_t k,
      const MetadataFilter& filter = {}) const override;
  std::vector<std::string> Ids() const override;
  size_t size() const override;
  const std::string& name() const override { return name_; }

  const Options& options() const { return options_; }

  // Whether the quantized candidate stage is live (trained and in use).
  bool quantized() const;
  // Queries served since construction (per-shard QPS gauge for /api/health).
  uint64_t query_count() const {
    return queries_.load(std::memory_order_relaxed);
  }
  // Bytes held by the live records' vectors (one copy each, in the index)
  // plus quantized codes (health gauge).
  size_t approx_vector_bytes() const;
  // Runtime knob for recall/QPS sweeps; ignored while unquantized.
  void set_quantization_overfetch(size_t overfetch);
  size_t quantization_overfetch() const {
    return quant_overfetch_.load(std::memory_order_relaxed);
  }

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

  // A slot in no quantized index (slot_to_qslot_/qslot_to_slot_).
  static constexpr SlotId kNoSlot = std::numeric_limits<SlotId>::max();

  std::unique_ptr<VectorIndex> MakeIndex() const;
  // Tombstones the record `it` names in the indexes and frees it; caller
  // holds the exclusive lock.
  Status RemoveLocked(
      std::unordered_map<std::string_view, SlotId>::iterator it);
  // Trains the quantizer over the live set and back-fills the code index;
  // caller holds the exclusive lock.
  Status TrainQuantizerLocked();
  // Records that `slot` is stored at `qslot` in the code index.
  void MapQuantizedLocked(SlotId slot, SlotId qslot);
  // Candidate hits for one fetch size: the exact index directly, or the
  // two-stage quantized scan + full-precision re-rank.
  StatusOr<std::vector<IndexHit>> CandidatesLocked(const Vector& query,
                                                   size_t fetch) const;

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
  // Two-stage state (null until the quantizer trains). Slots in the code
  // index are assigned independently of the main index, so both directions
  // are kept, each indexed by its own slots; kNoSlot marks no counterpart.
  std::unique_ptr<QuantizedFlatIndex> qindex_;
  std::vector<SlotId> slot_to_qslot_;
  std::vector<SlotId> qslot_to_slot_;

  mutable std::atomic<uint64_t> queries_{0};
  std::atomic<size_t> quant_overfetch_{4};
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_COLLECTION_H_
