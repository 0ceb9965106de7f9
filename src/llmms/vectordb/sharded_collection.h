#ifndef LLMMS_VECTORDB_SHARDED_COLLECTION_H_
#define LLMMS_VECTORDB_SHARDED_COLLECTION_H_

#include <memory>
#include <string>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/vectordb/collection.h"
#include "llmms/vectordb/types.h"

namespace llmms {
class ThreadPool;
}  // namespace llmms

namespace llmms::vectordb {

// Hash-partitions records across N single-writer Collection shards
// (FNV-1a over the record id, mod N), fans queries out over every shard,
// and merges the per-shard top-k lists with a deterministic heap merge
// under the (score desc, id asc) total order Collection::Query itself uses.
// Because that order is total and partitioning is by id, the merged top-k
// is byte-identical to what one unsharded Collection holding the same
// records returns on the exact path — sharding changes placement, never
// results (DESIGN.md §15).
//
// Writers contend only on their own shard, so ingest and queries to
// different shards proceed in parallel; within a shard, Collection's
// shared/exclusive lock lets concurrent readers share.
class ShardedCollection final : public CollectionBase {
 public:
  struct Options {
    // Per-shard collection options (every shard is configured identically;
    // each shard trains its own quantizer on its own records).
    Collection::Options collection;
    size_t num_shards = 1;
    // Optional fan-out pool for queries; shards are searched sequentially
    // when null. Must not be a pool the calling task itself runs on — a
    // query waiting for its own pool's slots deadlocks when the pool is
    // saturated. Must outlive the collection.
    ThreadPool* pool = nullptr;
  };

  // Per-shard gauges for /api/health.
  struct ShardStats {
    size_t records = 0;
    uint64_t queries = 0;
    size_t vector_bytes = 0;
    bool quantized = false;
  };

  ShardedCollection(std::string name, const Options& options);

  ShardedCollection(const ShardedCollection&) = delete;
  ShardedCollection& operator=(const ShardedCollection&) = delete;

  // Which shard owns `id` under `num_shards` partitions (FNV-1a, stable
  // across processes).
  static size_t ShardFor(const std::string& id, size_t num_shards);

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
  size_t num_shards() const { return shards_.size(); }
  Collection* shard(size_t i) { return shards_[i].get(); }
  const Collection* shard(size_t i) const { return shards_[i].get(); }
  std::vector<ShardStats> Stats() const;
  // Runtime recall/QPS knob, forwarded to every shard.
  void set_quantization_overfetch(size_t overfetch);

 private:
  std::string name_;
  Options options_;
  std::vector<std::unique_ptr<Collection>> shards_;
};

// Merges per-shard top-k result lists (each already sorted by
// (score desc, id asc)) into one global top-k under the same order. Exposed
// for the shard property tests.
std::vector<QueryResult> MergeShardResults(
    std::vector<std::vector<QueryResult>> per_shard, size_t k);

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_SHARDED_COLLECTION_H_
