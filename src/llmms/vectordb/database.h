#ifndef LLMMS_VECTORDB_DATABASE_H_
#define LLMMS_VECTORDB_DATABASE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/vectordb/collection.h"
#include "llmms/vectordb/sharded_collection.h"

namespace llmms::vectordb {

// Top-level vector database: a registry of named collections, mirroring the
// ChromaDB client API (create_collection / get_collection / delete_collection
// / list_collections). Plain and sharded collections share one namespace: a
// name identifies exactly one of the two, and the usual registry calls
// (Drop/List/count) see both.
class VectorDatabase {
 public:
  VectorDatabase() = default;

  VectorDatabase(const VectorDatabase&) = delete;
  VectorDatabase& operator=(const VectorDatabase&) = delete;

  // Creates a new collection; AlreadyExists if the name is taken.
  StatusOr<std::shared_ptr<Collection>> CreateCollection(
      const std::string& name, const Collection::Options& options);

  // Returns an existing collection or NotFound.
  StatusOr<std::shared_ptr<Collection>> GetCollection(
      const std::string& name) const;

  // Returns the collection, creating it if absent. Fails if an existing
  // collection has incompatible options (dimension/metric mismatch).
  StatusOr<std::shared_ptr<Collection>> GetOrCreateCollection(
      const std::string& name, const Collection::Options& options);

  // Sharded variants: hash-partitioned collections for large corpora
  // (see ShardedCollection). Same namespace as plain collections.
  StatusOr<std::shared_ptr<ShardedCollection>> CreateShardedCollection(
      const std::string& name, const ShardedCollection::Options& options);
  StatusOr<std::shared_ptr<ShardedCollection>> GetShardedCollection(
      const std::string& name) const;
  StatusOr<std::shared_ptr<ShardedCollection>> GetOrCreateShardedCollection(
      const std::string& name, const ShardedCollection::Options& options);

  Status DropCollection(const std::string& name);

  std::vector<std::string> ListCollections() const;
  size_t collection_count() const;

  // Per-collection observability for /api/health: one entry per registered
  // collection, with one ShardStats per shard (plain collections report a
  // single shard).
  struct CollectionStats {
    std::string name;
    bool sharded = false;
    std::vector<ShardedCollection::ShardStats> shards;
  };
  std::vector<CollectionStats> Stats() const;

 private:
  bool NameTakenLocked(const std::string& name) const {
    return collections_.count(name) > 0 || sharded_.count(name) > 0;
  }

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Collection>> collections_;
  std::unordered_map<std::string, std::shared_ptr<ShardedCollection>> sharded_;
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_DATABASE_H_
