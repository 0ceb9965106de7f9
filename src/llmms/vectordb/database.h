#ifndef LLMMS_VECTORDB_DATABASE_H_
#define LLMMS_VECTORDB_DATABASE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/vectordb/collection.h"

namespace llmms::vectordb {

// Top-level vector database: a registry of named collections, mirroring the
// ChromaDB client API (create_collection / get_collection / delete_collection
// / list_collections).
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

  Status DropCollection(const std::string& name);

  std::vector<std::string> ListCollections() const;

  // Per-collection gauges for /api/health, one entry per registered
  // collection, sorted by name.
  struct CollectionStats {
    std::string name;
    size_t records = 0;
    uint64_t queries = 0;
    size_t vector_bytes = 0;
  };
  std::vector<CollectionStats> Stats() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Collection>> collections_;
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_DATABASE_H_
