#include "llmms/vectordb/database.h"

#include <algorithm>

namespace llmms::vectordb {

StatusOr<std::shared_ptr<Collection>> VectorDatabase::CreateCollection(
    const std::string& name, const Collection::Options& options) {
  if (name.empty()) {
    return Status::InvalidArgument("collection name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (NameTakenLocked(name)) {
    return Status::AlreadyExists("collection '" + name + "' already exists");
  }
  auto collection = std::make_shared<Collection>(name, options);
  collections_[name] = collection;
  return collection;
}

StatusOr<std::shared_ptr<Collection>> VectorDatabase::GetCollection(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("no collection named '" + name + "'");
  }
  return it->second;
}

StatusOr<std::shared_ptr<Collection>> VectorDatabase::GetOrCreateCollection(
    const std::string& name, const Collection::Options& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = collections_.find(name);
    if (it != collections_.end()) {
      const auto& existing = it->second->options();
      if (existing.dimension != options.dimension ||
          existing.metric != options.metric) {
        return Status::FailedPrecondition(
            "collection '" + name + "' exists with incompatible options");
      }
      return it->second;
    }
  }
  return CreateCollection(name, options);
}

StatusOr<std::shared_ptr<ShardedCollection>>
VectorDatabase::CreateShardedCollection(
    const std::string& name, const ShardedCollection::Options& options) {
  if (name.empty()) {
    return Status::InvalidArgument("collection name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (NameTakenLocked(name)) {
    return Status::AlreadyExists("collection '" + name + "' already exists");
  }
  auto collection = std::make_shared<ShardedCollection>(name, options);
  sharded_[name] = collection;
  return collection;
}

StatusOr<std::shared_ptr<ShardedCollection>>
VectorDatabase::GetShardedCollection(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sharded_.find(name);
  if (it == sharded_.end()) {
    return Status::NotFound("no sharded collection named '" + name + "'");
  }
  return it->second;
}

StatusOr<std::shared_ptr<ShardedCollection>>
VectorDatabase::GetOrCreateShardedCollection(
    const std::string& name, const ShardedCollection::Options& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sharded_.find(name);
    if (it != sharded_.end()) {
      const auto& existing = it->second->options();
      if (existing.collection.dimension != options.collection.dimension ||
          existing.collection.metric != options.collection.metric ||
          existing.num_shards != std::max<size_t>(1, options.num_shards)) {
        return Status::FailedPrecondition(
            "collection '" + name + "' exists with incompatible options");
      }
      return it->second;
    }
    if (collections_.count(name) > 0) {
      return Status::FailedPrecondition(
          "collection '" + name + "' exists but is not sharded");
    }
  }
  return CreateShardedCollection(name, options);
}

Status VectorDatabase::DropCollection(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (collections_.erase(name) == 0 && sharded_.erase(name) == 0) {
    return Status::NotFound("no collection named '" + name + "'");
  }
  return Status::OK();
}

std::vector<std::string> VectorDatabase::ListCollections() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(collections_.size() + sharded_.size());
  for (const auto& [name, c] : collections_) names.push_back(name);
  for (const auto& [name, c] : sharded_) names.push_back(name);
  return names;
}

size_t VectorDatabase::collection_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return collections_.size() + sharded_.size();
}

std::vector<VectorDatabase::CollectionStats> VectorDatabase::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CollectionStats> out;
  out.reserve(collections_.size() + sharded_.size());
  for (const auto& [name, collection] : collections_) {
    CollectionStats stats;
    stats.name = name;
    ShardedCollection::ShardStats shard;
    shard.records = collection->size();
    shard.queries = collection->query_count();
    shard.vector_bytes = collection->approx_vector_bytes();
    shard.quantized = collection->quantized();
    stats.shards.push_back(shard);
    out.push_back(std::move(stats));
  }
  for (const auto& [name, collection] : sharded_) {
    CollectionStats stats;
    stats.name = name;
    stats.sharded = true;
    stats.shards = collection->Stats();
    out.push_back(std::move(stats));
  }
  // Map iteration order is unspecified; health payloads should be stable.
  std::sort(out.begin(), out.end(),
            [](const CollectionStats& a, const CollectionStats& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace llmms::vectordb
