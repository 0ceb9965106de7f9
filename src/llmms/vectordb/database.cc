#include "llmms/vectordb/database.h"

#include <algorithm>

namespace llmms::vectordb {

StatusOr<std::shared_ptr<Collection>> VectorDatabase::CreateCollection(
    const std::string& name, const Collection::Options& options) {
  if (name.empty()) {
    return Status::InvalidArgument("collection name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (collections_.count(name) > 0) {
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

Status VectorDatabase::DropCollection(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (collections_.erase(name) == 0) {
    return Status::NotFound("no collection named '" + name + "'");
  }
  return Status::OK();
}

std::vector<std::string> VectorDatabase::ListCollections() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(collections_.size());
  for (const auto& [name, c] : collections_) names.push_back(name);
  return names;
}

std::vector<VectorDatabase::CollectionStats> VectorDatabase::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CollectionStats> out;
  out.reserve(collections_.size());
  for (const auto& [name, collection] : collections_) {
    out.push_back(CollectionStats{name, collection->size(),
                                  collection->query_count(),
                                  collection->approx_vector_bytes()});
  }
  // Map iteration order is unspecified; health payloads should be stable.
  std::sort(out.begin(), out.end(),
            [](const CollectionStats& a, const CollectionStats& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace llmms::vectordb
