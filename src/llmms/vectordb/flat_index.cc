#include "llmms/vectordb/flat_index.h"

#include <algorithm>
#include <utility>

#include "llmms/vectordb/distance.h"

namespace llmms::vectordb {

StatusOr<SlotId> FlatIndex::Add(const Vector& vector) {
  return Add(Vector(vector));
}

StatusOr<SlotId> FlatIndex::Add(Vector&& vector) {
  if (vector.size() != dimension_) {
    return Status::InvalidArgument(
        "vector dimension " + std::to_string(vector.size()) +
        " does not match index dimension " + std::to_string(dimension_));
  }
  norms_.push_back(Norm(vector));
  vectors_.push_back(std::move(vector));
  removed_.push_back(false);
  ++live_count_;
  return static_cast<SlotId>(vectors_.size() - 1);
}

void FlatIndex::Reserve(size_t slots) {
  vectors_.reserve(slots);
  norms_.reserve(slots);
  removed_.reserve(slots);
}

Status FlatIndex::Remove(SlotId slot) {
  if (slot >= vectors_.size()) {
    return Status::NotFound("slot " + std::to_string(slot) + " out of range");
  }
  if (!removed_[slot]) {
    removed_[slot] = true;
    --live_count_;
  }
  return Status::OK();
}

StatusOr<std::vector<IndexHit>> FlatIndex::Search(const Vector& query,
                                                  size_t k) const {
  if (query.size() != dimension_) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  const double query_norm = Norm(query);
  TopHits top(std::min(k, live_count_));
  for (size_t i = 0; i < vectors_.size(); ++i) {
    if (removed_[i]) continue;
    top.Push(IndexHit{
        static_cast<SlotId>(i),
        Distance(metric_, query, query_norm, vectors_[i], norms_[i])});
  }
  return std::move(top).Take();
}

const Vector* FlatIndex::GetVector(SlotId slot) const {
  if (slot >= vectors_.size() || removed_[slot]) return nullptr;
  return &vectors_[slot];
}

}  // namespace llmms::vectordb
