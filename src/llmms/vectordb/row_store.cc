#include "llmms/vectordb/row_store.h"

#include <string>

#include "llmms/vectordb/distance.h"

namespace llmms::vectordb {

StatusOr<SlotId> RowStore::Add(std::span<const float> row) {
  if (row.size() != dimension()) {
    return Status::InvalidArgument(
        "vector dimension " + std::to_string(row.size()) +
        " does not match index dimension " + std::to_string(dimension()));
  }
  std::copy(row.begin(), row.end(), rows_.Append());
  *norms_.Append() = Norm(row);
  removed_.push_back(false);
  ++live_count_;
  return static_cast<SlotId>(removed_.size() - 1);
}

Status RowStore::Remove(SlotId slot) {
  if (slot >= slot_count()) {
    return Status::NotFound("slot " + std::to_string(slot) + " out of range");
  }
  if (!removed_[slot]) {
    removed_[slot] = true;
    --live_count_;
  }
  return Status::OK();
}

}  // namespace llmms::vectordb
