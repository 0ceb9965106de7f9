#ifndef LLMMS_VECTORDB_ROW_STORE_H_
#define LLMMS_VECTORDB_ROW_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/vectordb/index.h"

namespace llmms::vectordb {

// Records of `stride` Ts each, appended one at a time into blocks of
// 2^shift records. A block is allocated when its first record is appended
// and is never moved or grown, so a record's address is stable for the
// store's life, and memory grows one block at a time instead of by
// doubling. T must be trivially copyable.
template <typename T>
class FixedBlocks {
 public:
  // Target bytes per block: small enough that a store's last, part-filled
  // block costs little, large enough that a block's malloc header and its
  // entry in the block table are a small share of it.
  static constexpr size_t kBlockBytes = 16 * 1024;

  // The shift whose blocks hold the most records of `record_bytes` that
  // fit kBlockBytes, at least one.
  static unsigned ShiftFor(size_t record_bytes) {
    unsigned shift = 0;
    while ((std::max<size_t>(record_bytes, 1) << (shift + 1)) <= kBlockBytes) {
      ++shift;
    }
    return shift;
  }

  explicit FixedBlocks(size_t stride)
      : FixedBlocks(stride, ShiftFor(stride * sizeof(T))) {}
  FixedBlocks(size_t stride, unsigned shift)
      : stride_(stride), shift_(shift), mask_((size_t{1} << shift) - 1) {}

  size_t stride() const { return stride_; }

  // Appends a record of zeros and returns it.
  T* Append() {
    const size_t offset = size_ & mask_;
    if (offset == 0) {
      // Left uninitialized: a record's pages are touched when it is added.
      blocks_.push_back(std::make_unique_for_overwrite<T[]>(stride_ << shift_));
    }
    T* record = blocks_.back().get() + offset * stride_;
    std::fill_n(record, stride_, T());
    ++size_;
    return record;
  }

  // Record i; requires that record i was appended.
  T* operator[](size_t i) {
    return blocks_[i >> shift_].get() + (i & mask_) * stride_;
  }
  const T* operator[](size_t i) const {
    return blocks_[i >> shift_].get() + (i & mask_) * stride_;
  }

 private:
  size_t stride_;
  unsigned shift_;
  size_t mask_;
  std::vector<std::unique_ptr<T[]>> blocks_;
  size_t size_ = 0;
};

// The stored vectors of FlatIndex and HnswIndex: one row of `dimension`
// floats per slot in FixedBlocks, each row's norm in a flat array beside
// it (blocks of as many norms as a row block holds rows), and a tombstone
// per slot. Slots are dense and never reused (VectorIndex::Add), and a
// row never moves, so a span of it stays valid for the store's life.
class RowStore {
 public:
  explicit RowStore(size_t dimension)
      : rows_(dimension),
        norms_(1, FixedBlocks<float>::ShiftFor(dimension * sizeof(float))) {}

  size_t dimension() const { return rows_.stride(); }
  // Slots assigned so far, removed ones included.
  size_t slot_count() const { return removed_.size(); }
  // Slots not removed.
  size_t live_count() const { return live_count_; }

  // Stores `row` and its Norm in the next slot. InvalidArgument on a
  // dimension mismatch, consuming no slot.
  StatusOr<SlotId> Add(std::span<const float> row);
  // Tombstones a slot; NotFound past the last one. Removing twice is a
  // no-op.
  Status Remove(SlotId slot);

  // Requires slot < slot_count().
  bool removed(SlotId slot) const { return removed_[slot]; }
  std::span<const float> row(SlotId slot) const {
    return {rows_[slot], dimension()};
  }
  double norm(SlotId slot) const { return *norms_[slot]; }

  // A live slot's row; empty for a removed or unassigned slot. What
  // VectorIndex::GetVector returns.
  std::span<const float> Get(SlotId slot) const {
    if (slot >= slot_count() || removed_[slot]) return {};
    return row(slot);
  }

 private:
  FixedBlocks<float> rows_;
  FixedBlocks<double> norms_;  // Norm(row(slot)), fixed at Add
  std::vector<bool> removed_;
  size_t live_count_ = 0;
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_ROW_STORE_H_
