#ifndef LLMMS_VECTORDB_FLAT_INDEX_H_
#define LLMMS_VECTORDB_FLAT_INDEX_H_

#include <vector>

#include "llmms/vectordb/index.h"
#include "llmms/vectordb/row_store.h"

namespace llmms::vectordb {

// Exact brute-force index: O(n·d) per query. The reference implementation
// against which HnswIndex recall is measured, and the index behind the
// knowledge base's lookups and IndexKind::kFlat collections, the RAG
// pipeline's per-session collections among them.
class FlatIndex final : public VectorIndex {
 public:
  FlatIndex(size_t dimension, DistanceMetric metric)
      : metric_(metric), rows_(dimension) {}

  StatusOr<SlotId> Add(const Vector& vector) override {
    return rows_.Add(vector);
  }
  Status Remove(SlotId slot) override { return rows_.Remove(slot); }
  StatusOr<std::vector<IndexHit>> Search(const Vector& query,
                                         size_t k) const override;
  size_t size() const override { return rows_.live_count(); }
  size_t dimension() const override { return rows_.dimension(); }
  DistanceMetric metric() const override { return metric_; }
  std::span<const float> GetVector(SlotId slot) const override {
    return rows_.Get(slot);
  }

 private:
  DistanceMetric metric_;
  RowStore rows_;
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_FLAT_INDEX_H_
