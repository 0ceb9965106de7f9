#ifndef LLMMS_VECTORDB_FLAT_INDEX_H_
#define LLMMS_VECTORDB_FLAT_INDEX_H_

#include <vector>

#include "llmms/vectordb/index.h"

namespace llmms::vectordb {

// Exact brute-force index: O(n·d) per query. The reference implementation
// against which HnswIndex recall is measured, and the index behind the
// knowledge base's lookups and IndexKind::kFlat collections. The RAG
// pipeline's per-session collections use HnswIndex.
class FlatIndex final : public VectorIndex {
 public:
  FlatIndex(size_t dimension, DistanceMetric metric)
      : dimension_(dimension), metric_(metric) {}

  StatusOr<SlotId> Add(const Vector& vector) override;
  // Adds `vector` without copying it.
  StatusOr<SlotId> Add(Vector&& vector);
  // Reserves room for `slots` slots in all.
  void Reserve(size_t slots);
  Status Remove(SlotId slot) override;
  StatusOr<std::vector<IndexHit>> Search(const Vector& query,
                                         size_t k) const override;
  size_t size() const override { return live_count_; }
  size_t dimension() const override { return dimension_; }
  DistanceMetric metric() const override { return metric_; }
  const Vector* GetVector(SlotId slot) const override;

 private:
  size_t dimension_;
  DistanceMetric metric_;
  std::vector<Vector> vectors_;
  std::vector<double> norms_;  // Norm(vectors_[slot]), fixed at Add
  std::vector<bool> removed_;
  size_t live_count_ = 0;
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_FLAT_INDEX_H_
