#ifndef LLMMS_VECTORDB_QUANTIZER_H_
#define LLMMS_VECTORDB_QUANTIZER_H_

#include <cstdint>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/vectordb/index.h"
#include "llmms/vectordb/types.h"

namespace llmms::vectordb {

// Per-dimension symmetric int8 scalar quantizer — the standard 4x memory
// reduction for embedding storage (FAISS's SQ8). Trained on a sample to fix
// each dimension's [min, max] range; encode clamps and buckets, decode
// returns bucket midpoints.
class ScalarQuantizer {
 public:
  // Fits per-dimension ranges. All vectors must share one dimension;
  // InvalidArgument otherwise or when `sample` is empty.
  Status Train(const std::vector<Vector>& sample);

  bool trained() const { return !min_.empty(); }
  size_t dimension() const { return min_.size(); }

  // Encodes to one byte per dimension. Preconditions: trained(), matching
  // dimension.
  StatusOr<std::vector<uint8_t>> Encode(const Vector& vector) const;

  // Decodes codes back to approximate floats.
  StatusOr<Vector> Decode(const std::vector<uint8_t>& codes) const;

  // Max absolute reconstruction error for dimension `d` (half a bucket).
  double MaxErrorFor(size_t d) const;

  // Decoded value of one code in one dimension (the scalar core of Decode);
  // preconditions: trained(), d < dimension().
  float DecodeDim(size_t d, uint8_t code) const {
    return min_[d] + static_cast<float>(code) * step_[d];
  }

  // Per-dimension affine parameters (decode(c)_d = min[d] + c * step[d]);
  // the quantized scan builds its query-side coefficients from these.
  const std::vector<float>& mins() const { return min_; }
  const std::vector<float>& steps() const { return step_; }

 private:
  std::vector<float> min_;
  std::vector<float> step_;  // bucket width per dimension
};

// A flat (exact-scan) index over int8-quantized vectors: 4x less memory
// than FlatIndex at a small recall cost. The scan computes each metric
// directly on the stored codes via an affine decomposition of the decode
// (per-dimension coefficients precomputed once per query), so it reads one
// byte per dimension instead of four and never materializes a decoded
// vector — this is where the two-stage path's bandwidth win comes from.
// GetVector returns the dequantized approximation.
class QuantizedFlatIndex final : public VectorIndex {
 public:
  // The quantizer must already be trained; it is copied in.
  QuantizedFlatIndex(const ScalarQuantizer& quantizer, DistanceMetric metric);

  StatusOr<SlotId> Add(const Vector& vector) override;
  Status Remove(SlotId slot) override;
  StatusOr<std::vector<IndexHit>> Search(const Vector& query,
                                         size_t k) const override;
  size_t size() const override { return live_count_; }
  size_t dimension() const override { return quantizer_.dimension(); }
  DistanceMetric metric() const override { return metric_; }
  // A view of thread-local scratch holding the decoded row (index.h).
  std::span<const float> GetVector(SlotId slot) const override;

  // Bytes used by the stored codes (excluding bookkeeping).
  size_t code_bytes() const { return codes_.size(); }

 private:
  ScalarQuantizer quantizer_;
  DistanceMetric metric_;
  std::vector<uint8_t> codes_;  // dimension() bytes per slot, contiguous
  std::vector<bool> removed_;
  // Inverse decoded L2 norm per slot (0 for zero vectors), maintained at
  // Add time so the cosine scan multiplies instead of dividing per slot.
  std::vector<float> inv_norms_;
  size_t live_count_ = 0;
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_QUANTIZER_H_
