#include "llmms/vectordb/quantizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "llmms/vectordb/distance.h"

namespace llmms::vectordb {

Status ScalarQuantizer::Train(const std::vector<Vector>& sample) {
  if (sample.empty()) {
    return Status::InvalidArgument("quantizer needs a non-empty sample");
  }
  const size_t dim = sample[0].size();
  if (dim == 0) {
    return Status::InvalidArgument("vectors must have dimension > 0");
  }
  std::vector<float> lo(dim, std::numeric_limits<float>::max());
  std::vector<float> hi(dim, std::numeric_limits<float>::lowest());
  for (const auto& v : sample) {
    if (v.size() != dim) {
      return Status::InvalidArgument("sample vectors differ in dimension");
    }
    for (size_t d = 0; d < dim; ++d) {
      lo[d] = std::min(lo[d], v[d]);
      hi[d] = std::max(hi[d], v[d]);
    }
  }
  min_ = std::move(lo);
  step_.resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    const float range = hi[d] - min_[d];
    // Degenerate dimensions quantize everything to one bucket.
    step_[d] = range > 0.0f ? range / 255.0f : 1.0f;
  }
  return Status::OK();
}

StatusOr<std::vector<uint8_t>> ScalarQuantizer::Encode(
    const Vector& vector) const {
  if (!trained()) {
    return Status::FailedPrecondition("quantizer is not trained");
  }
  if (vector.size() != dimension()) {
    return Status::InvalidArgument("vector dimension mismatch");
  }
  std::vector<uint8_t> codes(vector.size());
  for (size_t d = 0; d < vector.size(); ++d) {
    const float normalized = (vector[d] - min_[d]) / step_[d];
    const float clamped = std::clamp(normalized, 0.0f, 255.0f);
    codes[d] = static_cast<uint8_t>(std::lround(clamped));
  }
  return codes;
}

StatusOr<Vector> ScalarQuantizer::Decode(
    const std::vector<uint8_t>& codes) const {
  if (!trained()) {
    return Status::FailedPrecondition("quantizer is not trained");
  }
  if (codes.size() != dimension()) {
    return Status::InvalidArgument("code length mismatch");
  }
  Vector out(codes.size());
  for (size_t d = 0; d < codes.size(); ++d) {
    out[d] = min_[d] + static_cast<float>(codes[d]) * step_[d];
  }
  return out;
}

double ScalarQuantizer::MaxErrorFor(size_t d) const {
  if (d >= step_.size()) return 0.0;
  return step_[d] / 2.0;  // round-to-nearest leaves at most half a bucket
}

QuantizedFlatIndex::QuantizedFlatIndex(const ScalarQuantizer& quantizer,
                                       DistanceMetric metric)
    : quantizer_(quantizer), metric_(metric) {}

StatusOr<SlotId> QuantizedFlatIndex::Add(const Vector& vector) {
  LLMMS_ASSIGN_OR_RETURN(auto codes, quantizer_.Encode(vector));
  double norm2 = 0.0;
  for (size_t d = 0; d < codes.size(); ++d) {
    // Norm of the decoded vector, not the input: the scan scores against
    // decoded values and must normalize by the same thing.
    const double x = quantizer_.DecodeDim(d, codes[d]);
    norm2 += x * x;
  }
  codes_.insert(codes_.end(), codes.begin(), codes.end());
  removed_.push_back(false);
  // Inverse norm so the cosine scan multiplies instead of dividing per
  // slot; 0 flags a zero vector (scored as maximally distant, like the
  // float path's denom == 0 case).
  inv_norms_.push_back(
      norm2 > 0.0 ? static_cast<float>(1.0 / std::sqrt(norm2)) : 0.0f);
  ++live_count_;
  return static_cast<SlotId>(removed_.size() - 1);
}

Status QuantizedFlatIndex::Remove(SlotId slot) {
  if (slot >= removed_.size()) {
    return Status::NotFound("slot " + std::to_string(slot) + " out of range");
  }
  if (!removed_[slot]) {
    removed_[slot] = true;
    --live_count_;
  }
  return Status::OK();
}

namespace {

// dot(w, codes) with eight independent accumulators: a single float
// accumulator serializes the scan on FMA latency (strict FP ordering also
// blocks auto-vectorization of the reduction), and this loop is the whole
// cost of the candidate stage at 1M vectors.
inline float DotCodes(const float* w, const uint8_t* c, size_t dim) {
  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  float a4 = 0.0f, a5 = 0.0f, a6 = 0.0f, a7 = 0.0f;
  size_t d = 0;
  for (; d + 8 <= dim; d += 8) {
    a0 += w[d] * static_cast<float>(c[d]);
    a1 += w[d + 1] * static_cast<float>(c[d + 1]);
    a2 += w[d + 2] * static_cast<float>(c[d + 2]);
    a3 += w[d + 3] * static_cast<float>(c[d + 3]);
    a4 += w[d + 4] * static_cast<float>(c[d + 4]);
    a5 += w[d + 5] * static_cast<float>(c[d + 5]);
    a6 += w[d + 6] * static_cast<float>(c[d + 6]);
    a7 += w[d + 7] * static_cast<float>(c[d + 7]);
  }
  float acc = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7));
  for (; d < dim; ++d) acc += w[d] * static_cast<float>(c[d]);
  return acc;
}

// L2 variant: sum of (w_d + s_d * c_d) * c_d, same accumulator structure.
inline float PolyCodes(const float* w, const float* s, const uint8_t* c,
                       size_t dim) {
  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    const float c0 = static_cast<float>(c[d]);
    const float c1 = static_cast<float>(c[d + 1]);
    const float c2 = static_cast<float>(c[d + 2]);
    const float c3 = static_cast<float>(c[d + 3]);
    a0 += (w[d] + s[d] * c0) * c0;
    a1 += (w[d + 1] + s[d + 1] * c1) * c1;
    a2 += (w[d + 2] + s[d + 2] * c2) * c2;
    a3 += (w[d + 3] + s[d + 3] * c3) * c3;
  }
  float acc = (a0 + a1) + (a2 + a3);
  for (; d < dim; ++d) {
    const float cf = static_cast<float>(c[d]);
    acc += (w[d] + s[d] * cf) * cf;
  }
  return acc;
}

}  // namespace

StatusOr<std::vector<IndexHit>> QuantizedFlatIndex::Search(const Vector& query,
                                                           size_t k) const {
  if (query.size() != dimension()) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  const size_t dim = dimension();
  const size_t slots = removed_.size();
  const size_t limit = std::min(k, live_count_);
  if (limit == 0) return std::vector<IndexHit>();
  TopHits top(limit);

  // With decode(c)_d = min_d + c_d * step_d every metric reduces to a
  // constant plus a per-dimension polynomial in the raw code, so the scan
  // touches only the int8 codes — a quarter of the float scan's bytes.
  // Accumulation is float: the decoded values are already lossy and the
  // exact re-rank upstream absorbs the rounding.
  const std::vector<float>& mins = quantizer_.mins();
  const std::vector<float>& steps = quantizer_.steps();
  std::vector<float> w(dim);   // linear coefficient per dimension
  std::vector<float> s2(dim);  // quadratic coefficient (L2 only)
  double constant = 0.0;
  double query_norm2 = 0.0;
  if (metric_ == DistanceMetric::kL2) {
    for (size_t d = 0; d < dim; ++d) {
      const float a = query[d] - mins[d];
      constant += static_cast<double>(a) * a;
      w[d] = -2.0f * a * steps[d];
      s2[d] = steps[d] * steps[d];
    }
  } else {
    // kCosine / kInnerProduct both need dot(query, decoded).
    for (size_t d = 0; d < dim; ++d) {
      constant += static_cast<double>(query[d]) * mins[d];
      w[d] = query[d] * steps[d];
      query_norm2 += static_cast<double>(query[d]) * query[d];
    }
  }
  const double query_norm = std::sqrt(query_norm2);

  auto push = [&](SlotId slot, double distance) {
    top.Push(IndexHit{slot, distance});
  };

  const uint8_t* codes = codes_.data();
  switch (metric_) {
    case DistanceMetric::kL2: {
      const float* wp = w.data();
      const float* sp = s2.data();
      for (size_t slot = 0; slot < slots; ++slot) {
        if (removed_[slot]) continue;
        const float acc = PolyCodes(wp, sp, codes + slot * dim, dim);
        push(static_cast<SlotId>(slot), constant + acc);
      }
      break;
    }
    case DistanceMetric::kInnerProduct: {
      const float* wp = w.data();
      for (size_t slot = 0; slot < slots; ++slot) {
        if (removed_[slot]) continue;
        const float acc = DotCodes(wp, codes + slot * dim, dim);
        push(static_cast<SlotId>(slot), -(constant + acc));
      }
      break;
    }
    case DistanceMetric::kCosine: {
      const float* wp = w.data();
      const double inv_query_norm =
          query_norm > 0.0 ? 1.0 / query_norm : 0.0;
      for (size_t slot = 0; slot < slots; ++slot) {
        if (removed_[slot]) continue;
        const float acc = DotCodes(wp, codes + slot * dim, dim);
        const double distance =
            1.0 - (constant + acc) * inv_query_norm *
                      static_cast<double>(inv_norms_[slot]);
        push(static_cast<SlotId>(slot), distance);
      }
      break;
    }
  }

  return std::move(top).Take();
}

std::span<const float> QuantizedFlatIndex::GetVector(SlotId slot) const {
  if (slot >= removed_.size() || removed_[slot]) return {};
  const size_t dim = dimension();
  // Thread-local scratch: GetVector must be callable under the shared
  // (reader) lock, so per-object mutable state is off the table.
  static thread_local Vector decoded;
  decoded.resize(dim);
  const uint8_t* base = codes_.data() + slot * dim;
  for (size_t d = 0; d < dim; ++d) {
    decoded[d] = quantizer_.DecodeDim(d, base[d]);
  }
  return decoded;
}

}  // namespace llmms::vectordb
