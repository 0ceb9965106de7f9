#ifndef LLMMS_BENCH_CLUSTERED_SAMPLER_H_
#define LLMMS_BENCH_CLUSTERED_SAMPLER_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "llmms/common/rng.h"
#include "llmms/vectordb/types.h"

namespace llmms::bench {

// Text embeddings cluster by topic; model that with a Gaussian mixture
// around unit centers (uniform random high-dimensional vectors are a
// distance-concentration worst case no real embedding workload resembles).
// bench_vectordb, hnsw_recall and hnsw_recall_test all draw from it, so a
// seed and a dimension name one corpus.
class ClusteredSampler {
 public:
  ClusteredSampler(Rng* rng, size_t dim, size_t num_clusters)
      : rng_(rng), dim_(dim) {
    for (size_t c = 0; c < num_clusters; ++c) {
      vectordb::Vector center(dim);
      for (auto& x : center) x = static_cast<float>(rng->Normal());
      centers_.push_back(Normalized(std::move(center)));
    }
  }

  vectordb::Vector Sample() {
    const auto& center = centers_[static_cast<size_t>(
        rng_->UniformInt(0, static_cast<int64_t>(centers_.size()) - 1))];
    vectordb::Vector v(dim_);
    for (size_t i = 0; i < dim_; ++i) {
      v[i] = center[i] + static_cast<float>(rng_->Normal(0.0, 0.15));
    }
    return Normalized(std::move(v));
  }

 private:
  static vectordb::Vector Normalized(vectordb::Vector v) {
    double norm_sq = 0.0;
    for (float x : v) norm_sq += static_cast<double>(x) * x;
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (auto& x : v) x *= inv;
    return v;
  }

  Rng* rng_;
  size_t dim_;
  std::vector<vectordb::Vector> centers_;
};

}  // namespace llmms::bench

#endif  // LLMMS_BENCH_CLUSTERED_SAMPLER_H_
