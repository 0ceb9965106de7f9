#include "llmms/vectordb/distance.h"

#include <cmath>

namespace llmms::vectordb {
namespace {

constexpr size_t kLanes = 16;

// Sums term(a[i], b[i]) over i < n. Each lane accumulates every 16th term
// in fp32, so the lanes carry no dependency on each other and the compiler
// keeps them in vector registers; the lanes and the tail meet in a double.
// Both terms are symmetric in their arguments, so swapping a and b gives
// bit-equal sums.
template <typename Term>
double LaneSum(const float* a, const float* b, size_t n, Term term) {
  float lanes[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) lanes[l] += term(a[i + l], b[i + l]);
  }
  double sum = 0.0;
  for (; i < n; ++i) sum += term(a[i], b[i]);
  for (float lane : lanes) sum += lane;
  return sum;
}

double SquaredL2(const float* a, const float* b, size_t n) {
  return LaneSum(a, b, n, [](float x, float y) {
    const float d = x - y;
    return d * d;
  });
}

// 1 - dot / (norm_a * norm_b); 1.0 when either norm is 0.
double CosineFrom(double dot, double norm_a, double norm_b) {
  if (norm_a <= 0.0 || norm_b <= 0.0) return 1.0;
  return 1.0 - dot / (norm_a * norm_b);
}

}  // namespace

double Dot(const float* a, const float* b, size_t n) {
  return LaneSum(a, b, n, [](float x, float y) { return x * y; });
}

double Norm(std::span<const float> v) {
  return std::sqrt(Dot(v.data(), v.data(), v.size()));
}

const char* DistanceMetricToString(DistanceMetric metric) {
  switch (metric) {
    case DistanceMetric::kCosine:
      return "cosine";
    case DistanceMetric::kL2:
      return "l2";
    case DistanceMetric::kInnerProduct:
      return "ip";
  }
  return "unknown";
}

double Distance(DistanceMetric metric, std::span<const float> a,
                std::span<const float> b) {
  if (metric == DistanceMetric::kCosine) {
    return Distance(metric, a, Norm(a), b, Norm(b));
  }
  return Distance(metric, a, 0.0, b, 0.0);
}

double Distance(DistanceMetric metric, std::span<const float> a,
                double norm_a, std::span<const float> b, double norm_b) {
  switch (metric) {
    case DistanceMetric::kCosine:
      return CosineFrom(Dot(a.data(), b.data(), a.size()), norm_a, norm_b);
    case DistanceMetric::kL2:
      return SquaredL2(a.data(), b.data(), a.size());
    case DistanceMetric::kInnerProduct:
      return -Dot(a.data(), b.data(), a.size());
  }
  return 0.0;
}

double SimilarityFromDistance(DistanceMetric metric, double distance) {
  switch (metric) {
    case DistanceMetric::kCosine:
      return 1.0 - distance;
    case DistanceMetric::kL2:
      return -std::sqrt(distance > 0.0 ? distance : 0.0);
    case DistanceMetric::kInnerProduct:
      return -distance;
  }
  return 0.0;
}

}  // namespace llmms::vectordb
