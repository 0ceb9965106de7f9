#ifndef LLMMS_VECTORDB_DISTANCE_H_
#define LLMMS_VECTORDB_DISTANCE_H_

#include <cstddef>
#include <span>

#include "llmms/vectordb/types.h"

namespace llmms::vectordb {

// The vector database's one distance kernel. Both indexes compute
// distances through the same two out-of-line functions, Norm and the
// norm-taking Distance, so a distance never depends on the index that
// computed it.

// a·b over n floats: 16 independent fp32 lanes plus a scalar tail, summed
// into a double at the end. A plain loop that -O3 vectorizes as it stands.
double Dot(const float* a, const float* b, size_t n);

// sqrt(Dot(v, v)). Indexes compute it once per stored vector.
double Norm(std::span<const float> v);

// Distance for index-internal ordering: smaller = closer, for every metric.
// kCosine -> 1 - cos, kL2 -> squared L2, kInnerProduct -> -dot. A Vector
// converts to the span implicitly.
double Distance(DistanceMetric metric, std::span<const float> a,
                std::span<const float> b);

// The same distance from norms the caller already holds (only kCosine
// reads them). Bit-equal to Distance(metric, a, b) when norm_a == Norm(a)
// and norm_b == Norm(b).
double Distance(DistanceMetric metric, std::span<const float> a,
                double norm_a, std::span<const float> b, double norm_b);

// User-facing similarity: larger = closer. kCosine -> cos, kL2 -> -sqrt(d2),
// kInnerProduct -> dot.
double SimilarityFromDistance(DistanceMetric metric, double distance);

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_DISTANCE_H_
