#ifndef LLMMS_VECTORDB_TYPES_H_
#define LLMMS_VECTORDB_TYPES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace llmms::vectordb {

using Vector = std::vector<float>;

// Flat string-keyed metadata, like Chroma's per-record metadata dictionary.
using Metadata = std::map<std::string, std::string>;

// How vectors are compared. For kCosine, similarity scores returned by
// queries are cosine similarity in [-1, 1]; for kL2 they are the negated
// Euclidean distance (larger = closer); for kInnerProduct, the dot product.
enum class DistanceMetric {
  kCosine,
  kL2,
  kInnerProduct,
};

const char* DistanceMetricToString(DistanceMetric metric);

// One stored record.
struct VectorRecord {
  std::string id;
  Vector vector;
  Metadata metadata;
  // Original text of the chunk (Chroma's "document" field); optional.
  std::string document;
};

// One search hit, ordered most-similar-first.
struct QueryResult {
  std::string id;
  double score = 0.0;  // similarity (larger = closer), see DistanceMetric
  Metadata metadata;
  std::string document;
};

// Equality filter over metadata: every (key, value) pair must match.
// An empty filter matches everything.
using MetadataFilter = std::map<std::string, std::string>;

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_TYPES_H_
