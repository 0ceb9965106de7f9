#ifndef LLMMS_EMBEDDING_SIMILARITY_H_
#define LLMMS_EMBEDDING_SIMILARITY_H_

#include "llmms/embedding/embedder.h"

namespace llmms::embedding {

// Cosine similarity in [-1, 1]; 0 when either vector is zero.
double CosineSimilarity(const Vector& a, const Vector& b);

}  // namespace llmms::embedding

#endif  // LLMMS_EMBEDDING_SIMILARITY_H_
