#include "llmms/embedding/similarity.h"

#include <cmath>

namespace llmms::embedding {

double CosineSimilarity(const Vector& a, const Vector& b) {
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) {
    const double x = a[i];
    const double y = b[i];
    dot += x * y;
    na += x * x;
    nb += y * y;
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace llmms::embedding
