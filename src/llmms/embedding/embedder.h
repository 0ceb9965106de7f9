#ifndef LLMMS_EMBEDDING_EMBEDDER_H_
#define LLMMS_EMBEDDING_EMBEDDER_H_

#include <string>
#include <string_view>
#include <vector>

namespace llmms::embedding {

using Vector = std::vector<float>;

// Text-to-vector encoder interface (the platform's substitute for the
// mxbai-embed-large / nomic-embed-text Ollama embedders). Implementations
// must be deterministic and thread-safe, and must return unit-norm vectors
// of a fixed dimension so that dot product == cosine similarity.
class Embedder {
 public:
  virtual ~Embedder() = default;

  // Embeds `text` into a unit-norm vector of dimension(). Embedding the
  // empty string returns the zero vector.
  virtual Vector Embed(std::string_view text) const = 0;

  // Embeds text the caller will not embed again, such as a document chunk
  // whose vector goes straight into an index. Returns exactly what Embed
  // returns; a caching embedder computes it without storing it.
  virtual Vector EmbedOnce(std::string_view text) const { return Embed(text); }

  virtual size_t dimension() const = 0;

  // Human-readable identifier (e.g. "hash-embedder-384").
  virtual std::string name() const = 0;
};

}  // namespace llmms::embedding

#endif  // LLMMS_EMBEDDING_EMBEDDER_H_
