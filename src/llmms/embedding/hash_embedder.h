#ifndef LLMMS_EMBEDDING_HASH_EMBEDDER_H_
#define LLMMS_EMBEDDING_HASH_EMBEDDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "llmms/embedding/embedder.h"

namespace llmms::embedding {

// Deterministic feature-hashing embedder: word unigrams, word bigrams, and
// character trigrams are hashed into a fixed-dimension signed vector
// (the "hashing trick"), with sub-linear term-frequency weighting, stopword
// down-weighting, and L2 normalization.
//
// This is the project's substitute for a neural sentence encoder: it has the
// properties the orchestration algorithms rely on — texts that share content
// words embed close under cosine similarity, unrelated texts embed far, and
// the mapping is deterministic — at a tiny fraction of the cost.
//
// Bit-identity contract. The goldens (tests/golden/hash_embedder.golden and
// every trace built on it) pin these vectors bit for bit, and the float
// sums depend on the order features are added, so Embed keeps:
// - Words: WordTokenizer's default rule (ASCII alphanumerics, lower-cased).
// - Term counts in a fresh std::unordered_map keyed by std::string_view,
//   filled in token order. It starts from one bucket, as a default-
//   constructed map does, and is never reserved or reused, so its buckets
//   grow as a std::string-keyed map's would. The standard makes
//   std::hash<std::string_view> equal std::hash<std::string>, so the two
//   iterate in the same order. That order is libstdc++'s, so the bits hold
//   for libstdc++ builds only (DESIGN.md §7).
// - Feature order: unigrams in map order, bigrams in text order, then each
//   word's character trigrams in map order.
// - Family salts 0x11 (unigram), 0x22 (bigram) and 0x33 (char trigram),
//   XORed into the seed of an FNV-1a hash (HashBytes) of the feature.
// - A bigram hashes as w1 "\x1f" w2, streamed through HashBytes piece by
//   piece: FNV-1a chains, so HashBytes(b, HashBytes(a, s)) equals
//   HashBytes(a + b, s).
// - Index h % dimension, sign from MixHash64(h)'s low bit, weight
//   (1 + ln tf) in double, added to the float lane as a float.
class HashEmbedder final : public Embedder {
 public:
  struct Options {
    size_t dimension = 384;
    uint64_t seed = 0x5eedf00dULL;
    // Relative weight of each feature family.
    double unigram_weight = 1.0;
    double bigram_weight = 0.6;
    double char_trigram_weight = 0.3;
    // Multiplier applied to stopword unigrams so content words dominate.
    double stopword_damping = 0.2;
  };

  HashEmbedder() : HashEmbedder(Options{}) {}
  explicit HashEmbedder(const Options& options);

  // A zero `dimension` embeds every text as the empty vector.
  Vector Embed(std::string_view text) const override;
  size_t dimension() const override { return options_.dimension; }
  std::string name() const override;

 private:
  uint64_t HashFeature(std::string_view feature, uint64_t family_salt) const;
  void AddFeature(uint64_t h, double weight, Vector* acc) const;

  Options options_;
};

// In-place L2 normalization; the zero vector is left untouched.
void L2Normalize(Vector* v);

}  // namespace llmms::embedding

#endif  // LLMMS_EMBEDDING_HASH_EMBEDDER_H_
