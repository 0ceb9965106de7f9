#include "llmms/embedding/hash_embedder.h"

#include <cmath>
#include <functional>
#include <unordered_map>
#include <utility>

#include "llmms/common/rng.h"
#include "llmms/common/scratch.h"
#include "llmms/tokenizer/word_tokenizer.h"

namespace llmms::embedding {

namespace {

constexpr uint64_t kUnigramSalt = 0x11;
constexpr uint64_t kBigramSalt = 0x22;
constexpr uint64_t kCharTrigramSalt = 0x33;

}  // namespace

HashEmbedder::HashEmbedder(const Options& options) : options_(options) {}

uint64_t HashEmbedder::HashFeature(std::string_view feature,
                                   uint64_t family_salt) const {
  return HashBytes(feature.data(), feature.size(),
                   options_.seed ^ family_salt);
}

void HashEmbedder::AddFeature(uint64_t h, double weight, Vector* acc) const {
  const size_t index = static_cast<size_t>(h % options_.dimension);
  const double sign = (MixHash64(h) & 1) ? 1.0 : -1.0;
  (*acc)[index] += static_cast<float>(sign * weight);
}

Vector HashEmbedder::Embed(std::string_view text) const {
  if (options_.dimension == 0) return Vector();
  Vector v(options_.dimension, 0.0f);
  static const tokenizer::WordTokenizer kTokenizer;
  Scratch scratch;
  const auto words = kTokenizer.TokenizeInto(text, &scratch);
  if (words.empty()) return v;

  // Term frequencies for sub-linear weighting. The map's iteration order
  // fixes the float sums, so it is built fresh with only an allocator (one
  // bucket, as default-constructed) and never reserved; see the header.
  using TermCounts = std::unordered_map<
      std::string_view, int, std::hash<std::string_view>,
      std::equal_to<std::string_view>,
      ScratchAllocator<std::pair<const std::string_view, int>>>;
  TermCounts tf{TermCounts::allocator_type(&scratch)};
  for (const std::string_view w : words) ++tf[w];

  // Unigrams.
  for (const auto& [word, count] : tf) {
    double w = options_.unigram_weight * (1.0 + std::log(count));
    if (tokenizer::WordTokenizer::IsStopword(word)) {
      w *= options_.stopword_damping;
    }
    AddFeature(HashFeature(word, kUnigramSalt), w, &v);
  }

  // Bigrams (order-sensitive context signal), hashed as w1 "\x1f" w2
  // without building the string: FNV-1a streams, so chaining HashBytes over
  // the pieces hashes their concatenation.
  if (options_.bigram_weight > 0.0) {
    for (size_t i = 0; i + 1 < words.size(); ++i) {
      uint64_t h = HashFeature(words[i], kBigramSalt);
      h = HashBytes("\x1f", 1, h);
      h = HashBytes(words[i + 1].data(), words[i + 1].size(), h);
      AddFeature(h, options_.bigram_weight, &v);
    }
  }

  // Character trigrams (robustness to morphology/typos).
  if (options_.char_trigram_weight > 0.0) {
    for (const auto& [word, count] : tf) {
      if (word.size() < 3) continue;
      const double w =
          options_.char_trigram_weight * (1.0 + std::log(count)) /
          static_cast<double>(word.size() - 2);
      for (size_t i = 0; i + 3 <= word.size(); ++i) {
        AddFeature(HashFeature(word.substr(i, 3), kCharTrigramSalt), w, &v);
      }
    }
  }

  L2Normalize(&v);
  return v;
}

std::string HashEmbedder::name() const {
  return "hash-embedder-" + std::to_string(options_.dimension);
}

void L2Normalize(Vector* v) {
  double norm_sq = 0.0;
  for (float x : *v) norm_sq += static_cast<double>(x) * x;
  if (norm_sq <= 0.0) return;
  const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
  for (float& x : *v) x *= inv;
}

}  // namespace llmms::embedding
