// Pins HashEmbedder's output bit for bit in tests/golden/hash_embedder.golden:
// one line per text, its id and a 64-bit digest of the vector's float bits.
// The corpus covers the dataset's questions and golden answers, seeded
// briefing documents and their Chunker chunks, RAG prompts, and edge cases.
// One combined digest covers 10,000 seeded random byte strings, and one per
// non-default Options covers the rest of the corpus. The float sums follow
// libstdc++'s std::hash and unordered_map iteration order (DESIGN.md §7),
// so the golden holds for libstdc++ builds.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "embedding_corpus.h"
#include "golden_file.h"
#include "llmms/common/rng.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/rag/chunker.h"

namespace llmms::embedding {
namespace {

struct NamedText {
  std::string id;
  std::string text;
};

// Folds the vector's length and float bits into `seed`.
uint64_t Digest(const Vector& v, uint64_t seed = 0xcbf29ce484222325ULL) {
  const uint64_t size = v.size();
  return HashBytes(v.data(), v.size() * sizeof(float),
                   HashBytes(&size, sizeof(size), seed));
}

std::vector<NamedText> EdgeCases() {
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) all_bytes += static_cast<char>(b);
  std::string long_repeat;
  for (int i = 0; i < 300; ++i) long_repeat += "echo ";
  return {
      {"edge/empty", ""},
      {"edge/whitespace", " \t\n\r\v\f  "},
      {"edge/upper", "THE CAPITAL OF FRANCE IS PARIS"},
      {"edge/mixed_case", "ThE CaPiTaL oF fRaNcE iS pArIs"},
      {"edge/digits", "1842 3.14 007 12345678901234567890 x1y2z3"},
      {"edge/punctuation_runs", "...!!!???,,;;--__((hello))--world!!!...''\"\""},
      {"edge/word_15_bytes", "abcdefghijklmno abcdefghijklmno"},
      {"edge/word_16_bytes", "abcdefghijklmnop abcdefghijklmnop"},
      {"edge/long_words",
       "pneumonoultramicroscopicsilicovolcanoconiosis "
       "supercalifragilisticexpialidocious antidisestablishmentarianism"},
      {"edge/repeated", "echo echo the echo the the echo mineral echo"},
      {"edge/long_repeat", long_repeat},
      {"edge/single_char", "x"},
      {"edge/short_words", "ab cd ab ef g h"},
      {"edge/stopwords_only", "the of and is it was"},
      {"edge/unit_separator", "alpha\x1f" "beta gamma\x1f\x1f" "delta\x1f"},
      {"edge/high_bytes",
       "caf\xc3\xa9 na\xc3\xafve \xff\xfe\x80word \xe2\x80\x94 dash \xc3\x89t\xc3\xa9"},
      {"edge/nul_bytes", std::string("left\0right\0\0end", 16)},
      {"edge/control_separators", "alpha\tbeta\ngamma\rdelta\vepsilon\ffinal"},
      {"edge/all_bytes", all_bytes},
  };
}

// The dataset's questions and golden answers, seeded briefings and their
// chunks, RAG prompts, then the edge cases.
std::vector<NamedText> Corpus() {
  const auto dataset = eval::GenerateDataset(eval::DatasetOptions{});
  std::vector<NamedText> corpus;
  for (const auto& item : dataset) {
    corpus.push_back({"question/" + item.id, item.question});
    corpus.push_back({"golden/" + item.id, item.golden});
  }
  Rng rng(0xB81EF1ULL);
  const rag::Chunker chunker;
  for (size_t d = 0; d < 40; ++d) {
    const auto& item = dataset[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(dataset.size()) - 1))];
    const std::string id = "briefing/" + std::to_string(d);
    const std::string briefing = testutil::MakeBriefing(item, &rng);
    for (const auto& chunk : chunker.Chunk(briefing)) {
      corpus.push_back(
          {id + "/chunk/" + std::to_string(chunk.index), chunk.text});
    }
    corpus.push_back({id, briefing});
  }
  const auto prompts = testutil::MakeRagPrompts(dataset, 20, 0x9A6ULL);
  for (size_t p = 0; p < prompts.size(); ++p) {
    corpus.push_back({"rag_prompt/" + std::to_string(p), prompts[p]});
  }
  for (auto& edge : EdgeCases()) corpus.push_back(std::move(edge));
  return corpus;
}

// 10,000 seeded byte strings of up to 48 bytes, mostly lower-case letters
// and spaces, with upper case, digits and arbitrary bytes mixed in.
std::vector<std::string> RandomByteStrings() {
  Rng rng(0x5EED0B17E5ULL);
  std::vector<std::string> texts(10000);
  for (auto& text : texts) {
    const int64_t length = rng.UniformInt(0, 48);
    for (int64_t i = 0; i < length; ++i) {
      const double kind = rng.NextDouble();
      if (kind < 0.55) {
        text += static_cast<char>('a' + rng.UniformInt(0, 5));
      } else if (kind < 0.65) {
        text += static_cast<char>('A' + rng.UniformInt(0, 5));
      } else if (kind < 0.72) {
        text += static_cast<char>('0' + rng.UniformInt(0, 9));
      } else if (kind < 0.88) {
        text += ' ';
      } else {
        text += static_cast<char>(rng.UniformInt(0, 255));
      }
    }
  }
  return texts;
}

std::string Line(const std::string& id, uint64_t digest) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  return id + " " + hex + "\n";
}

TEST(HashEmbedderGoldenTest, VectorsMatchTheGoldenBitForBit) {
  const auto corpus = Corpus();
  const auto random = RandomByteStrings();
  const HashEmbedder embedder;
  std::string out;
  for (const auto& [id, text] : corpus) {
    out += Line(id, Digest(embedder.Embed(text)));
  }
  uint64_t combined = 0xcbf29ce484222325ULL;
  for (const auto& text : random) combined = Digest(embedder.Embed(text), combined);
  out += Line("random/10000", combined);

  std::vector<std::pair<std::string, HashEmbedder::Options>> variants;
  HashEmbedder::Options options;
  options.dimension = 128;
  variants.emplace_back("options/dimension_128", options);
  options = HashEmbedder::Options();
  options.seed = 0xA11CEULL;
  variants.emplace_back("options/seed_a11ce", options);
  options = HashEmbedder::Options();
  options.bigram_weight = 0.0;
  variants.emplace_back("options/no_bigrams", options);
  options = HashEmbedder::Options();
  options.char_trigram_weight = 0.0;
  variants.emplace_back("options/no_char_trigrams", options);
  for (const auto& [id, variant_options] : variants) {
    const HashEmbedder variant(variant_options);
    uint64_t digest = 0xcbf29ce484222325ULL;
    for (const auto& named : corpus) {
      digest = Digest(variant.Embed(named.text), digest);
    }
    out += Line(id, digest);
  }
  testutil::ExpectMatchesGolden("hash_embedder.golden", out);
}

}  // namespace
}  // namespace llmms::embedding
