// Property-style sweeps over randomized (but seeded, reproducible) inputs:
// round-trip laws, metric bounds, and structural invariants that must hold
// for every input, not just the hand-picked cases in the unit suites.

#include <gtest/gtest.h>

#include "llmms/common/json.h"
#include "llmms/common/rng.h"
#include "llmms/common/string_util.h"
#include "llmms/core/scoring.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/rag/chunker.h"
#include "llmms/session/session.h"
#include "llmms/session/summarizer.h"
#include "llmms/tokenizer/word_tokenizer.h"
#include "llmms/vectordb/distance.h"
#include "llmms/vectordb/flat_index.h"
#include "llmms/vectordb/hnsw_index.h"

namespace llmms {
namespace {

std::string RandomText(Rng* rng, size_t max_words) {
  static const char* kWords[] = {"mineral", "crimson", "heated", "battle",
                                 "general", "capital", "river",  "word",
                                 "number", "sequence", "city",   "year"};
  const size_t n = static_cast<size_t>(rng->UniformInt(1, static_cast<int64_t>(max_words)));
  std::string text;
  for (size_t i = 0; i < n; ++i) {
    if (!text.empty()) text += ' ';
    text += kWords[rng->UniformInt(0, 11)];
    if (rng->Bernoulli(0.3)) text += std::to_string(rng->UniformInt(0, 99));
    if (rng->Bernoulli(0.15)) text += '.';
  }
  return text;
}

// --------------------------------------------------------------- JSON laws
Json RandomJson(Rng* rng, int depth) {
  const int kind = static_cast<int>(rng->UniformInt(0, depth <= 0 ? 3 : 5));
  switch (kind) {
    case 0:
      return Json(nullptr);
    case 1:
      return Json(rng->Bernoulli(0.5));
    case 2:
      return rng->Bernoulli(0.5)
                 ? Json(rng->UniformInt(-1000000, 1000000))
                 : Json(rng->Uniform(-1e6, 1e6));
    case 3:
      return Json(RandomText(rng, 6) + "\"\\\n\t");
    case 4: {
      Json arr = Json::MakeArray();
      const int n = static_cast<int>(rng->UniformInt(0, 4));
      for (int i = 0; i < n; ++i) arr.Append(RandomJson(rng, depth - 1));
      return arr;
    }
    default: {
      Json obj = Json::MakeObject();
      const int n = static_cast<int>(rng->UniformInt(0, 4));
      for (int i = 0; i < n; ++i) {
        obj.Set(
            std::string("k").append(std::to_string(rng->UniformInt(0, 9))),
            RandomJson(rng, depth - 1));
      }
      return obj;
    }
  }
}

class JsonRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(JsonRoundTripTest, DumpParseIsIdentity) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977);
  for (int i = 0; i < 100; ++i) {
    const Json value = RandomJson(&rng, 4);
    auto parsed = Json::Parse(value.Dump());
    ASSERT_TRUE(parsed.ok()) << value.Dump();
    EXPECT_EQ(*parsed, value) << value.Dump();
    // Pretty printing parses back to the same value too.
    auto pretty = Json::Parse(value.Dump(2));
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(*pretty, value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripTest, ::testing::Range(1, 5));

// ------------------------------------------------------------ chunker laws
class ChunkerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ChunkerPropertyTest, ChunksRespectBoundsAndCoverDocument) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1301);
  rag::Chunker::Options opts;
  opts.target_words = static_cast<size_t>(rng.UniformInt(15, 60));
  opts.max_words = opts.target_words + 30;
  opts.overlap_words = static_cast<size_t>(rng.UniformInt(0, 10));
  rag::Chunker chunker(opts);

  std::string document;
  const int sentences = static_cast<int>(rng.UniformInt(5, 60));
  for (int i = 0; i < sentences; ++i) {
    document += "Sentence " + std::to_string(i) + " " + RandomText(&rng, 12);
    if (document.back() != '.') document += '.';
    document += ' ';
  }

  const auto chunks = chunker.Chunk(document);
  ASSERT_FALSE(chunks.empty());
  for (size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].index, i);
    EXPECT_GT(chunks[i].num_words, 0u);
    EXPECT_EQ(chunks[i].num_words, SplitWhitespace(chunks[i].text).size());
  }
  // Every sentence marker appears in at least one chunk.
  for (int i = 0; i < sentences; ++i) {
    const std::string needle = "Sentence " + std::to_string(i) + " ";
    bool found = false;
    for (const auto& chunk : chunks) {
      found = found || chunk.text.find(needle) != std::string::npos;
    }
    EXPECT_TRUE(found) << "sentence " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkerPropertyTest, ::testing::Range(1, 6));

// --------------------------------------------------------- summarizer laws
class SummarizerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SummarizerPropertyTest, BudgetAlwaysRespectedWithinOneSentence) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337);
  session::Summarizer::Options opts;
  opts.max_words = static_cast<size_t>(rng.UniformInt(10, 60));
  session::Summarizer summarizer(opts);
  for (int trial = 0; trial < 20; ++trial) {
    std::string text;
    const int sentences = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < sentences; ++i) {
      text += RandomText(&rng, 14) + ". ";
    }
    const std::string summary = summarizer.Summarize(text);
    // Budget may be exceeded by at most the final sentence (greedy fill).
    EXPECT_LE(SplitWhitespace(summary).size(), opts.max_words + 16);
    // Summaries are substrings-of-sentences: every summary sentence must
    // occur verbatim in the input (extractive property).
    for (const auto& sentence : tokenizer::SplitSentences(summary)) {
      EXPECT_NE(text.find(sentence), std::string::npos) << sentence;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummarizerPropertyTest, ::testing::Range(1, 5));

// ----------------------------------------------------------------- F1 laws
TEST(F1PropertyTest, BoundsSymmetryAndIdentity) {
  Rng rng(4242);
  for (int i = 0; i < 200; ++i) {
    const std::string a = RandomText(&rng, 15);
    const std::string b = RandomText(&rng, 15);
    const double ab = core::TokenF1(a, b);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    EXPECT_NEAR(ab, core::TokenF1(b, a), 1e-12);
    EXPECT_NEAR(core::TokenF1(a, a), 1.0, 1e-12);
  }
}

TEST(RewardPropertyTest, GoldenAnswerBeatsEveryMisconception) {
  embedding::HashEmbedder embedder;
  eval::DatasetOptions opts;
  opts.questions_per_domain = 5;
  for (const auto& item : eval::GenerateDataset(opts)) {
    const double golden_reward = core::ComputeReward(
        embedder, item.golden, item.golden, item.correct, item.incorrect);
    for (const auto& wrong : item.incorrect) {
      const double wrong_reward = core::ComputeReward(
          embedder, wrong, item.golden, item.correct, item.incorrect);
      EXPECT_GT(golden_reward, wrong_reward) << item.id;
    }
  }
}

// --------------------------------------------------------------- HNSW laws
struct HnswLawParams {
  size_t M;
  size_t ef;
};

class HnswPropertyTest : public ::testing::TestWithParam<HnswLawParams> {};

TEST_P(HnswPropertyTest, ResultsSortedLiveAndWithinK) {
  const auto params = GetParam();
  Rng rng(99);
  vectordb::HnswIndex::Options opts;
  opts.M = params.M;
  opts.ef_search = params.ef;
  vectordb::HnswIndex index(8, vectordb::DistanceMetric::kCosine, opts);
  vectordb::FlatIndex flat(8, vectordb::DistanceMetric::kCosine);
  for (int i = 0; i < 300; ++i) {
    vectordb::Vector v(8);
    for (auto& x : v) x = static_cast<float>(rng.Normal());
    ASSERT_TRUE(index.Add(v).ok());
    ASSERT_TRUE(flat.Add(v).ok());
  }
  for (vectordb::SlotId s = 0; s < 300; s += 7) {
    ASSERT_TRUE(index.Remove(s).ok());
  }
  for (int q = 0; q < 20; ++q) {
    vectordb::Vector query(8);
    for (auto& x : query) x = static_cast<float>(rng.Normal());
    auto hits = index.Search(query, 12);
    ASSERT_TRUE(hits.ok());
    EXPECT_LE(hits->size(), 12u);
    for (size_t i = 0; i < hits->size(); ++i) {
      EXPECT_NE((*hits)[i].slot % 7, 0u) << "tombstoned slot returned";
      if (i > 0) {
        EXPECT_LE((*hits)[i - 1].distance, (*hits)[i].distance + 1e-12);
      }
      // Reported distance must equal the true distance to that vector, bit
      // for bit: the index reaches the same kernel through cached norms.
      const auto vec = index.GetVector((*hits)[i].slot);
      ASSERT_FALSE(vec.empty());
      EXPECT_EQ((*hits)[i].distance,
                vectordb::Distance(vectordb::DistanceMetric::kCosine, query,
                                   vec));
    }
    auto exact = flat.Search(query, 12);
    ASSERT_TRUE(exact.ok());
    for (const auto& hit : *exact) {
      const auto vec = flat.GetVector(hit.slot);
      ASSERT_FALSE(vec.empty());
      EXPECT_EQ(hit.distance,
                vectordb::Distance(vectordb::DistanceMetric::kCosine, query,
                                   vec));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, HnswPropertyTest,
    ::testing::Values(HnswLawParams{4, 16}, HnswLawParams{8, 32},
                      HnswLawParams{16, 64}, HnswLawParams{32, 128}));

// ------------------------------------------------------------ session laws
TEST(SessionPropertyTest, ContextNeverExceedsBudget) {
  Rng rng(777);
  session::Session::Options opts;
  opts.keep_recent = 4;
  opts.max_context_words = 50;
  session::Session session("p", opts);
  for (int i = 0; i < 40; ++i) {
    session.Append(i % 2 == 0 ? session::Role::kUser
                              : session::Role::kAssistant,
                   RandomText(&rng, 30));
    EXPECT_LE(SplitWhitespace(session.ContextText()).size(),
              opts.max_context_words);
    EXPECT_LE(session.RecentMessages().size(), opts.keep_recent);
  }
}

}  // namespace
}  // namespace llmms
