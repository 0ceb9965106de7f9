#include "llmms/core/scoring.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "llmms/embedding/hash_embedder.h"
#include "llmms/embedding/similarity.h"

namespace llmms::core {
namespace {

class ScoringTest : public ::testing::Test {
 protected:
  // Embeds each text, keeping the vectors alive in `held_`; the empty text
  // maps to null, as QueryRun passes it.
  std::vector<const embedding::Vector*> Embed(
      const std::vector<std::string>& texts) {
    std::vector<const embedding::Vector*> out;
    for (const auto& text : texts) {
      if (text.empty()) {
        out.push_back(nullptr);
        continue;
      }
      held_.push_back(std::make_unique<embedding::Vector>(
          embedder_->Embed(text)));
      out.push_back(held_.back().get());
    }
    return out;
  }
  const embedding::Vector* EmbedOne(const std::string& text) {
    return Embed({text}).front();
  }

  std::shared_ptr<const embedding::Embedder> embedder_ =
      std::make_shared<embedding::HashEmbedder>();
  std::vector<std::unique_ptr<embedding::Vector>> held_;
};

TEST_F(ScoringTest, ScoreRoundRanksTopicalResponseHighest) {
  ResponseScorer scorer(embedder_, ScoringWeights{});
  const std::string query = "what color does the veltrite mineral turn when heated";
  const auto scores = scorer.ScoreRound(
      embedder_->Embed(query),
      Embed({"the veltrite mineral turns crimson when heated",
             "veltrite becomes crimson under heat",
             "general maltok won the naval battle of drennos"}));
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_GT(scores[0].combined, scores[2].combined);
  EXPECT_GT(scores[1].combined, scores[2].combined);
  // The two agreeing responses have higher inter-model similarity.
  EXPECT_GT(scores[0].inter_similarity, scores[2].inter_similarity);
}

TEST_F(ScoringTest, EmptyResponsesScoreZero) {
  ResponseScorer scorer(embedder_, ScoringWeights{});
  const auto scores = scorer.ScoreRound(embedder_->Embed("query"),
                                        Embed({"", "related query text"}));
  EXPECT_EQ(scores[0].combined, 0.0);
  EXPECT_GT(scores[1].combined, 0.0);
  EXPECT_TRUE(
      scorer.ScoreRound(embedder_->Embed("query"), {}).empty());
}

TEST_F(ScoringTest, WeightsChangeCombination) {
  ScoringWeights query_only{1.0, 0.0};
  ScoringWeights inter_only{0.0, 1.0};
  ResponseScorer a(embedder_, query_only);
  ResponseScorer b(embedder_, inter_only);
  const auto query = embedder_->Embed("the veltrite mineral color when heated");
  const auto responses =
      Embed({"the veltrite mineral turns crimson when heated",
             "the veltrite mineral becomes crimson when heated"});
  const auto sa = a.ScoreRound(query, responses);
  const auto sb = b.ScoreRound(query, responses);
  EXPECT_DOUBLE_EQ(sa[0].combined, sa[0].query_similarity);
  EXPECT_DOUBLE_EQ(sb[0].combined, sb[0].inter_similarity);
}

TEST_F(ScoringTest, SingleResponseHasZeroInterSimilarity) {
  ResponseScorer scorer(embedder_, ScoringWeights{});
  const auto scores = scorer.ScoreRound(embedder_->Embed("query text"),
                                        Embed({"query text answer"}));
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_EQ(scores[0].inter_similarity, 0.0);
}

TEST_F(ScoringTest, ScoreOneMatchesScoreRound) {
  ResponseScorer scorer(embedder_, ScoringWeights{});
  const auto query = embedder_->Embed("the veltrite mineral");
  const auto responses =
      Embed({"veltrite is a crimson mineral", "the mineral is heated"});
  const auto round = scorer.ScoreRound(query, responses);
  const double one = scorer.ScoreOne(query, responses[0], {responses[1]});
  EXPECT_NEAR(one, round[0].combined, 1e-9);
}

TEST_F(ScoringTest, ScoreOneSkipsEmptyOthers) {
  ResponseScorer scorer(embedder_, ScoringWeights{});
  const auto query = embedder_->Embed("query");
  const auto* response = EmbedOne("query response");
  const double with_empty =
      scorer.ScoreOne(query, response, {nullptr, nullptr});
  const double alone = scorer.ScoreOne(query, response, {});
  EXPECT_DOUBLE_EQ(with_empty, alone);
  EXPECT_EQ(scorer.ScoreOne(query, nullptr, {EmbedOne("other")}), 0.0);
}

// The scores are exactly the cosines of the embeddings, summed in pool
// order: bit-equal to the same arithmetic done by hand.
TEST_F(ScoringTest, ScoresAreBitEqualToHandComputedCosines) {
  const ScoringWeights weights{0.7, 0.3};
  ResponseScorer scorer(embedder_, weights);
  const embedding::HashEmbedder hash;
  const std::string query = "what color does the veltrite mineral turn";
  const std::vector<std::string> texts{
      "the veltrite mineral turns crimson when heated", "",
      "veltrite becomes crimson under heat",
      "general maltok won the naval battle of drennos"};
  const auto q = hash.Embed(query);
  std::vector<embedding::Vector> vectors;
  for (const auto& text : texts) vectors.push_back(hash.Embed(text));

  const auto scores = scorer.ScoreRound(q, Embed(texts));
  ASSERT_EQ(scores.size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    RoundScore expected;
    if (!texts[i].empty()) {
      expected.query_similarity = embedding::CosineSimilarity(vectors[i], q);
      double sum = 0.0;
      size_t count = 0;
      for (size_t j = 0; j < texts.size(); ++j) {
        if (j == i || texts[j].empty()) continue;
        sum += embedding::CosineSimilarity(vectors[i], vectors[j]);
        ++count;
      }
      expected.inter_similarity = sum / static_cast<double>(count);
      expected.combined = weights.alpha * expected.query_similarity +
                          weights.beta * expected.inter_similarity;
    }
    EXPECT_EQ(std::memcmp(&scores[i].query_similarity,
                          &expected.query_similarity, sizeof(double)),
              0)
        << i;
    EXPECT_EQ(std::memcmp(&scores[i].inter_similarity,
                          &expected.inter_similarity, sizeof(double)),
              0)
        << i;
    EXPECT_EQ(std::memcmp(&scores[i].combined, &expected.combined,
                          sizeof(double)),
              0)
        << i;
  }

  const auto responses = Embed(texts);
  const double one = scorer.ScoreOne(
      q, responses[0], {responses[1], responses[2], responses[3]});
  EXPECT_EQ(std::memcmp(&one, &scores[0].combined, sizeof(double)), 0);
}

TEST_F(ScoringTest, RewardPrefersGoldenAlignedResponse) {
  const std::string golden = "the mineral turns crimson when heated";
  const std::vector<std::string> correct{"it becomes crimson under heat"};
  const std::vector<std::string> incorrect{
      "the mineral turns azure when heated"};
  const double good = ComputeReward(
      *embedder_, "the mineral turns crimson when heated", golden, correct,
      incorrect);
  const double bad = ComputeReward(
      *embedder_, "the mineral turns azure when heated", golden, correct,
      incorrect);
  EXPECT_GT(good, bad);
}

TEST_F(ScoringTest, RewardWeightsApplied) {
  const std::string golden = "crimson mineral";
  RewardWeights no_penalty{1.0, 0.5, 0.0};
  RewardWeights full_penalty{1.0, 0.5, 2.0};
  const std::string response = "azure mineral";
  const std::vector<std::string> incorrect{"azure mineral"};
  const double lenient =
      ComputeReward(*embedder_, response, golden, {}, incorrect, no_penalty);
  const double strict =
      ComputeReward(*embedder_, response, golden, {}, incorrect, full_penalty);
  EXPECT_GT(lenient, strict);
}

TEST_F(ScoringTest, RewardEmptySetsContributeZero) {
  const double r = ComputeReward(*embedder_, "any response", "", {}, {});
  EXPECT_DOUBLE_EQ(r, 0.0);
}

TEST(TokenF1Test, PerfectMatch) {
  EXPECT_DOUBLE_EQ(TokenF1("The capital is Paris", "the capital is paris!"),
                   1.0);
}

TEST(TokenF1Test, NoOverlap) {
  EXPECT_DOUBLE_EQ(TokenF1("alpha beta", "gamma delta"), 0.0);
}

TEST(TokenF1Test, PartialOverlapComputesHarmonicMean) {
  // response: {answer, 42, extra, words} (4), reference: {answer, 42} (2),
  // overlap 2 -> p=0.5, r=1.0 -> f1=2/3.
  EXPECT_NEAR(TokenF1("answer 42 extra words", "answer 42"), 2.0 / 3.0, 1e-9);
}

TEST(TokenF1Test, ArticlesIgnored) {
  EXPECT_DOUBLE_EQ(TokenF1("the answer", "answer"), 1.0);
}

TEST(TokenF1Test, BagSemanticsCountDuplicates) {
  // reference has one "x"; response has two -> only one counts.
  const double f1 = TokenF1("x x", "x y");
  // overlap=1, p=1/2, r=1/2 -> f1=1/2.
  EXPECT_NEAR(f1, 0.5, 1e-9);
}

TEST(TokenF1Test, EmptyEdgeCases) {
  EXPECT_DOUBLE_EQ(TokenF1("", ""), 1.0);
  EXPECT_DOUBLE_EQ(TokenF1("something", ""), 0.0);
  EXPECT_DOUBLE_EQ(TokenF1("", "something"), 0.0);
}

TEST(TokenF1Test, BestTokenF1TakesMaximum) {
  const double best = BestTokenF1("the city was founded in 1200",
                                  "completely different words",
                                  {"founded in 1200", "unrelated answer"});
  EXPECT_NEAR(best, TokenF1("the city was founded in 1200", "founded in 1200"),
              1e-9);
}

TEST(TokenF1Test, SymmetricInArguments) {
  const double ab = TokenF1("alpha beta gamma", "beta gamma delta");
  const double ba = TokenF1("beta gamma delta", "alpha beta gamma");
  EXPECT_NEAR(ab, ba, 1e-12);
}

}  // namespace
}  // namespace llmms::core
