#include "llmms/core/scoring.h"

#include <algorithm>
#include <unordered_map>

#include "llmms/embedding/similarity.h"
#include "llmms/tokenizer/word_tokenizer.h"

namespace llmms::core {

ResponseScorer::ResponseScorer(
    std::shared_ptr<const embedding::Embedder> embedder,
    ScoringWeights weights)
    : embedder_(std::move(embedder)), weights_(weights) {}

std::vector<RoundScore> ResponseScorer::ScoreRound(
    const embedding::Vector& query,
    const std::vector<const embedding::Vector*>& responses) const {
  std::vector<RoundScore> scores(responses.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    if (responses[i] == nullptr) continue;
    RoundScore& s = scores[i];
    s.query_similarity = embedding::CosineSimilarity(*responses[i], query);
    double inter_sum = 0.0;
    size_t inter_count = 0;
    for (size_t j = 0; j < responses.size(); ++j) {
      if (j == i || responses[j] == nullptr) continue;
      inter_sum += embedding::CosineSimilarity(*responses[i], *responses[j]);
      ++inter_count;
    }
    s.inter_similarity =
        inter_count > 0 ? inter_sum / static_cast<double>(inter_count) : 0.0;
    s.combined =
        weights_.alpha * s.query_similarity + weights_.beta * s.inter_similarity;
  }
  return scores;
}

double ResponseScorer::ScoreOne(
    const embedding::Vector& query, const embedding::Vector* response,
    const std::vector<const embedding::Vector*>& others) const {
  if (response == nullptr) return 0.0;
  const double query_similarity =
      embedding::CosineSimilarity(*response, query);
  double inter_sum = 0.0;
  size_t inter_count = 0;
  for (const auto* other : others) {
    if (other == nullptr) continue;
    inter_sum += embedding::CosineSimilarity(*response, *other);
    ++inter_count;
  }
  const double inter =
      inter_count > 0 ? inter_sum / static_cast<double>(inter_count) : 0.0;
  return weights_.alpha * query_similarity + weights_.beta * inter;
}

namespace {

double MeanSimilarityToSet(const embedding::Embedder& embedder,
                           const embedding::Vector& response_embedding,
                           const std::vector<std::string>& texts) {
  if (texts.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& text : texts) {
    sum += embedding::CosineSimilarity(response_embedding,
                                       embedder.Embed(text));
  }
  return sum / static_cast<double>(texts.size());
}

}  // namespace

double ComputeReward(const embedding::Embedder& embedder,
                     const std::string& response, const std::string& golden,
                     const std::vector<std::string>& correct,
                     const std::vector<std::string>& incorrect,
                     const RewardWeights& weights) {
  const auto response_embedding = embedder.Embed(response);
  const double golden_sim =
      golden.empty() ? 0.0
                     : embedding::CosineSimilarity(response_embedding,
                                                   embedder.Embed(golden));
  const double correct_sim =
      MeanSimilarityToSet(embedder, response_embedding, correct);
  const double incorrect_sim =
      MeanSimilarityToSet(embedder, response_embedding, incorrect);
  return weights.w1 * golden_sim + weights.w2 * correct_sim -
         weights.w3 * incorrect_sim;
}

double TokenF1(const std::string& response, const std::string& reference) {
  static const tokenizer::WordTokenizer::Options kOpts{
      .lowercase = true,
      .strip_punctuation = true,
      .remove_articles = true,
      .remove_stopwords = false,
  };
  static const tokenizer::WordTokenizer kTokenizer(kOpts);
  const auto response_tokens = kTokenizer.Tokenize(response);
  const auto reference_tokens = kTokenizer.Tokenize(reference);
  if (response_tokens.empty() || reference_tokens.empty()) {
    return response_tokens.empty() && reference_tokens.empty() ? 1.0 : 0.0;
  }
  std::unordered_map<std::string, int> reference_counts;
  for (const auto& t : reference_tokens) ++reference_counts[t];
  int overlap = 0;
  for (const auto& t : response_tokens) {
    auto it = reference_counts.find(t);
    if (it != reference_counts.end() && it->second > 0) {
      --it->second;
      ++overlap;
    }
  }
  if (overlap == 0) return 0.0;
  const double precision =
      static_cast<double>(overlap) / static_cast<double>(response_tokens.size());
  const double recall = static_cast<double>(overlap) /
                        static_cast<double>(reference_tokens.size());
  return 2.0 * precision * recall / (precision + recall);
}

double BestTokenF1(const std::string& response, const std::string& golden,
                   const std::vector<std::string>& correct) {
  double best = golden.empty() ? 0.0 : TokenF1(response, golden);
  for (const auto& ref : correct) {
    best = std::max(best, TokenF1(response, ref));
  }
  return best;
}

}  // namespace llmms::core
