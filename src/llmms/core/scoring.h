#ifndef LLMMS_CORE_SCORING_H_
#define LLMMS_CORE_SCORING_H_

#include <memory>
#include <string>
#include <vector>

#include "llmms/embedding/embedder.h"

namespace llmms::core {

// Weights of the orchestration score (Eq. 6.1 / Algorithm 1 line 1):
// score = alpha * sim(query, response) + beta * inter-model agreement.
struct ScoringWeights {
  double alpha = 0.7;
  double beta = 0.3;
};

// Per-model scores for one evaluation round.
struct RoundScore {
  double query_similarity = 0.0;  // cos(resp, query)
  double inter_similarity = 0.0;  // mean cos against other responses
  double combined = 0.0;          // alpha*query + beta*inter
};

// Computes the per-round scores the orchestrators rank models by, from
// embeddings the caller owns: QueryRun embeds the query once and each
// response only when its text changes (DESIGN.md §5).
class ResponseScorer {
 public:
  ResponseScorer(std::shared_ptr<const embedding::Embedder> embedder,
                 ScoringWeights weights);

  // Scores each response against `query` and against the other responses.
  // A null response stands for an empty one and scores 0 on both
  // components.
  std::vector<RoundScore> ScoreRound(
      const embedding::Vector& query,
      const std::vector<const embedding::Vector*>& responses) const;

  // Scalar reward of one response given the other models' responses
  // (Algorithm 2 line 9). Null `response` scores 0; null `others` are
  // skipped.
  double ScoreOne(const embedding::Vector& query,
                  const embedding::Vector* response,
                  const std::vector<const embedding::Vector*>& others) const;

  const ScoringWeights& weights() const { return weights_; }
  const embedding::Embedder& embedder() const { return *embedder_; }

 private:
  std::shared_ptr<const embedding::Embedder> embedder_;
  ScoringWeights weights_;
};

// Weights of the TruthfulQA answer-quality reward (Eq. 8.1):
// reward = w1*sim(resp, golden) + w2*sim(resp, correct) - w3*sim(resp, incorrect).
struct RewardWeights {
  double w1 = 1.0;
  double w2 = 0.5;
  double w3 = 0.5;
};

// Eq. 8.1. Set similarity is the mean cosine over the set's members; empty
// sets contribute 0.
double ComputeReward(const embedding::Embedder& embedder,
                     const std::string& response, const std::string& golden,
                     const std::vector<std::string>& correct,
                     const std::vector<std::string>& incorrect,
                     const RewardWeights& weights = RewardWeights());

// SQuAD-style token-overlap F1 between a response and one reference answer
// (normalized words, bag semantics).
double TokenF1(const std::string& response, const std::string& reference);

// Max TokenF1 of `response` against golden plus every correct answer — the
// per-question F1 used by the evaluation (§8.2).
double BestTokenF1(const std::string& response, const std::string& golden,
                   const std::vector<std::string>& correct);

}  // namespace llmms::core

#endif  // LLMMS_CORE_SCORING_H_
