#ifndef LLMMS_CORE_MAB_H_
#define LLMMS_CORE_MAB_H_

#include <string>

#include "llmms/core/orchestrator.h"
#include "llmms/core/reward_feed.h"

namespace llmms::core {

// Multi-Armed Bandit orchestrator (Algorithm 2): each model is an arm with
// an unknown reward distribution. Token chunks are pulled one at a time by
// the UCB1 policy
//
//   UCB_i = mean_reward_i + gamma * sqrt(2 ln(totalPulls) / pulls_i)
//
// with the exploration coefficient decaying as the budget is consumed:
// gamma = gamma0 * (1 - usedTokens / lambda_max). The pull's reward is
// alpha*sim(query, response) + beta*avgInterModelSimilarity over the arm's
// accumulated response. Arms that finished naturally stop being pullable;
// the orchestration ends when the budget is exhausted, every arm finished,
// or a finished arm's mean reward dominates every live arm's upper bound.
// The answer is the response of the arm with the highest mean reward across
// its pulls (the bandit's value estimate, averaged over many
// partial-response observations).
struct MabConfig : QueryConfig {
  size_t chunk_tokens = 16;    // tokens per pull
  double gamma0 = 0.3;         // initial exploration coefficient
  bool decay_gamma = true;     // gamma = gamma0*(1 - used/budget)
  // When set, every pull reward is published so adaptive hedged models
  // can move their thresholds (DESIGN.md §11). Must outlive the
  // orchestrator; null disables the feedback loop.
  RewardFeed* reward_feed = nullptr;
  // Feed-prior re-ranking (DESIGN.md §16): when > 0 and `reward_feed` is
  // set, each arm starts with the feed's current estimate for its model
  // as `feed_prior_weight` virtual pulls (capped by the estimate's own
  // retained weight, so a barely observed model gets a barely weighted
  // prior). Arms carrying a prior skip the guaranteed cold-start pull —
  // across a session the bandit stops spending a free exploration chunk
  // per query on models the pool already knows are bad, which is where
  // the reward/token win comes from. 0 preserves the per-query cold
  // start exactly (the default).
  double feed_prior_weight = 0.0;
};

class MabOrchestrator final : public PoolOrchestrator<MabConfig> {
 public:
  using PoolOrchestrator::PoolOrchestrator;
  using Orchestrator::Run;
  StatusOr<OrchestrationResult> Run(const std::string& prompt,
                                    const EventCallback& callback) override;
  std::string name() const override { return "llm-ms-mab"; }
};

}  // namespace llmms::core

#endif  // LLMMS_CORE_MAB_H_
