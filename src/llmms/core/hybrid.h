#ifndef LLMMS_CORE_HYBRID_H_
#define LLMMS_CORE_HYBRID_H_

#include <string>

#include "llmms/core/orchestrator.h"
#include "llmms/core/reward_feed.h"

namespace llmms::core {

// The hybrid strategy the thesis's analysis proposes (§8.4: "A hybrid
// approach could potentially leverage the advantages of both methods"):
//
//   Phase 1 (OUA-style screening): every model generates round-robin chunks
//   for `screening_rounds` rounds; the per-round worst model is pruned when
//   the prune margin is met — conserving tokens on clear losers early.
//
//   Phase 2 (MAB-style allocation): the survivors become UCB1 arms; chunks
//   are pulled adaptively with the decaying exploration coefficient until
//   the budget is spent or every survivor finishes.
//
// The answer is the survivor with the highest mean reward. Compared in
// bench/ablation_hybrid against its two parents.
struct HybridConfig : QueryConfig {
  size_t chunk_tokens = 8;       // phase-1 round-robin chunk
  size_t screening_rounds = 3;   // phase-1 length
  double prune_margin = 0.02;    // phase-1 pruning threshold
  size_t min_survivors = 2;      // phase 1 never prunes below this
  size_t mab_chunk_tokens = 16;  // phase-2 pull size
  double gamma0 = 0.3;           // phase-2 exploration coefficient
  // When set, both phases publish their reward observations so adaptive
  // hedged models can move their thresholds (DESIGN.md §11). Must outlive
  // the orchestrator; null disables the feedback loop.
  RewardFeed* reward_feed = nullptr;
  // Feed-prior re-ranking for phase 2 (DESIGN.md §16): when > 0 and
  // `reward_feed` is set, each surviving arm starts with the feed's
  // current estimate as up to this many virtual pulls (capped by the
  // estimate's retained weight) and skips the guaranteed cold-start
  // pull. 0 preserves the per-query cold start exactly (the default).
  double feed_prior_weight = 0.0;
};

class HybridOrchestrator final : public PoolOrchestrator<HybridConfig> {
 public:
  using PoolOrchestrator::PoolOrchestrator;
  using Orchestrator::Run;
  StatusOr<OrchestrationResult> Run(const std::string& prompt,
                                    const EventCallback& callback) override;
  std::string name() const override { return "llm-ms-hybrid"; }
};

}  // namespace llmms::core

#endif  // LLMMS_CORE_HYBRID_H_
