#ifndef LLMMS_CORE_OUA_H_
#define LLMMS_CORE_OUA_H_

#include <string>

#include "llmms/core/orchestrator.h"
#include "llmms/core/reward_feed.h"

namespace llmms::core {

// Overperformers–Underperformers Algorithm (Algorithm 1).
//
// The token budget lambda_max is split evenly: each of the N models gets an
// allowance of lambda_max/N. Models generate round-robin in chunks; after
// each round every partial response is scored by
// alpha*cos(resp, query) + beta*meanInterSim. The round's best model ends
// the search early when it leads the runner-up by `early_stop_margin` AND
// finished naturally (done reason "stop"); the round's worst model is pruned
// when the second-worst leads it by `prune_margin`, and its unspent
// allowance is redistributed to the survivors. When no active model
// remains, the highest-scoring response wins.
//
// Margin defaults are calibrated to this library's hash-embedding cosine
// scale (the thesis's 0.5 presumes a different embedding scale; see
// DESIGN.md §5 and the prune-margin ablation bench).
struct OuaConfig : QueryConfig {
  size_t chunk_tokens = 8;         // tokens per getChunk call per round
  double early_stop_margin = 0.0;  // best > 2nd best + margin => return
  double prune_margin = 0.02;      // 2nd worst - worst > margin => prune
  // Pruning starts after this many rounds so every model gets a hearing.
  size_t min_rounds_before_prune = 1;
  // When set, every round score is published as a reward observation so
  // adaptive hedged models can move their thresholds (DESIGN.md §11).
  // Must outlive the orchestrator; null disables the feedback loop.
  RewardFeed* reward_feed = nullptr;
};

class OuaOrchestrator final : public PoolOrchestrator<OuaConfig> {
 public:
  using PoolOrchestrator::PoolOrchestrator;
  using Orchestrator::Run;
  StatusOr<OrchestrationResult> Run(const std::string& prompt,
                                    const EventCallback& callback) override;
  std::string name() const override { return "llm-ms-oua"; }
};

}  // namespace llmms::core

#endif  // LLMMS_CORE_OUA_H_
