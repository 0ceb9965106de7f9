#include "llmms/core/hybrid.h"

#include <algorithm>

#include "llmms/core/query_run.h"

namespace llmms::core {

StatusOr<OrchestrationResult> HybridOrchestrator::Run(
    const std::string& prompt, const EventCallback& callback) {
  if (models_.empty()) {
    return Status::FailedPrecondition("hybrid requires at least one model");
  }
  if (config_.token_budget == 0 || config_.chunk_tokens == 0 ||
      config_.mab_chunk_tokens == 0) {
    return Status::InvalidArgument("budgets and chunk sizes must be > 0");
  }
  QueryRun run(name(), prompt, config_, scorer_, config_.reward_feed,
               callback);
  LLMMS_RETURN_NOT_OK(run.Start(runtime_, models_));

  // ---------------- Phase 1: OUA-style round-robin screening. Every
  // unfinished survivor draws from one shared budget, and each chunk is
  // charged as it is reported. ----------------
  RoundRobinPrune screen(&run);
  for (size_t screening = 0; screening < config_.screening_rounds; ++screening) {
    LLMMS_RETURN_NOT_OK(run.Check());
    run.NextRound();
    std::vector<std::pair<std::string, size_t>> requests;
    for (const auto& m : run.Survivors()) {
      LLMMS_ASSIGN_OR_RETURN(auto stats, run.generation().StatsOf(m));
      if (stats.finished) continue;
      const size_t remaining = config_.token_budget - run.charged();
      if (remaining == 0) break;
      requests.emplace_back(m, std::min(config_.chunk_tokens, remaining));
    }
    if (!requests.empty()) {
      LLMMS_ASSIGN_OR_RETURN(auto batch,
                             run.generation().NextChunks(requests));
      for (const auto& [model, error] : batch.errors) {
        run.Quarantine(model, error);
      }
      size_t round_tokens = 0;
      for (const auto& [model, chunk] : batch.chunks) {
        run.Record(model, chunk);
        round_tokens += chunk.num_tokens;
      }
      if (run.Stalled(round_tokens > 0)) break;
    }

    const auto active = run.Survivors();
    if (active.empty()) break;  // everyone failed: handled after phase 2
    LLMMS_RETURN_NOT_OK(screen.Score(active).status());
    if (active.size() <= config_.min_survivors) continue;
    const auto [victim, victim_score] =
        screen.Victim(active, config_.prune_margin);
    if (!victim.empty()) run.Prune(victim, victim_score);
  }

  // ---------------- Phase 2: UCB1 allocation among the survivors, with the
  // decaying exploration coefficient. ----------------
  const auto contenders = run.Survivors();
  Ucb1Allocate bandit(&run, config_.gamma0, config_.mab_chunk_tokens);
  LLMMS_RETURN_NOT_OK(bandit.Open(contenders, config_.feed_prior_weight));
  while (run.charged() < config_.token_budget) {
    LLMMS_RETURN_NOT_OK(run.Check());
    run.NextRound();
    const std::string chosen = bandit.Pick(bandit.DecayedGamma());
    if (chosen.empty()) break;  // every survivor finished
    LLMMS_ASSIGN_OR_RETURN(const auto pull, bandit.PullArm(chosen));
    if (pull == Ucb1Allocate::Pull::kStalled) break;
  }

  // ---------------- Final selection: the mean reward of arms pulled in
  // phase 2, the phase-1 score of arms that finished during screening.
  // Failed models never win; a fully failed pool is a typed error. ---------
  if (run.all_failed()) return run.AllModelsFailed(run.last_failure());
  auto value = [&](const std::string& m) {
    const Arm& arm = bandit.arm(m);
    if (arm.pulls > 0) return arm.MeanReward();
    const RoundScore* last = screen.last(m);
    return last != nullptr ? last->combined : 0.0;
  };
  const auto [winner, best] = run.PickWinner(contenders, value);
  LLMMS_ASSIGN_OR_RETURN(const auto final_scores, run.ScoreAll());
  return run.Finish(winner, best, [&](size_t i) {
    RoundScore score = final_scores[i];
    score.combined = value(models_[i]);
    return score;
  });
}

}  // namespace llmms::core
