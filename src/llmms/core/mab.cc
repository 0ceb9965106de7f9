#include "llmms/core/mab.h"

#include <limits>

#include "llmms/core/query_run.h"

namespace llmms::core {

StatusOr<OrchestrationResult> MabOrchestrator::Run(
    const std::string& prompt, const EventCallback& callback) {
  if (models_.empty()) {
    return Status::FailedPrecondition("MAB requires at least one model");
  }
  if (config_.token_budget == 0 || config_.chunk_tokens == 0) {
    return Status::InvalidArgument("token_budget and chunk_tokens must be > 0");
  }
  QueryRun run(name(), prompt, config_, scorer_, config_.reward_feed,
               callback);
  LLMMS_RETURN_NOT_OK(run.Start(runtime_, models_));
  Ucb1Allocate bandit(&run, config_.gamma0, config_.chunk_tokens);
  LLMMS_RETURN_NOT_OK(bandit.Open(models_, config_.feed_prior_weight));
  auto gamma = [&]() {
    return config_.decay_gamma ? bandit.DecayedGamma() : config_.gamma0;
  };

  while (run.charged() < config_.token_budget) {
    LLMMS_RETURN_NOT_OK(run.Check());
    run.NextRound();
    // --- Arm selection, pull and reward (Algorithm 2 lines 3-10). ---
    const std::string chosen = bandit.Pick(gamma());
    if (chosen.empty()) break;  // every arm finished
    LLMMS_ASSIGN_OR_RETURN(const auto pull, bandit.PullArm(chosen));
    if (pull == Ucb1Allocate::Pull::kStalled) break;
    if (pull == Ucb1Allocate::Pull::kFailed) continue;
    // --- Termination (lines 12-14). ---
    const auto [dominant, mean] = bandit.Dominant(gamma());
    if (!dominant.empty()) {
      run.EarlyStop(dominant, mean);
      break;
    }
  }

  // --- Final selection (line 16): the highest mean reward across the arm's
  // pulls — the bandit's value estimate, averaged over many partial-response
  // observations. Failed arms never win; a fully failed pool is a typed
  // error. ---
  if (run.all_failed()) return run.AllModelsFailed(run.last_failure());
  LLMMS_ASSIGN_OR_RETURN(const auto final_scores, run.ScoreAll());
  const auto [winner, best] =
      run.PickWinner(models_, [&bandit](const std::string& m) {
        const Arm& arm = bandit.arm(m);
        return arm.pulls > 0 ? arm.MeanReward()
                             : -std::numeric_limits<double>::infinity();
      });
  return run.Finish(winner, best, [&](size_t i) {
    RoundScore score = final_scores[i];
    // A never-pulled arm reports its prior mean.
    score.combined = bandit.arm(models_[i]).MeanReward();
    return score;
  });
}

}  // namespace llmms::core
