#include "llmms/core/oua.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "llmms/core/query_run.h"

namespace llmms::core {

StatusOr<OrchestrationResult> OuaOrchestrator::Run(
    const std::string& prompt, const EventCallback& callback) {
  if (models_.empty()) {
    return Status::FailedPrecondition("OUA requires at least one model");
  }
  if (config_.token_budget == 0) {
    return Status::InvalidArgument("token_budget must be positive");
  }
  QueryRun run(name(), prompt, config_, scorer_, config_.reward_feed,
               callback);
  LLMMS_RETURN_NOT_OK(run.Start(runtime_, models_));
  RoundRobinPrune screen(&run);

  // Each model draws from its own allowance, lambda = lambda_max / N.
  // `active`: still generating; finished models stay candidates to win.
  std::unordered_map<std::string, size_t> allowance;
  std::unordered_map<std::string, size_t> spent;
  for (const auto& m : models_) {
    allowance[m] = config_.token_budget / models_.size();
  }
  std::vector<std::string> active = models_;

  // A pruned or failed model leaves the active set and hands its unspent
  // allowance to the survivors — a model that is out must not strand budget.
  auto retire = [&](const std::string& model) {
    const size_t leftover =
        allowance[model] > spent[model] ? allowance[model] - spent[model] : 0;
    active.erase(std::remove(active.begin(), active.end(), model),
                 active.end());
    if (!active.empty() && leftover > 0) {
      const size_t share = leftover / active.size();
      for (const auto& m : active) allowance[m] += share;
    }
  };
  for (const auto& m : models_) {
    if (run.failed(m)) retire(m);
  }

  std::string winner;  // set by an early stop
  while (!active.empty() && winner.empty()) {
    LLMMS_RETURN_NOT_OK(run.Check());
    run.NextRound();

    // --- Round-robin chunk generation (Algorithm 1 lines 5-9). ---
    std::vector<std::pair<std::string, size_t>> requests;
    for (const auto& m : active) {
      const size_t remaining = allowance[m] - spent[m];
      if (remaining == 0) continue;
      requests.emplace_back(m, std::min(config_.chunk_tokens, remaining));
    }
    if (requests.empty()) break;  // every active model exhausted its budget
    LLMMS_ASSIGN_OR_RETURN(auto batch, run.generation().NextChunks(requests));
    // The round's chunks ran in parallel, so the round is charged as one:
    // every event of the round carries the ledger after the whole batch.
    size_t round_tokens = 0;
    for (const auto& [model, chunk] : batch.chunks) {
      spent[model] += chunk.num_tokens;
      round_tokens += chunk.num_tokens;
    }
    run.Charge(round_tokens);
    for (const auto& [model, error] : batch.errors) {
      run.Quarantine(model, error);
      retire(model);
    }
    for (const auto& [model, chunk] : batch.chunks) run.Report(model, chunk);
    if (run.Stalled(round_tokens > 0)) break;

    // --- Scoring (Algorithm 1 lines 10-15). ---
    const std::vector<std::string> candidates = run.Survivors();
    if (candidates.empty()) break;  // everyone failed: handled below
    LLMMS_ASSIGN_OR_RETURN(const auto scores, screen.Score(candidates));

    // --- Early stop (lines 16-19): the best candidate wins now when it
    // leads by the margin and finished with done reason "stop". ---
    size_t best_index = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    double second_best = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (scores[i].combined > best_score) {
        second_best = best_score;
        best_score = scores[i].combined;
        best_index = i;
      } else if (scores[i].combined > second_best) {
        second_best = scores[i].combined;
      }
    }
    if (candidates.size() > 1 &&
        best_score > second_best + config_.early_stop_margin) {
      LLMMS_ASSIGN_OR_RETURN(
          auto stats, run.generation().StatsOf(candidates[best_index]));
      if (stats.finished && stats.stop_reason == llm::StopReason::kStop) {
        winner = candidates[best_index];
        run.EarlyStop(winner, best_score);
        break;
      }
    }

    // --- Pruning (lines 20-23), among the models still generating. ---
    if (active.size() > 1 && run.round() >= config_.min_rounds_before_prune) {
      const auto [victim, victim_score] =
          screen.Victim(active, config_.prune_margin);
      if (!victim.empty()) {
        run.Prune(victim, victim_score);
        retire(victim);
      }
    }

    // --- Models that finished naturally or exhausted their allowance stop
    // consuming tokens but stay candidates. ---
    std::vector<std::string> still_active;
    for (const auto& m : active) {
      LLMMS_ASSIGN_OR_RETURN(auto stats, run.generation().StatsOf(m));
      if (!stats.finished && spent[m] < allowance[m]) still_active.push_back(m);
    }
    active = std::move(still_active);
  }

  // --- Final selection (line 25): the best last round score among the
  // models neither pruned nor failed. Failed models never win; a fully
  // failed pool is a typed error naming the failure of the pool's last
  // model. ---
  if (run.all_failed()) {
    return run.AllModelsFailed(run.failure(models_.back()));
  }
  if (winner.empty()) {
    auto last_score = [&screen](const std::string& m) {
      const RoundScore* last = screen.last(m);
      return last != nullptr ? last->combined
                             : -std::numeric_limits<double>::infinity();
    };
    winner = run.PickWinner(run.Survivors(), last_score).first;
  }
  auto final_score = [&screen](const std::string& m) {
    const RoundScore* last = screen.last(m);
    return last != nullptr ? *last : RoundScore();
  };
  return run.Finish(winner, final_score(winner).combined,
                    [&](size_t i) { return final_score(models_[i]); });
}

}  // namespace llmms::core
