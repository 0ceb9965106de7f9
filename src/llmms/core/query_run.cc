#include "llmms/core/query_run.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace llmms::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Status QueryRun::Start(llm::ModelRuntime* runtime,
                       std::vector<std::string> models) {
  models_ = std::move(models);
  llm::GenerationRequest request;
  request.prompt = prompt_;
  request.max_tokens = 0;  // the orchestrator enforces budgets itself
  request.context = config_.context;
  request.token_budget = config_.token_budget;
  request.scheduler_weight = config_.scheduler_weight;
  LLMMS_ASSIGN_OR_RETURN(generation_,
                         runtime->StartGeneration(models_, request));
  for (const auto& m : models_) {
    LLMMS_ASSIGN_OR_RETURN(auto stats, generation_->StatsOf(m));
    if (stats.failed) Quarantine(m, Status::Internal(stats.error));
  }
  return Status::OK();
}

void QueryRun::Report(const std::string& model, const llm::Chunk& chunk) {
  if (chunk.hedge != llm::HedgeOutcome::kNone) {
    Emit(EventType::kHedge, model, 0.0, llm::HedgeOutcomeToString(chunk.hedge));
  }
  if (chunk.num_tokens > 0 && callback_) {
    Emit(EventType::kChunk, model, 0.0, chunk.text);
  }
}

void QueryRun::Quarantine(const std::string& model, const Status& error) {
  failures_[model] = error;
  last_failure_ = error;
  Emit(EventType::kFailure, model, 0.0, error.message());
}

Status QueryRun::AllModelsFailed(const Status& last_error) const {
  // A pool that "failed" because the request's deadline expired (or the
  // client went away) is not an internal fault: keep the typed code so the
  // HTTP layer can answer 504 instead of 500.
  const StatusCode code =
      last_error.IsDeadlineExceeded() || last_error.IsCancelled()
          ? last_error.code()
          : StatusCode::kInternal;
  return Status(code, orchestrator_ + ": all " +
                          std::to_string(models_.size()) +
                          " models failed; last error: " +
                          last_error.ToString());
}

std::vector<std::string> QueryRun::Survivors() const {
  std::vector<std::string> out;
  for (const auto& m : models_) {
    if (pruned_.count(m) == 0 && !failed(m)) out.push_back(m);
  }
  return out;
}

void QueryRun::Score(const std::string& model, double score) {
  Emit(EventType::kScore, model, score);
  internal::PublishReward(feed_, model, score, round_, charged_, callback_,
                          &trace_);
}

const embedding::Vector& QueryRun::PromptEmbedding() {
  if (!prompt_embedded_) {
    prompt_embedding_ = scorer_.embedder().EmbedOnce(prompt_);
    prompt_embedded_ = true;
  }
  return prompt_embedding_;
}

StatusOr<std::vector<const embedding::Vector*>> QueryRun::Embeddings(
    const std::vector<std::string>& models) {
  std::vector<const embedding::Vector*> out;
  out.reserve(models.size());
  for (const auto& m : models) {
    LLMMS_ASSIGN_OR_RETURN(auto text, generation_->TextOf(m));
    ResponseEmbedding& response = responses_[m];
    if (text != response.text) {
      response.vector = scorer_.embedder().EmbedOnce(text);
      response.text = std::move(text);
    }
    out.push_back(response.text.empty() ? nullptr : &response.vector);
  }
  return out;
}

StatusOr<std::vector<RoundScore>> QueryRun::ScoreAll() {
  LLMMS_ASSIGN_OR_RETURN(const auto responses, Embeddings(models_));
  return scorer_.ScoreRound(PromptEmbedding(), responses);
}

std::pair<std::string, double> QueryRun::PickWinner(
    const std::vector<std::string>& pool,
    const std::function<double(const std::string&)>& value) const {
  std::pair<std::string, double> best{"", -kInf};
  for (const auto& m : pool) {
    if (failed(m)) continue;
    const double v = value(m);
    if (v > best.second) best = {m, v};
  }
  if (!best.first.empty()) return best;
  for (const auto& m : models_) {
    if (!failed(m)) return {m, best.second};
  }
  return best;
}

StatusOr<OrchestrationResult> QueryRun::Finish(
    const std::string& winner, double final_score,
    const std::function<RoundScore(size_t)>& score) {
  OrchestrationResult result;
  result.best_model = winner;
  LLMMS_ASSIGN_OR_RETURN(result.answer, generation_->TextOf(winner));
  result.total_tokens = generation_->TotalTokens();
  result.rounds = round_;
  result.early_stopped = early_stopped_;
  result.simulated_seconds = generation_->SimulatedWallSeconds();
  for (size_t i = 0; i < models_.size(); ++i) {
    const std::string& m = models_[i];
    ModelOutcome& outcome = result.per_model[m];
    LLMMS_ASSIGN_OR_RETURN(outcome.response, generation_->TextOf(m));
    LLMMS_ASSIGN_OR_RETURN(auto stats, generation_->StatsOf(m));
    outcome.tokens = stats.tokens;
    outcome.finished = stats.finished;
    outcome.stop_reason = stats.stop_reason;
    outcome.pruned = pruned_.count(m) > 0;
    outcome.failed = failed(m);
    if (outcome.failed) outcome.error = failures_.at(m).message();
    const RoundScore s = score(i);
    outcome.final_score = s.combined;
    outcome.query_similarity = s.query_similarity;
    outcome.inter_similarity = s.inter_similarity;
  }
  result.answer_tokens = result.per_model[winner].tokens;
  // Every generated token was charged, so the kFinal event's ledger equals
  // the result's total.
  Emit(EventType::kFinal, winner, final_score, result.answer);
  result.trace = std::move(trace_);
  return result;
}

void QueryRun::Emit(EventType type, const std::string& model, double score,
                    const std::string& text) {
  OrchestratorEvent event;
  event.type = type;
  event.model = model;
  event.text = text;
  event.score = score;
  event.round = round_;
  event.total_tokens = charged_;
  internal::Emit(event, callback_, &trace_);
}

StatusOr<std::vector<RoundScore>> RoundRobinPrune::Score(
    const std::vector<std::string>& candidates) {
  LLMMS_ASSIGN_OR_RETURN(const auto responses, run_->Embeddings(candidates));
  auto scores =
      run_->scorer().ScoreRound(run_->PromptEmbedding(), responses);
  for (size_t i = 0; i < candidates.size(); ++i) {
    last_[candidates[i]] = scores[i];
    run_->Score(candidates[i], scores[i].combined);
  }
  return scores;
}

std::pair<std::string, double> RoundRobinPrune::Victim(
    const std::vector<std::string>& pool, double margin) {
  std::string worst;
  double worst_score = kInf;
  double second_worst = kInf;
  for (const auto& m : pool) {
    const double s = last_[m].combined;
    if (s < worst_score) {
      second_worst = worst_score;
      worst_score = s;
      worst = m;
    } else if (s < second_worst) {
      second_worst = s;
    }
  }
  if (worst.empty() || !(second_worst - worst_score > margin)) return {};
  return {worst, worst_score};
}

Status Ucb1Allocate::Open(const std::vector<std::string>& pool,
                          double feed_prior_weight) {
  pool_ = pool;
  for (const auto& m : pool_) {
    LLMMS_ASSIGN_OR_RETURN(auto stats, run_->generation().StatsOf(m));
    Arm& arm = arms_[m];
    arm.finished = stats.finished;
    if (run_->feed() == nullptr || feed_prior_weight <= 0.0) continue;
    const RewardFeed::Estimate estimate = run_->feed()->EstimateFor(m);
    const double weight = std::min(feed_prior_weight, estimate.weight);
    if (weight <= 0.0) continue;
    arm.prior_weight = weight;
    arm.prior_sum = estimate.mean * weight;
  }
  return Status::OK();
}

double Ucb1Allocate::DecayedGamma() const {
  const double remaining_fraction =
      1.0 - static_cast<double>(run_->charged()) /
                static_cast<double>(run_->token_budget());
  return gamma0_ * std::max(0.0, remaining_fraction);
}

double Ucb1Allocate::Ucb(const Arm& arm, double gamma) const {
  const double bonus =
      gamma * std::sqrt(2.0 *
                        std::log(static_cast<double>(
                            std::max<size_t>(total_pulls_, 1))) /
                        arm.EffectivePulls());
  return arm.MeanReward() + bonus;
}

std::string Ucb1Allocate::Pick(double gamma) const {
  // An arm seeded with a feed prior is not "unpulled": the session already
  // paid for its evidence, so it competes on UCB immediately.
  for (const auto& m : pool_) {
    if (!arm(m).finished && arm(m).EffectivePulls() <= 0.0) return m;
  }
  std::string chosen;
  double best_ucb = -kInf;
  for (const auto& m : pool_) {
    if (arm(m).finished) continue;
    const double ucb = Ucb(arm(m), gamma);
    if (ucb > best_ucb) {
      best_ucb = ucb;
      chosen = m;
    }
  }
  return chosen;
}

StatusOr<Ucb1Allocate::Pull> Ucb1Allocate::PullArm(const std::string& model) {
  const size_t ask =
      std::min(chunk_tokens_, run_->token_budget() - run_->charged());
  auto chunk_or = run_->generation().NextChunk(model, ask);
  Arm& arm = arms_[model];
  if (!chunk_or.ok()) {
    // The arm leaves; the shared budget it can no longer draw from flows to
    // the surviving arms.
    run_->Quarantine(model, chunk_or.status());
    arm.finished = true;
    if (run_->all_failed()) {
      return run_->AllModelsFailed(run_->last_failure());
    }
    return Pull::kFailed;
  }
  const llm::Chunk chunk = std::move(chunk_or).value();
  run_->Record(model, chunk);
  if (run_->Stalled(chunk.num_tokens > 0 || chunk.done)) return Pull::kStalled;

  LLMMS_ASSIGN_OR_RETURN(const auto embeddings, run_->Embeddings(pool_));
  const embedding::Vector* response = nullptr;
  std::vector<const embedding::Vector*> others;
  for (size_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i] == model) {
      response = embeddings[i];
    } else {
      others.push_back(embeddings[i]);
    }
  }
  const double reward =
      run_->scorer().ScoreOne(run_->PromptEmbedding(), response, others);
  arm.reward_sum += reward;
  ++arm.pulls;
  ++total_pulls_;
  if (chunk.done) {
    arm.finished = true;
    arm.stop_reason = chunk.stop_reason;
  }
  run_->Score(model, reward);
  return Pull::kScored;
}

std::pair<std::string, double> Ucb1Allocate::Dominant(double gamma) const {
  std::pair<std::string, double> best{"", -kInf};
  for (const auto& m : pool_) {
    const Arm& a = arm(m);
    if (a.finished && a.pulls > 0 && a.stop_reason == llm::StopReason::kStop &&
        a.MeanReward() > best.second) {
      best = {m, a.MeanReward()};
    }
  }
  if (best.first.empty()) return {};
  for (const auto& m : pool_) {
    const Arm& a = arm(m);
    if (a.finished) continue;
    if (a.EffectivePulls() <= 0.0 || Ucb(a, gamma) >= best.second) return {};
  }
  return best;
}

const Arm& Ucb1Allocate::arm(const std::string& model) const {
  static const Arm kNoArm;
  const auto it = arms_.find(model);
  return it != arms_.end() ? it->second : kNoArm;
}

}  // namespace llmms::core
