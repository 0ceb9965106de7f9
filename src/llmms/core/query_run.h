#ifndef LLMMS_CORE_QUERY_RUN_H_
#define LLMMS_CORE_QUERY_RUN_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "llmms/core/orchestrator.h"
#include "llmms/core/reward_feed.h"
#include "llmms/core/scoring.h"
#include "llmms/llm/runtime.h"

namespace llmms::core {

// The round engine every orchestrator runs on (DESIGN.md §5). A QueryRun is
// one query over one pool: it starts the streams, owns the round counter,
// the charged-token ledger, the quarantine and prune sets and the stall
// guard, emits every event with `round` and `total_tokens` filled in
// (mirrored into the trace), and assembles the result. Policies decide who
// generates next; the QueryRun books what happened.
class QueryRun {
 public:
  // `config`, `scorer` and `callback` must outlive the run; a null `feed`
  // disables reward publication.
  QueryRun(std::string orchestrator, std::string prompt,
           const QueryConfig& config, const ResponseScorer& scorer,
           RewardFeed* feed, const EventCallback& callback)
      : orchestrator_(std::move(orchestrator)), prompt_(std::move(prompt)),
        config_(config), scorer_(scorer), feed_(feed), callback_(callback) {}

  // Starts the pool's streams and quarantines every model that refused to.
  Status Start(llm::ModelRuntime* runtime, std::vector<std::string> models);

  // An expired or cancelled request ends the query with its typed status
  // before any more tokens are bought for it.
  Status Check() const {
    return config_.context != nullptr ? config_.context->Check() : Status::OK();
  }
  void NextRound() { ++round_; }

  // The anti-hang guard, fed once per round or pull: true once
  // kMaxStalledRounds in a row made no progress.
  bool Stalled(bool progressed) {
    stalled_ = progressed ? 0 : stalled_ + 1;
    return stalled_ >= kMaxStalledRounds;
  }

  // The ledger. Report() emits a delivered chunk's hedge and chunk events at
  // the current ledger; Record() charges the chunk first.
  void Charge(size_t tokens) { charged_ += tokens; }
  void Report(const std::string& model, const llm::Chunk& chunk);
  void Record(const std::string& model, const llm::Chunk& chunk) {
    Charge(chunk.num_tokens);
    Report(model, chunk);
  }

  // Takes a failed model out of the query for good and emits kFailure.
  void Quarantine(const std::string& model, const Status& error);
  bool failed(const std::string& model) const {
    return failures_.count(model) > 0;
  }
  bool all_failed() const { return failures_.size() == models_.size(); }
  const Status& failure(const std::string& model) const {
    return failures_.at(model);
  }
  const Status& last_failure() const { return last_failure_; }
  // The typed terminal error of a fully failed pool, carrying `last_error`
  // for diagnosis instead of an answer fabricated from a failed model.
  Status AllModelsFailed(const Status& last_error) const;

  void Prune(const std::string& model, double score) {
    pruned_.insert(model);
    Emit(EventType::kPrune, model, score);
  }
  // Pool models neither pruned nor failed, in pool order.
  std::vector<std::string> Survivors() const;

  // kScore for `model`, then its publication to the reward feed.
  void Score(const std::string& model, double score);
  void EarlyStop(const std::string& model, double score) {
    early_stopped_ = true;
    Emit(EventType::kEarlyStop, model, score);
  }

  // The query's scoring embeddings (DESIGN.md §5). The prompt is embedded
  // once; each model's response again only when its text changed since the
  // last call. Both use EmbedOnce, so these one-query texts never enter a
  // shared embedding cache, and they are freed with the run.
  const embedding::Vector& PromptEmbedding();
  // One entry per `models` entry, null for an empty response. A pointer
  // stays valid until the same model's response is embedded again.
  StatusOr<std::vector<const embedding::Vector*>> Embeddings(
      const std::vector<std::string>& models);
  // One ScoreRound over every pool model's current response.
  StatusOr<std::vector<RoundScore>> ScoreAll();

  // The healthy `pool` model with the highest `value` (ties keep the
  // earlier one) and that value; when no value beats -inf, the first
  // healthy model of the whole pool, with -inf.
  std::pair<std::string, double> PickWinner(
      const std::vector<std::string>& pool,
      const std::function<double(const std::string&)>& value) const;

  // Closes the query: every model's outcome from its stream, the quarantine
  // and prune sets, and `score(i)`, the final score of pool model i; then
  // kFinal for `winner` carrying `final_score`.
  StatusOr<OrchestrationResult> Finish(
      const std::string& winner, double final_score,
      const std::function<RoundScore(size_t)>& score);

  llm::ParallelGeneration& generation() { return *generation_; }
  const ResponseScorer& scorer() const { return scorer_; }
  RewardFeed* feed() const { return feed_; }
  size_t token_budget() const { return config_.token_budget; }
  size_t round() const { return round_; }
  size_t charged() const { return charged_; }

 private:
  void Emit(EventType type, const std::string& model, double score,
            const std::string& text = "");

  const std::string orchestrator_;
  const std::string prompt_;
  const QueryConfig& config_;
  const ResponseScorer& scorer_;
  RewardFeed* const feed_;
  const EventCallback& callback_;

  std::vector<std::string> models_;
  std::unique_ptr<llm::ParallelGeneration> generation_;
  size_t round_ = 0;
  size_t charged_ = 0;
  size_t stalled_ = 0;
  bool early_stopped_ = false;
  std::unordered_map<std::string, Status> failures_;
  Status last_failure_;
  std::unordered_set<std::string> pruned_;
  std::vector<TraceEntry> trace_;

  struct ResponseEmbedding {
    std::string text;  // the response `vector` embeds
    embedding::Vector vector;
  };
  bool prompt_embedded_ = false;
  embedding::Vector prompt_embedding_;
  std::unordered_map<std::string, ResponseEmbedding> responses_;
};

// Algorithm 1's screening round, shared by OUA and hybrid phase 1.
class RoundRobinPrune {
 public:
  explicit RoundRobinPrune(QueryRun* run) : run_(run) {}

  // Scores the candidates as one round (Algorithm 1 lines 10-15), emitting
  // and publishing each score and keeping it as the model's last score.
  StatusOr<std::vector<RoundScore>> Score(
      const std::vector<std::string>& candidates);

  // The round's prune victim among `pool` and its score (lines 20-23): the
  // worst last score, when the second-worst leads it by more than `margin`;
  // an empty name otherwise.
  std::pair<std::string, double> Victim(const std::vector<std::string>& pool,
                                        double margin);

  // The model's last round score; null when it was never scored.
  const RoundScore* last(const std::string& model) const {
    const auto it = last_.find(model);
    return it != last_.end() ? &it->second : nullptr;
  }

 private:
  QueryRun* run_;
  std::unordered_map<std::string, RoundScore> last_;
};

// One UCB1 arm (Algorithm 2). Feed-prior virtual evidence (DESIGN.md §16)
// is folded into the value estimate and the pull count as virtual pulls.
struct Arm {
  double reward_sum = 0.0;
  size_t pulls = 0;
  double prior_sum = 0.0;
  double prior_weight = 0.0;
  bool finished = false;  // done or failed: never pulled again
  llm::StopReason stop_reason = llm::StopReason::kLength;

  double EffectivePulls() const {
    return static_cast<double>(pulls) + prior_weight;
  }
  double MeanReward() const {
    const double effective = EffectivePulls();
    return effective > 0.0 ? (reward_sum + prior_sum) / effective : 0.0;
  }
};

// Algorithm 2's allocation step, shared by MAB and hybrid phase 2.
class Ucb1Allocate {
 public:
  enum class Pull { kScored, kFailed, kStalled };

  Ucb1Allocate(QueryRun* run, double gamma0, size_t chunk_tokens)
      : run_(run), gamma0_(gamma0), chunk_tokens_(chunk_tokens) {}

  // One arm per `pool` model; streams that already finished are never
  // pulled. With `feed_prior_weight` > 0 and a reward feed, each arm starts
  // with the feed's estimate as min(feed_prior_weight, retained evidence)
  // virtual pulls, so a model the feed has all but forgotten weighs almost
  // nothing, and skips the cold-start pull.
  Status Open(const std::vector<std::string>& pool, double feed_prior_weight);

  // gamma0 * (1 - charged / lambda_max), floored at 0.
  double DecayedGamma() const;

  // A live arm never pulled (UCB1 cold start), else the highest upper
  // confidence bound; empty when every arm finished.
  std::string Pick(double gamma) const;

  // Pulls one chunk (Algorithm 2 line 7) and rewards the arm's response
  // against the other arms' (lines 8-10). A failed pull quarantines the
  // arm, or fails the query when no healthy model is left.
  StatusOr<Pull> PullArm(const std::string& model);

  // The finished arm whose mean reward beats every live arm's upper bound
  // (lines 12-14), with that mean; an empty name when none does.
  std::pair<std::string, double> Dominant(double gamma) const;

  // The model's arm; an empty arm for models outside the pool.
  const Arm& arm(const std::string& model) const;

 private:
  double Ucb(const Arm& arm, double gamma) const;

  QueryRun* run_;
  const double gamma0_;
  const size_t chunk_tokens_;
  std::vector<std::string> pool_;
  std::unordered_map<std::string, Arm> arms_;
  size_t total_pulls_ = 0;
};

}  // namespace llmms::core

#endif  // LLMMS_CORE_QUERY_RUN_H_
