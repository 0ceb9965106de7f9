#ifndef LLMMS_CORE_REWARD_FEED_H_
#define LLMMS_CORE_REWARD_FEED_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "llmms/common/json.h"
#include "llmms/core/orchestrator.h"

namespace llmms::llm {
class ModelRuntime;
class StateStore;
}  // namespace llmms::llm

namespace llmms::core {

// How the feed turns a reward stream into per-model means (DESIGN.md §16).
//
// Time is measured in *feed ticks*: every Publish() — for any model —
// advances one global tick. Defining the clock over the whole pool (rather
// than per model) is what makes the feed react to non-stationary model
// quality: a model the orchestrators stopped pulling ages out even though
// it observed nothing new itself.
//
// Exactly one estimator is active:
//   - window > 0   — sliding window: only observations from the last
//                    `window` feed ticks count. Older samples are evicted
//                    outright, so a model whose evidence has aged out
//                    reports zero retained samples (and therefore zero
//                    favour — see the warm-up guard below).
//   - half_life > 0 (and window == 0) — exponential decay: an observation's
//                    weight is halved every `half_life` feed ticks,
//                    i.e. scaled by d^age with d = 2^(-1/half_life). The
//                    mean is the weighted average; the retained-sample
//                    count is the decayed weight sum.
//   - neither      — lifetime means (the PR 4 behaviour, the default).
struct RewardFeedConfig {
  // Retained observations needed before a model's favour ramps to full
  // strength (a cold model must not hedge aggressively off one lucky
  // score). Clamped to >= 1.
  size_t warmup = 8;
  // Sliding-window length in feed ticks; 0 disables the window.
  size_t window = 0;
  // Exponential-decay half-life in feed ticks; 0 disables decay. Ignored
  // when `window` is set.
  double half_life = 0.0;
};

// The feedback bus that closes the adaptive-hedging loop (DESIGN.md §11):
// orchestrators publish every per-model reward observation (OUA round
// scores, UCB1 pull rewards) here; subscribers — hedged models with
// HedgeConfig::adapt — turn the stream into hedge-percentile moves, and
// MAB/hybrid runs can seed their arms from the feed's current estimates
// (Config::feed_prior_weight) so pools re-rank mid-session.
//
// From the raw rewards the feed computes a pool-relative *favour* in
// [0, 1] for each model:
//
//   favour = (mean / best_mean_in_pool) * min(1, retained/warmup)
//
// where `mean` and `retained` come from the configured estimator
// (lifetime, sliding-window, or decayed — see RewardFeedConfig). The
// orchestrator's current favourite converges to 1, losers fall toward
// their score ratio, and models with little *retained* evidence are damped
// by the warm-up ramp. A model with zero retained samples — never
// observed, or every observation evicted/decayed away — always reports
// favour 0, even if its lifetime count is positive. Negative means clamp
// to 0.
//
// Layering: this lives in core (above llm), so llm::HedgedModel never sees
// it — subscribers are plain lambdas wired by AttachAdaptiveHedging(),
// which call HedgedModel::ApplyRewardFavour. Subscribers run outside the
// feed lock and synchronously on the publishing orchestrator's thread; the
// returned Adaptation (did the effective percentile move, and whence to
// where) is handed back to the publisher so it can emit the
// EventType::kHedgeAdapt trace event.
//
// Thread-safe; subscribers must be registered before queries run.
class RewardFeed {
 public:
  // Lifetime totals (kept in every mode, for reporting and tests).
  struct Stats {
    double reward_sum = 0.0;
    size_t count = 0;
    double MeanReward() const {
      return count == 0 ? 0.0 : reward_sum / static_cast<double>(count);
    }
  };

  // The configured estimator's current view of one model: the windowed /
  // decayed / lifetime mean, and how much evidence it still retains
  // (observations in window mode, decayed weight in decay mode).
  struct Estimate {
    double mean = 0.0;
    double weight = 0.0;
  };

  // One published observation, as delivered to the model's subscriber.
  struct Update {
    std::string model;
    double reward = 0.0;
    double mean = 0.0;    // the estimator's mean after this observation
    size_t count = 0;     // lifetime observations of this model so far
    double favour = 0.0;  // pool-relative favour in [0, 1]
  };

  // What the subscriber did in response; `changed` is false for a no-op
  // (identical percentile, adaptation disabled, bounds already reached).
  struct Adaptation {
    bool changed = false;
    double old_percentile = 0.0;
    double new_percentile = 0.0;
    double favour = 0.0;
  };

  // Durable state (llm::StateStore "rewards" section, via AttachRewardFeed):
  // the global tick plus every model's lifetime totals, window entries, and
  // decay accumulators.
  struct ModelSnapshot {
    Stats lifetime;
    std::vector<std::pair<uint64_t, double>> window;  // (tick, reward)
    double decayed_sum = 0.0;
    double decayed_weight = 0.0;
    uint64_t last_tick = 0;
  };
  struct Snapshot {
    uint64_t tick = 0;
    std::map<std::string, ModelSnapshot> models;
  };

  using Subscriber = std::function<Adaptation(const Update&)>;

  explicit RewardFeed(size_t warmup) { config_.warmup = warmup; Sanitize(); }
  explicit RewardFeed(const RewardFeedConfig& config = RewardFeedConfig())
      : config_(config) {
    Sanitize();
  }

  RewardFeedConfig config() const;

  // At most one subscriber per model; the last registration wins.
  void Subscribe(const std::string& model, Subscriber subscriber);

  // Records one reward observation and notifies the model's subscriber (if
  // any). Returns the subscriber's Adaptation so the publishing
  // orchestrator can trace a percentile move; `changed` is false when the
  // model has no subscriber.
  Adaptation Publish(const std::string& model, double reward);

  // Lifetime totals (never windowed or decayed).
  Stats StatsFor(const std::string& model) const;
  // The configured estimator's current mean + retained evidence.
  Estimate EstimateFor(const std::string& model) const;
  // The favour Publish() would hand the model's subscriber right now.
  double FavourOf(const std::string& model) const;
  size_t warmup() const { return config().warmup; }
  // Feed ticks elapsed (== total observations published).
  uint64_t tick() const;

  Snapshot SnapshotState() const;
  // All-or-nothing: replaces the feed's observations (subscribers and the
  // configuration are untouched).
  void RestoreState(const Snapshot& snapshot);

  void Reset();

 private:
  struct ModelState {
    Stats lifetime;
    // Sliding-window entries, oldest first; only used when window > 0.
    std::deque<std::pair<uint64_t, double>> window;
    // Decay accumulators, aged lazily to last_tick; used when half_life > 0.
    double decayed_sum = 0.0;
    double decayed_weight = 0.0;
    uint64_t last_tick = 0;
  };

  void Sanitize() {
    if (config_.warmup == 0) config_.warmup = 1;
    if (config_.half_life < 0.0) config_.half_life = 0.0;
  }
  // The per-tick decay factor d = 2^(-1/half_life); 1.0 when decay is off.
  double DecayFactor() const;
  Estimate EstimateLocked(const ModelState& state) const;
  double FavourLocked(const std::string& model) const;

  RewardFeedConfig config_;
  mutable std::mutex mu_;
  uint64_t tick_ = 0;
  std::map<std::string, ModelState> stats_;
  std::map<std::string, Subscriber> subscribers_;
};

// Subscribes every loaded llm::HedgedModel with HedgeConfig::adapt to the
// feed, wiring Update::favour into HedgedModel::ApplyRewardFavour. Returns
// how many models were attached. Call after the models are loaded; models
// loaded later are not attached.
size_t AttachAdaptiveHedging(RewardFeed* feed, llm::ModelRuntime* runtime);

// Durable reward means (DESIGN.md §16): restores the store's saved
// "rewards" section into `feed` (no-op when the store has none) and
// registers a section provider so every StateStore::SaveNow() persists the
// feed's live snapshot. Both must outlive the store's save activity.
void AttachRewardFeed(llm::StateStore* store, RewardFeed* feed);

// JSON (de)serialization of feed snapshots, exposed for tests.
Json RewardFeedToJson(const RewardFeed::Snapshot& snapshot);
RewardFeed::Snapshot RewardFeedFromJson(const Json& json);

namespace internal {

// Orchestrator-side publication helper: a no-op when `feed` is null;
// otherwise publishes the reward and, when the subscribing model moved its
// effective hedge percentile, emits the EventType::kHedgeAdapt event whose
// detail reads "p0.950->0.781 favour=0.375" (score = the new percentile).
void PublishReward(RewardFeed* feed, const std::string& model, double reward,
                   size_t round, size_t total_tokens,
                   const EventCallback& callback,
                   std::vector<TraceEntry>* trace);

}  // namespace internal
}  // namespace llmms::core

#endif  // LLMMS_CORE_REWARD_FEED_H_
