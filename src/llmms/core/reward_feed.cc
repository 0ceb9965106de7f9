#include "llmms/core/reward_feed.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "llmms/llm/hedged_model.h"
#include "llmms/llm/runtime.h"
#include "llmms/llm/state_store.h"

namespace llmms::core {
namespace {

// Below this much retained evidence a model is treated as unobserved: the
// warm-up guard must hold exactly (favour 0), not merely approximately, once
// decay has shrunk every sample to dust.
constexpr double kMinRetainedWeight = 1e-12;

}  // namespace

RewardFeedConfig RewardFeed::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_;
}

uint64_t RewardFeed::tick() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tick_;
}

void RewardFeed::Subscribe(const std::string& model, Subscriber subscriber) {
  std::lock_guard<std::mutex> lock(mu_);
  subscribers_[model] = std::move(subscriber);
}

double RewardFeed::DecayFactor() const {
  return config_.half_life > 0.0 ? std::exp2(-1.0 / config_.half_life) : 1.0;
}

RewardFeed::Adaptation RewardFeed::Publish(const std::string& model,
                                           double reward) {
  Update update;
  update.model = model;
  update.reward = reward;
  Subscriber subscriber;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++tick_;
    ModelState& state = stats_[model];
    state.lifetime.reward_sum += reward;
    ++state.lifetime.count;
    if (config_.window > 0) {
      state.window.emplace_back(tick_, reward);
      // Evict across the whole pool, not just the published model: the
      // window is measured in global feed ticks, so every model ages on
      // every publish, and const readers must see fully evicted deques.
      for (auto& [name, other] : stats_) {
        while (!other.window.empty() &&
               tick_ - other.window.front().first >= config_.window) {
          other.window.pop_front();
        }
      }
    } else if (config_.half_life > 0.0) {
      const double factor =
          std::pow(DecayFactor(), static_cast<double>(tick_ - state.last_tick));
      state.decayed_sum = state.decayed_sum * factor + reward;
      state.decayed_weight = state.decayed_weight * factor + 1.0;
      state.last_tick = tick_;
    }
    const Estimate estimate = EstimateLocked(state);
    update.mean = estimate.mean;
    update.count = state.lifetime.count;
    update.favour = FavourLocked(model);
    auto it = subscribers_.find(model);
    if (it != subscribers_.end()) subscriber = it->second;
  }
  // The subscriber calls back into the model (which takes its own lock);
  // never hold the feed lock across it.
  Adaptation adaptation;
  if (subscriber) adaptation = subscriber(update);
  adaptation.favour = update.favour;
  return adaptation;
}

RewardFeed::Estimate RewardFeed::EstimateLocked(const ModelState& state) const {
  Estimate out;
  if (config_.window > 0) {
    // Sum the retained deque front-to-back each read (no running sum):
    // exactly reproducible by a naive reference, which is what the property
    // suite compares against.
    for (const auto& [tick, reward] : state.window) out.mean += reward;
    out.weight = static_cast<double>(state.window.size());
    out.mean = state.window.empty() ? 0.0 : out.mean / out.weight;
  } else if (config_.half_life > 0.0) {
    // Aged on the fly: the mean is invariant under pure aging, but the
    // retained weight is not, so reads scale both without mutating.
    const double factor =
        std::pow(DecayFactor(), static_cast<double>(tick_ - state.last_tick));
    const double sum = state.decayed_sum * factor;
    out.weight = state.decayed_weight * factor;
    out.mean = out.weight > kMinRetainedWeight ? sum / out.weight : 0.0;
  } else {
    out.mean = state.lifetime.MeanReward();
    out.weight = static_cast<double>(state.lifetime.count);
  }
  return out;
}

double RewardFeed::FavourLocked(const std::string& model) const {
  auto it = stats_.find(model);
  if (it == stats_.end()) return 0.0;
  const Estimate estimate = EstimateLocked(it->second);
  // The warm-up guard works on *retained* evidence: a model whose every
  // sample has been evicted by the window (or decayed to nothing) reports
  // favour 0 exactly, regardless of its lifetime count.
  if (estimate.weight <= kMinRetainedWeight) return 0.0;
  if (estimate.mean <= 0.0) return 0.0;
  double best = 0.0;
  for (const auto& [name, state] : stats_) {
    best = std::max(best, EstimateLocked(state).mean);
  }
  const double ratio =
      best > 0.0 ? std::clamp(estimate.mean / best, 0.0, 1.0) : 0.0;
  const double ramp =
      std::min(1.0, estimate.weight / static_cast<double>(config_.warmup));
  return ratio * ramp;
}

RewardFeed::Stats RewardFeed::StatsFor(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(model);
  return it == stats_.end() ? Stats() : it->second.lifetime;
}

RewardFeed::Estimate RewardFeed::EstimateFor(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(model);
  return it == stats_.end() ? Estimate() : EstimateLocked(it->second);
}

double RewardFeed::FavourOf(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FavourLocked(model);
}

RewardFeed::Snapshot RewardFeed::SnapshotState() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot out;
  out.tick = tick_;
  for (const auto& [model, state] : stats_) {
    ModelSnapshot snapshot;
    snapshot.lifetime = state.lifetime;
    snapshot.window.assign(state.window.begin(), state.window.end());
    snapshot.decayed_sum = state.decayed_sum;
    snapshot.decayed_weight = state.decayed_weight;
    snapshot.last_tick = state.last_tick;
    out.models[model] = std::move(snapshot);
  }
  return out;
}

void RewardFeed::RestoreState(const Snapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  tick_ = snapshot.tick;
  stats_.clear();
  for (const auto& [model, saved] : snapshot.models) {
    ModelState state;
    state.lifetime = saved.lifetime;
    state.window.assign(saved.window.begin(), saved.window.end());
    state.decayed_sum = saved.decayed_sum;
    state.decayed_weight = saved.decayed_weight;
    state.last_tick = saved.last_tick;
    stats_[model] = std::move(state);
  }
}

void RewardFeed::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  tick_ = 0;
  stats_.clear();
}

size_t AttachAdaptiveHedging(RewardFeed* feed, llm::ModelRuntime* runtime) {
  size_t attached = 0;
  for (const auto& name : runtime->LoadedModels()) {
    auto model_or = runtime->registry()->Get(name);
    if (!model_or.ok()) continue;
    auto hedged = std::dynamic_pointer_cast<llm::HedgedModel>(*model_or);
    if (hedged == nullptr || !hedged->config().adapt) continue;
    feed->Subscribe(name, [hedged](const RewardFeed::Update& update) {
      RewardFeed::Adaptation adaptation;
      if (auto moved = hedged->ApplyRewardFavour(update.favour)) {
        adaptation.changed = true;
        adaptation.old_percentile = moved->first;
        adaptation.new_percentile = moved->second;
      }
      return adaptation;
    });
    ++attached;
  }
  return attached;
}

Json RewardFeedToJson(const RewardFeed::Snapshot& snapshot) {
  Json out = Json::MakeObject();
  out.Set("tick", static_cast<size_t>(snapshot.tick));
  Json models = Json::MakeObject();
  for (const auto& [model, state] : snapshot.models) {
    Json entry = Json::MakeObject();
    entry.Set("reward_sum", state.lifetime.reward_sum);
    entry.Set("count", state.lifetime.count);
    Json window = Json::MakeArray();
    for (const auto& [tick, reward] : state.window) {
      Json sample = Json::MakeObject();
      sample.Set("tick", static_cast<size_t>(tick));
      sample.Set("reward", reward);
      window.Append(std::move(sample));
    }
    entry.Set("window", std::move(window));
    entry.Set("decayed_sum", state.decayed_sum);
    entry.Set("decayed_weight", state.decayed_weight);
    entry.Set("last_tick", static_cast<size_t>(state.last_tick));
    models.Set(model, std::move(entry));
  }
  out.Set("models", std::move(models));
  return out;
}

RewardFeed::Snapshot RewardFeedFromJson(const Json& json) {
  RewardFeed::Snapshot out;
  if (!json.is_object()) return out;
  if (json.Contains("tick")) {
    out.tick = static_cast<uint64_t>(json["tick"].AsInt());
  }
  if (!json.Contains("models") || !json["models"].is_object()) return out;
  for (const auto& [model, entry] : json["models"].AsObject()) {
    RewardFeed::ModelSnapshot state;
    state.lifetime.reward_sum = entry["reward_sum"].AsDouble();
    state.lifetime.count = static_cast<size_t>(entry["count"].AsInt());
    if (entry.Contains("window") && entry["window"].is_array()) {
      for (const Json& sample : entry["window"].AsArray()) {
        state.window.emplace_back(static_cast<uint64_t>(sample["tick"].AsInt()),
                                  sample["reward"].AsDouble());
      }
    }
    state.decayed_sum = entry["decayed_sum"].AsDouble();
    state.decayed_weight = entry["decayed_weight"].AsDouble();
    state.last_tick = static_cast<uint64_t>(entry["last_tick"].AsInt());
    out.models[model] = std::move(state);
  }
  return out;
}

void AttachRewardFeed(llm::StateStore* store, RewardFeed* feed) {
  const Json saved = store->LoadedSection("rewards");
  if (saved.is_object()) feed->RestoreState(RewardFeedFromJson(saved));
  store->AttachSection(
      "rewards", [feed]() { return RewardFeedToJson(feed->SnapshotState()); });
}

namespace internal {

void PublishReward(RewardFeed* feed, const std::string& model, double reward,
                   size_t round, size_t total_tokens,
                   const EventCallback& callback,
                   std::vector<TraceEntry>* trace) {
  if (feed == nullptr) return;
  const RewardFeed::Adaptation adaptation = feed->Publish(model, reward);
  if (!adaptation.changed) return;
  char detail[96];
  std::snprintf(detail, sizeof(detail), "p%.3f->%.3f favour=%.3f",
                adaptation.old_percentile, adaptation.new_percentile,
                adaptation.favour);
  OrchestratorEvent event;
  event.type = EventType::kHedgeAdapt;
  event.model = model;
  event.text = detail;
  event.score = adaptation.new_percentile;
  event.round = round;
  event.total_tokens = total_tokens;
  Emit(event, callback, trace);
}

}  // namespace internal
}  // namespace llmms::core
