// The adaptive-hedging feedback loop (DESIGN.md §11), locked down end to
// end:
//   - RewardFeed favour arithmetic (pool-relative ratio × warm-up ramp);
//   - HedgedModel::ApplyRewardFavour bound handling;
//   - the kHedgeAdapt trace event, emitted only when the percentile moves;
//   - the two-phase acceptance test: under a reward stream favouring model
//     A, A's effective percentile strictly decreases within its bounds and
//     A launches strictly more hedges than the static-threshold baseline on
//     the same deterministic cost schedule, within the same token budget;
//   - golden-trace determinism of the full Synthetic→Faulty→Resilient→
//     Hedged chaos stack with adaptation on (run twice, byte-identical);
//   - warm-start sketches across an ApiService restart (with persistence
//     the first post-restart request hedges immediately; without it the
//     node cold-starts), the engine's reward feed across the same restart,
//     and the StateStore corruption matrix.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "llmms/app/service.h"
#include "llmms/common/quantile_window.h"
#include "llmms/core/mab.h"
#include "llmms/core/oua.h"
#include "llmms/core/reward_feed.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/llm/fault_injection.h"
#include "llmms/llm/hedged_model.h"
#include "llmms/llm/registry.h"
#include "llmms/llm/resilient_model.h"
#include "llmms/llm/runtime.h"
#include "llmms/llm/state_store.h"
#include "llmms/llm/synthetic_model.h"
#include "testutil.h"

namespace llmms {
namespace {

// ---------------------------------------------------------------------------
// A deterministic scripted model: emits its vocabulary cyclically (so its
// response can be made arbitrarily similar — or dissimilar — to a prompt)
// with a repeating per-call cost schedule. tokens_per_second is 0, so each
// chunk's simulated cost is EXACTLY the scheduled extra_seconds.

struct ScriptOptions {
  std::vector<std::string> vocab = {"tok"};
  size_t total_words = 100000;  // effectively unbounded
  // extra_seconds by per-stream call index, repeating; empty = all zero.
  std::vector<double> cost_cycle;
};

class ScriptedModel final : public llm::LanguageModel {
 public:
  ScriptedModel(std::string name, ScriptOptions options)
      : name_(std::move(name)), options_(std::move(options)) {}

  const std::string& name() const override { return name_; }
  uint64_t memory_mb() const override { return 1; }
  double tokens_per_second() const override { return 0.0; }
  size_t context_window() const override { return 1 << 20; }

  StatusOr<std::unique_ptr<llm::GenerationStream>> StartGeneration(
      const llm::GenerationRequest&) const override {
    return std::unique_ptr<llm::GenerationStream>(
        std::make_unique<Stream>(&options_));
  }

 private:
  class Stream final : public llm::GenerationStream {
   public:
    explicit Stream(const ScriptOptions* options) : options_(options) {}

    StatusOr<llm::Chunk> NextChunk(size_t max_tokens) override {
      llm::Chunk chunk;
      if (!options_->cost_cycle.empty()) {
        chunk.extra_seconds =
            options_->cost_cycle[call_ % options_->cost_cycle.size()];
      }
      ++call_;
      const size_t n = std::min(max_tokens, options_->total_words - pos_);
      for (size_t i = 0; i < n; ++i) {
        if (pos_ + i > 0) chunk.text += ' ';
        chunk.text += options_->vocab[(pos_ + i) % options_->vocab.size()];
      }
      chunk.num_tokens = n;
      pos_ += n;
      if (pos_ == options_->total_words) {
        chunk.done = true;
        chunk.stop_reason = llm::StopReason::kStop;
        finished_ = true;
      }
      text_ += chunk.text;
      return chunk;
    }

    const std::string& text() const override { return text_; }
    size_t tokens_generated() const override { return pos_; }
    bool finished() const override { return finished_; }
    llm::StopReason stop_reason() const override {
      return llm::StopReason::kStop;
    }

   private:
    const ScriptOptions* options_;
    size_t pos_ = 0;
    size_t call_ = 0;
    bool finished_ = false;
    std::string text_;
  };

  std::string name_;
  ScriptOptions options_;
};

void Drain(llm::GenerationStream* stream, size_t ask, size_t max_calls = 200) {
  for (size_t i = 0; i < max_calls && !stream->finished(); ++i) {
    auto chunk = stream->NextChunk(ask);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (chunk->done) break;
  }
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << content;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.is_open();
}

// ---------------------------------------------------------------------------
// RewardFeed: favour = (mean / pool best mean) * min(1, count / warmup)

TEST(RewardFeedTest, FavourRampsWithWarmupAndTracksThePoolBest) {
  core::RewardFeed feed(/*warmup=*/4);
  EXPECT_DOUBLE_EQ(feed.FavourOf("a"), 0.0);  // never observed

  feed.Publish("a", 0.8);
  // Sole model: ratio 1, ramp 1/4.
  EXPECT_DOUBLE_EQ(feed.FavourOf("a"), 0.25);

  feed.Publish("b", 0.4);
  // b's mean is half the pool best: ratio 0.5, ramp 1/4.
  EXPECT_DOUBLE_EQ(feed.FavourOf("b"), 0.125);

  feed.Publish("a", 0.8);
  feed.Publish("a", 0.8);
  feed.Publish("a", 0.8);
  // Warm-up complete: the pool's favourite saturates at 1.
  EXPECT_DOUBLE_EQ(feed.FavourOf("a"), 1.0);
  EXPECT_EQ(feed.StatsFor("a").count, 4u);
  EXPECT_DOUBLE_EQ(feed.StatsFor("a").MeanReward(), 0.8);

  feed.Reset();
  EXPECT_DOUBLE_EQ(feed.FavourOf("a"), 0.0);
  EXPECT_EQ(feed.StatsFor("a").count, 0u);
}

TEST(RewardFeedTest, NonPositiveMeansClampToZeroFavour) {
  core::RewardFeed feed(/*warmup=*/1);
  feed.Publish("loser", -1.0);
  feed.Publish("winner", 0.9);
  EXPECT_DOUBLE_EQ(feed.FavourOf("loser"), 0.0);
  EXPECT_DOUBLE_EQ(feed.FavourOf("winner"), 1.0);
}

// Regression: favour warmup must be gated on *retained* evidence, not
// lifetime counts. A model whose window observations have all been evicted
// (its retained weight is back to zero) must report favour 0 — exactly like
// a model that was never observed — even though its lifetime count is still
// positive. Before the fix, the warmup ramp divided the lifetime count by
// warmup and a fully evicted model kept hedging on its stale reputation.
TEST(RewardFeedTest, EvictedModelReportsZeroFavourDespiteLifetimeCount) {
  core::RewardFeedConfig config;
  config.warmup = 2;
  config.window = 3;
  core::RewardFeed feed(config);

  feed.Publish("stale", 0.9);
  EXPECT_GT(feed.FavourOf("stale"), 0.0);

  // Three publishes for another model advance the global tick past the
  // window: every "stale" entry is evicted.
  feed.Publish("fresh", 0.5);
  feed.Publish("fresh", 0.5);
  feed.Publish("fresh", 0.5);

  EXPECT_EQ(feed.StatsFor("stale").count, 1u);  // lifetime totals remain
  EXPECT_DOUBLE_EQ(feed.EstimateFor("stale").weight, 0.0);
  EXPECT_DOUBLE_EQ(feed.FavourOf("stale"), 0.0)
      << "a model with zero retained observations must never carry favour";
  EXPECT_GT(feed.FavourOf("fresh"), 0.0);
}

TEST(RewardFeedTest, PublishDeliversTheUpdateAndReturnsTheAdaptation) {
  core::RewardFeed feed(/*warmup=*/2);
  core::RewardFeed::Update seen;
  feed.Subscribe("m", [&seen](const core::RewardFeed::Update& update) {
    seen = update;
    core::RewardFeed::Adaptation adaptation;
    adaptation.changed = true;
    adaptation.old_percentile = 0.95;
    adaptation.new_percentile = 0.7;
    return adaptation;
  });

  const auto adaptation = feed.Publish("m", 0.6);
  EXPECT_TRUE(adaptation.changed);
  EXPECT_DOUBLE_EQ(adaptation.old_percentile, 0.95);
  EXPECT_DOUBLE_EQ(adaptation.new_percentile, 0.7);
  EXPECT_DOUBLE_EQ(adaptation.favour, 0.5);  // ratio 1 * ramp 1/2

  EXPECT_EQ(seen.model, "m");
  EXPECT_DOUBLE_EQ(seen.reward, 0.6);
  EXPECT_DOUBLE_EQ(seen.mean, 0.6);
  EXPECT_EQ(seen.count, 1u);
  EXPECT_DOUBLE_EQ(seen.favour, 0.5);

  // No subscriber: the observation still counts, but nothing changes.
  const auto silent = feed.Publish("other", 0.9);
  EXPECT_FALSE(silent.changed);
  EXPECT_EQ(feed.StatsFor("other").count, 1u);
}

// ---------------------------------------------------------------------------
// HedgedModel::ApplyRewardFavour

std::shared_ptr<llm::HedgedModel> MakeStubHedged(const llm::HedgeConfig& config,
                                                 const std::string& name) {
  ScriptOptions inert;
  return std::make_shared<llm::HedgedModel>(
      std::make_shared<ScriptedModel>(name, inert),
      std::vector<std::shared_ptr<llm::LanguageModel>>{
          std::make_shared<ScriptedModel>(name + ":backup", inert)},
      config);
}

TEST(ApplyRewardFavourTest, MovesTheEffectivePercentileInsideTheBounds) {
  llm::HedgeConfig config;
  config.adapt = true;
  config.percentile = 0.95;
  config.min_percentile = 0.5;
  config.max_percentile = 0.95;
  auto hedged = MakeStubHedged(config, "adaptive");
  EXPECT_DOUBLE_EQ(hedged->effective_percentile(), 0.95);

  // favour 0 targets max_percentile — already there, no change.
  EXPECT_FALSE(hedged->ApplyRewardFavour(0.0).has_value());
  EXPECT_EQ(hedged->adaptations(), 0u);

  auto moved = hedged->ApplyRewardFavour(1.0);
  ASSERT_TRUE(moved.has_value());
  EXPECT_DOUBLE_EQ(moved->first, 0.95);
  EXPECT_DOUBLE_EQ(moved->second, 0.5);
  EXPECT_DOUBLE_EQ(hedged->effective_percentile(), 0.5);

  // Identical favour again: no movement, no extra adaptation counted.
  EXPECT_FALSE(hedged->ApplyRewardFavour(1.0).has_value());
  EXPECT_EQ(hedged->adaptations(), 1u);

  moved = hedged->ApplyRewardFavour(0.5);
  ASSERT_TRUE(moved.has_value());
  EXPECT_DOUBLE_EQ(moved->second, 0.725);  // 0.95 - 0.5 * (0.95 - 0.5)

  // Out-of-range favour is clamped into [0, 1].
  moved = hedged->ApplyRewardFavour(7.0);
  ASSERT_TRUE(moved.has_value());
  EXPECT_DOUBLE_EQ(moved->second, 0.5);
  EXPECT_DOUBLE_EQ(hedged->last_favour(), 1.0);
  EXPECT_EQ(hedged->adaptations(), 3u);
}

TEST(ApplyRewardFavourTest, DisabledAdaptationNeverMoves) {
  llm::HedgeConfig config;
  config.adapt = false;
  config.percentile = 0.9;
  auto hedged = MakeStubHedged(config, "static");
  EXPECT_FALSE(hedged->ApplyRewardFavour(1.0).has_value());
  EXPECT_DOUBLE_EQ(hedged->effective_percentile(), 0.9);
  EXPECT_EQ(hedged->adaptations(), 0u);
}

TEST(ApplyRewardFavourTest, InvertedBoundsAreNormalised) {
  llm::HedgeConfig config;
  config.adapt = true;
  config.percentile = 0.95;
  config.min_percentile = 0.9;  // inverted on purpose
  config.max_percentile = 0.4;
  auto hedged = MakeStubHedged(config, "swapped");
  // Bounds swap to [0.4, 0.9]; the starting percentile clamps into them.
  EXPECT_DOUBLE_EQ(hedged->effective_percentile(), 0.9);
  auto moved = hedged->ApplyRewardFavour(1.0);
  ASSERT_TRUE(moved.has_value());
  EXPECT_DOUBLE_EQ(moved->second, 0.4);
}

TEST(ApplyRewardFavourTest, ThresholdFollowsTheEffectivePercentile) {
  llm::HedgeConfig config;
  config.adapt = true;
  config.percentile = 0.95;
  config.min_percentile = 0.5;
  config.max_percentile = 0.95;
  config.min_samples = 4;
  auto hedged = MakeStubHedged(config, "threshold");
  for (int i = 1; i <= 10; ++i) {
    hedged->RecordLatency(0, static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(hedged->ThresholdFor(0), 10.0);  // p95 of 1..10
  ASSERT_TRUE(hedged->ApplyRewardFavour(1.0).has_value());
  EXPECT_DOUBLE_EQ(hedged->ThresholdFor(0), 5.0);  // p50 of 1..10
}

// ---------------------------------------------------------------------------
// kHedgeAdapt event plumbing

TEST(HedgeAdaptEventTest, EventNameIsStable) {
  EXPECT_STREQ(core::EventTypeToString(core::EventType::kHedgeAdapt),
               "hedge-adapt");
}

TEST(HedgeAdaptEventTest, PublishRewardTracesOnlyActualMoves) {
  llm::HedgeConfig config;
  config.adapt = true;
  config.min_percentile = 0.5;
  config.max_percentile = 0.95;
  auto hedged = MakeStubHedged(config, "traced");

  core::RewardFeed feed(/*warmup=*/2);
  feed.Subscribe("traced", [hedged](const core::RewardFeed::Update& update) {
    core::RewardFeed::Adaptation adaptation;
    if (auto moved = hedged->ApplyRewardFavour(update.favour)) {
      adaptation.changed = true;
      adaptation.old_percentile = moved->first;
      adaptation.new_percentile = moved->second;
    }
    return adaptation;
  });

  std::vector<core::TraceEntry> trace;
  std::vector<core::OrchestratorEvent> events;
  auto callback = [&events](const core::OrchestratorEvent& event) {
    events.push_back(event);
  };

  // First reward: favour 1/2 -> percentile 0.95 -> 0.725. One event.
  core::internal::PublishReward(&feed, "traced", 0.8, /*round=*/3,
                                /*total_tokens=*/24, callback, &trace);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].action, "hedge-adapt");
  EXPECT_EQ(trace[0].model, "traced");
  EXPECT_EQ(trace[0].round, 3u);
  EXPECT_EQ(trace[0].detail, "p0.950->0.725 favour=0.500");
  EXPECT_DOUBLE_EQ(trace[0].score, 0.725);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, core::EventType::kHedgeAdapt);
  EXPECT_EQ(events[0].total_tokens, 24u);

  // Warm-up saturated: favour 1 -> 0.5, one more event…
  core::internal::PublishReward(&feed, "traced", 0.8, 4, 32, callback, &trace);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[1].detail, "p0.725->0.500 favour=1.000");

  // …then the favour is stable and further rewards trace nothing.
  core::internal::PublishReward(&feed, "traced", 0.8, 5, 40, callback, &trace);
  EXPECT_EQ(trace.size(), 2u);

  // A model without a subscriber never traces.
  core::internal::PublishReward(&feed, "plain", 0.9, 5, 40, callback, &trace);
  EXPECT_EQ(trace.size(), 2u);

  // A null feed is a no-op (orchestrators without the loop wired).
  core::internal::PublishReward(nullptr, "traced", 0.8, 6, 48, callback,
                                &trace);
  EXPECT_EQ(trace.size(), 2u);
}

// ---------------------------------------------------------------------------
// The two-phase acceptance test. Model A ("arm:a") answers on-topic with a
// deterministic cost schedule that spikes every 4th call to 3.0 simulated
// seconds; its static p95 threshold converges to exactly 3.0, which a 3.0
// spike never *strictly* exceeds — so the static baseline stops hedging
// after the window warms. Under adaptation, the orchestrator's rewards
// favour A, its effective percentile walks down to min_percentile (p50 =
// 1.0), and every spike fires a hedge race its zero-cost backup wins.

struct Arena {
  std::shared_ptr<llm::ModelRegistry> registry;
  std::shared_ptr<hardware::HardwareManager> hardware;
  std::unique_ptr<llm::ModelRuntime> runtime;
  std::shared_ptr<llm::HedgedModel> hedged;
  std::shared_ptr<const embedding::Embedder> embedder;
  std::unique_ptr<core::RewardFeed> feed;
  size_t attached = 0;
};

constexpr char kArenaPrompt[] = "alpha beta gamma delta epsilon zeta";

Arena MakeArena(bool adapt) {
  Arena arena;
  ScriptOptions on_topic;
  on_topic.vocab = {"alpha", "beta", "gamma", "delta", "epsilon", "zeta"};
  on_topic.cost_cycle = {1.0, 1.0, 1.0, 3.0};
  auto primary = std::make_shared<ScriptedModel>("arm:a", on_topic);
  ScriptOptions fast = on_topic;
  fast.cost_cycle.clear();  // the backup answers identically, instantly
  auto backup = std::make_shared<ScriptedModel>("arm:a:backup", fast);

  llm::HedgeConfig config;
  config.latency_window = 64;
  config.min_samples = 4;
  config.percentile = 0.95;
  config.adapt = adapt;
  config.min_percentile = 0.5;
  config.max_percentile = 0.95;
  arena.hedged = std::make_shared<llm::HedgedModel>(
      primary, std::vector<std::shared_ptr<llm::LanguageModel>>{backup},
      config);

  ScriptOptions off_topic;
  off_topic.vocab = {"quux", "blorp", "fnord", "zork"};
  off_topic.total_words = 8;  // finishes after one pull, scores ~0

  arena.registry = std::make_shared<llm::ModelRegistry>();
  EXPECT_TRUE(arena.registry->Register(arena.hedged).ok());
  EXPECT_TRUE(arena.registry
                  ->Register(std::make_shared<ScriptedModel>("arm:b",
                                                             off_topic))
                  .ok());
  hardware::DeviceSpec gpu;
  gpu.name = "gpu-0";
  gpu.kind = hardware::DeviceKind::kGpu;
  gpu.memory_mb = 32 * 1024;
  arena.hardware = std::make_shared<hardware::HardwareManager>(
      std::vector<hardware::DeviceSpec>{gpu});
  arena.runtime = std::make_unique<llm::ModelRuntime>(arena.registry,
                                                      arena.hardware,
                                                      /*num_threads=*/2);
  EXPECT_TRUE(arena.runtime->LoadModel("arm:a").ok());
  EXPECT_TRUE(arena.runtime->LoadModel("arm:b").ok());

  arena.embedder = std::make_shared<embedding::HashEmbedder>();
  arena.feed = std::make_unique<core::RewardFeed>(/*warmup=*/4);
  arena.attached = core::AttachAdaptiveHedging(arena.feed.get(),
                                               arena.runtime.get());
  return arena;
}

core::MabOrchestrator::Config ArenaMabConfig(Arena* arena) {
  core::MabOrchestrator::Config config;
  config.weights.alpha = 1.0;  // reward = query similarity only
  config.weights.beta = 0.0;
  config.token_budget = 96;
  config.chunk_tokens = 8;
  config.gamma0 = 0.1;
  config.reward_feed = arena->feed.get();
  return config;
}

TEST(AdaptiveHedgingAcceptanceTest, RewardFavourFiresHedgesStaticMisses) {
  constexpr size_t kQueries = 3;

  // --- Adaptive run. ---
  Arena adaptive = MakeArena(/*adapt=*/true);
  ASSERT_EQ(adaptive.attached, 1u);  // only arm:a subscribes
  std::vector<core::TraceEntry> adaptive_trace;
  for (size_t q = 0; q < kQueries; ++q) {
    core::MabOrchestrator orchestrator(adaptive.runtime.get(),
                                       {"arm:a", "arm:b"}, adaptive.embedder,
                                       ArenaMabConfig(&adaptive));
    auto result = orchestrator.Run(kArenaPrompt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_LE(result->total_tokens, 96u) << "budget must hold under hedging";
    EXPECT_EQ(result->best_model, "arm:a");
    adaptive_trace.insert(adaptive_trace.end(), result->trace.begin(),
                          result->trace.end());
  }

  // The effective percentile walked strictly downward inside its bounds,
  // one kHedgeAdapt trace event per move.
  std::vector<double> percentiles;
  for (const auto& entry : adaptive_trace) {
    if (entry.action != "hedge-adapt") continue;
    EXPECT_EQ(entry.model, "arm:a");
    percentiles.push_back(entry.score);
  }
  ASSERT_GE(percentiles.size(), 2u);
  double previous = 0.95;
  for (double p : percentiles) {
    EXPECT_LT(p, previous) << "each adaptation must strictly decrease";
    EXPECT_GE(p, 0.5);
    previous = p;
  }
  EXPECT_DOUBLE_EQ(adaptive.hedged->effective_percentile(), 0.5);
  EXPECT_GE(adaptive.hedged->adaptations(), 2u);
  EXPECT_DOUBLE_EQ(adaptive.hedged->last_favour(), 1.0);

  const auto adaptive_stats = adaptive.hedged->stats();
  EXPECT_GE(adaptive_stats.hedges_launched, 2u);
  EXPECT_GE(adaptive_stats.hedges_won, 1u);

  // The races show up in the orchestration trace too.
  size_t hedge_events = 0;
  for (const auto& entry : adaptive_trace) {
    if (entry.action == "hedge") ++hedge_events;
  }
  EXPECT_GE(hedge_events, 2u);

  // --- Static baseline: identical pool, schedules, and budget. ---
  Arena baseline = MakeArena(/*adapt=*/false);
  ASSERT_EQ(baseline.attached, 0u);
  std::vector<core::TraceEntry> static_trace;
  for (size_t q = 0; q < kQueries; ++q) {
    core::MabOrchestrator orchestrator(baseline.runtime.get(),
                                       {"arm:a", "arm:b"}, baseline.embedder,
                                       ArenaMabConfig(&baseline));
    auto result = orchestrator.Run(kArenaPrompt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_LE(result->total_tokens, 96u);
    static_trace.insert(static_trace.end(), result->trace.begin(),
                        result->trace.end());
  }
  for (const auto& entry : static_trace) {
    EXPECT_NE(entry.action, "hedge-adapt") << "static run must never adapt";
  }
  EXPECT_DOUBLE_EQ(baseline.hedged->effective_percentile(), 0.95);
  EXPECT_EQ(baseline.hedged->adaptations(), 0u);

  const auto static_stats = baseline.hedged->stats();
  // A 3.0 spike never strictly exceeds the static p95 of 3.0: zero hedges.
  EXPECT_EQ(static_stats.hedges_launched, 0u);
  EXPECT_GT(adaptive_stats.hedges_launched, static_stats.hedges_launched)
      << "adaptation must strictly increase hedge launches on this schedule";
}

// ---------------------------------------------------------------------------
// Golden-trace determinism: the full chaos stack (Synthetic → Faulty →
// Resilient → Hedged) under an adapting threshold, run twice from identical
// fresh worlds — every trace entry, score, and the answer must match, and
// the decision sequence must match the committed golden file.

struct GoldenRun {
  std::string answer;
  std::vector<core::TraceEntry> trace;
};

GoldenRun RunGoldenOnce() {
  auto world = testutil::MakeWorld(4);
  auto profile = llm::DefaultProfiles()[0];
  profile.name = "hedged:gold";
  llm::FaultConfig faults;
  faults.seed = 0xCAFE;
  faults.latency_spike_prob = 0.3;
  faults.latency_spike_seconds = 5.0;
  auto spiky = std::make_shared<llm::FaultyModel>(
      std::make_shared<llm::SyntheticModel>(profile, world.knowledge), faults);
  auto primary = std::make_shared<llm::ResilientModel>(
      spiky, llm::ResilienceConfig());
  auto clone = std::make_shared<llm::ResilientModel>(
      std::make_shared<llm::SyntheticModel>(profile, world.knowledge),
      llm::ResilienceConfig());
  llm::HedgeConfig config;
  config.percentile = 0.5;
  config.min_samples = 4;
  config.adapt = true;
  config.min_percentile = 0.5;
  config.max_percentile = 0.95;
  auto hedged = std::make_shared<llm::HedgedModel>(
      primary, std::vector<std::shared_ptr<llm::LanguageModel>>{clone},
      config);
  EXPECT_TRUE(world.registry->Register(hedged).ok());
  EXPECT_TRUE(world.runtime->LoadModel("hedged:gold").ok());

  core::RewardFeed feed(/*warmup=*/4);
  EXPECT_EQ(core::AttachAdaptiveHedging(&feed, world.runtime.get()), 1u);

  core::OuaOrchestrator::Config oua;
  oua.token_budget = 96;
  oua.chunk_tokens = 8;
  oua.reward_feed = &feed;
  core::OuaOrchestrator orchestrator(
      world.runtime.get(),
      {"hedged:gold", world.model_names[0], world.model_names[1]},
      world.embedder, oua);
  auto result = orchestrator.Run(world.dataset[0].question);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  GoldenRun run;
  run.answer = result->answer;
  run.trace = std::move(result->trace);
  return run;
}

// The discrete decision sequence: chunk events are not traced, so this is
// the score/prune/hedge/hedge-adapt/final skeleton of the run. Scores are
// compared exactly in-process (run vs. rerun) and deliberately left out of
// the golden file, which pins the *decisions*.
std::string SerializeTrace(const std::vector<core::TraceEntry>& trace) {
  std::string out;
  for (const auto& entry : trace) {
    out += std::to_string(entry.round) + "|" + entry.model + "|" +
           entry.action + "|" + entry.detail + "\n";
  }
  return out;
}

TEST(GoldenTraceTest, AdaptiveChaosStackIsDeterministic) {
  const GoldenRun first = RunGoldenOnce();
  const GoldenRun second = RunGoldenOnce();

  EXPECT_EQ(first.answer, second.answer);
  ASSERT_EQ(first.trace.size(), second.trace.size());
  for (size_t i = 0; i < first.trace.size(); ++i) {
    EXPECT_EQ(first.trace[i].round, second.trace[i].round) << "entry " << i;
    EXPECT_EQ(first.trace[i].model, second.trace[i].model) << "entry " << i;
    EXPECT_EQ(first.trace[i].action, second.trace[i].action) << "entry " << i;
    EXPECT_EQ(first.trace[i].detail, second.trace[i].detail) << "entry " << i;
    EXPECT_DOUBLE_EQ(first.trace[i].score, second.trace[i].score)
        << "entry " << i;
  }

  // The run must actually exercise the adaptive loop.
  size_t adapts = 0;
  for (const auto& entry : first.trace) {
    if (entry.action == "hedge-adapt") ++adapts;
  }
  EXPECT_GE(adapts, 1u);

  const std::string serialized = SerializeTrace(first.trace);
  const std::string golden_path =
      std::string(LLMMS_TESTS_DIR) + "/golden/adaptive_trace.golden";
  if (std::getenv("LLMMS_UPDATE_GOLDEN") != nullptr) {
    WriteFile(golden_path, serialized);
    GTEST_SKIP() << "golden file regenerated at " << golden_path;
  }
  ASSERT_TRUE(FileExists(golden_path))
      << "missing golden file; regenerate with LLMMS_UPDATE_GOLDEN=1 "
      << golden_path;
  EXPECT_EQ(serialized, ReadFile(golden_path))
      << "trace diverged from the committed golden decision sequence; if "
         "the change is intentional, regenerate with LLMMS_UPDATE_GOLDEN=1";
}

// ---------------------------------------------------------------------------
// Warm-start sketches and reward means across an app-layer restart.

struct Node {
  std::shared_ptr<llm::ModelRegistry> registry;
  std::shared_ptr<hardware::HardwareManager> hardware;
  std::unique_ptr<llm::ModelRuntime> runtime;
  std::shared_ptr<llm::HedgedModel> hedged;
  std::shared_ptr<vectordb::VectorDatabase> db;
  std::shared_ptr<session::SessionStore> sessions;
  std::unique_ptr<core::SearchEngine> engine;
  std::unique_ptr<app::ApiService> service;
};

Node MakeNode(const std::vector<double>& cost_cycle) {
  Node node;
  ScriptOptions script;
  script.vocab = {"steady", "stream", "of", "words"};
  script.total_words = 60;
  script.cost_cycle = cost_cycle;
  auto primary = std::make_shared<ScriptedModel>("warm:a", script);
  ScriptOptions fast = script;
  fast.cost_cycle.clear();
  auto backup = std::make_shared<ScriptedModel>("warm:a:backup", fast);
  llm::HedgeConfig config;
  config.percentile = 0.95;
  config.min_samples = 4;
  config.latency_window = 64;
  node.hedged = std::make_shared<llm::HedgedModel>(
      primary, std::vector<std::shared_ptr<llm::LanguageModel>>{backup},
      config);

  node.registry = std::make_shared<llm::ModelRegistry>();
  EXPECT_TRUE(node.registry->Register(node.hedged).ok());
  hardware::DeviceSpec gpu;
  gpu.name = "gpu-0";
  gpu.kind = hardware::DeviceKind::kGpu;
  gpu.memory_mb = 8 * 1024;
  node.hardware = std::make_shared<hardware::HardwareManager>(
      std::vector<hardware::DeviceSpec>{gpu});
  node.runtime = std::make_unique<llm::ModelRuntime>(node.registry,
                                                     node.hardware,
                                                     /*num_threads=*/2);
  EXPECT_TRUE(node.runtime->LoadModel("warm:a").ok());

  node.db = std::make_shared<vectordb::VectorDatabase>();
  node.sessions = std::make_shared<session::SessionStore>();
  node.engine = std::make_unique<core::SearchEngine>(
      node.runtime.get(), std::make_shared<embedding::HashEmbedder>(),
      node.db, node.sessions);
  node.service = std::make_unique<app::ApiService>(node.engine.get());
  return node;
}

TEST(WarmStartTest, SketchesSurviveRestartAndColdStartWithoutPersistence) {
  const std::string path = ::testing::TempDir() + "/warm-state.json";
  std::remove(path.c_str());

  // --- Node 1: persistence on; generate past min_samples; shut down. ---
  double saved_threshold = 0.0;
  {
    Node node = MakeNode({1.0, 2.0, 3.0, 4.0, 5.0});
    ASSERT_TRUE(node.service->EnableStatePersistence(path).ok());
    EXPECT_TRUE(node.service->state_store()->load_warning().empty());
    EXPECT_TRUE(std::isinf(node.hedged->ThresholdFor(0)))
        << "nothing to restore on the very first boot";

    llm::GenerationRequest request;
    request.prompt = "q";
    auto stream = node.hedged->StartGeneration(request);
    ASSERT_TRUE(stream.ok());
    Drain(stream->get(), /*ask=*/6);  // 10 calls on the cost cycle
    saved_threshold = node.hedged->ThresholdFor(0);
    ASSERT_FALSE(std::isinf(saved_threshold));
    EXPECT_DOUBLE_EQ(saved_threshold, 5.0);  // p95 of the recorded cycle
    node.service.reset();  // shutdown flushes the sketches
  }
  {
    llm::StateStore probe(path);
    ASSERT_TRUE(probe.Load().ok());
    EXPECT_TRUE(probe.HasSketches("warm:a"));
  }

  // --- Node 2 ("restart", persistence on): the spike schedule exceeds the
  // restored threshold, so the VERY FIRST request hedges. ---
  {
    Node node = MakeNode({6.0});
    EXPECT_TRUE(std::isinf(node.hedged->ThresholdFor(0)));
    ASSERT_TRUE(node.service->EnableStatePersistence(path).ok());
    EXPECT_TRUE(node.service->state_store()->load_warning().empty());
    ASSERT_FALSE(std::isinf(node.hedged->ThresholdFor(0)))
        << "restored sketches must yield a usable percentile immediately";
    EXPECT_DOUBLE_EQ(node.hedged->ThresholdFor(0), saved_threshold);

    llm::GenerationRequest request;
    request.prompt = "q";
    auto stream = node.hedged->StartGeneration(request);
    ASSERT_TRUE(stream.ok());
    auto chunk = stream->get()->NextChunk(6);
    ASSERT_TRUE(chunk.ok());
    EXPECT_EQ(node.hedged->stats().hedges_launched, 1u)
        << "6.0s in-flight cost must beat the restored 5.0s threshold on "
           "the first post-restart chunk";
    EXPECT_EQ(node.hedged->stats().hedges_won, 1u);
  }

  // --- Node 3 (identical, but NO persistence): cold start, min_samples
  // gate, not a single hedge on the same schedule. ---
  {
    Node node = MakeNode({6.0});
    EXPECT_TRUE(std::isinf(node.hedged->ThresholdFor(0)));
    llm::GenerationRequest request;
    request.prompt = "q";
    auto stream = node.hedged->StartGeneration(request);
    ASSERT_TRUE(stream.ok());
    Drain(stream->get(), /*ask=*/6);
    // Every call costs 6.0: the window is flat, the p95 is 6.0, and 6.0
    // never strictly exceeds it — the cold node cannot hedge.
    EXPECT_EQ(node.hedged->stats().hedges_launched, 0u);
    EXPECT_TRUE(node.service->state_store() == nullptr);
  }
}

TEST(WarmStartTest, RewardFeedSurvivesRestart) {
  const std::string path = ::testing::TempDir() + "/warm-rewards.json";
  std::remove(path.c_str());

  // --- Node 1: persistence on; publish rewards through the engine's feed;
  // shut down. ---
  core::RewardFeed::Snapshot saved;
  {
    Node node = MakeNode({1.0});
    ASSERT_TRUE(node.service->EnableStatePersistence(path).ok());
    core::RewardFeed* feed = node.engine->reward_feed();
    for (const double reward : {0.25, 0.5, 0.75, 1.0, 0.5}) {
      feed->Publish("warm:a", reward);
    }
    feed->Publish("warm:b", 0.125);
    saved = feed->SnapshotState();
    ASSERT_EQ(saved.tick, 6u);
    node.service.reset();  // shutdown writes the state file
  }

  // --- Node 2 ("restart", persistence on): the feed resumes exactly. ---
  Node node = MakeNode({1.0});
  ASSERT_TRUE(node.service->EnableStatePersistence(path).ok());
  EXPECT_TRUE(node.service->state_store()->load_warning().empty());
  const core::RewardFeed::Snapshot restored =
      node.engine->reward_feed()->SnapshotState();
  EXPECT_EQ(restored.tick, saved.tick);
  ASSERT_EQ(restored.models.size(), saved.models.size());
  for (const auto& [model, want] : saved.models) {
    ASSERT_TRUE(restored.models.count(model)) << model;
    const auto& got = restored.models.at(model);
    EXPECT_EQ(got.lifetime.count, want.lifetime.count) << model;
    EXPECT_DOUBLE_EQ(got.lifetime.reward_sum, want.lifetime.reward_sum)
        << model;
    EXPECT_EQ(got.window, want.window) << model;
    EXPECT_DOUBLE_EQ(got.decayed_sum, want.decayed_sum) << model;
    EXPECT_DOUBLE_EQ(got.decayed_weight, want.decayed_weight) << model;
    EXPECT_EQ(got.last_tick, want.last_tick) << model;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// StateStore corruption matrix: any broken file cold-starts completely —
// never a crash, never a half-restore — and a crashed mid-write (stray
// .tmp) never damages the committed snapshot.

class StateStoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/corrupt-state.json";
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  // Writes a fully populated, valid state file and returns its content.
  std::string PopulateValidFile() {
    llm::StateStore store(path_);
    EXPECT_TRUE(store.Load().ok());
    llm::CircuitBreaker breaker(1, 1);
    store.AttachBreaker("m1", &breaker);
    llm::HedgeConfig config;
    config.min_samples = 2;
    auto hedged = MakeStubHedged(config, "m1");
    hedged->RecordLatency(0, 1.5);
    hedged->RecordLatency(0, 2.5);
    hedged->RecordLatency(1, 0.5);
    store.AttachSketches("m1", hedged);
    breaker.RecordFailure();  // trips -> transition save (breaker+sketches)
    EXPECT_TRUE(store.SaveNow().ok());
    breaker.SetTransitionListener(nullptr);
    return ReadFile(path_);
  }

  std::string path_;
};

TEST_F(StateStoreCorruptionTest, TruncatedFileColdStartsEverything) {
  const std::string content = PopulateValidFile();
  ASSERT_GT(content.size(), 20u);
  WriteFile(path_, content.substr(0, content.size() / 2));

  llm::StateStore store(path_);
  ASSERT_TRUE(store.Load().ok()) << "a bad file must never fail the boot";
  EXPECT_FALSE(store.load_warning().empty());
  EXPECT_FALSE(store.HasBreaker("m1"));
  EXPECT_FALSE(store.HasSketches("m1"));
}

TEST_F(StateStoreCorruptionTest, GarbageAndWrongShapesColdStart) {
  for (const char* content :
       {"complete garbage, not json", "[1, 2, 3]", "42",
        "{\"breakers\": \"not an object\"}",
        "{\"sketches\": [1, 2]}", "{\"m1\": 7}"}) {
    WriteFile(path_, content);
    llm::StateStore store(path_);
    ASSERT_TRUE(store.Load().ok()) << content;
    EXPECT_FALSE(store.load_warning().empty()) << content;
    EXPECT_FALSE(store.HasBreaker("m1")) << content;
    EXPECT_FALSE(store.HasSketches("m1")) << content;
  }
}

TEST_F(StateStoreCorruptionTest, IntactSectionsNeverHalfRestore) {
  // Truncate INSIDE the sketches section: the breakers section earlier in
  // the file is fully intact JSON text, but the all-or-nothing policy must
  // refuse to restore it.
  const std::string content = PopulateValidFile();
  const auto cut = content.find("\"sketches\"");
  ASSERT_NE(cut, std::string::npos);
  WriteFile(path_, content.substr(0, cut + 15));

  llm::StateStore store(path_);
  ASSERT_TRUE(store.Load().ok());
  EXPECT_FALSE(store.load_warning().empty());
  EXPECT_FALSE(store.HasBreaker("m1"))
      << "the intact breakers section must NOT survive a broken file";
  EXPECT_FALSE(store.HasSketches("m1"));

  // The cold-started store is fully usable: a fresh breaker attaches and
  // its first transition persists cleanly over the broken file.
  llm::CircuitBreaker breaker(1, 1);
  store.AttachBreaker("m2", &breaker);
  breaker.RecordFailure();  // trips -> transition -> recorded + saved
  EXPECT_TRUE(store.SaveNow().ok());
  breaker.SetTransitionListener(nullptr);
  llm::StateStore reread(path_);
  ASSERT_TRUE(reread.Load().ok());
  EXPECT_TRUE(reread.load_warning().empty());
  EXPECT_TRUE(reread.HasBreaker("m2"));
}

TEST_F(StateStoreCorruptionTest, StrayTmpFromCrashedWriteIsHarmless) {
  PopulateValidFile();
  // Simulate a crash mid-SaveNow: a half-written temp file next to the
  // committed snapshot. The rename never happened, so the snapshot is
  // intact and the load must be clean.
  WriteFile(path_ + ".tmp", "{\"breakers\": {\"m1\": {\"sta");

  llm::StateStore store(path_);
  ASSERT_TRUE(store.Load().ok());
  EXPECT_TRUE(store.load_warning().empty());
  EXPECT_TRUE(store.HasBreaker("m1"));
  EXPECT_TRUE(store.HasSketches("m1"));

  // The tripped breaker restores from the intact snapshot…
  llm::CircuitBreaker breaker(1, 1);
  store.AttachBreaker("m1", &breaker);
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kOpen);
  breaker.SetTransitionListener(nullptr);

  // …and the next save atomically replaces both tmp and snapshot.
  ASSERT_TRUE(store.SaveNow().ok());
  EXPECT_FALSE(FileExists(path_ + ".tmp"));
  llm::StateStore reread(path_);
  ASSERT_TRUE(reread.Load().ok());
  EXPECT_TRUE(reread.HasBreaker("m1"));
}

TEST_F(StateStoreCorruptionTest, FlatBreakerFileColdStarts) {
  // Model -> breaker snapshot at top level, with neither a "breakers" nor a
  // "sketches" section: not a layout SaveNow writes, so nothing restores.
  llm::CircuitBreaker breaker(1, 1);
  breaker.RecordFailure();
  Json flat = Json::MakeObject();
  flat.Set("m1", llm::StateStore::BreakerToJson(breaker.snapshot()));
  WriteFile(path_, flat.Dump(2));

  llm::StateStore store(path_);
  ASSERT_TRUE(store.Load().ok());
  EXPECT_FALSE(store.load_warning().empty());
  EXPECT_FALSE(store.HasBreaker("m1"));
  EXPECT_FALSE(store.HasSketches("m1"));
  EXPECT_TRUE(store.LoadedSection("m1").is_null());
  llm::CircuitBreaker restored(1, 1);
  store.AttachBreaker("m1", &restored);
  EXPECT_EQ(restored.state(), llm::CircuitBreaker::State::kClosed);
  restored.SetTransitionListener(nullptr);
}

TEST_F(StateStoreCorruptionTest, SketchesJsonRoundTrips) {
  std::vector<QuantileWindow::Snapshot> sketches(2);
  sketches[0].capacity = 8;
  sketches[0].count = 20;  // lifetime count beyond the retained samples
  sketches[0].samples = {1.0, 2.5, 0.25};
  sketches[1].capacity = 4;
  sketches[1].count = 0;

  const auto json = llm::StateStore::SketchesToJson(sketches);
  const auto back = llm::StateStore::SketchesFromJson(json);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].capacity, 8u);
  EXPECT_EQ(back[0].count, 20u);
  ASSERT_EQ(back[0].samples.size(), 3u);
  EXPECT_DOUBLE_EQ(back[0].samples[1], 2.5);
  EXPECT_EQ(back[1].capacity, 4u);
  EXPECT_TRUE(back[1].samples.empty());
}

// ---------------------------------------------------------------------------
// /api/health surfaces the adaptive state.

TEST(AdaptiveHealthTest, HealthReportsAdaptiveHedgingState) {
  Arena arena = MakeArena(/*adapt=*/true);
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto sessions = std::make_shared<session::SessionStore>();
  core::SearchEngine engine(arena.runtime.get(), arena.embedder, db, sessions);
  app::ApiService service(&engine);

  // The engine wired its own feed to the hedged group at construction;
  // driving rewards through it moves the percentile.
  ASSERT_NE(engine.reward_feed(), nullptr);
  EXPECT_TRUE(engine.reward_feed()->Publish("arm:a", 0.9).changed);
  for (int i = 0; i < 10; ++i) engine.reward_feed()->Publish("arm:a", 0.9);
  EXPECT_DOUBLE_EQ(arena.hedged->effective_percentile(), 0.5);

  auto response = service.HandleHealth();
  ASSERT_TRUE(response["ok"].AsBool());
  const Json* entry = nullptr;
  for (const Json& model : response["models"].AsArray()) {
    if (model["model"].AsString() == "arm:a") entry = &model;
  }
  ASSERT_NE(entry, nullptr);
  const Json& hedging = (*entry)["hedging"];
  ASSERT_TRUE(hedging.is_object());
  EXPECT_TRUE(hedging["adaptive"].AsBool());
  EXPECT_DOUBLE_EQ(hedging["effective_percentile"].AsDouble(), 0.5);
  EXPECT_DOUBLE_EQ(hedging["min_percentile"].AsDouble(), 0.5);
  EXPECT_DOUBLE_EQ(hedging["max_percentile"].AsDouble(), 0.95);
  EXPECT_GE(hedging["adaptations"].AsInt(), 1);
  EXPECT_DOUBLE_EQ(hedging["last_favour"].AsDouble(), 1.0);
}

TEST(AdaptiveHealthTest, NonAdaptiveGroupsReportStaticHedging) {
  Arena arena = MakeArena(/*adapt=*/false);
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto sessions = std::make_shared<session::SessionStore>();
  core::SearchEngine engine(arena.runtime.get(), arena.embedder, db, sessions);
  app::ApiService service(&engine);

  auto response = service.HandleHealth();
  ASSERT_TRUE(response["ok"].AsBool());
  for (const Json& model : response["models"].AsArray()) {
    if (model["model"].AsString() != "arm:a") continue;
    const Json& hedging = model["hedging"];
    EXPECT_FALSE(hedging["adaptive"].AsBool());
    EXPECT_DOUBLE_EQ(hedging["effective_percentile"].AsDouble(), 0.95);
    EXPECT_FALSE(hedging.Contains("min_percentile"));
    EXPECT_FALSE(hedging.Contains("adaptations"));
  }
}

}  // namespace
}  // namespace llmms
