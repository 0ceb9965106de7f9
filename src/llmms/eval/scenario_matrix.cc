#include "llmms/eval/scenario_matrix.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <utility>

#include "llmms/core/hybrid.h"
#include "llmms/core/mab.h"
#include "llmms/core/oua.h"
#include "llmms/core/single.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/eval/metrics.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/hardware/placement.h"
#include "llmms/llm/fault_injection.h"
#include "llmms/llm/hedged_model.h"
#include "llmms/llm/knowledge.h"
#include "llmms/llm/registry.h"
#include "llmms/llm/resilient_model.h"
#include "llmms/llm/runtime.h"
#include "llmms/llm/synthetic_model.h"

namespace llmms::eval {
namespace {

// splitmix64-style seed mixing: every (cell, model, replica) gets its own
// deterministic fault/model seed so no two streams share a random sequence.
uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Ground-truth token counter at the substrate boundary: wraps the innermost
// SyntheticModel of every replica, so `generated` counts each token the
// synthetic world actually produced — the left-hand side of the
// conservation invariant generated == charged + wasted. Decorators above
// (fault injection, retries, hedging) can only drop or duplicate work, never
// mint tokens the meter has not seen.
struct TokenMeter {
  std::atomic<size_t> tokens{0};
};

class MeteredStream final : public llm::GenerationStream {
 public:
  MeteredStream(std::unique_ptr<llm::GenerationStream> inner,
                std::shared_ptr<TokenMeter> meter)
      : inner_(std::move(inner)), meter_(std::move(meter)) {}

  StatusOr<llm::Chunk> NextChunk(size_t max_tokens) override {
    auto chunk = inner_->NextChunk(max_tokens);
    if (chunk.ok()) {
      meter_->tokens.fetch_add(chunk->num_tokens, std::memory_order_relaxed);
    }
    return chunk;
  }

  const std::string& text() const override { return inner_->text(); }
  size_t tokens_generated() const override {
    return inner_->tokens_generated();
  }
  bool finished() const override { return inner_->finished(); }
  llm::StopReason stop_reason() const override {
    return inner_->stop_reason();
  }

 private:
  std::unique_ptr<llm::GenerationStream> inner_;
  std::shared_ptr<TokenMeter> meter_;
};

class MeteredModel final : public llm::LanguageModel {
 public:
  MeteredModel(std::shared_ptr<llm::LanguageModel> inner,
               std::shared_ptr<TokenMeter> meter)
      : inner_(std::move(inner)), meter_(std::move(meter)) {}

  const std::string& name() const override { return inner_->name(); }
  uint64_t memory_mb() const override { return inner_->memory_mb(); }
  double tokens_per_second() const override {
    return inner_->tokens_per_second();
  }
  size_t context_window() const override { return inner_->context_window(); }

  StatusOr<std::unique_ptr<llm::GenerationStream>> StartGeneration(
      const llm::GenerationRequest& request) const override {
    LLMMS_ASSIGN_OR_RETURN(auto stream, inner_->StartGeneration(request));
    return std::unique_ptr<llm::GenerationStream>(
        new MeteredStream(std::move(stream), meter_));
  }

 private:
  std::shared_ptr<llm::LanguageModel> inner_;
  std::shared_ptr<TokenMeter> meter_;
};

llm::FaultConfig FaultsFor(MatrixFaults faults, uint64_t seed) {
  llm::FaultConfig config;
  config.seed = seed;
  switch (faults) {
    case MatrixFaults::kNone:
      break;
    case MatrixFaults::kFlaky:
      config.chunk_error_prob = 0.05;
      config.stall_prob = 0.02;
      config.latency_spike_prob = 0.10;
      config.latency_spike_seconds = 0.05;
      break;
    case MatrixFaults::kStorm:
      // Calibrated so whole-pool failures survive the retry budget: with
      // three start attempts per model a 0.85 refusal rate still kills a
      // model's start ~61% of the time, so trio-pool queries shed at a
      // deterministic nonzero rate (asserted by the pinned-matrix test).
      config.refuse_start_prob = 0.85;
      config.chunk_error_prob = 0.20;
      config.latency_spike_prob = 0.05;
      config.latency_spike_seconds = 0.05;
      break;
  }
  return config;
}

// One cell's fully wired world. Built fresh per RunCell so cells never
// share breaker, sketch, or feed state.
struct CellWorld {
  std::shared_ptr<const embedding::Embedder> embedder;
  std::shared_ptr<llm::KnowledgeBase> knowledge;
  std::shared_ptr<llm::ModelRegistry> registry;
  std::shared_ptr<hardware::HardwareManager> hardware;
  std::unique_ptr<llm::ModelRuntime> runtime;
  std::vector<llm::QaItem> dataset;
  std::vector<std::string> model_names;
  std::shared_ptr<TokenMeter> meter;
  std::vector<std::shared_ptr<llm::HedgedModel>> hedged;
  std::unique_ptr<core::RewardFeed> feed;  // adaptive cells only
};

// Builds one replica chain: Metered(Synthetic) [-> Faulty -> Resilient].
std::shared_ptr<llm::LanguageModel> BuildReplica(
    const llm::ModelProfile& profile,
    const std::shared_ptr<llm::KnowledgeBase>& knowledge,
    const std::shared_ptr<TokenMeter>& meter, MatrixFaults faults,
    uint64_t seed) {
  llm::ModelProfile seeded = profile;
  seeded.seed = MixSeed(seed, 0x5EED);
  std::shared_ptr<llm::LanguageModel> model = std::make_shared<MeteredModel>(
      std::make_shared<llm::SyntheticModel>(seeded, knowledge), meter);
  if (faults != MatrixFaults::kNone) {
    model = std::make_shared<llm::FaultyModel>(
        model, FaultsFor(faults, MixSeed(seed, 0xFA17)));
    llm::ResilienceConfig resilience;
    resilience.seed = MixSeed(seed, 0x2E52);
    model = std::make_shared<llm::ResilientModel>(model, resilience);
  }
  return model;
}

StatusOr<CellWorld> BuildCellWorld(const MatrixConfig& config,
                                   const CellSpec& spec) {
  CellWorld world;
  world.embedder = std::make_shared<embedding::HashEmbedder>();
  world.meter = std::make_shared<TokenMeter>();

  DatasetOptions dataset_options;
  dataset_options.questions_per_domain = config.questions_per_domain;
  dataset_options.seed = config.seed;
  world.dataset = GenerateDataset(dataset_options);

  world.knowledge = std::make_shared<llm::KnowledgeBase>(world.embedder);
  LLMMS_RETURN_NOT_OK(world.knowledge->AddAll(world.dataset));

  auto profiles = llm::DefaultProfiles();
  if (spec.pool == MatrixPool::kDuo) profiles.resize(2);

  world.registry = std::make_shared<llm::ModelRegistry>();
  for (size_t i = 0; i < profiles.size(); ++i) {
    const uint64_t model_seed = MixSeed(config.seed, i * 2 + 1);
    auto primary = BuildReplica(profiles[i], world.knowledge, world.meter,
                                spec.faults, model_seed);
    std::shared_ptr<llm::LanguageModel> model = primary;
    if (spec.mode == MatrixMode::kAdaptive) {
      auto backup = BuildReplica(profiles[i], world.knowledge, world.meter,
                                 spec.faults, MixSeed(config.seed, i * 2 + 2));
      llm::HedgeConfig hedge;
      hedge.percentile = 0.90;
      hedge.latency_window = 64;
      hedge.min_samples = 4;
      hedge.catchup_chunk_tokens = 32;
      hedge.adapt = true;
      hedge.min_percentile = 0.50;
      hedge.max_percentile = 0.95;
      auto hedged = std::make_shared<llm::HedgedModel>(
          primary, std::vector<std::shared_ptr<llm::LanguageModel>>{backup},
          hedge);
      world.hedged.push_back(hedged);
      model = hedged;
    }
    world.model_names.push_back(profiles[i].name);
    LLMMS_RETURN_NOT_OK(world.registry->Register(model));
  }

  hardware::DeviceSpec gpu;
  gpu.name = "sim-a100-80g";
  gpu.kind = hardware::DeviceKind::kGpu;
  gpu.memory_mb = 80 * 1024;
  gpu.throughput_factor = 1.0;
  world.hardware = std::make_shared<hardware::HardwareManager>(
      std::vector<hardware::DeviceSpec>{gpu});

  world.runtime = std::make_unique<llm::ModelRuntime>(
      world.registry, world.hardware, /*num_threads=*/4);
  for (const auto& name : world.model_names) {
    LLMMS_RETURN_NOT_OK(world.runtime->LoadModel(name));
  }

  if (spec.mode == MatrixMode::kBatched) {
    world.runtime->EnableScheduler(llm::SchedulerConfig());
  }
  if (spec.mode == MatrixMode::kAdaptive) {
    world.feed = std::make_unique<core::RewardFeed>(config.feed);
    core::AttachAdaptiveHedging(world.feed.get(), world.runtime.get());
  }
  return world;
}

std::unique_ptr<core::Orchestrator> BuildOrchestrator(
    const MatrixConfig& config, const CellSpec& spec, CellWorld* world) {
  core::RewardFeed* feed = world->feed.get();
  switch (spec.orchestrator) {
    case MatrixOrchestrator::kSingle: {
      core::SingleModelOrchestrator::Config single;
      single.weights = config.weights;
      single.token_budget = spec.token_budget;
      return std::make_unique<core::SingleModelOrchestrator>(
          world->runtime.get(), world->model_names.front(), world->embedder,
          single);
    }
    case MatrixOrchestrator::kOua: {
      core::OuaOrchestrator::Config oua;
      oua.weights = config.weights;
      oua.token_budget = spec.token_budget;
      oua.reward_feed = feed;
      return std::make_unique<core::OuaOrchestrator>(
          world->runtime.get(), world->model_names, world->embedder, oua);
    }
    case MatrixOrchestrator::kMab: {
      core::MabOrchestrator::Config mab;
      mab.weights = config.weights;
      mab.token_budget = spec.token_budget;
      mab.reward_feed = feed;
      if (feed != nullptr) mab.feed_prior_weight = config.feed_prior_weight;
      return std::make_unique<core::MabOrchestrator>(
          world->runtime.get(), world->model_names, world->embedder, mab);
    }
    case MatrixOrchestrator::kHybrid: {
      core::HybridOrchestrator::Config hybrid;
      hybrid.weights = config.weights;
      hybrid.token_budget = spec.token_budget;
      hybrid.reward_feed = feed;
      if (feed != nullptr) {
        hybrid.feed_prior_weight = config.feed_prior_weight;
      }
      return std::make_unique<core::HybridOrchestrator>(
          world->runtime.get(), world->model_names, world->embedder, hybrid);
    }
  }
  return nullptr;
}

}  // namespace

const char* ToString(MatrixOrchestrator orchestrator) {
  switch (orchestrator) {
    case MatrixOrchestrator::kSingle: return "single";
    case MatrixOrchestrator::kOua: return "oua";
    case MatrixOrchestrator::kMab: return "mab";
    case MatrixOrchestrator::kHybrid: return "hybrid";
  }
  return "unknown";
}

const char* ToString(MatrixPool pool) {
  switch (pool) {
    case MatrixPool::kDuo: return "duo";
    case MatrixPool::kTrio: return "trio";
  }
  return "unknown";
}

const char* ToString(MatrixFaults faults) {
  switch (faults) {
    case MatrixFaults::kNone: return "none";
    case MatrixFaults::kFlaky: return "flaky";
    case MatrixFaults::kStorm: return "storm";
  }
  return "unknown";
}

const char* ToString(MatrixMode mode) {
  switch (mode) {
    case MatrixMode::kPlain: return "plain";
    case MatrixMode::kAdaptive: return "adaptive";
    case MatrixMode::kBatched: return "batched";
  }
  return "unknown";
}

std::string CellKey(const CellSpec& spec) {
  char key[128];
  std::snprintf(key, sizeof(key), "%s/b%zu/%s/%s/%s",
                ToString(spec.orchestrator), spec.token_budget,
                ToString(spec.pool), ToString(spec.faults),
                ToString(spec.mode));
  return key;
}

MatrixConfig DefaultMatrix() {
  MatrixConfig config;
  config.orchestrators = {MatrixOrchestrator::kSingle, MatrixOrchestrator::kOua,
                          MatrixOrchestrator::kMab, MatrixOrchestrator::kHybrid};
  // 96 starves the pool (the synthetic answers need ~100 tokens per trio
  // query, so low-budget cells trade answer quality for cost); 384 is the
  // comfortable regime where every model finishes naturally.
  config.token_budgets = {96, 384};
  config.pools = {MatrixPool::kDuo, MatrixPool::kTrio};
  config.faults = {MatrixFaults::kNone, MatrixFaults::kFlaky,
                   MatrixFaults::kStorm};
  config.modes = {MatrixMode::kPlain, MatrixMode::kAdaptive,
                  MatrixMode::kBatched};
  config.questions_per_domain = 2;
  return config;
}

MatrixConfig PinnedMatrix() {
  MatrixConfig config;
  config.orchestrators = {MatrixOrchestrator::kOua, MatrixOrchestrator::kMab};
  config.token_budgets = {384};
  config.pools = {MatrixPool::kTrio};
  config.faults = {MatrixFaults::kNone, MatrixFaults::kStorm};
  config.modes = {MatrixMode::kPlain, MatrixMode::kAdaptive};
  config.questions_per_domain = 1;
  return config;
}

Json CellToJson(const CellResult& result) {
  Json out = Json::MakeObject();
  out.Set("cell", CellKey(result.spec));
  out.Set("orchestrator", ToString(result.spec.orchestrator));
  out.Set("token_budget", result.spec.token_budget);
  out.Set("pool", ToString(result.spec.pool));
  out.Set("faults", ToString(result.spec.faults));
  out.Set("mode", ToString(result.spec.mode));
  out.Set("queries", result.queries);
  out.Set("failed_queries", result.failed_queries);
  out.Set("shed_rate", result.shed_rate);
  out.Set("mean_reward", result.mean_reward);
  out.Set("mean_f1", result.mean_f1);
  out.Set("accuracy", result.accuracy);
  out.Set("reward_per_token", result.reward_per_token);
  out.Set("charged_tokens", result.charged_tokens);
  out.Set("wasted_tokens", result.wasted_tokens);
  out.Set("generated_tokens", result.generated_tokens);
  out.Set("hedges_launched", result.hedges_launched);
  out.Set("hedges_won", result.hedges_won);
  out.Set("failovers", result.failovers);
  out.Set("wasted_seconds", result.wasted_seconds);
  out.Set("simulated_seconds", result.simulated_seconds);
  out.Set("wall_seconds", result.wall_seconds);
  return out;
}

std::string CellTraceLine(const CellResult& result) {
  char line[384];
  std::snprintf(
      line, sizeof(line),
      "%s queries=%zu shed=%.4f reward=%.6f f1=%.6f acc=%.4f rpt=%.8f "
      "charged=%zu wasted=%zu generated=%zu hedges=%zu won=%zu failovers=%zu "
      "sim_s=%.6f",
      CellKey(result.spec).c_str(), result.queries, result.shed_rate,
      result.mean_reward, result.mean_f1, result.accuracy,
      result.reward_per_token, result.charged_tokens, result.wasted_tokens,
      result.generated_tokens, result.hedges_launched, result.hedges_won,
      result.failovers, result.simulated_seconds);
  return line;
}

ScenarioMatrix::ScenarioMatrix(const MatrixConfig& config) : config_(config) {}

std::vector<CellSpec> ScenarioMatrix::Cells() const {
  std::vector<CellSpec> cells;
  for (const auto orchestrator : config_.orchestrators) {
    for (const auto budget : config_.token_budgets) {
      for (const auto pool : config_.pools) {
        for (const auto faults : config_.faults) {
          for (const auto mode : config_.modes) {
            CellSpec spec;
            spec.orchestrator = orchestrator;
            spec.token_budget = budget;
            spec.pool = pool;
            spec.faults = faults;
            spec.mode = mode;
            cells.push_back(spec);
          }
        }
      }
    }
  }
  return cells;
}

StatusOr<CellResult> ScenarioMatrix::RunCell(
    const CellSpec& spec, const QueryObserver& observer) const {
  const auto wall_start = std::chrono::steady_clock::now();
  LLMMS_ASSIGN_OR_RETURN(auto world, BuildCellWorld(config_, spec));

  CellResult result;
  result.spec = spec;
  double total_reward = 0.0;
  double total_f1 = 0.0;
  size_t correct = 0;

  for (const auto& item : world.dataset) {
    auto orchestrator = BuildOrchestrator(config_, spec, &world);
    // Budget-charged tokens are tracked through the event stream as well as
    // the result: a query whose whole pool fails still consumed the tokens
    // its events had reported by then, and those must stay on the books for
    // the conservation invariant.
    size_t event_tokens = 0;
    std::vector<core::OrchestratorEvent> events;
    auto run_or = orchestrator->Run(
        item.question, [&](const core::OrchestratorEvent& event) {
          event_tokens = std::max(event_tokens, event.total_tokens);
          if (observer) events.push_back(event);
        });
    if (observer) observer(events, run_or);
    ++result.queries;
    if (!run_or.ok()) {
      ++result.failed_queries;
      result.charged_tokens += event_tokens;
      continue;
    }
    const core::OrchestrationResult& run = run_or.value();
    result.charged_tokens += run.total_tokens;
    result.simulated_seconds += run.simulated_seconds;
    const QuestionMetrics metrics = ScoreResponse(
        *world.embedder, item, run.answer, config_.reward_weights);
    total_reward += metrics.reward;
    total_f1 += metrics.f1;
    if (metrics.correct) ++correct;
  }

  const size_t answered = result.queries - result.failed_queries;
  result.shed_rate =
      result.queries == 0
          ? 0.0
          : static_cast<double>(result.failed_queries) /
                static_cast<double>(result.queries);
  result.mean_reward =
      answered == 0 ? 0.0 : total_reward / static_cast<double>(answered);
  result.mean_f1 =
      answered == 0 ? 0.0 : total_f1 / static_cast<double>(answered);
  result.accuracy = answered == 0 ? 0.0
                                  : static_cast<double>(correct) /
                                        static_cast<double>(answered);
  result.reward_per_token =
      result.charged_tokens == 0
          ? 0.0
          : total_reward / static_cast<double>(result.charged_tokens);

  for (const auto& hedged : world.hedged) {
    const auto stats = hedged->stats();
    result.hedges_launched += stats.hedges_launched;
    result.hedges_won += stats.hedges_won;
    result.failovers += stats.failovers;
    result.wasted_tokens += stats.wasted_tokens;
    result.wasted_seconds += stats.wasted_seconds;
  }
  result.generated_tokens =
      world.meter->tokens.load(std::memory_order_relaxed);

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

StatusOr<std::vector<CellResult>> ScenarioMatrix::Run(
    const std::function<void(const CellResult&, size_t done, size_t total)>&
        progress) const {
  const auto cells = Cells();
  std::vector<CellResult> results;
  results.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    LLMMS_ASSIGN_OR_RETURN(auto result, RunCell(cells[i]));
    results.push_back(std::move(result));
    if (progress) progress(results.back(), i + 1, cells.size());
  }
  return results;
}

// --- Drifting competence. ---

DriftSwitchModel::DriftSwitchModel(std::shared_ptr<llm::LanguageModel> before,
                                   std::shared_ptr<llm::LanguageModel> after,
                                   size_t switch_after_starts)
    : before_(std::move(before)),
      after_(std::move(after)),
      switch_after_starts_(switch_after_starts) {}

StatusOr<std::unique_ptr<llm::GenerationStream>>
DriftSwitchModel::StartGeneration(const llm::GenerationRequest& request) const {
  const size_t start = starts_.fetch_add(1, std::memory_order_relaxed);
  const auto& active = start < switch_after_starts_ ? before_ : after_;
  return active->StartGeneration(request);
}

namespace {

llm::ModelProfile DriftProfile(const std::string& name, double competence,
                               uint64_t seed) {
  llm::ModelProfile profile;
  profile.name = name;
  profile.family = "drift";
  profile.memory_mb = 4200;
  profile.tokens_per_second = 90.0;
  profile.default_competence = competence;
  profile.verbosity = 0.8;
  profile.hallucination_rate = competence < 0.5 ? 0.25 : 0.02;
  profile.seed = seed;
  return profile;
}

struct DriftWorld {
  std::shared_ptr<const embedding::Embedder> embedder;
  std::shared_ptr<llm::KnowledgeBase> knowledge;
  std::shared_ptr<llm::ModelRegistry> registry;
  std::shared_ptr<hardware::HardwareManager> hardware;
  std::unique_ptr<llm::ModelRuntime> runtime;
  std::vector<llm::QaItem> dataset;
  std::vector<std::string> model_names;
};

StatusOr<DriftWorld> BuildDriftWorld(const DriftConfig& config) {
  DriftWorld world;
  world.embedder = std::make_shared<embedding::HashEmbedder>();

  DatasetOptions dataset_options;
  dataset_options.questions_per_domain = config.questions_per_domain;
  dataset_options.seed = config.seed;
  world.dataset = GenerateDataset(dataset_options);

  world.knowledge = std::make_shared<llm::KnowledgeBase>(world.embedder);
  LLMMS_RETURN_NOT_OK(world.knowledge->AddAll(world.dataset));

  // Two models whose competence swaps at the switch: alpha is the strong
  // model of the first half, beta of the second.
  world.registry = std::make_shared<llm::ModelRegistry>();
  const struct {
    const char* name;
    double before;
    double after;
    uint64_t salt;
  } kDriftModels[] = {
      {"drift:alpha", 0.95, 0.05, 0xA1FA},
      {"drift:beta", 0.05, 0.95, 0xBE7A},
  };
  for (const auto& entry : kDriftModels) {
    auto before = std::make_shared<llm::SyntheticModel>(
        DriftProfile(entry.name, entry.before, MixSeed(config.seed, entry.salt)),
        world.knowledge);
    auto after = std::make_shared<llm::SyntheticModel>(
        DriftProfile(entry.name, entry.after,
                     MixSeed(config.seed, entry.salt + 1)),
        world.knowledge);
    LLMMS_RETURN_NOT_OK(world.registry->Register(
        std::make_shared<DriftSwitchModel>(before, after,
                                           config.switch_after_queries)));
    world.model_names.push_back(entry.name);
  }

  hardware::DeviceSpec gpu;
  gpu.name = "sim-a100-80g";
  gpu.kind = hardware::DeviceKind::kGpu;
  gpu.memory_mb = 80 * 1024;
  gpu.throughput_factor = 1.0;
  world.hardware = std::make_shared<hardware::HardwareManager>(
      std::vector<hardware::DeviceSpec>{gpu});

  world.runtime = std::make_unique<llm::ModelRuntime>(
      world.registry, world.hardware, /*num_threads=*/4);
  for (const auto& name : world.model_names) {
    LLMMS_RETURN_NOT_OK(world.runtime->LoadModel(name));
  }
  return world;
}

StatusOr<DriftOutcome> RunDriftSession(const DriftConfig& config,
                                       const core::RewardFeedConfig& feed_cfg) {
  LLMMS_ASSIGN_OR_RETURN(auto world, BuildDriftWorld(config));
  core::RewardFeed feed(feed_cfg);

  DriftOutcome outcome;
  double total_reward = 0.0;
  for (const auto& item : world.dataset) {
    core::MabOrchestrator::Config mab;
    mab.weights = config.weights;
    mab.token_budget = config.token_budget;
    mab.chunk_tokens = config.chunk_tokens;
    mab.reward_feed = &feed;
    mab.feed_prior_weight = config.feed_prior_weight;
    core::MabOrchestrator orchestrator(world.runtime.get(), world.model_names,
                                       world.embedder, mab);
    LLMMS_ASSIGN_OR_RETURN(auto run, orchestrator.Run(item.question));
    ++outcome.queries;
    outcome.charged_tokens += run.total_tokens;
    const QuestionMetrics metrics = ScoreResponse(
        *world.embedder, item, run.answer, config.reward_weights);
    total_reward += metrics.reward;
  }
  outcome.total_reward = total_reward;
  outcome.reward_per_token =
      outcome.charged_tokens == 0
          ? 0.0
          : total_reward / static_cast<double>(outcome.charged_tokens);
  return outcome;
}

}  // namespace

StatusOr<DriftComparison> RunDriftComparison(const DriftConfig& config) {
  DriftComparison comparison;
  core::RewardFeedConfig lifetime;
  lifetime.warmup = config.adaptive_feed.warmup;
  // window = 0, half_life = 0: the PR 4 lifetime-mean baseline.
  LLMMS_ASSIGN_OR_RETURN(comparison.lifetime,
                         RunDriftSession(config, lifetime));
  LLMMS_ASSIGN_OR_RETURN(comparison.adaptive,
                         RunDriftSession(config, config.adaptive_feed));
  return comparison;
}

}  // namespace llmms::eval
