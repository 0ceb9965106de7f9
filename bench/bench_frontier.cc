// Cost/accuracy frontier bench (BENCH_frontier.json, DESIGN.md §16): runs
// the default scenario matrix — orchestrator x token budget x pool x fault
// profile x serving mode — through eval::ScenarioMatrix and records every
// cell's reward, F1, reward/token, hedge waste, shed rate, and wall clock,
// plus the drifting-competence comparison between the lifetime-mean
// RewardFeed baseline and the sliding-window feed. With --preset it instead
// prints one paper figure or ablation (EXPERIMENTS.md; the names are in
// kPresets below).
//
// Usage: bench_frontier [output.json] | bench_frontier --preset <name>
//   LLMMS_BENCH_QPD  questions per domain over the 6 canonical domains:
//                    default 2 per matrix cell, 50 for a figure or the
//                    report; the ablations cap it at 20
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "llmms/common/fs.h"
#include "llmms/common/json.h"
#include "llmms/common/string_util.h"
#include "llmms/core/agents.h"
#include "llmms/core/hybrid.h"
#include "llmms/core/mab.h"
#include "llmms/core/oua.h"
#include "llmms/core/router.h"
#include "llmms/embedding/embedding_cache.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/eval/harness.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/eval/report.h"
#include "llmms/eval/scenario_matrix.h"
#include "llmms/hardware/placement.h"
#include "llmms/llm/model_profile.h"
#include "llmms/llm/registry.h"
#include "llmms/llm/runtime.h"
#include "llmms/llm/synthetic_model.h"

namespace llmms::bench {
namespace {

size_t EnvQpd(size_t fallback) {
  const char* env = std::getenv("LLMMS_BENCH_QPD");
  if (env != nullptr) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

void Check(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::abort();
}

template <typename T>
T OrDie(StatusOr<T> value, const char* what) {
  Check(value.status(), what);
  return std::move(value).value();
}

// ---------------------------------------------------------------------------
// Paper presets.

// The evaluation platform of every preset: the three paper models on a
// simulated Tesla V100, a TruthfulQA-style benchmark, and an embedding cache
// in front of the scorer (the orchestrators re-embed partial responses every
// round).
struct World {
  std::shared_ptr<const embedding::Embedder> embedder;
  std::unique_ptr<llm::ModelRuntime> runtime;
  std::vector<llm::QaItem> dataset;
  std::vector<std::string> model_names;
};

World MakeWorld(size_t questions_per_domain) {
  World world;
  world.embedder = std::make_shared<embedding::EmbeddingCache>(
      std::make_shared<embedding::HashEmbedder>(), /*capacity=*/4096);

  eval::DatasetOptions dataset_options;
  dataset_options.questions_per_domain = questions_per_domain;
  world.dataset = eval::GenerateDataset(dataset_options);

  auto knowledge = std::make_shared<llm::KnowledgeBase>(world.embedder);
  Check(knowledge->AddAll(world.dataset), "knowledge base");

  auto registry = std::make_shared<llm::ModelRegistry>();
  for (const auto& profile : llm::DefaultProfiles()) {
    world.model_names.push_back(profile.name);
    Check(registry->Register(
              std::make_shared<llm::SyntheticModel>(profile, knowledge)),
          "register");
  }

  hardware::DeviceSpec v100;
  v100.name = "tesla-v100-0";
  v100.kind = hardware::DeviceKind::kGpu;
  v100.memory_mb = 32 * 1024;
  world.runtime = std::make_unique<llm::ModelRuntime>(
      registry,
      std::make_shared<hardware::HardwareManager>(
          std::vector<hardware::DeviceSpec>{v100}),
      4);
  for (const auto& name : world.model_names) {
    Check(world.runtime->LoadModel(name), "load");
  }
  return world;
}

// The five execution modes of §8.1 (fewer if `config` switches some off).
eval::EvaluationReport Evaluate(const World& world,
                                eval::HarnessConfig config = {}) {
  eval::EvaluationHarness harness(world.runtime.get(), world.embedder,
                                  world.model_names, config);
  return OrDie(harness.Run(world.dataset), "evaluation");
}

std::vector<eval::StrategyAggregate> Aggregates(
    const eval::EvaluationReport& report) {
  std::vector<eval::StrategyAggregate> rows;
  rows.reserve(report.runs.size());
  for (const auto& run : report.runs) rows.push_back(run.aggregate);
  return rows;
}

eval::StrategyAggregate Run(const std::string& label,
                            core::Orchestrator* orchestrator,
                            const World& world,
                            const std::vector<llm::QaItem>& dataset) {
  return OrDie(eval::RunStrategy(label, orchestrator, *world.embedder,
                                 dataset),
               "run")
      .aggregate;
}

struct Series {
  const char* title;
  const char* metric;  // a eval::PrintMetricSeries column
};

// Figures 8.1-8.3 share one shape: the scale line, the §8.1 run, the
// figure's series, optionally a note and a second series, and the full
// table.
eval::EvaluationReport Figure(const World& world, const char* figure,
                              Series main, const char* note = nullptr,
                              Series extra = {}) {
  std::cout << figure << " reproduction: " << world.dataset.size()
            << " TruthfulQA-style questions, token budget 2048\n\n";
  auto report = Evaluate(world);
  const auto rows = Aggregates(report);
  eval::PrintMetricSeries(std::cout, main.title, main.metric, rows);
  if (note != nullptr) {
    std::cout << note;
    eval::PrintMetricSeries(std::cout, extra.title, extra.metric, rows);
  }
  std::cout << "\nFull table:\n";
  eval::PrintAggregateTable(std::cout, rows);
  return report;
}

// One "reward  f1  accuracy  tokens[extra]" row after a label padded to its
// column.
void PrintRow(const std::string& label, const eval::StrategyAggregate& agg,
              const std::string& extra = "") {
  std::cout << label << FormatDouble(agg.mean_reward, 4) << "  "
            << FormatDouble(agg.mean_f1, 4) << "  "
            << FormatDouble(agg.accuracy, 3) << "     "
            << FormatDouble(agg.mean_total_tokens, 1) << extra << "\n";
}

// Figure 8.1: average reward per model/strategy. Expected shape (thesis
// §8.3.1): the LLM-MS strategies out-reward every static single-model
// baseline, with MAB on top.
void Fig8_1(const World& world) {
  const auto report = Figure(
      world, "Figure 8.1",
      {"Figure 8.1 - Average reward per model (Eq. 8.1)", "reward"});
  std::cout << "\nPer-domain average reward (premise check: different models "
               "win different domains):\n";
  for (const auto& run : report.runs) {
    std::cout << run.strategy << ":";
    for (const auto& [domain, agg] :
         eval::AggregateByDomain(run.strategy, run.per_question)) {
      std::cout << "  " << domain << "=" << FormatDouble(agg.mean_reward, 3);
    }
    std::cout << "\n";
  }
}

// Figure 8.2: average F1 per model/strategy. Expected shape (thesis §8.3.2):
// LLM-MS OUA achieves the highest average F1.
void Fig8_2(const World& world) {
  Figure(world, "Figure 8.2", {"Figure 8.2 - Average F1 score per model", "f1"},
         "\nAccuracy (fraction of answers closer to the correct set than the "
         "misconception set):\n",
         {"Accuracy per model", "accuracy"});
}

// Figure 8.3: average reward-to-tokens ratio per model/strategy. Expected
// shape (thesis §8.3.3): LLM-MS OUA shows the best trade-off between token
// usage and answer quality (early pruning conserves tokens).
void Fig8_3(const World& world) {
  Figure(world, "Figure 8.3",
         {"Figure 8.3 - Average reward-to-tokens ratio per model (per 1k "
          "tokens)",
          "reward_per_token"},
         "\nMean tokens consumed per question (all participating models):\n",
         {"Tokens per question", "tokens"});
}

// The measured tables of EXPERIMENTS.md as markdown: the five-mode
// comparison plus one series per paper figure. Refresh the documentation
// with `bench_frontier --preset report > report.md`.
void Report(const World& world) {
  const auto report = Evaluate(world);
  const auto rows = Aggregates(report);

  std::cout << "## Measured results (" << world.dataset.size()
            << " questions, token budget 2048, alpha=0.7/beta=0.3)\n\n";
  eval::PrintMarkdownTable(std::cout, rows);

  using Metric = double eval::StrategyAggregate::*;
  auto series = [&](const char* title, Metric metric, double scale) {
    std::cout << "\n### " << title << "\n\n| strategy | value |\n|---|---|\n";
    for (const auto& row : rows) {
      std::cout << "| " << row.strategy << " | "
                << FormatDouble(row.*metric * scale, 4);
      if (metric == &eval::StrategyAggregate::mean_reward) {
        std::cout << " ± " << FormatDouble(row.reward_sem, 4);
      }
      std::cout << " |\n";
    }
  };
  series("Figure 8.1 — average reward (± SEM)",
         &eval::StrategyAggregate::mean_reward, 1.0);
  series("Figure 8.2 — average F1", &eval::StrategyAggregate::mean_f1, 1.0);
  series("Figure 8.3 — reward per 1k answer tokens",
         &eval::StrategyAggregate::mean_reward_per_answer_token, 1000.0);

  std::cout << "\n### Per-domain average reward\n\n| strategy |";
  const auto domains = eval::AggregateByDomain(
      report.runs.front().strategy, report.runs.front().per_question);
  for (const auto& [domain, agg] : domains) std::cout << " " << domain << " |";
  std::cout << "\n|---|";
  for (size_t i = 0; i < domains.size(); ++i) std::cout << "---|";
  std::cout << "\n";
  for (const auto& run : report.runs) {
    std::cout << "| " << run.strategy << " |";
    for (const auto& [domain, agg] :
         eval::AggregateByDomain(run.strategy, run.per_question)) {
      std::cout << " " << FormatDouble(agg.mean_reward, 3) << " |";
    }
    std::cout << "\n";
  }
}

// The scoring weights alpha (query similarity) and beta (inter-model
// agreement) of Eq. 6.1 / Algorithm 1. The paper fixes alpha=0.7, beta=0.3;
// this sweep shows how the mix affects both LLM-MS strategies, with
// beta = 1 - alpha throughout.
void AlphaBeta(const World& world) {
  std::cout << "Alpha/beta ablation (" << world.dataset.size()
            << " questions): score = alpha*qSim + (1-alpha)*interSim\n\n";
  std::cout << "alpha   oua_reward  oua_f1   mab_reward  mab_f1\n";
  std::cout << "------------------------------------------------\n";

  for (double alpha : {0.0, 0.25, 0.5, 0.7, 0.9, 1.0}) {
    eval::HarnessConfig config;
    config.weights.alpha = alpha;
    config.weights.beta = 1.0 - alpha;
    config.run_singles = false;
    const auto report = Evaluate(world, config);
    const auto& oua = report.Find("llm-ms-oua")->aggregate;
    const auto& mab = report.Find("llm-ms-mab")->aggregate;
    std::cout << FormatDouble(alpha, 2) << "    "
              << FormatDouble(oua.mean_reward, 4) << "      "
              << FormatDouble(oua.mean_f1, 4) << "   "
              << FormatDouble(mab.mean_reward, 4) << "      "
              << FormatDouble(mab.mean_f1, 4) << "\n";
  }
  std::cout << "\n(The paper's default alpha=0.7 balances topical alignment "
               "against consensus.)\n";
}

// OUA's pruning margin (Algorithm 1 line 21) and early-stop margin (line
// 17). Small margins prune/stop aggressively and save tokens at some F1
// risk; the thesis's literal 0.5 (on its embedding scale) disables both
// behaviors on our hash-embedding cosine scale — visible in the last row.
void PruneMargin(const World& world) {
  std::cout << "OUA margin ablation (" << world.dataset.size()
            << " questions); early_stop_margin = prune_margin + 0.02\n\n";
  std::cout << "margin  reward   f1      tokens   rew/1k_tok\n";
  std::cout << "---------------------------------------------\n";

  for (double margin : {0.0, 0.05, 0.10, 0.20, 0.35, 0.5}) {
    eval::HarnessConfig config;
    config.oua_prune_margin = margin;
    config.oua_early_stop_margin = margin + 0.02;
    config.run_singles = false;
    config.run_mab = false;
    const auto report = Evaluate(world, config);
    const auto& agg = report.Find("llm-ms-oua")->aggregate;
    std::cout << FormatDouble(margin, 2) << "    "
              << FormatDouble(agg.mean_reward, 4) << "  "
              << FormatDouble(agg.mean_f1, 4) << "  "
              << FormatDouble(agg.mean_total_tokens, 1) << "    "
              << FormatDouble(agg.mean_reward_per_total_token * 1000.0, 4)
              << "\n";
  }
}

// MAB's exploration coefficient gamma (Algorithm 2 line 11): the paper's
// decaying schedule gamma = gamma0*(1 - used/budget) against fixed gamma,
// across several gamma0 values.
void Gamma(const World& world) {
  std::cout << "MAB gamma ablation (" << world.dataset.size()
            << " questions)\n\n";
  std::cout << "gamma0  schedule  reward   f1      tokens\n";
  std::cout << "-------------------------------------------\n";

  for (bool decay : {true, false}) {
    for (double gamma0 : {0.0, 0.1, 0.3, 0.6, 1.0}) {
      core::MabOrchestrator::Config config;
      config.gamma0 = gamma0;
      config.decay_gamma = decay;
      core::MabOrchestrator orchestrator(world.runtime.get(),
                                         world.model_names, world.embedder,
                                         config);
      const auto agg = Run("mab", &orchestrator, world, world.dataset);
      std::cout << FormatDouble(gamma0, 2) << "    "
                << (decay ? "decaying" : "fixed   ") << "  "
                << FormatDouble(agg.mean_reward, 4) << "  "
                << FormatDouble(agg.mean_f1, 4) << "  "
                << FormatDouble(agg.mean_total_tokens, 1) << "\n";
    }
  }
  std::cout << "\n(The paper's schedule: gamma0=0.3 decaying with budget "
               "consumption.)\n";
}

// The token budget lambda_max (§6.3 uses 2048): answer quality vs. cost for
// both LLM-MS strategies — where the curves flatten is where extra tokens
// stop buying quality.
void Budget(const World& world) {
  std::cout << "Token budget sweep (" << world.dataset.size()
            << " questions)\n\n";
  std::cout << "budget  strategy     reward   f1      tokens\n";
  std::cout << "----------------------------------------------\n";

  for (size_t budget : {128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    eval::HarnessConfig config;
    config.token_budget = budget;
    config.run_singles = false;
    for (const auto& run : Evaluate(world, config).runs) {
      std::cout << budget << (budget < 1000 ? "     " : "    ")
                << run.strategy << "   "
                << FormatDouble(run.aggregate.mean_reward, 4) << "  "
                << FormatDouble(run.aggregate.mean_f1, 4) << "  "
                << FormatDouble(run.aggregate.mean_total_tokens, 1) << "\n";
    }
  }
}

// The hybrid strategy the thesis's analysis proposes (§8.4) — OUA-style
// screening followed by UCB1 allocation among the survivors — against its
// two parents on quality and token cost.
void Hybrid(const World& world) {
  std::cout << "Hybrid ablation (" << world.dataset.size()
            << " questions): OUA screening + UCB allocation vs. parents\n\n";

  core::OuaOrchestrator oua(world.runtime.get(), world.model_names,
                            world.embedder, {});
  core::MabOrchestrator mab(world.runtime.get(), world.model_names,
                            world.embedder, {});
  core::HybridOrchestrator hybrid(world.runtime.get(), world.model_names,
                                  world.embedder, {});
  const std::vector<eval::StrategyAggregate> rows = {
      Run("llm-ms-oua", &oua, world, world.dataset),
      Run("llm-ms-mab", &mab, world, world.dataset),
      Run("llm-ms-hybrid", &hybrid, world, world.dataset)};

  std::cout << "strategy        reward   f1      accuracy  tokens   "
               "rew/1k_atok\n";
  std::cout << std::string(66, '-') << "\n";
  for (const auto& row : rows) {
    const double per_1k = row.mean_reward_per_answer_token * 1000.0;
    PrintRow(row.strategy + (row.strategy.size() < 12 ? "     " : "  "), row,
             "    " + FormatDouble(per_1k, 3));
  }
  std::cout << "\n(Hybrid aims at MAB-like quality at OUA-like token cost, "
               "§8.4's suggested trade-off.)\n";
}

// Cognitive routing with semantic task indexing (§9.5). After a warmup
// phase in which the router observes model performance per task, new
// queries are routed to a subset of specialists — measuring what routing
// buys in tokens at what quality cost, vs. full-pool orchestration.
void Routing(const World& world) {
  core::IntentClassifier classifier(world.embedder);
  for (const auto& item : world.dataset) {
    Check(classifier.AddExample(item.question, item.domain), "classifier");
  }
  core::FeedbackStore feedback;
  core::EloRatings ratings;

  // Warmup: the first half of the dataset runs through the router in
  // exploration mode (full pool), populating the task index.
  const size_t half = world.dataset.size() / 2;
  core::RoutedOrchestrator::Config warm_config;
  warm_config.min_observations = 1;  // record from the start
  warm_config.route_to = 3;          // but route to the full pool
  core::RoutedOrchestrator warm(world.runtime.get(), world.model_names,
                                world.embedder, &classifier, &feedback,
                                &ratings, warm_config);
  for (size_t i = 0; i < half; ++i) {
    Check(warm.Run(world.dataset[i].question).status(), "warmup run");
  }

  // Evaluation phase: full-pool OUA vs. routed subsets of 2 and 1.
  const std::vector<llm::QaItem> eval_set(world.dataset.begin() + half,
                                          world.dataset.end());
  std::cout << "Routing ablation: warmup " << half << " questions, eval "
            << eval_set.size() << " questions\n\n";
  std::cout << "mode          reward   f1      accuracy  tokens\n";
  std::cout << std::string(52, '-') << "\n";

  core::OuaOrchestrator full(world.runtime.get(), world.model_names,
                             world.embedder, {});
  PrintRow("full-pool    ", Run("full-pool", &full, world, eval_set));

  for (size_t route_to : {2u, 1u}) {
    core::RoutedOrchestrator::Config config;
    config.route_to = route_to;
    config.min_observations = 5;
    core::RoutedOrchestrator routed(world.runtime.get(), world.model_names,
                                    world.embedder, &classifier, &feedback,
                                    &ratings, config);
    const std::string label = "routed-" + std::to_string(route_to);
    PrintRow(label + "     ", Run(label, &routed, world, eval_set));
  }

  std::cout << "\nElo ratings after the run (game-theoretic coordination):\n";
  for (const auto& [model, rating] : ratings.Ranking()) {
    std::cout << "  " << model << ": " << FormatDouble(rating, 1) << "\n";
  }
}

// The multi-agent collaboration framework (§9.5) on a composite (two-part)
// question benchmark — decompose/research/verify/compose vs. a single
// orchestration pass over the fused question. MultiAgentPipeline is not an
// Orchestrator, so its half keeps its own loop.
void MultiAgent(const World& world) {
  const auto composites =
      eval::GenerateCompositeDataset(world.dataset, world.dataset.size() / 2);
  std::cout << "Multi-agent pipeline on " << composites.size()
            << " composite (two-part) questions\n\n";

  core::MultiAgentPipeline pipeline(world.runtime.get(), world.model_names,
                                    world.embedder, {});
  core::OuaOrchestrator single_shot(world.runtime.get(), world.model_names,
                                    world.embedder, {});

  std::vector<eval::QuestionMetrics> crew;
  size_t retries = 0;
  for (const auto& item : composites) {
    const auto run = OrDie(pipeline.Run(item.question), "multi-agent run");
    crew.push_back(eval::ScoreResponse(*world.embedder, item, run.answer));
    crew.back().total_tokens = run.total_tokens;
    for (const auto& sub : run.sub_results) retries += sub.retried;
  }

  std::cout << "mode          reward   f1      accuracy  tokens/question\n";
  std::cout << std::string(58, '-') << "\n";
  PrintRow("single-shot   ",
           Run("single-shot", &single_shot, world, composites));
  PrintRow("multi-agent   ", eval::Aggregate("multi-agent", crew));
  std::cout << "\n(" << retries << " verifier retries across "
            << composites.size() * 2 << " sub-questions)\n";
}

struct Preset {
  const char* name;
  size_t max_qpd;  // cap on LLMMS_BENCH_QPD
  void (*run)(const World& world);
};

constexpr size_t kUncapped = SIZE_MAX;
constexpr Preset kPresets[] = {
    {"fig8_1", kUncapped, Fig8_1},    {"fig8_2", kUncapped, Fig8_2},
    {"fig8_3", kUncapped, Fig8_3},    {"report", kUncapped, Report},
    {"alpha_beta", 20, AlphaBeta},    {"prune_margin", 20, PruneMargin},
    {"gamma", 20, Gamma},             {"budget", 20, Budget},
    {"hybrid", 20, Hybrid},           {"routing", 20, Routing},
    {"multi_agent", 20, MultiAgent},
};

int RunPreset(const std::string& name) {
  for (const Preset& preset : kPresets) {
    if (name != preset.name) continue;
    const World world = MakeWorld(std::min(EnvQpd(50), preset.max_qpd));
    preset.run(world);
    return 0;
  }
  std::fprintf(stderr, "unknown preset '%s'; one of:", name.c_str());
  for (const Preset& preset : kPresets) {
    std::fprintf(stderr, " %s", preset.name);
  }
  std::fputc('\n', stderr);
  return 2;
}

// ---------------------------------------------------------------------------
// The frontier.

Json DriftToJson(const eval::DriftOutcome& outcome) {
  Json out = Json::MakeObject();
  out.Set("queries", outcome.queries);
  out.Set("total_reward", outcome.total_reward);
  out.Set("charged_tokens", outcome.charged_tokens);
  out.Set("reward_per_token", outcome.reward_per_token);
  return out;
}

int RunFrontier(const std::string& output) {
  eval::MatrixConfig config = eval::DefaultMatrix();
  config.questions_per_domain = EnvQpd(config.questions_per_domain);
  eval::ScenarioMatrix matrix(config);

  Json cells = Json::MakeArray();
  auto results = matrix.Run([](const eval::CellResult& result, size_t done,
                               size_t total) {
    std::fprintf(stderr, "[%3zu/%3zu] %s\n", done, total,
                 eval::CellTraceLine(result).c_str());
  });
  if (!results.ok()) {
    std::fprintf(stderr, "matrix failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }
  for (const auto& result : results.value()) {
    cells.Append(eval::CellToJson(result));
  }

  // The decayed-feed acceptance scenario: mid-session competence swap, same
  // query sequence under the lifetime-mean baseline and the windowed feed.
  eval::DriftConfig drift_config;
  auto drift = eval::RunDriftComparison(drift_config);
  if (!drift.ok()) {
    std::fprintf(stderr, "drift comparison failed: %s\n",
                 drift.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "drift reward/token: lifetime=%.8f windowed=%.8f (%s)\n",
               drift->lifetime.reward_per_token,
               drift->adaptive.reward_per_token,
               drift->adaptive.reward_per_token >
                       drift->lifetime.reward_per_token
                   ? "windowed wins"
                   : "REGRESSION");

  Json out = Json::MakeObject();
  out.Set("benchmark", "frontier");
  out.Set("questions_per_domain", config.questions_per_domain);
  out.Set("seed", config.seed);
  out.Set("num_cells", results->size());
  out.Set("cells", std::move(cells));

  Json drift_json = Json::MakeObject();
  drift_json.Set("switch_after_queries", drift_config.switch_after_queries);
  drift_json.Set("window", drift_config.adaptive_feed.window);
  drift_json.Set("feed_prior_weight", drift_config.feed_prior_weight);
  drift_json.Set("lifetime", DriftToJson(drift->lifetime));
  drift_json.Set("windowed", DriftToJson(drift->adaptive));
  drift_json.Set("windowed_wins", drift->adaptive.reward_per_token >
                                      drift->lifetime.reward_per_token);
  out.Set("drift", std::move(drift_json));

  const Status written =
      AtomicWriteFile(FileSystem::Default(), output, out.Dump(2) + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", output.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu cells)\n", output.c_str(),
               results->size());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--preset") {
    if (argc != 3) {
      std::fprintf(stderr, "usage: bench_frontier --preset <name>\n");
      return 2;
    }
    return RunPreset(argv[2]);
  }
  return RunFrontier(argc > 1 ? argv[1] : "BENCH_frontier.json");
}

}  // namespace
}  // namespace llmms::bench

int main(int argc, char** argv) { return llmms::bench::Main(argc, argv); }
