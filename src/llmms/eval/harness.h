#ifndef LLMMS_EVAL_HARNESS_H_
#define LLMMS_EVAL_HARNESS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "llmms/core/mab.h"
#include "llmms/core/oua.h"
#include "llmms/core/single.h"
#include "llmms/eval/metrics.h"
#include "llmms/llm/runtime.h"

namespace llmms::eval {

// Which execution modes to compare (§8.1): each single model, plus the two
// LLM-MS strategies.
struct HarnessConfig {
  size_t token_budget = 2048;
  core::ScoringWeights weights;  // alpha=0.7, beta=0.3
  double oua_early_stop_margin = 0.0;
  double oua_prune_margin = 0.02;
  bool run_singles = true;
  bool run_oua = true;
  bool run_mab = true;
};

struct StrategyRun {
  std::string strategy;
  std::vector<QuestionMetrics> per_question;
  StrategyAggregate aggregate;
};

struct EvaluationReport {
  std::vector<StrategyRun> runs;

  // Row lookup by strategy name; nullptr if absent.
  const StrategyRun* Find(const std::string& strategy) const;
};

// Called after each (strategy, question) pair with the questions done so far.
using ProgressFn =
    std::function<void(const std::string& strategy, size_t done, size_t total)>;

// Runs every question of `dataset` through `orchestrator` and scores each
// answer (Eq. 8.1 reward, F1, accuracy, tokens, simulated time). The one
// per-strategy evaluation loop: EvaluationHarness::Run and the ablation
// presets of bench_frontier both go through it.
StatusOr<StrategyRun> RunStrategy(const std::string& label,
                                  core::Orchestrator* orchestrator,
                                  const embedding::Embedder& embedder,
                                  const std::vector<llm::QaItem>& dataset,
                                  const ProgressFn& progress = nullptr);

// Runs the paper's evaluation protocol: every question of the dataset goes
// through every execution mode; per-question reward (Eq. 8.1), F1, accuracy,
// and token usage are recorded and averaged.
//
// The harness is deterministic: model outputs depend only on (model seed,
// prompt), so repeated runs produce identical reports.
class EvaluationHarness {
 public:
  // `runtime` must have the models loaded; must outlive the harness.
  EvaluationHarness(llm::ModelRuntime* runtime,
                    std::shared_ptr<const embedding::Embedder> embedder,
                    std::vector<std::string> models, HarnessConfig config);

  StatusOr<EvaluationReport> Run(const std::vector<llm::QaItem>& dataset,
                                 const ProgressFn& progress = nullptr);

  const HarnessConfig& config() const { return config_; }

 private:
  llm::ModelRuntime* runtime_;
  std::shared_ptr<const embedding::Embedder> embedder_;
  std::vector<std::string> models_;
  HarnessConfig config_;
};

}  // namespace llmms::eval

#endif  // LLMMS_EVAL_HARNESS_H_
