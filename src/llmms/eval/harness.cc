#include "llmms/eval/harness.h"

namespace llmms::eval {

const StrategyRun* EvaluationReport::Find(const std::string& strategy) const {
  for (const auto& run : runs) {
    if (run.strategy == strategy) return &run;
  }
  return nullptr;
}

EvaluationHarness::EvaluationHarness(
    llm::ModelRuntime* runtime,
    std::shared_ptr<const embedding::Embedder> embedder,
    std::vector<std::string> models, HarnessConfig config)
    : runtime_(runtime),
      embedder_(std::move(embedder)),
      models_(std::move(models)),
      config_(config) {}

StatusOr<StrategyRun> RunStrategy(const std::string& label,
                                  core::Orchestrator* orchestrator,
                                  const embedding::Embedder& embedder,
                                  const std::vector<llm::QaItem>& dataset,
                                  const ProgressFn& progress) {
  StrategyRun run;
  run.strategy = label;
  run.per_question.reserve(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    const llm::QaItem& item = dataset[i];
    LLMMS_ASSIGN_OR_RETURN(auto result, orchestrator->Run(item.question));
    QuestionMetrics metrics = ScoreResponse(embedder, item, result.answer);
    metrics.total_tokens = result.total_tokens;
    metrics.answer_tokens = result.answer_tokens;
    metrics.simulated_seconds = result.simulated_seconds;
    run.per_question.push_back(std::move(metrics));
    if (progress) progress(label, i + 1, dataset.size());
  }
  run.aggregate = Aggregate(label, run.per_question);
  return run;
}

StatusOr<EvaluationReport> EvaluationHarness::Run(
    const std::vector<llm::QaItem>& dataset, const ProgressFn& progress) {
  if (models_.empty()) {
    return Status::FailedPrecondition("harness needs at least one model");
  }
  EvaluationReport report;

  if (config_.run_singles) {
    for (const auto& model : models_) {
      core::SingleModelOrchestrator::Config config;
      config.weights = config_.weights;
      config.token_budget = config_.token_budget;
      core::SingleModelOrchestrator orchestrator(runtime_, model, embedder_,
                                                 config);
      LLMMS_ASSIGN_OR_RETURN(auto run, RunStrategy(model, &orchestrator,
                                                   *embedder_, dataset,
                                                   progress));
      report.runs.push_back(std::move(run));
    }
  }

  if (config_.run_oua) {
    core::OuaOrchestrator::Config config;
    config.weights = config_.weights;
    config.token_budget = config_.token_budget;
    config.early_stop_margin = config_.oua_early_stop_margin;
    config.prune_margin = config_.oua_prune_margin;
    core::OuaOrchestrator orchestrator(runtime_, models_, embedder_, config);
    LLMMS_ASSIGN_OR_RETURN(auto run,
                           RunStrategy("llm-ms-oua", &orchestrator,
                                       *embedder_, dataset, progress));
    report.runs.push_back(std::move(run));
  }

  if (config_.run_mab) {
    core::MabOrchestrator::Config config;
    config.weights = config_.weights;
    config.token_budget = config_.token_budget;
    core::MabOrchestrator orchestrator(runtime_, models_, embedder_, config);
    LLMMS_ASSIGN_OR_RETURN(auto run,
                           RunStrategy("llm-ms-mab", &orchestrator,
                                       *embedder_, dataset, progress));
    report.runs.push_back(std::move(run));
  }

  return report;
}

}  // namespace llmms::eval
