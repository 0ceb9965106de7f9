#include "llmms/core/single.h"

#include <algorithm>

#include "llmms/core/query_run.h"

namespace llmms::core {

StatusOr<OrchestrationResult> SingleModelOrchestrator::Run(
    const std::string& prompt, const EventCallback& callback) {
  if (config_.token_budget == 0) {
    return Status::InvalidArgument("token_budget must be positive");
  }
  const std::string& model = models_.front();
  QueryRun run(name(), prompt, config_, scorer_, /*feed=*/nullptr, callback);
  LLMMS_RETURN_NOT_OK(run.Start(runtime_, models_));

  // With a single model there is nobody to fail over to: a stream error is
  // the query's outcome, surfaced as a typed Status naming the model and
  // the round so callers (and the API error payload) can say *what* died
  // and *when* — not just bubble a raw stream error.
  auto typed_failure = [&](const Status& error) {
    return Status(error.code(), "single-model orchestration failed: model '" +
                                    model + "' failed in round " +
                                    std::to_string(run.round()) + ": " +
                                    error.message());
  };
  if (run.all_failed()) return typed_failure(run.failure(model));

  for (;;) {
    LLMMS_RETURN_NOT_OK(run.Check());
    LLMMS_ASSIGN_OR_RETURN(auto stats, run.generation().StatsOf(model));
    if (stats.finished || run.charged() >= config_.token_budget) break;
    run.NextRound();
    const size_t ask = std::min(config_.chunk_tokens,
                                config_.token_budget - run.charged());
    auto chunk_or = run.generation().NextChunk(model, ask);
    if (!chunk_or.ok()) {
      run.Quarantine(model, chunk_or.status());
      return typed_failure(chunk_or.status());
    }
    const llm::Chunk chunk = std::move(chunk_or).value();
    run.Record(model, chunk);
    if (run.Stalled(chunk.num_tokens > 0 || chunk.done) || chunk.done) break;
  }

  LLMMS_ASSIGN_OR_RETURN(const auto scores, run.ScoreAll());
  return run.Finish(model, scores[0].combined,
                    [&scores](size_t) { return scores[0]; });
}

}  // namespace llmms::core
