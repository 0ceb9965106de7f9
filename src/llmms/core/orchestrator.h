#ifndef LLMMS_CORE_ORCHESTRATOR_H_
#define LLMMS_CORE_ORCHESTRATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/core/scoring.h"
#include "llmms/llm/runtime.h"

namespace llmms::core {

// Streaming events emitted during orchestration — the backend of the UI's
// real-time token stream and the "model routing transparency" overlay
// (§5.4, §7.3). Events are delivered synchronously on the orchestrator's
// thread.
enum class EventType {
  kChunk,      // a model produced new tokens
  kScore,      // a model was (re)scored
  kPrune,      // a model was removed from the active set
  kEarlyStop,  // a model won before the budget was spent
  kFailure,    // a model's stream failed and it was quarantined
  kHedge,      // a hedge race fired on a model's stream (llm::HedgedModel)
  kHedgeAdapt, // reward feedback moved a model's effective hedge percentile
  kFinal,      // the final answer was selected
};

const char* EventTypeToString(EventType type);

struct OrchestratorEvent {
  EventType type = EventType::kChunk;
  std::string model;
  std::string text;        // chunk text (kChunk) or final answer (kFinal)
  double score = 0.0;      // combined score (kScore/kPrune/kEarlyStop/kFinal)
  size_t round = 0;
  size_t total_tokens = 0; // tokens consumed so far across all models
};

using EventCallback = std::function<void(const OrchestratorEvent&)>;

// Consecutive zero-token rounds (or pulls) an orchestrator tolerates before
// treating the remaining pool as hung and closing the query with whatever
// it has — the last line of defence against a stalled backend that neither
// errors nor progresses (see llm::ResilienceConfig::max_stalled_chunks for
// the per-model guard that normally fires first).
inline constexpr size_t kMaxStalledRounds = 32;

// One line of the transparent orchestration log.
struct TraceEntry {
  size_t round = 0;
  std::string model;
  // EventTypeToString of the event: "score", "prune", "early-stop",
  // "failure", "hedge", "hedge-adapt" or "final" (chunks are not traced).
  std::string action;
  std::string detail;
  double score = 0.0;
};

// Outcome of one orchestrated query.
struct ModelOutcome {
  std::string response;
  size_t tokens = 0;
  double final_score = 0.0;        // combined orchestration score
  double query_similarity = 0.0;
  double inter_similarity = 0.0;
  bool pruned = false;
  bool finished = false;
  // The model's stream failed (at start or mid-generation) and the
  // orchestrator quarantined it; `error` carries the stream's status
  // message. Its partial response (if any) is kept for transparency but is
  // never selected as the answer.
  bool failed = false;
  std::string error;
  llm::StopReason stop_reason = llm::StopReason::kLength;
};

struct OrchestrationResult {
  std::string best_model;
  std::string answer;
  size_t total_tokens = 0;   // across all participating models
  size_t answer_tokens = 0;  // tokens of the winning response
  size_t rounds = 0;
  bool early_stopped = false;
  double simulated_seconds = 0.0;  // simulated wall clock
  std::map<std::string, ModelOutcome> per_model;
  std::vector<TraceEntry> trace;
};

// The fields every orchestrator's Config shares.
struct QueryConfig {
  ScoringWeights weights;      // alpha=0.7, beta=0.3 (Eq. 6.1)
  size_t token_budget = 2048;  // lambda_max (§6.3)
  // Deadline/cancellation of the request driving this run (null =
  // unbounded). Checked at every round or pull boundary and by the runtime
  // before every chunk; an expired or cancelled request unwinds with the
  // typed DeadlineExceeded / Cancelled status (DESIGN.md §12).
  std::shared_ptr<RequestContext> context;
  // Explicit continuous-batching weight for this query's streams
  // (DESIGN.md §13); <= 0 lets the scheduler derive it from token_budget
  // and deadline slack. Ignored when the runtime has no BatchScheduler.
  double scheduler_weight = 0.0;
};

// A model-selection / token-allocation strategy over a pool of models.
// Implementations: OuaOrchestrator, MabOrchestrator, HybridOrchestrator,
// SingleModelOrchestrator — all running on the QueryRun round engine
// (core/query_run.h).
class Orchestrator {
 public:
  virtual ~Orchestrator() = default;

  // Answers `prompt` under the strategy's token budget. `callback` (optional)
  // receives streaming events.
  virtual StatusOr<OrchestrationResult> Run(const std::string& prompt,
                                            const EventCallback& callback) = 0;

  StatusOr<OrchestrationResult> Run(const std::string& prompt) {
    return Run(prompt, EventCallback());
  }

  virtual std::string name() const = 0;
};

// What every orchestrator holds: the runtime, the pool, a scorer with the
// config's weights, and the config.
template <typename ConfigT>
class PoolOrchestrator : public Orchestrator {
 public:
  using Config = ConfigT;

  // `runtime` must outlive the orchestrator; `models` must all be loaded.
  PoolOrchestrator(llm::ModelRuntime* runtime, std::vector<std::string> models,
                   std::shared_ptr<const embedding::Embedder> embedder,
                   const Config& config)
      : runtime_(runtime),
        models_(std::move(models)),
        scorer_(std::move(embedder), config.weights),
        config_(config) {}

  const Config& config() const { return config_; }

 protected:
  llm::ModelRuntime* runtime_;
  std::vector<std::string> models_;
  ResponseScorer scorer_;
  Config config_;
};

namespace internal {

// Shared helper: emit an event to the callback (if any) and mirror it into
// the trace.
void Emit(const OrchestratorEvent& event, const EventCallback& callback,
          std::vector<TraceEntry>* trace);

}  // namespace internal
}  // namespace llmms::core

#endif  // LLMMS_CORE_ORCHESTRATOR_H_
