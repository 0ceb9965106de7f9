#ifndef LLMMS_LLM_RUNTIME_H_
#define LLMMS_LLM_RUNTIME_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/common/thread_pool.h"
#include "llmms/hardware/placement.h"
#include "llmms/llm/batch_scheduler.h"
#include "llmms/llm/model.h"
#include "llmms/llm/registry.h"

namespace llmms::llm {

class ModelRuntime;

// A multi-model generation in flight: one stream per participating model,
// with per-model token and simulated-latency accounting. Chunk requests for
// several models execute concurrently on the runtime's thread pool (the
// platform's "parallel inference" capability, §3.4).
//
// The ParallelGeneration must not outlive its ModelRuntime.
class ParallelGeneration {
 public:
  struct ModelStats {
    size_t tokens = 0;
    double simulated_seconds = 0.0;
    // Chunks that took part in a hedge race or failover (Chunk::hedge set by
    // a HedgedModel decorating this model).
    size_t hedges = 0;
    bool finished = false;
    StopReason stop_reason = StopReason::kLength;
    // Set when the model's stream errored (at start or mid-generation). A
    // failed model is also `finished`: it will produce no further tokens.
    bool failed = false;
    std::string error;
  };

  // Result of one parallel round. A model appears in exactly one map: in
  // `chunks` if its stream produced a chunk, in `errors` if it failed this
  // round (or had already failed). One model's failure never discards the
  // chunks the other models generated in the same round.
  struct ChunkBatch {
    std::map<std::string, Chunk> chunks;
    std::map<std::string, Status> errors;
  };

  // Requests the next chunk (up to max_tokens) from one model. A stream
  // error is sticky: the model is marked failed and every further call
  // returns the recorded error. When the request's context (carried in the
  // GenerationRequest) is expired or cancelled, the call returns the typed
  // DeadlineExceeded / Cancelled status instead of generating — the choke
  // point that makes every driver (orchestrators, the streaming endpoint,
  // Generate) honor the request deadline without knowing about it.
  StatusOr<Chunk> NextChunk(const std::string& model, size_t max_tokens);

  // Requests chunks from several models concurrently. Per-model stream
  // errors are reported in the batch, not as the call's status; the call
  // itself only fails on misuse (a model that is not part of the
  // generation) or when the request context has expired / been cancelled —
  // a whole-request condition, not any single model's fault.
  StatusOr<ChunkBatch> NextChunks(
      const std::vector<std::pair<std::string, size_t>>& requests);

  // Accumulated response text of a model.
  StatusOr<std::string> TextOf(const std::string& model) const;

  StatusOr<ModelStats> StatsOf(const std::string& model) const;

  // Names of participating models, in the order given at start.
  const std::vector<std::string>& models() const { return order_; }

  // Total tokens across all models.
  size_t TotalTokens() const;

  // Simulated wall-clock: per-model chunk times overlap when issued through
  // NextChunks (parallel), so the wall clock is the max over a round, summed
  // over rounds. Invariant (locked down by llm_runtime_test): a round
  // charges only the streams actually scheduled in it — models that are
  // idle, already finished, or not requested contribute nothing, with or
  // without a BatchScheduler multiplexing the replicas underneath.
  double SimulatedWallSeconds() const { return simulated_wall_seconds_; }

  ~ParallelGeneration();

 private:
  friend class ModelRuntime;

  struct Entry {
    // Null when the model failed to start; stats.failed is set instead.
    std::unique_ptr<GenerationStream> stream;
    hardware::Device* device = nullptr;  // where the model is placed
    double effective_tps = 1.0;
    ModelStats stats;
    Status error;  // sticky stream error, meaningful when stats.failed
    // Continuous-batching admission (DESIGN.md §13): set when the runtime
    // has a BatchScheduler and the stream started; every chunk of this
    // entry then runs inside a scheduler grant.
    BatchScheduler::StreamId sched_id = 0;
    bool scheduled = false;
  };

  explicit ParallelGeneration(ThreadPool* pool) : pool_(pool) {}

  StatusOr<Chunk> NextChunkLocked(Entry* entry, size_t max_tokens);
  // NextChunkLocked routed through the shared scheduler's grant cycle when
  // this entry is admitted to one; plain NextChunkLocked otherwise.
  StatusOr<Chunk> ScheduledChunk(Entry* entry, size_t max_tokens);

  ThreadPool* pool_;
  std::vector<std::string> order_;
  std::unordered_map<std::string, Entry> entries_;
  // The originating request's deadline/cancellation (null = unbounded),
  // taken from GenerationRequest::context at StartGeneration.
  std::shared_ptr<RequestContext> context_;
  // Shared continuous-batching scheduler (null = unbatched, the default
  // path, preserved unchanged). Shared ownership so an in-flight
  // generation survives a runtime reconfiguration.
  std::shared_ptr<BatchScheduler> scheduler_;
  mutable std::mutex mu_;
  double simulated_wall_seconds_ = 0.0;
};

// The Ollama-daemon substitute: owns the thread pool, loads registered
// models onto devices via the hardware layer, and serves streaming
// generations.
class ModelRuntime {
 public:
  ModelRuntime(std::shared_ptr<ModelRegistry> registry,
               std::shared_ptr<hardware::HardwareManager> hardware,
               size_t num_threads = 4);

  ModelRuntime(const ModelRuntime&) = delete;
  ModelRuntime& operator=(const ModelRuntime&) = delete;

  // Loads a registered model onto the best available device, reserving its
  // memory footprint. A HedgedModel reserves its *peak* footprint: the
  // steady-state residency plus the largest backup replica, since a hedge
  // race keeps two replicas resident simultaneously (DESIGN.md §11) — a
  // device that only fits the group between races is skipped. Loading an
  // already-loaded model is a no-op. A model stays loaded, and its device
  // reservation held, until the runtime is destroyed.
  Status LoadModel(const std::string& name);
  bool IsLoaded(const std::string& name) const;
  std::vector<std::string> LoadedModels() const;

  // Where each loaded model sits and what it reserves, sorted by model name
  // (the /api/health placement block).
  struct PlacementInfo {
    std::string model;
    std::string device;
    uint64_t memory_mb = 0;       // steady-state footprint
    uint64_t hedge_extra_mb = 0;  // extra headroom reserved for hedge races
  };
  std::vector<PlacementInfo> PlacementSnapshot() const;

  // Starts a parallel generation across `models` (all must be loaded —
  // asking for an unloaded model fails the whole call, a config error). A
  // model whose StartGeneration is *refused* is tolerated: it joins the
  // generation pre-failed (StatsOf reports failed) so orchestrators can
  // quarantine it; the call only fails when every model refuses.
  StatusOr<std::unique_ptr<ParallelGeneration>> StartGeneration(
      const std::vector<std::string>& models,
      const GenerationRequest& request);

  // Runs a single model to completion, asking for `chunk_tokens` tokens per
  // chunk (capped by request.max_tokens when non-zero). `on_chunk`, when
  // set, sees every chunk the moment it is generated — the streaming
  // /api/generate endpoint frames them onto the wire. The one generate
  // loop of the serving path: both /api/generate variants run it.
  using ChunkCallback = std::function<void(const Chunk& chunk)>;
  StatusOr<GenerationResult> Generate(const std::string& model,
                                      const GenerationRequest& request,
                                      size_t chunk_tokens = 64,
                                      const ChunkCallback& on_chunk = nullptr);

  // Turns on continuous batching (DESIGN.md §13): every generation started
  // afterwards admits its streams to one shared llm::BatchScheduler, so
  // concurrent queries multiplex the same model replicas chunk-by-chunk
  // instead of pretending each query has the model to itself. In-flight
  // generations keep the scheduler they started with. Without this call
  // the runtime behaves exactly as before (scheduler-off compatibility
  // contract).
  void EnableScheduler(const SchedulerConfig& config);
  // The active scheduler, or null when batching is off.
  std::shared_ptr<BatchScheduler> scheduler() const;

  const std::shared_ptr<ModelRegistry>& registry() const { return registry_; }
  const std::shared_ptr<hardware::HardwareManager>& hardware() const {
    return hardware_;
  }

 private:
  struct LoadedModel {
    std::shared_ptr<LanguageModel> model;
    std::unique_ptr<hardware::Placement> placement;
  };

  std::shared_ptr<ModelRegistry> registry_;
  std::shared_ptr<hardware::HardwareManager> hardware_;
  ThreadPool pool_;

  mutable std::mutex mu_;
  // Grow-only: an entry is never erased, so a reference to one stays valid
  // after mu_ is released (unordered_map keeps nodes in place on rehash).
  std::unordered_map<std::string, LoadedModel> loaded_;
  std::shared_ptr<BatchScheduler> scheduler_;  // null = batching off
};

}  // namespace llmms::llm

#endif  // LLMMS_LLM_RUNTIME_H_
