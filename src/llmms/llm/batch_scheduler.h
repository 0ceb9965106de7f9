#ifndef LLMMS_LLM_BATCH_SCHEDULER_H_
#define LLMMS_LLM_BATCH_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "llmms/common/deadline.h"
#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/llm/types.h"

namespace llmms::llm {

// Continuous batching across concurrent queries (DESIGN.md §13).
//
// Each loaded model exposes a fixed number of replica slots; a slot serves
// one chunk at a time. Every in-flight generation stream is admitted with a
// weight (derived from its token budget and deadline slack — the
// "inference-time budget control" signal) and competes for its model's
// slots under start-time fair queueing: the runnable stream with the lowest
// weighted virtual time is dispatched next, ties broken by admission order,
// hedge admissions first. Preemption happens at chunk boundaries only — a
// stream that loses its slot keeps its partial output and simply re-enters
// the run queue — so the scheduler never corrupts a stream, it only decides
// who decodes next.
struct SchedulerConfig {
  // Concurrent chunk slots per model. 1 models a single shared replica;
  // vLLM-style deployments use the replica count of the serving pool.
  size_t replicas_per_model = 1;
  // Per-model overrides of replicas_per_model.
  std::map<std::string, size_t> replicas;
  // Weight clamp bounds for derived and caller-supplied weights.
  double min_weight = 1.0 / 16.0;
  double max_weight = 16.0;
  // Budget that maps to weight 1.0 (a query asking for 2x the reference
  // budget gets 2x the replica share, clamped to the bounds above).
  double reference_budget_tokens = 2048.0;
  // Deadline slack below this many seconds boosts a stream's weight
  // proportionally (urgency), up to urgency_cap.
  double urgency_slack_seconds = 30.0;
  double urgency_cap = 4.0;
  // Decision log ring size (see Trace()). 0, the default, turns the log
  // off: no decision is formatted or stored. Tests and debugging sessions
  // opt in; nothing in the served stack reads the log.
  size_t trace_capacity = 0;
};

class BatchScheduler {
 public:
  using StreamId = uint64_t;
  // Produces the stream's next chunk of up to max_tokens. The returned
  // chunk's extra_seconds plus num_tokens / tokens_per_second is the
  // chunk's simulated replica cost, charged to the slot that ran it.
  using ChunkFn = std::function<StatusOr<Chunk>(size_t max_tokens)>;

  struct AdmitOptions {
    std::string model;  // replica class the stream competes in
    // Explicit weight; <= 0 derives it from token_budget + context slack.
    double weight = 0.0;
    size_t token_budget = 0;  // advisory whole-query budget (tokens)
    // Hedge launches jump the run queue: they dispatch before any
    // non-hedge stream so a race can actually catch up (DESIGN.md §10).
    bool hedge = false;
    // Per-stream deadline/cancellation; an expired or cancelled stream is
    // unwound with the typed DeadlineExceeded / Cancelled status instead of
    // being dispatched.
    std::shared_ptr<RequestContext> context;
    // Nominal decode speed used for replica-occupancy accounting (0 = cost
    // is extra_seconds only).
    double tokens_per_second = 0.0;
  };

  explicit BatchScheduler(const SchedulerConfig& config);

  const SchedulerConfig& config() const { return config_; }

  // The weight an admission with this budget and deadline slack receives
  // (deterministic; used by the runtime and directly testable).
  double WeightFor(size_t token_budget, double deadline_slack_seconds) const;

  // Registers a stream. The owner later calls ExecuteChunk per chunk and
  // Finish when the stream completes or is abandoned.
  StreamId Admit(const AdmitOptions& options);

  // Retires a stream (idempotent). Its service-token total is retained for
  // the fairness index; a running stream finishes its in-flight chunk
  // first (callers retire after their last ExecuteChunk returns).
  void Finish(StreamId id);

  // Blocks until the scheduler grants this stream one of its model's
  // replica slots (lowest weighted virtual time first, hedges first), runs
  // `fn` while holding the slot, then releases it. Returns fn's result, or
  // the stream's typed DeadlineExceeded / Cancelled status when its context
  // dies before the slot is granted (the stream is then retired; partial
  // output held by the caller is untouched).
  StatusOr<Chunk> ExecuteChunk(StreamId id, size_t max_tokens,
                               const ChunkFn& fn);

  struct StreamInfo {
    StreamId id = 0;
    std::string model;
    double weight = 1.0;
    bool hedge = false;
    double virtual_time = 0.0;
    size_t service_tokens = 0;
    size_t chunks = 0;
    size_t preemptions = 0;
    bool running = false;
  };
  struct ModelInfo {
    std::string model;
    size_t replicas = 0;
    // Cumulative simulated seconds each slot spent serving chunks; the max
    // across slots is the model's batched makespan so far.
    std::vector<double> slot_busy_seconds;
  };
  struct Stats {
    size_t replicas_per_model = 0;
    size_t admitted_total = 0;
    size_t finished_total = 0;
    size_t hedge_admitted_total = 0;
    size_t expired_total = 0;   // streams unwound by deadline/cancel
    size_t dispatches = 0;      // chunk grants
    size_t rounds = 0;          // epochs: a stream granted a second time
    size_t preempted_total = 0; // slot handed to another runnable stream
    size_t runnable = 0;        // gauge: admitted, not finished
    size_t waiting = 0;         // gauge: blocked in ExecuteChunk
    size_t running = 0;         // gauge: holding a slot
    size_t total_service_tokens = 0;
    // Jain index over weight-normalized service tokens of every stream
    // that received service (active and retired); 1.0 when empty.
    double fairness_index = 1.0;
    std::vector<StreamInfo> streams;  // active streams, by id
    std::vector<ModelInfo> models;    // by model name
  };
  Stats stats() const;

  // The decision log (admit/grant/yield/preempt/expire/finish lines),
  // oldest first, at most trace_capacity lines; empty when the log is off
  // (the default). The golden-trace suite pins it through a lockstep
  // driver that makes the threaded path's decisions repeatable.
  std::vector<std::string> Trace() const;

 private:
  struct Stream {
    StreamId id = 0;
    std::string model;
    double weight = 1.0;
    bool hedge = false;
    std::shared_ptr<RequestContext> context;
    double tokens_per_second = 0.0;
    uint64_t admit_seq = 0;
    double virtual_time = 0.0;
    size_t service_tokens = 0;
    size_t chunks = 0;
    size_t preemptions = 0;
    bool waiting = false;  // parked in ExecuteChunk
    bool granted = false;  // slot assigned, fn not yet running
    bool running = false;  // slot held, chunk in flight
    bool finished = false;
    size_t slot = 0;  // meaningful while granted/running
  };
  struct ModelState {
    size_t replicas = 1;
    std::vector<StreamId> slot_holder;  // last stream granted each slot
    std::vector<bool> slot_busy;
    std::vector<double> slot_busy_seconds;
    // SFQ virtual clock: the start tag of the most recent dispatch; new
    // admissions join here so they can neither starve incumbents nor be
    // starved by them.
    double virtual_clock = 0.0;
  };
  struct Retired {
    size_t service_tokens = 0;
    double weight = 1.0;
  };

  ModelState* ModelOf(const std::string& model);
  Stream* FindLocked(StreamId id);
  // Best stream of `model` parked in ExecuteChunk: hedges first, then
  // lowest virtual time, then admission order.
  Stream* PickLocked(const std::string& model);
  // Assigns `stream` the free `slot` of its model, recording a preemption
  // when the slot's previous holder is still runnable.
  void GrantSlotLocked(ModelState* state, size_t slot, Stream* stream);
  // Releases the slot after a chunk and charges its occupancy.
  void YieldSlotLocked(ModelState* state, Stream* stream, size_t tokens,
                       double cost_seconds);
  // Grants free slots to parked streams in priority order.
  void ScheduleLocked(const std::string& model);
  void RetireLocked(Stream* stream);
  // Appends line() to the decision log, dropping the oldest line at
  // trace_capacity. With the log off it returns before calling line(), so
  // a decision costs no formatting and no allocation.
  template <typename LineFn>
  void TraceLocked(LineFn&& line);
  double JainLocked() const;

  const SchedulerConfig config_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // wakes ExecuteChunk waiters on grants
  StreamId next_id_ = 1;
  uint64_t admit_seq_ = 0;
  std::unordered_map<StreamId, Stream> streams_;
  std::unordered_map<std::string, ModelState> models_;
  std::vector<Retired> retired_;  // bounded ring of finished streams
  size_t retired_next_ = 0;
  std::deque<std::string> trace_;
  size_t rounds_ = 0;
  size_t dispatches_ = 0;
  size_t preempted_total_ = 0;
  size_t admitted_total_ = 0;
  size_t finished_total_ = 0;
  size_t hedge_admitted_total_ = 0;
  size_t expired_total_ = 0;
  size_t total_service_tokens_ = 0;
  // Round epochs: a new "round" starts when a stream is granted a second
  // slot within the current epoch.
  std::vector<StreamId> epoch_grants_;
};

}  // namespace llmms::llm

#endif  // LLMMS_LLM_BATCH_SCHEDULER_H_
