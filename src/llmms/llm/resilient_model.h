#ifndef LLMMS_LLM_RESILIENT_MODEL_H_
#define LLMMS_LLM_RESILIENT_MODEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "llmms/common/rng.h"
#include "llmms/llm/model.h"

namespace llmms::llm {

// Knobs of the resilience layer. Backoff is charged in *simulated* seconds
// (attached to the next successful chunk's `extra_seconds`), consistent with
// ParallelGeneration::SimulatedWallSeconds — retries cost simulated wall
// clock, never real sleep. The jitter is drawn from a deterministic stream
// seeded by `seed`.
struct ResilienceConfig {
  uint64_t seed = 0x5E111E47ULL;

  // Additional attempts after the first failure, per call site.
  size_t max_start_retries = 2;
  size_t max_chunk_retries = 2;

  // attempt k (0-based) waits min(initial * multiplier^k, max) * jitter,
  // with jitter uniform in [1 - backoff_jitter, 1 + backoff_jitter].
  double backoff_initial_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double backoff_max_seconds = 2.0;
  double backoff_jitter = 0.1;

  // A chunk whose simulated cost (injected latency + tokens at the model's
  // nominal speed) exceeds this deadline is converted into a
  // DeadlineExceeded failure. 0 disables.
  double chunk_deadline_seconds = 0.0;

  // This many consecutive zero-token, not-done chunks count as a stalled
  // backend and fail with DeadlineExceeded. 0 disables.
  size_t max_stalled_chunks = 8;

  // Circuit breaker: this many consecutive retry-exhausted failures open the
  // circuit; while open, StartGeneration fails fast. After
  // `breaker_open_calls` fast rejections the breaker goes half-open and
  // admits one probe — success closes it, failure re-opens it. The cooldown
  // is counted in calls rather than wall time so that breaker behaviour is
  // deterministic under simulated time.
  size_t breaker_failure_threshold = 3;
  size_t breaker_open_calls = 4;

  // Probe budget: this many recorded successes while half-open close the
  // circuit; any failure while half-open re-opens it immediately.
  size_t breaker_probe_successes = 1;

  // How many state transitions the breaker remembers (ring buffer),
  // surfaced by /api/health as `circuit_history`.
  size_t breaker_history = 16;
};

// Per-model circuit breaker (closed -> open -> half-open -> closed).
// Thread-safe; shared by a ResilientModel and all of its live streams.
//
// Time is counted on a *call clock* — a counter of breaker operations
// (AllowRequest / RecordSuccess / RecordFailure) — rather than wall time, so
// breaker behaviour is deterministic under simulated time. Half-open admits
// one probe at a time and requires `probe_successes_to_close` recorded
// successes to close; any failure while half-open re-opens the circuit.
// A success recorded while the circuit is OPEN (a stream that was admitted
// before the circuit tripped) resets the consecutive-failure count but does
// NOT close the circuit — only a half-open probe can.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  // One state change, stamped with the call clock at which it happened.
  struct Transition {
    State from = State::kClosed;
    State to = State::kClosed;
    uint64_t at_call = 0;
  };

  // The breaker's full mutable state, used for persistence (BreakerStore)
  // and /api/health. Counters are lifetime totals.
  struct Snapshot {
    State state = State::kClosed;
    size_t consecutive_failures = 0;
    size_t total_failures = 0;
    size_t fast_rejections = 0;
    size_t rejections_since_open = 0;
    size_t probe_successes = 0;
    uint64_t call_clock = 0;
    std::vector<Transition> history;  // oldest first
  };

  // Invoked (outside the breaker lock) after every state transition, with a
  // snapshot taken at the moment of the transition.
  using TransitionListener = std::function<void(const Snapshot&)>;

  CircuitBreaker(size_t failure_threshold, size_t open_calls,
                 size_t probe_successes_to_close = 1,
                 size_t history_capacity = 16)
      : failure_threshold_(failure_threshold),
        open_calls_(open_calls),
        probe_budget_(probe_successes_to_close == 0
                          ? 1
                          : probe_successes_to_close),
        history_capacity_(history_capacity) {}

  // True if a request may proceed. While open, counts the rejection and
  // flips to half-open once `open_calls` rejections have elapsed; in
  // half-open only one probe is admitted at a time.
  bool AllowRequest();
  void RecordSuccess();
  void RecordFailure();

  State state() const;
  size_t consecutive_failures() const;
  size_t total_failures() const;
  size_t fast_rejections() const;
  uint64_t call_clock() const;

  // The last `history_capacity` transitions, oldest first.
  std::vector<Transition> history() const;

  Snapshot snapshot() const;
  // Overwrites the breaker's state with `snapshot` (persistence restore).
  // Does not fire the transition listener.
  void Restore(const Snapshot& snapshot);

  // At most one listener; pass nullptr to clear. The listener runs with the
  // breaker lock released, so it may call back into this breaker (e.g. to
  // snapshot it), but it should be fast — it runs on the request path.
  void SetTransitionListener(TransitionListener listener);

 private:
  // Records the state change in the history ring. Requires mu_ held.
  void TransitionLocked(State to);
  Snapshot SnapshotLocked() const;  // requires mu_ held

  const size_t failure_threshold_;
  const size_t open_calls_;
  const size_t probe_budget_;
  const size_t history_capacity_;

  mutable std::mutex mu_;
  State state_ = State::kClosed;
  size_t consecutive_failures_ = 0;
  size_t total_failures_ = 0;
  size_t fast_rejections_ = 0;
  size_t rejections_since_open_ = 0;
  size_t probe_successes_ = 0;
  uint64_t call_clock_ = 0;
  bool probe_in_flight_ = false;
  std::vector<Transition> history_;
  TransitionListener listener_;
};

const char* CircuitStateToString(CircuitBreaker::State state);

// The deterministic jittered-backoff schedule used by ResilientModel,
// exposed for tests: same config + same rng seed => same sequence.
double JitteredBackoffSeconds(const ResilienceConfig& config, size_t attempt,
                              Rng* rng);

// Resilience decorator: wraps any LanguageModel with retry + exponential
// backoff (simulated time), a per-chunk deadline, stall detection, and a
// per-model circuit breaker whose health counters feed /api/health.
//
// Transient faults (e.g. FaultConfig::chunk_error_prob) are absorbed by
// retries; permanent ones (fail_after_tokens, a dead backend) exhaust the
// retry budget, trip the breaker, and surface to the orchestrator, which
// quarantines the model.
//
// Decorator nesting order. The canonical stack, innermost to outermost:
//
//   SyntheticModel -> FaultyModel -> ResilientModel -> HedgedModel
//
// ResilientModel must sit OUTSIDE the fault injector (so injected faults are
// retried and breaker-counted) and INSIDE any HedgedModel (so each replica
// keeps its own retry budget, breaker, and Health counters, and a hedge
// adoption is never double-counted: the hedging layer consumes replica
// chunks through this model's streams, so retries/deadlines/stalls are
// counted exactly once here regardless of how many replicas raced). Putting
// ResilientModel outside a HedgedModel would make one replica's death look
// like a failure of the whole hedged group and trip the shared breaker even
// though a backup delivered the answer.
//
// Streams returned by StartGeneration must not outlive the model.
class ResilientModel final : public LanguageModel {
 public:
  ResilientModel(std::shared_ptr<LanguageModel> inner,
                 const ResilienceConfig& config);

  const std::string& name() const override { return inner_->name(); }
  uint64_t memory_mb() const override { return inner_->memory_mb(); }
  double tokens_per_second() const override {
    return inner_->tokens_per_second();
  }
  size_t context_window() const override { return inner_->context_window(); }

  StatusOr<std::unique_ptr<GenerationStream>> StartGeneration(
      const GenerationRequest& request) const override;

  const ResilienceConfig& config() const { return config_; }
  const CircuitBreaker& breaker() const { return breaker_; }

  // Queryable health, surfaced per model by /api/health.
  struct Health {
    CircuitBreaker::State circuit = CircuitBreaker::State::kClosed;
    size_t consecutive_failures = 0;
    // The breaker's counts: retry-exhausted failures, and starts rejected
    // while the circuit was open.
    size_t total_failures = 0;
    size_t fast_rejections = 0;
    size_t start_retries = 0;
    size_t chunk_retries = 0;
    size_t deadlines_exceeded = 0;
    size_t stalls_detected = 0;
    double backoff_seconds = 0.0;  // total simulated backoff charged
  };
  Health health() const;

  // Internal: streams report retry activity into the model's counters.
  void CountRetry(size_t chunk_retries, double backoff_seconds,
                  size_t deadlines, size_t stalls) const;
  // Internal: streams record chunk outcomes on the shared breaker.
  CircuitBreaker* mutable_breaker() const { return &breaker_; }

 private:
  std::shared_ptr<LanguageModel> inner_;
  ResilienceConfig config_;
  mutable CircuitBreaker breaker_;

  mutable std::mutex mu_;
  mutable Rng rng_;
  mutable Health health_;
};

}  // namespace llmms::llm

#endif  // LLMMS_LLM_RESILIENT_MODEL_H_
