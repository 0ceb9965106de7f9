#include "llmms/llm/resilient_model.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

namespace llmms::llm {

void CircuitBreaker::TransitionLocked(State to) {
  if (state_ == to) return;
  if (history_capacity_ > 0) {
    if (history_.size() >= history_capacity_) {
      history_.erase(history_.begin());
    }
    history_.push_back(Transition{state_, to, call_clock_});
  }
  state_ = to;
}

bool CircuitBreaker::AllowRequest() {
  bool allowed = true;
  Snapshot changed;
  bool notify = false;
  TransitionListener listener;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++call_clock_;
    switch (state_) {
      case State::kClosed:
        allowed = true;
        break;
      case State::kOpen:
        ++fast_rejections_;
        if (++rejections_since_open_ >= open_calls_) {
          TransitionLocked(State::kHalfOpen);
          probe_in_flight_ = false;
          probe_successes_ = 0;
          notify = true;
        }
        allowed = false;
        break;
      case State::kHalfOpen:
        if (probe_in_flight_) {
          ++fast_rejections_;
          allowed = false;
        } else {
          probe_in_flight_ = true;
          allowed = true;
        }
        break;
    }
    if (notify && listener_) {
      changed = SnapshotLocked();
      listener = listener_;
    }
  }
  if (listener) listener(changed);
  return allowed;
}

void CircuitBreaker::RecordSuccess() {
  Snapshot changed;
  bool notify = false;
  TransitionListener listener;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++call_clock_;
    consecutive_failures_ = 0;
    switch (state_) {
      case State::kClosed:
        break;
      case State::kOpen:
        // A stream admitted before the circuit tripped is still delivering.
        // That is good news but not probe evidence — the circuit stays open
        // until a half-open probe spends the probe budget.
        break;
      case State::kHalfOpen:
        if (++probe_successes_ >= probe_budget_) {
          TransitionLocked(State::kClosed);
          probe_in_flight_ = false;
          probe_successes_ = 0;
          notify = true;
        }
        break;
    }
    if (notify && listener_) {
      changed = SnapshotLocked();
      listener = listener_;
    }
  }
  if (listener) listener(changed);
}

void CircuitBreaker::RecordFailure() {
  Snapshot changed;
  bool notify = false;
  TransitionListener listener;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++call_clock_;
    ++total_failures_;
    ++consecutive_failures_;
    probe_in_flight_ = false;
    probe_successes_ = 0;
    if (state_ == State::kHalfOpen ||
        (state_ == State::kClosed &&
         consecutive_failures_ >= failure_threshold_)) {
      TransitionLocked(State::kOpen);
      rejections_since_open_ = 0;
      notify = true;
    }
    if (notify && listener_) {
      changed = SnapshotLocked();
      listener = listener_;
    }
  }
  if (listener) listener(changed);
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

size_t CircuitBreaker::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consecutive_failures_;
}

size_t CircuitBreaker::total_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_failures_;
}

size_t CircuitBreaker::fast_rejections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fast_rejections_;
}

uint64_t CircuitBreaker::call_clock() const {
  std::lock_guard<std::mutex> lock(mu_);
  return call_clock_;
}

std::vector<CircuitBreaker::Transition> CircuitBreaker::history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

CircuitBreaker::Snapshot CircuitBreaker::SnapshotLocked() const {
  Snapshot out;
  out.state = state_;
  out.consecutive_failures = consecutive_failures_;
  out.total_failures = total_failures_;
  out.fast_rejections = fast_rejections_;
  out.rejections_since_open = rejections_since_open_;
  out.probe_successes = probe_successes_;
  out.call_clock = call_clock_;
  out.history = history_;
  return out;
}

CircuitBreaker::Snapshot CircuitBreaker::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked();
}

void CircuitBreaker::Restore(const Snapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = snapshot.state;
  consecutive_failures_ = snapshot.consecutive_failures;
  total_failures_ = snapshot.total_failures;
  fast_rejections_ = snapshot.fast_rejections;
  rejections_since_open_ = snapshot.rejections_since_open;
  probe_successes_ = snapshot.probe_successes;
  call_clock_ = snapshot.call_clock;
  history_ = snapshot.history;
  if (history_capacity_ > 0 && history_.size() > history_capacity_) {
    history_.erase(history_.begin(),
                   history_.end() - static_cast<std::ptrdiff_t>(
                                        history_capacity_));
  }
  probe_in_flight_ = false;
}

void CircuitBreaker::SetTransitionListener(TransitionListener listener) {
  std::lock_guard<std::mutex> lock(mu_);
  listener_ = std::move(listener);
}

const char* CircuitStateToString(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

double JitteredBackoffSeconds(const ResilienceConfig& config, size_t attempt,
                              Rng* rng) {
  double base = config.backoff_initial_seconds *
                std::pow(config.backoff_multiplier,
                         static_cast<double>(attempt));
  base = std::min(base, config.backoff_max_seconds);
  const double jitter =
      rng->Uniform(1.0 - config.backoff_jitter, 1.0 + config.backoff_jitter);
  return base * jitter;
}

namespace {

class ResilientStream final : public GenerationStream {
 public:
  ResilientStream(std::unique_ptr<GenerationStream> inner,
                  const ResilientModel* owner, Rng rng,
                  double pending_backoff_seconds)
      : inner_(std::move(inner)),
        owner_(owner),
        config_(owner->config()),
        rng_(rng),
        pending_backoff_seconds_(pending_backoff_seconds) {}

  StatusOr<Chunk> NextChunk(size_t max_tokens) override {
    CircuitBreaker& breaker = *owner_->mutable_breaker();
    Status last_error = Status::OK();
    for (size_t attempt = 0; attempt <= config_.max_chunk_retries; ++attempt) {
      auto chunk_or = inner_->NextChunk(max_tokens);
      if (chunk_or.ok()) {
        Chunk chunk = std::move(chunk_or).value();
        // Stall detection: repeated no-progress chunks become a deadline
        // failure so orchestrators never spin on a hung backend.
        if (chunk.num_tokens == 0 && !chunk.done) {
          if (config_.max_stalled_chunks > 0 &&
              ++consecutive_stalls_ >= config_.max_stalled_chunks) {
            consecutive_stalls_ = 0;
            breaker.RecordFailure();
            owner_->CountRetry(0, 0.0, 0, 1);
            return Status::DeadlineExceeded(
                "model '" + owner_->name() + "' stalled for " +
                std::to_string(config_.max_stalled_chunks) +
                " consecutive chunks");
          }
        } else {
          consecutive_stalls_ = 0;
        }
        // Per-chunk deadline over the chunk's simulated cost.
        if (config_.chunk_deadline_seconds > 0.0) {
          double cost = chunk.extra_seconds;
          const double tps = owner_->tokens_per_second();
          if (tps > 0.0) cost += static_cast<double>(chunk.num_tokens) / tps;
          if (cost > config_.chunk_deadline_seconds) {
            breaker.RecordFailure();
            owner_->CountRetry(0, 0.0, 1, 0);
            return Status::DeadlineExceeded(
                "model '" + owner_->name() + "' chunk took " +
                std::to_string(cost) + "s (deadline " +
                std::to_string(config_.chunk_deadline_seconds) + "s)");
          }
        }
        breaker.RecordSuccess();
        chunk.extra_seconds += pending_backoff_seconds_;
        pending_backoff_seconds_ = 0.0;
        return chunk;
      }
      last_error = chunk_or.status();
      if (attempt < config_.max_chunk_retries) {
        const double backoff =
            JitteredBackoffSeconds(config_, attempt, &rng_);
        pending_backoff_seconds_ += backoff;
        owner_->CountRetry(1, backoff, 0, 0);
      }
    }
    breaker.RecordFailure();
    return Status(last_error.code(), "model '" + owner_->name() +
                                         "' failed after " +
                                         std::to_string(
                                             config_.max_chunk_retries + 1) +
                                         " attempts: " + last_error.message());
  }

  const std::string& text() const override { return inner_->text(); }
  size_t tokens_generated() const override {
    return inner_->tokens_generated();
  }
  bool finished() const override { return inner_->finished(); }
  StopReason stop_reason() const override { return inner_->stop_reason(); }

 private:
  std::unique_ptr<GenerationStream> inner_;
  const ResilientModel* owner_;
  ResilienceConfig config_;
  Rng rng_;
  double pending_backoff_seconds_;
  size_t consecutive_stalls_ = 0;
};

}  // namespace

ResilientModel::ResilientModel(std::shared_ptr<LanguageModel> inner,
                               const ResilienceConfig& config)
    : inner_(std::move(inner)),
      config_(config),
      breaker_(config.breaker_failure_threshold, config.breaker_open_calls,
               config.breaker_probe_successes, config.breaker_history),
      rng_(config.seed) {}

StatusOr<std::unique_ptr<GenerationStream>> ResilientModel::StartGeneration(
    const GenerationRequest& request) const {
  if (!breaker_.AllowRequest()) {
    return Status::ResourceExhausted("circuit open for model '" + name() +
                                     "': failing fast");
  }
  Rng stream_rng;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stream_rng = rng_.Fork();
  }
  double pending_backoff = 0.0;
  Status last_error = Status::OK();
  for (size_t attempt = 0; attempt <= config_.max_start_retries; ++attempt) {
    auto stream_or = inner_->StartGeneration(request);
    if (stream_or.ok()) {
      // Deliberately no RecordSuccess here: accepting a stream is cheap and
      // says nothing about backend health. The breaker closes again only
      // when a chunk actually arrives (ResilientStream::NextChunk), so a
      // backend that accepts work and then dies mid-stream still
      // accumulates consecutive failures and trips the circuit.
      return std::unique_ptr<GenerationStream>(
          std::make_unique<ResilientStream>(std::move(stream_or).value(),
                                            this, stream_rng.Fork(),
                                            pending_backoff));
    }
    last_error = stream_or.status();
    if (attempt < config_.max_start_retries) {
      const double backoff =
          JitteredBackoffSeconds(config_, attempt, &stream_rng);
      pending_backoff += backoff;
      std::lock_guard<std::mutex> lock(mu_);
      ++health_.start_retries;
      health_.backoff_seconds += backoff;
    }
  }
  breaker_.RecordFailure();
  return Status(last_error.code(),
                "model '" + name() + "' failed to start after " +
                    std::to_string(config_.max_start_retries + 1) +
                    " attempts: " + last_error.message());
}

void ResilientModel::CountRetry(size_t chunk_retries, double backoff_seconds,
                                size_t deadlines, size_t stalls) const {
  std::lock_guard<std::mutex> lock(mu_);
  health_.chunk_retries += chunk_retries;
  health_.backoff_seconds += backoff_seconds;
  health_.deadlines_exceeded += deadlines;
  health_.stalls_detected += stalls;
}

ResilientModel::Health ResilientModel::health() const {
  Health out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = health_;
  }
  out.circuit = breaker_.state();
  out.consecutive_failures = breaker_.consecutive_failures();
  // Breaker-level failures include chunk-path ones; fast rejections include
  // stream-level rejections counted by the breaker itself.
  out.total_failures = breaker_.total_failures();
  out.fast_rejections = breaker_.fast_rejections();
  return out;
}

}  // namespace llmms::llm
