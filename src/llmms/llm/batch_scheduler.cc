#include "llmms/llm/batch_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <tuple>

#include "llmms/common/string_util.h"

namespace llmms::llm {
namespace {

// Finished-stream records kept for the fairness index; old entries are
// overwritten ring-style so a long-lived server stays bounded.
constexpr size_t kRetiredCapacity = 1024;

}  // namespace

BatchScheduler::BatchScheduler(const SchedulerConfig& config)
    : config_(config) {}

double BatchScheduler::WeightFor(size_t token_budget,
                                 double deadline_slack_seconds) const {
  double weight =
      token_budget > 0 && config_.reference_budget_tokens > 0.0
          ? static_cast<double>(token_budget) / config_.reference_budget_tokens
          : 1.0;
  // Deadline urgency: a stream with little slack left gets a proportional
  // boost so it can finish before its 504, capped so urgent traffic cannot
  // monopolize the replicas.
  if (std::isfinite(deadline_slack_seconds) && deadline_slack_seconds >= 0.0 &&
      config_.urgency_slack_seconds > 0.0 &&
      deadline_slack_seconds < config_.urgency_slack_seconds) {
    const double urgency = config_.urgency_slack_seconds /
                           std::max(deadline_slack_seconds, 1e-3);
    weight *= std::min(urgency, config_.urgency_cap);
  }
  return std::clamp(weight, config_.min_weight, config_.max_weight);
}

BatchScheduler::ModelState* BatchScheduler::ModelOf(const std::string& model) {
  auto it = models_.find(model);
  if (it == models_.end()) {
    ModelState state;
    state.replicas = config_.replicas_per_model;
    auto override_it = config_.replicas.find(model);
    if (override_it != config_.replicas.end() && override_it->second > 0) {
      state.replicas = override_it->second;
    }
    if (state.replicas == 0) state.replicas = 1;
    state.slot_holder.assign(state.replicas, 0);
    state.slot_busy.assign(state.replicas, false);
    state.slot_busy_seconds.assign(state.replicas, 0.0);
    it = models_.emplace(model, std::move(state)).first;
  }
  return &it->second;
}

BatchScheduler::Stream* BatchScheduler::FindLocked(StreamId id) {
  auto it = streams_.find(id);
  return it == streams_.end() ? nullptr : &it->second;
}

template <typename LineFn>
void BatchScheduler::TraceLocked(LineFn&& line) {
  if (config_.trace_capacity == 0) return;
  if (trace_.size() >= config_.trace_capacity) trace_.pop_front();
  trace_.push_back(line());
}

BatchScheduler::StreamId BatchScheduler::Admit(const AdmitOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  Stream stream;
  stream.id = next_id_++;
  stream.model = options.model;
  stream.hedge = options.hedge;
  stream.context = options.context;
  stream.tokens_per_second = options.tokens_per_second;
  stream.admit_seq = ++admit_seq_;
  const double slack = options.context != nullptr
                           ? options.context->remaining_seconds()
                           : std::numeric_limits<double>::infinity();
  stream.weight =
      options.weight > 0.0
          ? std::clamp(options.weight, config_.min_weight, config_.max_weight)
          : WeightFor(options.token_budget, slack);
  // SFQ start tag: join at the model's virtual clock so a newcomer neither
  // starves incumbents (it cannot replay their past) nor waits behind the
  // service they already consumed.
  stream.virtual_time = ModelOf(options.model)->virtual_clock;
  ++admitted_total_;
  if (stream.hedge) ++hedge_admitted_total_;
  TraceLocked([&] {
    return StrFormat("admit s=%llu model=%s w=%.3f hedge=%d vt=%.3f",
                     static_cast<unsigned long long>(stream.id),
                     stream.model.c_str(), stream.weight,
                     stream.hedge ? 1 : 0, stream.virtual_time);
  });
  const StreamId id = stream.id;
  streams_.emplace(id, std::move(stream));
  return id;
}

void BatchScheduler::RetireLocked(Stream* stream) {
  if (stream->finished) return;
  stream->finished = true;
  // A parked ExecuteChunk waiter still holds this stream's pointer: leave
  // the node in place and let the waiter erase it when it wakes and sees
  // `finished` (the map is node-based, so the pointer stays valid).
  const bool parked = stream->waiting;
  ++finished_total_;
  if (retired_.size() < kRetiredCapacity) {
    retired_.push_back({stream->service_tokens, stream->weight});
  } else {
    retired_[retired_next_] = {stream->service_tokens, stream->weight};
    retired_next_ = (retired_next_ + 1) % kRetiredCapacity;
  }
  TraceLocked([&] {
    return StrFormat("finish s=%llu tokens=%zu",
                     static_cast<unsigned long long>(stream->id),
                     stream->service_tokens);
  });
  // A stream still holding a slot (or parked in ExecuteChunk) is erased by
  // that path once it unwinds; erasing it here would dangle its pointer.
  if (!stream->running && !stream->granted && !parked) {
    streams_.erase(stream->id);
  } else {
    cv_.notify_all();  // wake a parked waiter so it can unwind
  }
}

void BatchScheduler::Finish(StreamId id) {
  std::lock_guard<std::mutex> lock(mu_);
  Stream* stream = FindLocked(id);
  if (stream != nullptr) RetireLocked(stream);
}

BatchScheduler::Stream* BatchScheduler::PickLocked(const std::string& model) {
  Stream* best = nullptr;
  for (auto& [id, stream] : streams_) {
    if (stream.model != model || stream.finished || !stream.waiting) continue;
    if (best == nullptr) {
      best = &stream;
      continue;
    }
    // Hedges first, then lowest weighted virtual time, then admission
    // order — a total order, so the pick is deterministic.
    const auto rank = [](const Stream& s) {
      return std::make_tuple(s.hedge ? 0 : 1, s.virtual_time, s.admit_seq);
    };
    if (rank(stream) < rank(*best)) best = &stream;
  }
  return best;
}

void BatchScheduler::GrantSlotLocked(ModelState* state, size_t slot,
                                     Stream* stream) {
  const StreamId previous = state->slot_holder[slot];
  if (previous != 0 && previous != stream->id) {
    Stream* evicted = FindLocked(previous);
    if (evicted != nullptr && !evicted->finished) {
      // The previous holder is still runnable but lost its replica to a
      // higher-priority stream: a chunk-boundary preemption. Its partial
      // output lives in its own stream object, untouched.
      ++evicted->preemptions;
      ++preempted_total_;
      TraceLocked([&] {
        return StrFormat("preempt s=%llu slot=%zu by=%llu",
                         static_cast<unsigned long long>(previous), slot,
                         static_cast<unsigned long long>(stream->id));
      });
    }
  }
  state->slot_holder[slot] = stream->id;
  state->slot_busy[slot] = true;
  state->virtual_clock = std::max(state->virtual_clock, stream->virtual_time);
  stream->slot = slot;
  stream->waiting = false;
  stream->granted = true;
  stream->running = true;
  ++dispatches_;
  // Round epochs: a stream granted twice within one epoch means every
  // other runnable stream had its turn — a new round begins.
  if (std::find(epoch_grants_.begin(), epoch_grants_.end(), stream->id) !=
      epoch_grants_.end()) {
    ++rounds_;
    epoch_grants_.clear();
  }
  epoch_grants_.push_back(stream->id);
  TraceLocked([&] {
    return StrFormat("grant r=%zu s=%llu model=%s slot=%zu", rounds_,
                     static_cast<unsigned long long>(stream->id),
                     stream->model.c_str(), slot);
  });
}

void BatchScheduler::YieldSlotLocked(ModelState* state, Stream* stream,
                                     size_t tokens, double cost_seconds) {
  if (stream->slot < state->replicas) {
    state->slot_busy[stream->slot] = false;
    state->slot_busy_seconds[stream->slot] += cost_seconds;
  }
  stream->granted = false;
  stream->running = false;
  stream->service_tokens += tokens;
  ++stream->chunks;
  total_service_tokens_ += tokens;
  // Weighted virtual time: even a zero-token chunk advances the clock so a
  // stalled stream cannot pin its replica's priority forever.
  stream->virtual_time +=
      static_cast<double>(std::max<size_t>(tokens, 1)) / stream->weight;
  TraceLocked([&] {
    return StrFormat("yield s=%llu tokens=%zu vt=%.3f",
                     static_cast<unsigned long long>(stream->id), tokens,
                     stream->virtual_time);
  });
}

void BatchScheduler::ScheduleLocked(const std::string& model) {
  ModelState* state = ModelOf(model);
  for (;;) {
    const auto free_slot =
        std::find(state->slot_busy.begin(), state->slot_busy.end(), false);
    if (free_slot == state->slot_busy.end()) return;
    Stream* next = PickLocked(model);
    if (next == nullptr) return;
    GrantSlotLocked(state, free_slot - state->slot_busy.begin(), next);
  }
}

StatusOr<Chunk> BatchScheduler::ExecuteChunk(StreamId id, size_t max_tokens,
                                             const ChunkFn& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  Stream* stream = FindLocked(id);
  if (stream == nullptr || stream->finished) {
    return Status::FailedPrecondition("stream is not admitted");
  }
  if (stream->context != nullptr) {
    Status alive = stream->context->Check();
    if (!alive.ok()) {
      ++expired_total_;
      TraceLocked([&] {
        return StrFormat("expire s=%llu code=%s",
                         static_cast<unsigned long long>(id),
                         StatusCodeToString(alive.code()));
      });
      RetireLocked(stream);
      return alive;
    }
  }
  stream->waiting = true;
  ScheduleLocked(stream->model);
  // Park until granted; wake periodically so a deadline that expires while
  // queued unwinds with its typed status instead of waiting for a slot
  // nobody will use.
  while (!stream->granted) {
    cv_.wait_for(lock, std::chrono::milliseconds(10));
    if (stream->granted) break;
    if (stream->finished) {
      // Retired while queued (owner abandoned the generation): unwind
      // without ever touching a replica.
      stream->waiting = false;
      streams_.erase(id);
      cv_.notify_all();
      return Status::Cancelled("stream retired while queued for a replica");
    }
    if (stream->context != nullptr) {
      Status alive = stream->context->Check();
      if (!alive.ok()) {
        stream->waiting = false;
        ++expired_total_;
        TraceLocked([&] {
          return StrFormat("expire s=%llu code=%s",
                           static_cast<unsigned long long>(id),
                           StatusCodeToString(alive.code()));
        });
        RetireLocked(stream);
        streams_.erase(id);
        cv_.notify_all();
        return alive;
      }
    }
  }
  stream->granted = false;  // consumed the grant; still `running`
  lock.unlock();

  auto chunk_or = fn(max_tokens);

  lock.lock();
  // The map is node-based: the pointer stays valid across the unlock; only
  // this owner thread can erase a running stream.
  const std::string model_name = stream->model;
  ModelState* state = ModelOf(model_name);
  size_t tokens = 0;
  double cost = 0.0;
  if (chunk_or.ok()) {
    tokens = chunk_or->num_tokens;
    cost = chunk_or->extra_seconds;
    if (stream->tokens_per_second > 0.0) {
      cost += static_cast<double>(tokens) / stream->tokens_per_second;
    }
  }
  YieldSlotLocked(state, stream, tokens, cost);
  const bool done =
      !chunk_or.ok() || chunk_or->done || stream->finished;
  if (done) {
    RetireLocked(stream);
    streams_.erase(id);
  }
  ScheduleLocked(model_name);
  cv_.notify_all();
  return chunk_or;
}

double BatchScheduler::JainLocked() const {
  // Jain's index over weight-normalized service: (Σx)² / (n·Σx²) with
  // x = tokens/weight, over every stream that received service. 1.0 is
  // perfectly fair; 1/n means one stream got everything.
  double sum = 0.0;
  double sum_sq = 0.0;
  size_t n = 0;
  const auto add = [&](size_t tokens, double weight) {
    if (tokens == 0) return;
    const double x = static_cast<double>(tokens) / std::max(weight, 1e-9);
    sum += x;
    sum_sq += x * x;
    ++n;
  };
  for (const auto& [id, stream] : streams_) {
    add(stream.service_tokens, stream.weight);
  }
  for (const auto& retired : retired_) {
    add(retired.service_tokens, retired.weight);
  }
  if (n == 0 || sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

BatchScheduler::Stats BatchScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.replicas_per_model = config_.replicas_per_model;
  stats.admitted_total = admitted_total_;
  stats.finished_total = finished_total_;
  stats.hedge_admitted_total = hedge_admitted_total_;
  stats.expired_total = expired_total_;
  stats.dispatches = dispatches_;
  stats.rounds = rounds_;
  stats.preempted_total = preempted_total_;
  stats.total_service_tokens = total_service_tokens_;
  stats.fairness_index = JainLocked();
  std::vector<StreamId> ids;
  ids.reserve(streams_.size());
  for (const auto& [id, stream] : streams_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (StreamId id : ids) {
    const auto& stream = streams_.at(id);
    if (stream.finished) continue;
    ++stats.runnable;
    if (stream.waiting) ++stats.waiting;
    if (stream.running) ++stats.running;
    StreamInfo info;
    info.id = stream.id;
    info.model = stream.model;
    info.weight = stream.weight;
    info.hedge = stream.hedge;
    info.virtual_time = stream.virtual_time;
    info.service_tokens = stream.service_tokens;
    info.chunks = stream.chunks;
    info.preemptions = stream.preemptions;
    info.running = stream.running;
    stats.streams.push_back(std::move(info));
  }
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, state] : models_) names.push_back(name);
  std::sort(names.begin(), names.end());
  for (const auto& name : names) {
    const auto& state = models_.at(name);
    ModelInfo info;
    info.model = name;
    info.replicas = state.replicas;
    info.slot_busy_seconds = state.slot_busy_seconds;
    stats.models.push_back(std::move(info));
  }
  return stats;
}

std::vector<std::string> BatchScheduler::Trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {trace_.begin(), trace_.end()};
}

}  // namespace llmms::llm
