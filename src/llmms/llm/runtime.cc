#include "llmms/llm/runtime.h"

#include <algorithm>
#include <future>

#include "llmms/llm/hedged_model.h"

namespace llmms::llm {

ParallelGeneration::~ParallelGeneration() {
  // Abandoned streams (client gone, orchestrator unwound) must release
  // their admissions or the scheduler's fairness state leaks them.
  if (scheduler_ == nullptr) return;
  for (auto& [name, entry] : entries_) {
    if (entry.scheduled) scheduler_->Finish(entry.sched_id);
  }
}

// Runs one chunk of `entry`, going through the shared scheduler's grant
// cycle when this stream is admitted to one: the chunk executes while
// holding a replica slot, so concurrent queries interleave at chunk
// granularity instead of overlapping on a pretend-infinite model.
StatusOr<Chunk> ParallelGeneration::ScheduledChunk(Entry* entry,
                                                   size_t max_tokens) {
  if (scheduler_ == nullptr || !entry->scheduled || entry->stats.finished ||
      entry->stats.failed) {
    return NextChunkLocked(entry, max_tokens);
  }
  auto chunk_or = scheduler_->ExecuteChunk(
      entry->sched_id, max_tokens,
      [this, entry](size_t tokens) { return NextChunkLocked(entry, tokens); });
  // A stream that finished, failed, or was unwound by its deadline leaves
  // the scheduler immediately so it stops competing for slots.
  if (!chunk_or.ok() || chunk_or->done) {
    scheduler_->Finish(entry->sched_id);
    entry->scheduled = false;
    if (!chunk_or.ok() && !entry->stats.failed) {
      // Typed deadline/cancel unwinding from the scheduler itself: make it
      // sticky exactly like a stream error so further calls stay typed.
      entry->stats.failed = true;
      entry->stats.finished = true;
      entry->stats.error = chunk_or.status().message();
      entry->error = chunk_or.status();
    }
  }
  return chunk_or;
}

StatusOr<Chunk> ParallelGeneration::NextChunkLocked(Entry* entry,
                                                    size_t max_tokens) {
  if (entry->stats.failed) return entry->error;  // sticky failure
  if (entry->stats.finished) {
    Chunk chunk;
    chunk.done = true;
    chunk.stop_reason = entry->stats.stop_reason;
    return chunk;
  }
  if (entry->device != nullptr) entry->device->BeginJob();
  auto chunk_or = entry->stream->NextChunk(max_tokens);
  if (entry->device != nullptr) entry->device->EndJob();
  if (!chunk_or.ok()) {
    // Quarantine the stream: no further tokens, error kept for StatsOf.
    entry->stats.failed = true;
    entry->stats.finished = true;
    entry->stats.error = chunk_or.status().message();
    entry->error = chunk_or.status();
    return chunk_or.status();
  }
  Chunk chunk = std::move(chunk_or).value();
  entry->stats.tokens += chunk.num_tokens;
  if (chunk.hedge != HedgeOutcome::kNone) ++entry->stats.hedges;
  entry->stats.simulated_seconds += chunk.extra_seconds;
  if (entry->effective_tps > 0.0) {
    entry->stats.simulated_seconds +=
        static_cast<double>(chunk.num_tokens) / entry->effective_tps;
  }
  if (chunk.done) {
    entry->stats.finished = true;
    entry->stats.stop_reason = chunk.stop_reason;
  }
  return chunk;
}

StatusOr<Chunk> ParallelGeneration::NextChunk(const std::string& model,
                                              size_t max_tokens) {
  std::lock_guard<std::mutex> lock(mu_);
  if (context_ != nullptr) LLMMS_RETURN_NOT_OK(context_->Check());
  auto it = entries_.find(model);
  if (it == entries_.end()) {
    return Status::NotFound("model '" + model +
                            "' is not part of this generation");
  }
  const double before = it->second.stats.simulated_seconds;
  auto chunk = ScheduledChunk(&it->second, max_tokens);
  if (chunk.ok()) {
    simulated_wall_seconds_ += it->second.stats.simulated_seconds - before;
  }
  return chunk;
}

StatusOr<ParallelGeneration::ChunkBatch> ParallelGeneration::NextChunks(
    const std::vector<std::pair<std::string, size_t>>& requests) {
  std::lock_guard<std::mutex> lock(mu_);
  // An expired or cancelled request fails the whole round with the typed
  // status: nobody's tokens are worth generating once the caller is gone.
  if (context_ != nullptr) LLMMS_RETURN_NOT_OK(context_->Check());
  // Validate first so misuse fails atomically. A model named twice would
  // hand the same stream to two concurrent pool tasks — a data race the
  // per-entry ownership argument below depends on excluding.
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto& name = requests[i].first;
    if (entries_.find(name) == entries_.end()) {
      return Status::NotFound("model '" + name +
                              "' is not part of this generation");
    }
    for (size_t j = 0; j < i; ++j) {
      if (requests[j].first == name) {
        return Status::InvalidArgument("model '" + name +
                                       "' requested twice in one round");
      }
    }
  }

  // Each stream is touched by exactly one task, so the per-entry work is
  // data-race free; accounting merges after the barrier.
  std::vector<std::future<StatusOr<Chunk>>> futures;
  futures.reserve(requests.size());
  for (const auto& [name, tokens] : requests) {
    Entry* entry = &entries_[name];
    const size_t max_tokens = tokens;
    futures.push_back(pool_->Submit([this, entry, max_tokens]() {
      return ScheduledChunk(entry, max_tokens);
    }));
  }

  // A failing model costs the round its own simulated time so far, not the
  // survivors' chunks: failures land in `errors`, successes in `chunks`.
  ChunkBatch batch;
  double round_max_seconds = 0.0;
  for (size_t i = 0; i < requests.size(); ++i) {
    auto chunk_or = futures[i].get();
    if (!chunk_or.ok()) {
      batch.errors[requests[i].first] = chunk_or.status();
      continue;
    }
    const Entry& entry = entries_[requests[i].first];
    double chunk_seconds = chunk_or->extra_seconds;
    if (entry.effective_tps > 0.0) {
      chunk_seconds += static_cast<double>(chunk_or->num_tokens) /
                       entry.effective_tps;
    }
    round_max_seconds = std::max(round_max_seconds, chunk_seconds);
    batch.chunks[requests[i].first] = std::move(chunk_or).value();
  }
  // Chunks in one round run in parallel: wall time advances by the slowest.
  simulated_wall_seconds_ += round_max_seconds;
  return batch;
}

StatusOr<std::string> ParallelGeneration::TextOf(
    const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(model);
  if (it == entries_.end()) {
    return Status::NotFound("model '" + model +
                            "' is not part of this generation");
  }
  // A model that failed at start has no stream and produced no text.
  if (it->second.stream == nullptr) return std::string();
  return it->second.stream->text();
}

StatusOr<ParallelGeneration::ModelStats> ParallelGeneration::StatsOf(
    const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(model);
  if (it == entries_.end()) {
    return Status::NotFound("model '" + model +
                            "' is not part of this generation");
  }
  return it->second.stats;
}

size_t ParallelGeneration::TotalTokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [name, entry] : entries_) total += entry.stats.tokens;
  return total;
}

ModelRuntime::ModelRuntime(std::shared_ptr<ModelRegistry> registry,
                           std::shared_ptr<hardware::HardwareManager> hardware,
                           size_t num_threads)
    : registry_(std::move(registry)),
      hardware_(std::move(hardware)),
      pool_(num_threads) {}

Status ModelRuntime::LoadModel(const std::string& name) {
  LLMMS_ASSIGN_OR_RETURN(auto model, registry_->Get(name));
  std::lock_guard<std::mutex> lock(mu_);
  if (loaded_.count(name) > 0) return Status::OK();
  hardware::PlacementRequest request;
  request.memory_mb = model->memory_mb();
  if (auto hedged = std::dynamic_pointer_cast<HedgedModel>(model)) {
    // A hedge race holds the serving replica and one backup resident at the
    // same time; reserve headroom for the largest backup so the race cannot
    // OOM a device that only fits the steady state.
    for (const auto& backup : hedged->backups()) {
      request.hedge_extra_mb =
          std::max(request.hedge_extra_mb, backup->memory_mb());
    }
  }
  LLMMS_ASSIGN_OR_RETURN(auto placement, hardware_->Place(request));
  loaded_[name] = LoadedModel{std::move(model), std::move(placement)};
  return Status::OK();
}

std::vector<ModelRuntime::PlacementInfo> ModelRuntime::PlacementSnapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PlacementInfo> out;
  out.reserve(loaded_.size());
  for (const auto& [name, loaded] : loaded_) {
    PlacementInfo info;
    info.model = name;
    info.device = loaded.placement->device()->spec().name;
    info.memory_mb = loaded.placement->memory_mb();
    info.hedge_extra_mb = loaded.placement->hedge_extra_mb();
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const PlacementInfo& a, const PlacementInfo& b) {
              return a.model < b.model;
            });
  return out;
}

bool ModelRuntime::IsLoaded(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return loaded_.count(name) > 0;
}

std::vector<std::string> ModelRuntime::LoadedModels() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(loaded_.size());
  for (const auto& [name, m] : loaded_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

StatusOr<std::unique_ptr<ParallelGeneration>> ModelRuntime::StartGeneration(
    const std::vector<std::string>& models, const GenerationRequest& request) {
  if (models.empty()) {
    return Status::InvalidArgument("at least one model is required");
  }
  // A request that is already dead on arrival never claims streams.
  if (request.context != nullptr) {
    LLMMS_RETURN_NOT_OK(request.context->Check());
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto generation =
      std::unique_ptr<ParallelGeneration>(new ParallelGeneration(&pool_));
  generation->context_ = request.context;
  // An in-flight generation keeps the scheduler it was admitted to even if
  // the runtime is reconfigured underneath it.
  generation->scheduler_ = scheduler_;
  size_t started = 0;
  Status last_start_error = Status::OK();
  for (const auto& name : models) {
    auto it = loaded_.find(name);
    if (it == loaded_.end()) {
      return Status::FailedPrecondition("model '" + name +
                                        "' is not loaded; call LoadModel");
    }
    if (generation->entries_.count(name) > 0) {
      return Status::InvalidArgument("duplicate model '" + name + "'");
    }
    ParallelGeneration::Entry entry;
    auto stream_or = it->second.model->StartGeneration(request);
    if (stream_or.ok()) {
      ++started;
      entry.stream = std::move(stream_or).value();
      entry.device = it->second.placement->device();
      entry.effective_tps = it->second.model->tokens_per_second() *
                            entry.device->spec().throughput_factor;
      if (generation->scheduler_ != nullptr) {
        BatchScheduler::AdmitOptions admit;
        admit.model = name;
        admit.weight = request.scheduler_weight;
        admit.token_budget =
            request.token_budget > 0 ? request.token_budget : request.max_tokens;
        admit.hedge = request.hedge_priority;
        admit.context = request.context;
        admit.tokens_per_second = entry.effective_tps;
        entry.sched_id = generation->scheduler_->Admit(admit);
        entry.scheduled = true;
      }
    } else {
      // The model refused to start: it joins pre-failed so orchestrators
      // can quarantine it instead of losing the whole query.
      last_start_error = stream_or.status();
      entry.stats.failed = true;
      entry.stats.finished = true;
      entry.stats.error = stream_or.status().message();
      entry.error = stream_or.status();
    }
    generation->entries_[name] = std::move(entry);
    generation->order_.push_back(name);
  }
  if (started == 0) {
    return Status(last_start_error.code(),
                  "no model could start generation; last error: " +
                      last_start_error.message());
  }
  return generation;
}

void ModelRuntime::EnableScheduler(const SchedulerConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  scheduler_ = std::make_shared<BatchScheduler>(config);
}

std::shared_ptr<BatchScheduler> ModelRuntime::scheduler() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scheduler_;
}

StatusOr<GenerationResult> ModelRuntime::Generate(
    const std::string& model, const GenerationRequest& request,
    size_t chunk_tokens, const ChunkCallback& on_chunk) {
  LLMMS_ASSIGN_OR_RETURN(auto generation, StartGeneration({model}, request));
  GenerationResult result;
  for (;;) {
    LLMMS_ASSIGN_OR_RETURN(auto stats, generation->StatsOf(model));
    if (stats.finished) break;
    size_t ask = chunk_tokens;
    if (request.max_tokens > 0) {
      const size_t remaining = request.max_tokens - stats.tokens;
      if (remaining == 0) break;
      ask = std::min(ask, remaining);
    }
    LLMMS_ASSIGN_OR_RETURN(auto chunk, generation->NextChunk(model, ask));
    if (on_chunk) on_chunk(chunk);
  }
  LLMMS_ASSIGN_OR_RETURN(auto stats, generation->StatsOf(model));
  LLMMS_ASSIGN_OR_RETURN(result.text, generation->TextOf(model));
  result.num_tokens = stats.tokens;
  result.stop_reason = stats.stop_reason;
  result.simulated_seconds = stats.simulated_seconds;
  return result;
}

}  // namespace llmms::llm
