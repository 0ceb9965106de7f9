#include "llmms/app/service.h"

#include <algorithm>

#include "llmms/app/nl_config.h"
#include "llmms/llm/hedged_model.h"
#include "llmms/llm/resilient_model.h"
#include "llmms/llm/state_store.h"

namespace llmms::app {
namespace {

core::Algorithm ParseAlgorithm(const std::string& name) {
  if (name == "mab") return core::Algorithm::kMab;
  if (name == "hybrid") return core::Algorithm::kHybrid;
  if (name == "single") return core::Algorithm::kSingle;
  return core::Algorithm::kOua;
}

Json EventToJson(const core::OrchestratorEvent& event) {
  Json out = Json::MakeObject();
  out.Set("type", core::EventTypeToString(event.type));
  out.Set("model", event.model);
  if (!event.text.empty()) out.Set("text", event.text);
  out.Set("score", event.score);
  out.Set("round", event.round);
  out.Set("total_tokens", event.total_tokens);
  return out;
}

}  // namespace

Json ErrorResponse(const Status& status) {
  Json error = Json::MakeObject();
  error.Set("code", StatusCodeToString(status.code()));
  error.Set("message", status.message());
  Json out = Json::MakeObject();
  out.Set("ok", false);
  out.Set("error", std::move(error));
  return out;
}

ApiService::ApiService(core::SearchEngine* engine) : engine_(engine) {}

ApiService::~ApiService() {
  if (state_store_ == nullptr) return;
  // Flush the latest sketches (breaker transitions save eagerly, latency
  // windows only piggy-back on them), then detach the breaker listeners —
  // they hold a raw pointer to the store, which dies with us.
  (void)state_store_->SaveNow();
  for (const auto& name : engine_->runtime()->LoadedModels()) {
    auto model = engine_->runtime()->registry()->Get(name);
    if (!model.ok()) continue;
    if (llm::CircuitBreaker* breaker = BreakerOf(*model)) {
      breaker->SetTransitionListener(nullptr);
    }
  }
}

llm::CircuitBreaker* ApiService::BreakerOf(
    const std::shared_ptr<llm::LanguageModel>& model) {
  std::shared_ptr<llm::LanguageModel> target = model;
  if (auto hedged = std::dynamic_pointer_cast<llm::HedgedModel>(target)) {
    target = hedged->primary();
  }
  auto resilient = std::dynamic_pointer_cast<llm::ResilientModel>(target);
  return resilient == nullptr ? nullptr : resilient->mutable_breaker();
}

Status ApiService::EnableStatePersistence(const std::string& path) {
  auto store = std::make_unique<llm::StateStore>(path);
  LLMMS_RETURN_NOT_OK(store->Load());
  for (const auto& name : engine_->runtime()->LoadedModels()) {
    auto model = engine_->runtime()->registry()->Get(name);
    if (!model.ok()) continue;
    if (llm::CircuitBreaker* breaker = BreakerOf(*model)) {
      store->AttachBreaker(name, breaker);
    }
    if (auto hedged = std::dynamic_pointer_cast<llm::HedgedModel>(*model)) {
      store->AttachSketches(name, hedged);
    }
  }
  core::AttachRewardFeed(store.get(), engine_->reward_feed());
  state_store_ = std::move(store);
  return Status::OK();
}

void ApiService::SetServerStats(ServerStatsFn fn) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  server_stats_ = std::move(fn);
}

Json ApiService::Handle(const std::string& endpoint, const Json& request,
                        const StreamCallback& stream,
                        const std::shared_ptr<RequestContext>& context) {
  if (endpoint == "/api/query") return HandleQuery(request, stream, context);
  if (endpoint == "/api/upload") return HandleUpload(request);
  if (endpoint == "/api/generate") return HandleGenerate(request, context);
  if (endpoint == "/api/model_info") return HandleModelInfo(request);
  if (endpoint == "/api/models") return HandleModels();
  if (endpoint == "/api/sessions") return HandleSessions();
  if (endpoint == "/api/session/end") return HandleEndSession(request);
  if (endpoint == "/api/health") return HandleHealth();
  if (endpoint == "/api/hardware") return HandleHardware();
  return ErrorResponse(Status::NotFound("no endpoint '" + endpoint + "'"));
}

Json ApiService::HandleQuery(const Json& request,
                             const StreamCallback& stream,
                             const std::shared_ptr<RequestContext>& context) {
  const std::string session = request["session"].AsString();
  const std::string query = request["query"].AsString();
  if (session.empty() || query.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("'session' and 'query' are required"));
  }

  core::SearchEngine::QueryOptions options;
  options.context = context;
  if (request.Contains("algorithm")) {
    options.algorithm = ParseAlgorithm(request["algorithm"].AsString());
  }
  if (request.Contains("budget")) {
    const int64_t budget = request["budget"].AsInt();
    if (budget <= 0) {
      return ErrorResponse(Status::InvalidArgument("'budget' must be > 0"));
    }
    options.token_budget = static_cast<size_t>(budget);
  }
  if (request.Contains("alpha")) {
    options.weights.alpha = request["alpha"].AsDouble();
  }
  if (request.Contains("beta")) {
    options.weights.beta = request["beta"].AsDouble();
  }
  if (request.Contains("single_model")) {
    options.single_model = request["single_model"].AsString();
  }
  if (request.Contains("models")) {
    for (const auto& m : request["models"].AsArray()) {
      options.models.push_back(m.AsString());
    }
  }
  if (request.Contains("use_rag")) {
    options.use_rag = request["use_rag"].AsBool(true);
  }
  if (request.Contains("use_history")) {
    options.use_history = request["use_history"].AsBool(true);
  }
  if (request.Contains("use_memory_graph")) {
    options.use_memory_graph = request["use_memory_graph"].AsBool(false);
  }
  if (request.Contains("scheduler_weight")) {
    const double weight = request["scheduler_weight"].AsDouble();
    if (weight <= 0.0) {
      return ErrorResponse(
          Status::InvalidArgument("'scheduler_weight' must be > 0"));
    }
    options.scheduler_weight = weight;
  }

  // Natural-language configuration (§9.5): a free-text "instructions"
  // field is interpreted on top of the structured settings.
  std::vector<std::string> applied_rules;
  if (request.Contains("instructions")) {
    std::vector<NlModelInfo> infos;
    for (const auto& name : engine_->runtime()->LoadedModels()) {
      NlModelInfo info;
      info.name = name;
      auto model = engine_->runtime()->registry()->Get(name);
      if (model.ok()) info.tokens_per_second = (*model)->tokens_per_second();
      infos.push_back(std::move(info));
    }
    auto configured =
        ApplyNlConfig(request["instructions"].AsString(), options, infos);
    if (!configured.ok()) return ErrorResponse(configured.status());
    options = configured->options;
    applied_rules = configured->applied;
  }

  core::EventCallback callback;
  if (stream) {
    callback = [&stream](const core::OrchestratorEvent& event) {
      stream(EventToJson(event));
    };
  }

  auto result = engine_->Ask(session, query, options, callback);
  if (!result.ok()) return ErrorResponse(result.status());

  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("answer", result->orchestration.answer);
  response.Set("model", result->orchestration.best_model);
  response.Set("total_tokens", result->orchestration.total_tokens);
  response.Set("rounds", result->orchestration.rounds);
  response.Set("early_stopped", result->orchestration.early_stopped);
  response.Set("retrieved_chunks", result->retrieved_chunks);
  response.Set("simulated_seconds", result->orchestration.simulated_seconds);

  // Model routing transparency overlay (§7.3): per-model scores and tokens.
  Json per_model = Json::MakeObject();
  for (const auto& [name, outcome] : result->orchestration.per_model) {
    Json entry = Json::MakeObject();
    entry.Set("score", outcome.final_score);
    entry.Set("query_similarity", outcome.query_similarity);
    entry.Set("inter_similarity", outcome.inter_similarity);
    entry.Set("tokens", outcome.tokens);
    entry.Set("pruned", outcome.pruned);
    entry.Set("finished", outcome.finished);
    per_model.Set(name, std::move(entry));
  }
  response.Set("models", std::move(per_model));
  if (!applied_rules.empty()) {
    Json applied = Json::MakeArray();
    for (const auto& rule : applied_rules) applied.Append(rule);
    response.Set("applied_config", std::move(applied));
  }
  response.Set("recalled_memories", result->recalled_memories);
  return response;
}

Json ApiService::HandleUpload(const Json& request) {
  const std::string session = request["session"].AsString();
  const std::string document_id = request["document_id"].AsString();
  const std::string text = request["text"].AsString();
  if (session.empty() || document_id.empty() || text.empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "'session', 'document_id' and 'text' are required"));
  }
  auto chunks = engine_->Upload(session, document_id, text);
  if (!chunks.ok()) return ErrorResponse(chunks.status());
  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("document_id", document_id);
  response.Set("chunks", *chunks);
  return response;
}

namespace {

// Shared request parsing of the one-shot and streaming generate endpoints.
Status ParseGenerateRequest(const Json& request, std::string* model,
                            llm::GenerationRequest* generation) {
  *model = request["model"].AsString();
  const std::string prompt = request["prompt"].AsString();
  if (model->empty() || prompt.empty()) {
    return Status::InvalidArgument("'model' and 'prompt' are required");
  }
  generation->prompt = prompt;
  generation->max_tokens =
      static_cast<size_t>(std::max<int64_t>(0, request["max_tokens"].AsInt()));
  generation->seed = static_cast<uint64_t>(request["seed"].AsInt());
  return Status::OK();
}

// The accounting both generate endpoints answer with; the one-shot
// endpoint adds the text.
Json GenerateResponse(const llm::GenerationResult& result) {
  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("tokens", result.num_tokens);
  response.Set("done_reason", llm::StopReasonToString(result.stop_reason));
  response.Set("simulated_seconds", result.simulated_seconds);
  return response;
}

}  // namespace

Json ApiService::HandleGenerate(
    const Json& request, const std::shared_ptr<RequestContext>& context) {
  std::string model;
  llm::GenerationRequest generation;
  if (auto status = ParseGenerateRequest(request, &model, &generation);
      !status.ok()) {
    return ErrorResponse(status);
  }
  generation.context = context;
  auto result = engine_->runtime()->Generate(model, generation);
  if (!result.ok()) return ErrorResponse(result.status());
  Json response = GenerateResponse(*result);
  response.Set("text", result->text);
  return response;
}

Json ApiService::HandleGenerateStream(
    const Json& request, const StreamCallback& stream,
    const std::shared_ptr<RequestContext>& context) {
  std::string model;
  llm::GenerationRequest generation;
  if (auto status = ParseGenerateRequest(request, &model, &generation);
      !status.ok()) {
    return ErrorResponse(status);
  }
  generation.context = context;
  // Wire granularity: how many tokens each SSE chunk carries. Clients pick
  // the tradeoff between time-to-first-token and framing overhead.
  size_t chunk_tokens = 8;
  if (request.Contains("chunk_tokens")) {
    const int64_t requested = request["chunk_tokens"].AsInt();
    if (requested < 1 || requested > 256) {
      return ErrorResponse(
          Status::InvalidArgument("'chunk_tokens' must be in [1, 256]"));
    }
    chunk_tokens = static_cast<size_t>(requested);
  }

  // The chunk's *simulated* latency rides along so the peer's congestion
  // (injected spikes, backoff, hedge re-pricing) is visible to the
  // consuming node's accounting — and to its hedging layer. Token-free
  // chunks are not framed; their latency is carried by the next one.
  double extra_carry = 0.0;
  auto result = engine_->runtime()->Generate(
      model, generation, chunk_tokens,
      [&stream, &extra_carry](const llm::Chunk& chunk) {
        extra_carry += chunk.extra_seconds;
        if (!stream || chunk.num_tokens == 0) return;
        Json event = Json::MakeObject();
        event.Set("text", chunk.text);
        event.Set("tokens", chunk.num_tokens);
        if (extra_carry > 0.0) event.Set("extra_seconds", extra_carry);
        stream(event);
        extra_carry = 0.0;
      });
  // A mid-generation failure becomes the stream's terminal error event —
  // after any chunks already emitted, exactly like a peer dying
  // mid-response.
  if (!result.ok()) return ErrorResponse(result.status());
  return GenerateResponse(*result);
}

Json ApiService::HandleModelInfo(const Json& request) {
  const std::string name = request["model"].AsString();
  if (name.empty()) {
    return ErrorResponse(Status::InvalidArgument("'model' is required"));
  }
  auto model = engine_->runtime()->registry()->Get(name);
  if (!model.ok()) return ErrorResponse(model.status());
  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("name", (*model)->name());
  response.Set("memory_mb", (*model)->memory_mb());
  response.Set("tokens_per_second", (*model)->tokens_per_second());
  response.Set("context_window", (*model)->context_window());
  response.Set("loaded", engine_->runtime()->IsLoaded(name));
  // True when this node serves the streaming /api/generate variant;
  // pre-streaming builds omit the field. RemoteModel always asks for the
  // stream and checks the reply's content type instead (DESIGN.md §9), but
  // older clients pick their wire path from this field, so it stays.
  response.Set("streaming", streaming_generate_);
  return response;
}

Json ApiService::HandleModels() {
  Json models = Json::MakeArray();
  for (const auto& name : engine_->runtime()->LoadedModels()) {
    models.Append(name);
  }
  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("models", std::move(models));
  return response;
}

Json ApiService::HandleSessions() {
  Json sessions = Json::MakeArray();
  for (const auto& id : engine_->sessions()->List()) {
    sessions.Append(id);
  }
  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("sessions", std::move(sessions));
  return response;
}

Json ApiService::HandleEndSession(const Json& request) {
  const std::string session = request["session"].AsString();
  if (session.empty()) {
    return ErrorResponse(Status::InvalidArgument("'session' is required"));
  }
  Status status = engine_->EndSession(session);
  if (!status.ok()) return ErrorResponse(status);
  Json response = Json::MakeObject();
  response.Set("ok", true);
  return response;
}

Json ApiService::HandleHealth() {
  Json response = Json::MakeObject();
  response.Set("ok", true);
  const auto loaded = engine_->runtime()->LoadedModels();
  response.Set("loaded_models", loaded.size());

  // Per-model resilience state. Models wrapped in llm::ResilientModel report
  // their circuit-breaker state and failure counters; a llm::HedgedModel
  // additionally reports hedge counters and per-replica latency percentiles
  // (the breaker inspected is the primary replica's). Plain models are
  // reported as "unmanaged" (no breaker in front of them).
  bool degraded = false;
  Json models = Json::MakeArray();
  for (const auto& name : loaded) {
    auto model = engine_->runtime()->registry()->Get(name);
    if (!model.ok()) continue;
    Json entry = Json::MakeObject();
    entry.Set("model", name);
    std::shared_ptr<llm::LanguageModel> target = *model;
    auto hedged = std::dynamic_pointer_cast<llm::HedgedModel>(target);
    if (hedged != nullptr) {
      const auto stats = hedged->stats();
      Json hedging = Json::MakeObject();
      hedging.Set("replicas", hedged->replica_count());
      hedging.Set("hedges_launched", stats.hedges_launched);
      hedging.Set("hedges_won", stats.hedges_won);
      hedging.Set("hedges_lost", stats.hedges_lost);
      hedging.Set("failovers", stats.failovers);
      hedging.Set("wasted_tokens", stats.wasted_tokens);
      hedging.Set("wasted_seconds", stats.wasted_seconds);
      // The adaptive-threshold loop (DESIGN.md §11): where the effective
      // percentile currently sits, its configured bounds, and how often the
      // reward feed has moved it.
      hedging.Set("adaptive", hedged->config().adapt);
      hedging.Set("effective_percentile", hedged->effective_percentile());
      if (hedged->config().adapt) {
        hedging.Set("min_percentile", hedged->config().min_percentile);
        hedging.Set("max_percentile", hedged->config().max_percentile);
        hedging.Set("adaptations", hedged->adaptations());
        hedging.Set("last_favour", hedged->last_favour());
        // The reward feed's estimator (DESIGN.md §16): how the favours
        // driving this group's percentile are being averaged. 0 = lifetime
        // means.
        const auto feed_config = engine_->reward_feed()->config();
        hedging.Set("window_size", feed_config.window);
        hedging.Set("reward_half_life", feed_config.half_life);
      }
      Json latency = Json::MakeArray();
      for (const auto& replica : hedged->LatencySnapshot()) {
        Json sample = Json::MakeObject();
        sample.Set("model", replica.model);
        sample.Set("samples", replica.samples);
        sample.Set("p50_seconds", replica.p50);
        sample.Set("p95_seconds", replica.p95);
        latency.Append(std::move(sample));
      }
      hedging.Set("latency", std::move(latency));
      entry.Set("hedging", std::move(hedging));
      target = hedged->primary();  // the breaker sits inside the hedge layer
    }
    auto resilient = std::dynamic_pointer_cast<llm::ResilientModel>(target);
    if (resilient == nullptr) {
      entry.Set("circuit", "unmanaged");
    } else {
      const auto health = resilient->health();
      if (health.circuit != llm::CircuitBreaker::State::kClosed) {
        degraded = true;
      }
      entry.Set("circuit", llm::CircuitStateToString(health.circuit));
      entry.Set("consecutive_failures", health.consecutive_failures);
      entry.Set("total_failures", health.total_failures);
      entry.Set("fast_rejections", health.fast_rejections);
      entry.Set("start_retries", health.start_retries);
      entry.Set("chunk_retries", health.chunk_retries);
      entry.Set("deadlines_exceeded", health.deadlines_exceeded);
      entry.Set("stalls_detected", health.stalls_detected);
      entry.Set("backoff_seconds", health.backoff_seconds);
      entry.Set("breaker_call_clock",
                static_cast<size_t>(resilient->breaker().call_clock()));
      Json history = Json::MakeArray();
      for (const auto& transition : resilient->breaker().history()) {
        Json change = Json::MakeObject();
        change.Set("from", llm::CircuitStateToString(transition.from));
        change.Set("to", llm::CircuitStateToString(transition.to));
        change.Set("at_call", static_cast<size_t>(transition.at_call));
        history.Append(std::move(change));
      }
      entry.Set("circuit_history", std::move(history));
    }
    models.Append(std::move(entry));
  }
  response.Set("status", degraded ? "degraded" : "healthy");
  response.Set("models", std::move(models));

  // Placement block: where each model sits and what it reserves. A hedged
  // group shows the race headroom (hedge_extra_mb) the scheduler charged on
  // top of its steady-state footprint.
  Json placement = Json::MakeArray();
  for (const auto& info : engine_->runtime()->PlacementSnapshot()) {
    Json entry = Json::MakeObject();
    entry.Set("model", info.model);
    entry.Set("device", info.device);
    entry.Set("memory_mb", info.memory_mb);
    entry.Set("hedge_extra_mb", info.hedge_extra_mb);
    entry.Set("race_peak_mb", info.memory_mb + info.hedge_extra_mb);
    placement.Append(std::move(entry));
  }
  response.Set("placement", std::move(placement));

  // Serving-layer overload telemetry (queue depth, in-flight gauge, shed /
  // timeout / cancel counters), present when an HttpServer fronts this
  // service. Copied under the lock, invoked outside it: the fn only reads
  // shared atomic counters.
  ServerStatsFn stats_fn;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_fn = server_stats_;
  }
  if (stats_fn) response.Set("server", stats_fn());

  // Continuous-batching gauges (DESIGN.md §13), present when the runtime
  // has a BatchScheduler multiplexing queries over shared replicas.
  if (auto scheduler = engine_->runtime()->scheduler()) {
    const auto stats = scheduler->stats();
    Json batching = Json::MakeObject();
    batching.Set("replicas_per_model", stats.replicas_per_model);
    batching.Set("admitted_total", stats.admitted_total);
    batching.Set("finished_total", stats.finished_total);
    batching.Set("hedge_admitted_total", stats.hedge_admitted_total);
    batching.Set("expired_total", stats.expired_total);
    batching.Set("dispatches", stats.dispatches);
    batching.Set("rounds", stats.rounds);
    batching.Set("preempted_total", stats.preempted_total);
    batching.Set("runnable", stats.runnable);
    batching.Set("waiting", stats.waiting);
    batching.Set("running", stats.running);
    batching.Set("total_service_tokens", stats.total_service_tokens);
    batching.Set("fairness_index", stats.fairness_index);
    Json streams = Json::MakeArray();
    for (const auto& s : stats.streams) {
      Json stream = Json::MakeObject();
      stream.Set("id", static_cast<size_t>(s.id));
      stream.Set("model", s.model);
      stream.Set("weight", s.weight);
      stream.Set("hedge", s.hedge);
      stream.Set("virtual_time", s.virtual_time);
      stream.Set("service_tokens", s.service_tokens);
      stream.Set("chunks", s.chunks);
      stream.Set("preemptions", s.preemptions);
      stream.Set("running", s.running);
      streams.Append(std::move(stream));
    }
    batching.Set("streams", std::move(streams));
    Json replica_models = Json::MakeArray();
    for (const auto& m : stats.models) {
      Json entry = Json::MakeObject();
      entry.Set("model", m.model);
      entry.Set("replicas", m.replicas);
      double busy_max = 0.0;
      double busy_total = 0.0;
      for (double b : m.slot_busy_seconds) {
        busy_max = std::max(busy_max, b);
        busy_total += b;
      }
      entry.Set("slot_busy_seconds_max", busy_max);
      entry.Set("slot_busy_seconds_total", busy_total);
      replica_models.Append(std::move(entry));
    }
    batching.Set("models", std::move(replica_models));
    response.Set("scheduler", std::move(batching));
  }

  // Storage-plane telemetry (DESIGN.md §14): the state store's lifetime
  // save/cold-start counters plus the default filesystem's op counts.
  // `chaos` is true when LLMMS_IO_CHAOS put a fault-injecting filesystem
  // underneath — so operators can tell injected trouble from a genuinely
  // failing disk.
  {
    const auto& sc = GlobalStorageCounters();
    Json storage = Json::MakeObject();
    Json recovery = Json::MakeObject();
    recovery.Set("state_saves", sc.state_saves.load());
    recovery.Set("state_save_failures", sc.state_save_failures.load());
    recovery.Set("state_cold_starts", sc.state_cold_starts.load());
    storage.Set("recovery", std::move(recovery));

    FileSystem* fs = FileSystem::Default();
    const auto ops = fs->op_counts();
    Json io = Json::MakeObject();
    io.Set("opens", ops.opens);
    io.Set("appends", ops.appends);
    io.Set("bytes_appended", ops.bytes_appended);
    io.Set("syncs", ops.syncs);
    io.Set("dir_syncs", ops.dir_syncs);
    io.Set("reads", ops.reads);
    io.Set("renames", ops.renames);
    io.Set("removes", ops.removes);
    io.Set("injected_faults", ops.injected_faults);
    io.Set("read_corruptions", ops.read_corruptions);
    storage.Set("io", std::move(io));
    storage.Set("chaos", fs->injects_faults());

    if (state_store_ != nullptr) {
      Json state = Json::MakeObject();
      state.Set("path", state_store_->path());
      state.Set("load_warning", state_store_->load_warning());
      storage.Set("state_store", std::move(state));
    }
    response.Set("storage", std::move(storage));
  }

  // Vector-database gauges (DESIGN.md §15): one entry per collection with
  // its record count, lifetime query counter (QPS numerator) and
  // approximate vector memory.
  if (engine_->db() != nullptr) {
    Json collections = Json::MakeArray();
    size_t total_records = 0;
    uint64_t total_queries = 0;
    for (const auto& stats : engine_->db()->Stats()) {
      Json entry = Json::MakeObject();
      entry.Set("collection", stats.name);
      entry.Set("records", stats.records);
      entry.Set("queries", stats.queries);
      entry.Set("vector_bytes", stats.vector_bytes);
      total_records += stats.records;
      total_queries += stats.queries;
      collections.Append(std::move(entry));
    }
    Json vdb = Json::MakeObject();
    vdb.Set("collections", std::move(collections));
    vdb.Set("total_records", total_records);
    vdb.Set("total_queries", static_cast<size_t>(total_queries));
    response.Set("vectordb", std::move(vdb));
  }
  return response;
}

Json ApiService::HandleHardware() {
  Json devices = Json::MakeArray();
  for (const auto& t : engine_->runtime()->hardware()->Snapshot()) {
    Json device = Json::MakeObject();
    device.Set("name", t.name);
    device.Set("kind", t.kind == hardware::DeviceKind::kGpu ? "gpu" : "cpu");
    device.Set("memory_total_mb", t.memory_total_mb);
    device.Set("memory_used_mb", t.memory_used_mb);
    device.Set("active_jobs", t.active_jobs);
    device.Set("utilization", t.utilization);
    device.Set("temperature_c", t.temperature_c);
    devices.Append(std::move(device));
  }
  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("devices", std::move(devices));
  return response;
}

}  // namespace llmms::app
