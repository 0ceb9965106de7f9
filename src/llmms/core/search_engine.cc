#include "llmms/core/search_engine.h"

namespace llmms::core {

const char* AlgorithmToString(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kOua:
      return "oua";
    case Algorithm::kMab:
      return "mab";
    case Algorithm::kHybrid:
      return "hybrid";
    case Algorithm::kSingle:
      return "single";
  }
  return "unknown";
}

SearchEngine::SearchEngine(llm::ModelRuntime* runtime,
                           std::shared_ptr<const embedding::Embedder> embedder,
                           std::shared_ptr<vectordb::VectorDatabase> db,
                           std::shared_ptr<session::SessionStore> sessions)
    : runtime_(runtime),
      embedder_(std::move(embedder)),
      db_(std::move(db)),
      sessions_(std::move(sessions)) {
  // Close the adaptive-hedging loop: hedged models with HedgeConfig::adapt
  // follow the orchestrators' reward stream from the first query.
  AttachAdaptiveHedging(&reward_feed_, runtime_);
}

StatusOr<rag::RagPipeline*> SearchEngine::PipelineFor(
    const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pipelines_.find(session_id);
  if (it != pipelines_.end()) return it->second.get();
  LLMMS_ASSIGN_OR_RETURN(auto pipeline,
                         rag::RagPipeline::Create(db_, embedder_, session_id));
  rag::RagPipeline* raw = pipeline.get();
  pipelines_[session_id] = std::move(pipeline);
  return raw;
}

session::MemoryGraph* SearchEngine::MemoryFor(const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = memories_.find(session_id);
  if (it != memories_.end()) return it->second.get();
  auto graph = std::make_unique<session::MemoryGraph>(embedder_);
  session::MemoryGraph* raw = graph.get();
  memories_[session_id] = std::move(graph);
  return raw;
}

StatusOr<size_t> SearchEngine::Upload(const std::string& session_id,
                                      const std::string& document_id,
                                      const std::string& text) {
  LLMMS_ASSIGN_OR_RETURN(auto* pipeline, PipelineFor(session_id));
  return pipeline->Upload(document_id, text);
}

StatusOr<SearchEngine::AskResult> SearchEngine::Ask(
    const std::string& session_id, const std::string& query,
    const QueryOptions& options, const EventCallback& callback) {
  if (query.empty()) {
    return Status::InvalidArgument("query must not be empty");
  }
  // A request that is already dead on arrival does no retrieval work.
  if (options.context != nullptr) {
    LLMMS_RETURN_NOT_OK(options.context->Check());
  }
  LLMMS_ASSIGN_OR_RETURN(auto session, sessions_->GetOrCreate(session_id));

  // --- Stage 1-2 (§6.1-6.2): retrieval + prompt construction. ---
  AskResult result;
  std::string history;
  if (options.use_history) history = session->ContextText();
  session::MemoryGraph* memory = nullptr;
  if (options.use_memory_graph) {
    memory = MemoryFor(session_id);
    const auto recalled = memory->Recall(query, /*k=*/2);
    result.recalled_memories = recalled.size();
    for (const auto& r : recalled) {
      if (!history.empty()) history += "\n";
      history += "Related earlier exchange - user: " + r.node.question +
                 " assistant: " + r.node.answer;
    }
  }
  if (options.use_rag) {
    LLMMS_ASSIGN_OR_RETURN(auto* pipeline, PipelineFor(session_id));
    LLMMS_ASSIGN_OR_RETURN(auto chunks, pipeline->Retrieve(query));
    result.retrieved_chunks = chunks.size();
    result.prompt = rag::PromptBuilder().Build(query, chunks, history);
  } else {
    result.prompt = rag::PromptBuilder().Build(query, {}, history);
  }

  // --- Stage 3 (§6.3): dynamic model selection and token allocation. ---
  std::vector<std::string> models = options.models;
  if (models.empty()) models = runtime_->LoadedModels();
  if (models.empty()) {
    return Status::FailedPrecondition("no models loaded");
  }

  std::unique_ptr<Orchestrator> orchestrator;
  switch (options.algorithm) {
    case Algorithm::kOua: {
      OuaOrchestrator::Config config;
      static_cast<QueryConfig&>(config) = options;
      config.reward_feed = &reward_feed_;
      orchestrator = std::make_unique<OuaOrchestrator>(runtime_, models,
                                                       embedder_, config);
      break;
    }
    case Algorithm::kMab: {
      MabOrchestrator::Config config;
      static_cast<QueryConfig&>(config) = options;
      config.reward_feed = &reward_feed_;
      config.feed_prior_weight = options.feed_prior_weight;
      orchestrator = std::make_unique<MabOrchestrator>(runtime_, models,
                                                       embedder_, config);
      break;
    }
    case Algorithm::kHybrid: {
      HybridOrchestrator::Config config;
      static_cast<QueryConfig&>(config) = options;
      config.reward_feed = &reward_feed_;
      config.feed_prior_weight = options.feed_prior_weight;
      orchestrator = std::make_unique<HybridOrchestrator>(runtime_, models,
                                                          embedder_, config);
      break;
    }
    case Algorithm::kSingle: {
      std::string model = options.single_model;
      if (model.empty()) model = models.front();
      SingleModelOrchestrator::Config config;
      static_cast<QueryConfig&>(config) = options;
      orchestrator = std::make_unique<SingleModelOrchestrator>(
          runtime_, model, embedder_, config);
      break;
    }
  }

  LLMMS_ASSIGN_OR_RETURN(result.orchestration,
                         orchestrator->Run(result.prompt, callback));

  // --- Stage 5 (§6.5): session continuity. ---
  session->Append(session::Role::kUser, query);
  session->Append(session::Role::kAssistant, result.orchestration.answer);
  if (memory != nullptr) {
    LLMMS_RETURN_NOT_OK(
        memory->Add(query, result.orchestration.answer).status());
  }
  return result;
}

Status SearchEngine::EndSession(const std::string& session_id) {
  Status session_status = sessions_->Remove(session_id);
  std::unique_ptr<rag::RagPipeline> pipeline;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pipelines_.find(session_id);
    if (it != pipelines_.end()) {
      pipeline = std::move(it->second);
      pipelines_.erase(it);
    }
    memories_.erase(session_id);
  }
  if (pipeline != nullptr) {
    LLMMS_RETURN_NOT_OK(pipeline->Expire());
    return Status::OK();  // vector state gone; session removal best-effort
  }
  return session_status;
}

}  // namespace llmms::core
