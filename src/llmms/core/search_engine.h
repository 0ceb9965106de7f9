#ifndef LLMMS_CORE_SEARCH_ENGINE_H_
#define LLMMS_CORE_SEARCH_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "llmms/core/hybrid.h"
#include "llmms/core/mab.h"
#include "llmms/core/orchestrator.h"
#include "llmms/core/oua.h"
#include "llmms/core/reward_feed.h"
#include "llmms/core/single.h"
#include "llmms/llm/runtime.h"
#include "llmms/rag/pipeline.h"
#include "llmms/session/memory_graph.h"
#include "llmms/session/session_store.h"
#include "llmms/vectordb/database.h"

namespace llmms::core {

// Which orchestration strategy answers a query (the settings panel's
// algorithm selector, §5.3).
enum class Algorithm { kOua, kMab, kHybrid, kSingle };

const char* AlgorithmToString(Algorithm algorithm);

// LLM-MS: the end-to-end multi-model search engine. One facade wires the
// whole platform together — session store (context continuity), RAG pipeline
// (vector-database context), model runtime (parallel inference), and the
// orchestration strategies — behind Ask()/Upload() calls, mirroring the
// query lifecycle of Chapter 6.
class SearchEngine {
 public:
  // The shared orchestrator fields (weights, token budget, deadline context,
  // scheduler weight) come from QueryConfig and pass through unchanged.
  struct QueryOptions : QueryConfig {
    Algorithm algorithm = Algorithm::kOua;
    // Model for Algorithm::kSingle; must be loaded.
    std::string single_model;
    // Models to orchestrate over; empty = every loaded model.
    std::vector<std::string> models;
    // Feed-prior re-ranking for MAB/hybrid arms (DESIGN.md §16): how many
    // virtual pulls of the engine feed's current estimate each arm starts
    // with. 0 keeps the per-query UCB cold start (the default).
    double feed_prior_weight = 0.0;
    bool use_rag = true;      // inject retrieved document context
    bool use_history = true;  // inject session conversation context
    // Contextual memory graphs (§9.5): recall related past exchanges from
    // the session's memory graph and inject them alongside the history.
    bool use_memory_graph = false;
  };

  struct AskResult {
    OrchestrationResult orchestration;
    std::string prompt;          // the fully constructed model prompt
    size_t retrieved_chunks = 0; // context chunks injected
    size_t recalled_memories = 0;  // memory-graph exchanges injected
  };

  // `runtime` must outlive the engine.
  SearchEngine(llm::ModelRuntime* runtime,
               std::shared_ptr<const embedding::Embedder> embedder,
               std::shared_ptr<vectordb::VectorDatabase> db,
               std::shared_ptr<session::SessionStore> sessions);

  // Ingests an uploaded document into the session's vector collection.
  StatusOr<size_t> Upload(const std::string& session_id,
                          const std::string& document_id,
                          const std::string& text);

  // Runs the full query lifecycle: retrieval -> prompt construction ->
  // orchestration -> session update. `callback` streams tokens/decisions.
  StatusOr<AskResult> Ask(const std::string& session_id,
                          const std::string& query,
                          const QueryOptions& options,
                          const EventCallback& callback = EventCallback());

  // Ends a session: drops its conversation state and vector collection
  // (the privacy lifecycle of §6.5).
  Status EndSession(const std::string& session_id);

  llm::ModelRuntime* runtime() { return runtime_; }
  const std::shared_ptr<session::SessionStore>& sessions() const {
    return sessions_;
  }
  const std::shared_ptr<vectordb::VectorDatabase>& db() const { return db_; }

  // The engine-lifetime reward bus of the adaptive-hedging loop
  // (DESIGN.md §11). The constructor subscribes every loaded hedged model
  // with HedgeConfig::adapt, and Ask() hands the feed to each
  // OUA/MAB/hybrid run so their scores accumulate across queries (the loop
  // learns the pool's pecking order over a session, not per query). Models
  // without adaptation never subscribe, so for them the feed is inert.
  RewardFeed* reward_feed() { return &reward_feed_; }

 private:
  StatusOr<rag::RagPipeline*> PipelineFor(const std::string& session_id);
  session::MemoryGraph* MemoryFor(const std::string& session_id);

  llm::ModelRuntime* runtime_;
  RewardFeed reward_feed_;
  std::shared_ptr<const embedding::Embedder> embedder_;
  std::shared_ptr<vectordb::VectorDatabase> db_;
  std::shared_ptr<session::SessionStore> sessions_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<rag::RagPipeline>> pipelines_;
  std::unordered_map<std::string, std::unique_ptr<session::MemoryGraph>>
      memories_;
};

}  // namespace llmms::core

#endif  // LLMMS_CORE_SEARCH_ENGINE_H_
