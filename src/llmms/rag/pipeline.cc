#include "llmms/rag/pipeline.h"

namespace llmms::rag {

StatusOr<std::unique_ptr<RagPipeline>> RagPipeline::Create(
    std::shared_ptr<vectordb::VectorDatabase> db,
    std::shared_ptr<const embedding::Embedder> embedder,
    const std::string& session_id, const Options& options) {
  if (session_id.empty()) {
    return Status::InvalidArgument("session_id must not be empty");
  }
  const std::string collection_name = "session-" + session_id;
  vectordb::Collection::Options copts;
  copts.dimension = embedder->dimension();
  copts.metric = vectordb::DistanceMetric::kCosine;
  LLMMS_ASSIGN_OR_RETURN(auto collection,
                         db->GetOrCreateCollection(collection_name, copts));
  auto store = std::make_unique<DocumentStore>(std::move(collection), embedder,
                                               Chunker(options.chunker));
  return std::unique_ptr<RagPipeline>(new RagPipeline(
      std::move(db), std::move(store), collection_name, options));
}

RagPipeline::RagPipeline(std::shared_ptr<vectordb::VectorDatabase> db,
                         std::unique_ptr<DocumentStore> store,
                         std::string collection_name, const Options& options)
    : db_(std::move(db)),
      store_(std::move(store)),
      collection_name_(std::move(collection_name)),
      options_(options),
      prompt_builder_(options.prompt) {}

StatusOr<size_t> RagPipeline::Upload(const std::string& document_id,
                                     const std::string& text) {
  return store_->AddDocument(document_id, text);
}

StatusOr<std::vector<RetrievedChunk>> RagPipeline::Retrieve(
    const std::string& query) const {
  if (store_->chunk_count() == 0) return std::vector<RetrievedChunk>{};
  LLMMS_ASSIGN_OR_RETURN(auto chunks,
                         store_->Retrieve(query, options_.top_k));
  std::vector<RetrievedChunk> kept;
  kept.reserve(chunks.size());
  for (auto& c : chunks) {
    if (c.score >= options_.min_score) kept.push_back(std::move(c));
  }
  return kept;
}

StatusOr<std::string> RagPipeline::BuildPrompt(const std::string& query,
                                               const std::string& history) const {
  LLMMS_ASSIGN_OR_RETURN(auto context, Retrieve(query));
  return prompt_builder_.Build(query, context, history);
}

Status RagPipeline::Expire() { return db_->DropCollection(collection_name_); }

}  // namespace llmms::rag
