#ifndef LLMMS_RAG_PIPELINE_H_
#define LLMMS_RAG_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/embedding/embedder.h"
#include "llmms/rag/document_store.h"
#include "llmms/rag/prompt_builder.h"
#include "llmms/vectordb/database.h"

namespace llmms::rag {

// End-to-end retrieval-augmented generation pipeline: one per user session.
// Owns a session-scoped collection in the vector database, a plain cosine
// kFlat Collection served by an exact scan (the paper stores session
// embeddings "temporarily in memory during the session", §1.4), ingests
// uploads, and turns (query, history) into an augmented prompt.
class RagPipeline {
 public:
  struct Options {
    size_t top_k = 3;
    // Chunks scoring below this are not worth injecting.
    double min_score = 0.1;
    Chunker::Options chunker;
    PromptBuilder::Options prompt;
  };

  // Creates (or reuses) the collection `session-<session_id>` in `db`.
  static StatusOr<std::unique_ptr<RagPipeline>> Create(
      std::shared_ptr<vectordb::VectorDatabase> db,
      std::shared_ptr<const embedding::Embedder> embedder,
      const std::string& session_id, const Options& options);
  static StatusOr<std::unique_ptr<RagPipeline>> Create(
      std::shared_ptr<vectordb::VectorDatabase> db,
      std::shared_ptr<const embedding::Embedder> embedder,
      const std::string& session_id) {
    return Create(std::move(db), std::move(embedder), session_id, Options());
  }

  // Ingests an uploaded document; returns the chunk count.
  StatusOr<size_t> Upload(const std::string& document_id,
                          const std::string& text);

  // Retrieves context and builds the model prompt. With no documents (or no
  // relevant chunk) the prompt is the bare query (plus history).
  StatusOr<std::string> BuildPrompt(const std::string& query,
                                    const std::string& history = "") const;

  // Retrieval only (for transparency overlays / tests).
  StatusOr<std::vector<RetrievedChunk>> Retrieve(const std::string& query) const;

  // Drops the session collection (the paper's "discarded immediately after
  // ... session expiration" lifecycle, §6.5).
  Status Expire();

  size_t chunk_count() const { return store_->chunk_count(); }
  std::vector<std::string> document_ids() const {
    return store_->document_ids();
  }
  const std::string& collection_name() const { return collection_name_; }

 private:
  RagPipeline(std::shared_ptr<vectordb::VectorDatabase> db,
              std::unique_ptr<DocumentStore> store, std::string collection_name,
              const Options& options);

  std::shared_ptr<vectordb::VectorDatabase> db_;
  std::unique_ptr<DocumentStore> store_;
  std::string collection_name_;
  Options options_;
  PromptBuilder prompt_builder_;
};

}  // namespace llmms::rag

#endif  // LLMMS_RAG_PIPELINE_H_
