#ifndef LLMMS_RAG_DOCUMENT_STORE_H_
#define LLMMS_RAG_DOCUMENT_STORE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/embedding/embedder.h"
#include "llmms/rag/chunker.h"
#include "llmms/vectordb/collection.h"

namespace llmms::rag {

// A retrieved chunk with provenance.
struct RetrievedChunk {
  std::string document_id;
  size_t chunk_index = 0;
  std::string text;
  double score = 0.0;
};

// Ingestion + retrieval over one vector-database collection: documents are
// chunked, embedded, and upserted; queries are embedded and matched against
// the chunks (§6.2, §7.2 steps 2-3).
//
// Thread-safe: the HTTP server runs uploads into one session on several
// workers. Adds and removes of documents are serialized; retrieval runs
// beside them under the collection's own lock.
class DocumentStore {
 public:
  DocumentStore(std::shared_ptr<vectordb::Collection> collection,
                std::shared_ptr<const embedding::Embedder> embedder,
                Chunker chunker = Chunker());

  // Chunks and indexes `text` under `document_id`; re-adding an id replaces
  // its previous chunks. Returns the number of chunks indexed.
  StatusOr<size_t> AddDocument(const std::string& document_id,
                               const std::string& text);

  // Removes every chunk of a document.
  Status RemoveDocument(const std::string& document_id);

  // Top-k chunks for a query, optionally restricted to one document.
  StatusOr<std::vector<RetrievedChunk>> Retrieve(
      const std::string& query, size_t k,
      const std::string& document_id = "") const;

  size_t chunk_count() const { return collection_->size(); }
  std::vector<std::string> document_ids() const;

 private:
  Status RemoveDocumentLocked(const std::string& document_id);

  std::shared_ptr<vectordb::Collection> collection_;
  std::shared_ptr<const embedding::Embedder> embedder_;
  Chunker chunker_;
  // Held across a whole add or remove, so two uploads of one id cannot both
  // miss the lookup and leave a duplicate entry.
  mutable std::mutex mu_;
  std::vector<std::string> document_ids_;
};

}  // namespace llmms::rag

#endif  // LLMMS_RAG_DOCUMENT_STORE_H_
