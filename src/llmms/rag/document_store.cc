#include "llmms/rag/document_store.h"

#include <algorithm>

namespace llmms::rag {
namespace {

std::string ChunkRecordId(const std::string& document_id, size_t index) {
  return document_id + "#" + std::to_string(index);
}

}  // namespace

DocumentStore::DocumentStore(
    std::shared_ptr<vectordb::Collection> collection,
    std::shared_ptr<const embedding::Embedder> embedder, Chunker chunker)
    : collection_(std::move(collection)),
      embedder_(std::move(embedder)),
      chunker_(chunker) {}

StatusOr<size_t> DocumentStore::AddDocument(const std::string& document_id,
                                            const std::string& text) {
  if (document_id.empty()) {
    return Status::InvalidArgument("document_id must not be empty");
  }
  if (document_id.find('#') != std::string::npos) {
    return Status::InvalidArgument("document_id must not contain '#'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Replace semantics: drop any previous chunks of this document.
  if (std::find(document_ids_.begin(), document_ids_.end(), document_id) !=
      document_ids_.end()) {
    LLMMS_RETURN_NOT_OK(RemoveDocumentLocked(document_id));
  }

  // A chunk is embedded once: its vector lives in the collection, not in
  // an embedding cache.
  const auto chunks = chunker_.Chunk(text);
  for (const auto& chunk : chunks) {
    vectordb::VectorRecord record;
    record.id = ChunkRecordId(document_id, chunk.index);
    record.vector = embedder_->EmbedOnce(chunk.text);
    record.document = chunk.text;
    record.metadata["document_id"] = document_id;
    record.metadata["chunk_index"] = std::to_string(chunk.index);
    LLMMS_RETURN_NOT_OK(collection_->Upsert(std::move(record)));
  }
  document_ids_.push_back(document_id);
  return chunks.size();
}

Status DocumentStore::RemoveDocument(const std::string& document_id) {
  std::lock_guard<std::mutex> lock(mu_);
  return RemoveDocumentLocked(document_id);
}

Status DocumentStore::RemoveDocumentLocked(const std::string& document_id) {
  auto it = std::find(document_ids_.begin(), document_ids_.end(), document_id);
  if (it == document_ids_.end()) {
    return Status::NotFound("document '" + document_id + "' is not indexed");
  }
  for (size_t index = 0;; ++index) {
    const std::string id = ChunkRecordId(document_id, index);
    if (!collection_->Contains(id)) break;
    LLMMS_RETURN_NOT_OK(collection_->Delete(id));
  }
  document_ids_.erase(it);
  return Status::OK();
}

std::vector<std::string> DocumentStore::document_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  return document_ids_;
}

StatusOr<std::vector<RetrievedChunk>> DocumentStore::Retrieve(
    const std::string& query, size_t k, const std::string& document_id) const {
  vectordb::MetadataFilter filter;
  if (!document_id.empty()) filter["document_id"] = document_id;
  // A retrieval question is embedded for this query only and stays out of
  // a shared embedding cache. Questions repeat, so this spends one short
  // embed per query to keep each from holding a cached vector (DESIGN §15).
  LLMMS_ASSIGN_OR_RETURN(
      auto hits, collection_->Query(embedder_->EmbedOnce(query), k, filter));
  std::vector<RetrievedChunk> out;
  out.reserve(hits.size());
  for (auto& hit : hits) {
    RetrievedChunk chunk;
    chunk.document_id = hit.metadata["document_id"];
    chunk.chunk_index = static_cast<size_t>(
        std::strtoull(hit.metadata["chunk_index"].c_str(), nullptr, 10));
    chunk.text = std::move(hit.document);
    chunk.score = hit.score;
    out.push_back(std::move(chunk));
  }
  return out;
}

}  // namespace llmms::rag
