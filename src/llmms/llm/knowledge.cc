#include "llmms/llm/knowledge.h"

namespace llmms::llm {

KnowledgeBase::KnowledgeBase(
    std::shared_ptr<const embedding::Embedder> embedder)
    : embedder_(std::move(embedder)),
      index_(embedder_->dimension(), vectordb::DistanceMetric::kCosine) {}

Status KnowledgeBase::Add(QaItem item) {
  const Status status = Insert(std::move(item));
  // A new item may match a memoized prompt better than its resolved slot.
  if (status.ok()) ResetMemo();
  return status;
}

Status KnowledgeBase::AddAll(const std::vector<QaItem>& items) {
  items_.reserve(items_.size() + items.size());
  Status status = Status::OK();
  for (const auto& item : items) {
    status = Insert(item);
    if (!status.ok()) break;
  }
  ResetMemo();
  return status;
}

Status KnowledgeBase::Insert(QaItem item) {
  if (item.question.empty()) {
    return Status::InvalidArgument("QaItem question must not be empty");
  }
  LLMMS_ASSIGN_OR_RETURN(auto slot,
                         index_.Add(embedder_->EmbedOnce(item.question)));
  (void)slot;  // slots are dense (VectorIndex::Add), matching items_ order
  items_.push_back(std::move(item));
  return Status::OK();
}

void KnowledgeBase::ResetMemo() {
  std::lock_guard<std::mutex> lock(memo_mu_);
  memo_size_ = 0;
  memo_next_ = 0;
}

const QaItem* KnowledgeBase::Lookup(std::string_view prompt,
                                    double min_similarity) const {
  if (items_.empty()) return nullptr;
  vectordb::SlotId slot = 0;
  double similarity = 0.0;
  bool memoized = false;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    for (size_t i = 0; i < memo_size_; ++i) {
      if (memo_[i].prompt == prompt) {
        slot = memo_[i].slot;
        similarity = memo_[i].similarity;
        memoized = true;
        break;
      }
    }
  }
  if (!memoized) {
    // Scan outside the lock; two threads missing on one prompt both scan
    // and resolve it identically.
    auto hits = index_.Search(embedder_->EmbedOnce(prompt), 1);
    if (!hits.ok() || hits->empty()) return nullptr;
    slot = hits->front().slot;
    similarity = 1.0 - hits->front().distance;
    std::lock_guard<std::mutex> lock(memo_mu_);
    Resolved& entry = memo_[memo_next_];
    entry.prompt.assign(prompt);
    entry.slot = slot;
    entry.similarity = similarity;
    memo_next_ = (memo_next_ + 1) % kMemoSize;
    if (memo_size_ < kMemoSize) ++memo_size_;
  }
  if (similarity < min_similarity) return nullptr;
  return &items_[slot];
}

const QaItem* KnowledgeBase::FindById(std::string_view id) const {
  for (const auto& item : items_) {
    if (item.id == id) return &item;
  }
  return nullptr;
}

}  // namespace llmms::llm
