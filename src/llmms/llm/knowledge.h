#ifndef LLMMS_LLM_KNOWLEDGE_H_
#define LLMMS_LLM_KNOWLEDGE_H_

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/embedding/embedder.h"
#include "llmms/vectordb/flat_index.h"

namespace llmms::llm {

// One question with TruthfulQA-style reference answers: a single golden
// (best) answer, additional acceptable answers, and plausible-but-wrong
// answers. This struct is shared between the synthetic model substrate
// (as its "training data") and the evaluation module (as the benchmark).
struct QaItem {
  std::string id;
  std::string domain;  // e.g. "science", "history", ...
  std::string question;
  std::string golden;
  std::vector<std::string> correct;    // includes paraphrases of golden
  std::vector<std::string> incorrect;  // common misconceptions
};

// The world model the synthetic LLMs "were trained on": an embedding index
// over questions that resolves an arbitrary prompt (which may carry RAG
// context and conversation history around the question) to its QaItem.
//
// Every model of a query's pool looks up the same prompt, so Lookup keeps
// the last kMemoSize resolved prompts in a ring under its own mutex and
// resolves each prompt once. Prompts and questions are embedded with
// EmbedOnce and never enter a shared embedding cache. Add and AddAll must
// not run concurrently with Lookup.
class KnowledgeBase {
 public:
  explicit KnowledgeBase(std::shared_ptr<const embedding::Embedder> embedder);

  Status Add(QaItem item);
  // Adds `items` in order, as Add would one by one, and stops at the first
  // invalid item.
  Status AddAll(const std::vector<QaItem>& items);

  // Returns the best-matching item for `prompt`, or nullptr when the base is
  // empty or the best match is weaker than `min_similarity`.
  const QaItem* Lookup(std::string_view prompt,
                       double min_similarity = 0.15) const;

  const QaItem* FindById(std::string_view id) const;

  size_t size() const { return items_.size(); }
  const std::vector<QaItem>& items() const { return items_; }

 private:
  static constexpr size_t kMemoSize = 8;

  // A resolved prompt: its best-matching slot and that match's similarity,
  // before any min_similarity cut.
  struct Resolved {
    std::string prompt;
    vectordb::SlotId slot = 0;
    double similarity = 0.0;
  };

  // Embeds `item`'s question into the index and appends the item, leaving
  // the memo alone.
  Status Insert(QaItem item);
  void ResetMemo();

  std::shared_ptr<const embedding::Embedder> embedder_;
  std::vector<QaItem> items_;
  vectordb::FlatIndex index_;

  mutable std::mutex memo_mu_;
  mutable std::array<Resolved, kMemoSize> memo_;
  mutable size_t memo_size_ = 0;  // filled entries, at most kMemoSize
  mutable size_t memo_next_ = 0;  // the entry the next miss overwrites
};

}  // namespace llmms::llm

#endif  // LLMMS_LLM_KNOWLEDGE_H_
