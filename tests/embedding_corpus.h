#ifndef LLMMS_TESTS_EMBEDDING_CORPUS_H_
#define LLMMS_TESTS_EMBEDDING_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "llmms/common/rng.h"
#include "llmms/llm/knowledge.h"
#include "llmms/rag/chunker.h"
#include "llmms/rag/prompt_builder.h"

namespace llmms::testutil {

// Seeded briefing document about `item`, shaped like an uploaded RAG
// document: a title naming the question, filler prose, and the golden
// answer at a seeded position.
inline std::string MakeBriefing(const llm::QaItem& item, Rng* rng) {
  static const char* const kFiller[] = {
      "The committee reviewed the records collected over several seasons.",
      "Further background appears in the appendix of this report.",
      "Observers compared the archival sources with recent measurements.",
      "The summary below was prepared for a general audience.",
      "Readers should consult the cited works for complete details.",
      "A second survey repeated the main observations a year later.",
      "Minor discrepancies between the sources are noted in the margins.",
  };
  constexpr int64_t kFillerCount = sizeof(kFiller) / sizeof(kFiller[0]);
  std::vector<std::string> sentences;
  const int64_t filler = rng->UniformInt(6, 10);
  for (int64_t i = 0; i < filler; ++i) {
    sentences.push_back(kFiller[rng->UniformInt(0, kFillerCount - 1)]);
  }
  const auto at = rng->UniformInt(0, static_cast<int64_t>(sentences.size()));
  sentences.insert(sentences.begin() + at, item.golden + ".");
  std::string text = "Briefing: " + item.question;
  for (const auto& s : sentences) text += " " + s;
  return text;
}

// `count` seeded RAG prompts over `dataset`: each wraps one item's question
// in the chunks of its briefing and of another item's, and every other
// prompt carries a conversation history.
inline std::vector<std::string> MakeRagPrompts(
    const std::vector<llm::QaItem>& dataset, size_t count, uint64_t seed) {
  Rng rng(seed);
  const rag::Chunker chunker;
  const rag::PromptBuilder builder;
  const auto pick = [&]() -> const llm::QaItem& {
    return dataset[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(dataset.size()) - 1))];
  };
  std::vector<std::string> prompts;
  for (size_t p = 0; p < count; ++p) {
    const llm::QaItem& item = pick();
    std::vector<rag::RetrievedChunk> context;
    for (const llm::QaItem* source : {&item, &pick()}) {
      for (auto& chunk : chunker.Chunk(MakeBriefing(*source, &rng))) {
        rag::RetrievedChunk retrieved;
        retrieved.document_id = source->id;
        retrieved.chunk_index = chunk.index;
        retrieved.text = std::move(chunk.text);
        context.push_back(std::move(retrieved));
      }
    }
    std::string history;
    if (p % 2 == 1) {
      history = "User: " + pick().question;
      history += "\nAssistant: " + pick().golden;
    }
    prompts.push_back(builder.Build(item.question, context, history));
  }
  return prompts;
}

}  // namespace llmms::testutil

#endif  // LLMMS_TESTS_EMBEDDING_CORPUS_H_
