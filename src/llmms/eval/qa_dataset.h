#ifndef LLMMS_EVAL_QA_DATASET_H_
#define LLMMS_EVAL_QA_DATASET_H_

#include <string>
#include <vector>

#include "llmms/llm/knowledge.h"

namespace llmms::eval {

// Generator options for the synthetic TruthfulQA-style benchmark.
//
// Each generated question has the dataset's defining structure: one golden
// (best) answer, several acceptable paraphrases, and several *plausible but
// wrong* answers that stay on topic (they reuse the question's entities) —
// the adversarial property that makes TruthfulQA hard for similarity-based
// scoring. Entities are deterministic pseudo-words, so questions are
// lexically distinct and embedding lookup is unambiguous.
struct DatasetOptions {
  size_t questions_per_domain = 50;
  uint64_t seed = 0x7A9E11ULL;
  // Subset of llm::CanonicalDomains() to draw from; empty = all.
  std::vector<std::string> domains;
};

// Generates a deterministic synthetic benchmark.
std::vector<llm::QaItem> GenerateDataset(const DatasetOptions& options);

// Builds multi-part questions by pairing items from `base` (the workload of
// the multi-agent pipeline, §9.5): "Q1 Also, Q2" with a combined golden
// answer, combined paraphrases, and half-right answers in the incorrect set
// (answering only one part well is not enough). Pairs are drawn
// deterministically from `seed`; at most `count` composites are produced.
std::vector<llm::QaItem> GenerateCompositeDataset(
    const std::vector<llm::QaItem>& base, size_t count,
    uint64_t seed = 0xC0117ULL);

}  // namespace llmms::eval

#endif  // LLMMS_EVAL_QA_DATASET_H_
