#include "llmms/llm/synthetic_model.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_set>

#include "llmms/common/rng.h"
#include "llmms/common/string_util.h"
#include "llmms/tokenizer/word_tokenizer.h"

namespace llmms::llm {
namespace {

// Hedging preambles (verbosity-gated), as word lists to keep token
// accounting exact.
const std::vector<std::vector<std::string>>& HedgePhrases() {
  static const auto* kPhrases = new std::vector<std::vector<std::string>>{
      {"let", "me", "think", "about", "this", "question", "carefully"},
      {"that", "is", "an", "interesting", "question"},
      {"based", "on", "my", "knowledge"},
      {"to", "answer", "this", "properly"},
      {"considering", "the", "available", "information"},
      {"this", "is", "a", "commonly", "asked", "question"},
  };
  return *kPhrases;
}

const std::vector<std::vector<std::string>>& AnswerTemplates() {
  // %A marks where the answer words are spliced in.
  static const auto* kTemplates = new std::vector<std::vector<std::string>>{
      {"%A"},
      {"the", "answer", "is", "%A"},
      {"in", "short", "%A"},
      {"simply", "put", "%A"},
  };
  return *kTemplates;
}

const std::vector<std::string>& FillerWords() {
  static const auto* kWords = new std::vector<std::string>{
      "generally", "overall",  "in",       "practice", "many",
      "people",    "consider", "this",     "topic",    "quite",
      "important", "to",       "understand", "clearly", "indeed",
      "often",     "commonly", "known",    "widely",   "discussed",
      "because",   "it",       "relates",  "closely",  "with",
      "several",   "other",    "ideas",    "and",      "concepts",
  };
  return *kWords;
}

const std::vector<std::string>& UnknownWords() {
  static const auto* kWords = new std::vector<std::string>{
      "i",      "am",    "not",     "entirely", "sure", "about",
      "this",   "one",   "it",      "is",       "hard", "to",
      "say",    "with",  "certainty", "without", "more", "context",
  };
  return *kWords;
}

std::vector<std::string> ContentWords(std::string_view text) {
  static const tokenizer::WordTokenizer::Options kOpts{
      .lowercase = true,
      .strip_punctuation = true,
      .remove_articles = true,
      .remove_stopwords = true,
  };
  static const tokenizer::WordTokenizer kTokenizer(kOpts);
  return kTokenizer.Tokenize(text);
}

std::vector<std::string> AllWords(std::string_view text) {
  static const tokenizer::WordTokenizer kTokenizer;
  return kTokenizer.Tokenize(text);
}

void AppendPhrase(const std::vector<std::string>& phrase,
                  std::vector<std::string>* out) {
  out->insert(out->end(), phrase.begin(), phrase.end());
}

// Fraction of `reference`'s content words that appear in `words`.
double ContentOverlap(const std::unordered_set<std::string>& words,
                      const std::vector<std::string>& reference) {
  if (reference.empty()) return 0.0;
  size_t found = 0;
  for (const auto& w : reference) {
    if (words.count(w) > 0) ++found;
  }
  return static_cast<double>(found) / static_cast<double>(reference.size());
}

// The stance half of a plan, which BuildPlan and PreviewStance share: the
// item the prompt resolves to (null: no knowledge, and nothing drawn), the
// effective competence, the drawn stance, and the question's content words
// with their set, which the elaboration reuses. `rng` is left where
// BuildPlan continues.
struct Stance {
  explicit Stance(uint64_t seed) : rng(seed) {}

  Rng rng;
  const QaItem* item = nullptr;
  double competence = 0.0;
  bool correct = false;
  std::vector<std::string> question_words;
  std::unordered_set<std::string> question_set;
};

Stance DrawStance(const ModelProfile& profile, const KnowledgeBase* knowledge,
                  std::string_view prompt, uint64_t request_seed) {
  Stance stance(profile.seed ^ HashBytes(prompt.data(), prompt.size()) ^
                MixHash64(request_seed + 1));
  stance.item = knowledge != nullptr ? knowledge->Lookup(prompt) : nullptr;
  if (stance.item == nullptr) return stance;
  const QaItem& item = *stance.item;

  // Effective competence: per-domain skill, jitter, and RAG uplift when the
  // prompt carries grounded context overlapping the golden answer beyond
  // what the bare question provides.
  double competence = profile.CompetenceFor(item.domain);
  competence += stance.rng.Normal(0.0, 0.05);

  const auto prompt_words_vec = ContentWords(prompt);
  const std::unordered_set<std::string> prompt_words(prompt_words_vec.begin(),
                                                     prompt_words_vec.end());
  stance.question_words = ContentWords(item.question);
  stance.question_set = std::unordered_set<std::string>(
      stance.question_words.begin(), stance.question_words.end());
  std::vector<std::string> golden_only;
  for (auto& w : ContentWords(item.golden)) {
    if (stance.question_set.count(w) == 0) golden_only.push_back(std::move(w));
  }
  if (!golden_only.empty() &&
      ContentOverlap(prompt_words, golden_only) >= 0.5) {
    competence = std::max(competence, profile.rag_uplift);
  }
  stance.competence = std::clamp(competence, 0.02, 0.98);
  stance.correct = stance.rng.Bernoulli(stance.competence);
  return stance;
}

// The stream over a pre-planned word sequence.
class SyntheticStream final : public GenerationStream {
 public:
  SyntheticStream(std::vector<std::string> words, StopReason natural_end,
                  size_t max_tokens)
      : words_(std::move(words)),
        natural_end_(natural_end),
        max_tokens_(max_tokens) {}

  StatusOr<Chunk> NextChunk(size_t max_tokens) override {
    if (max_tokens == 0) {
      return Status::InvalidArgument("NextChunk requires max_tokens > 0");
    }
    Chunk chunk;
    if (finished_) {
      chunk.done = true;
      chunk.stop_reason = stop_reason_;
      return chunk;
    }
    size_t budget = max_tokens;
    if (max_tokens_ > 0) {
      budget = std::min(budget, max_tokens_ - emitted_);
    }
    const size_t available = words_.size() - position_;
    const size_t n = std::min(budget, available);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) chunk.text += ' ';
      chunk.text += words_[position_ + i];
    }
    position_ += n;
    emitted_ += n;
    chunk.num_tokens = n;
    if (!chunk.text.empty()) {
      if (!text_.empty()) text_ += ' ';
      text_ += chunk.text;
    }

    if (position_ >= words_.size()) {
      finished_ = true;
      stop_reason_ = natural_end_;
    } else if (max_tokens_ > 0 && emitted_ >= max_tokens_) {
      finished_ = true;
      stop_reason_ = StopReason::kLength;
    }
    chunk.done = finished_;
    chunk.stop_reason = finished_ ? stop_reason_ : StopReason::kLength;
    return chunk;
  }

  const std::string& text() const override { return text_; }
  size_t tokens_generated() const override { return emitted_; }
  bool finished() const override { return finished_; }
  StopReason stop_reason() const override { return stop_reason_; }

 private:
  std::vector<std::string> words_;
  StopReason natural_end_;
  size_t max_tokens_;
  size_t position_ = 0;
  size_t emitted_ = 0;
  bool finished_ = false;
  StopReason stop_reason_ = StopReason::kLength;
  std::string text_;
};

}  // namespace

SyntheticModel::SyntheticModel(ModelProfile profile,
                               std::shared_ptr<const KnowledgeBase> knowledge)
    : profile_(std::move(profile)), knowledge_(std::move(knowledge)) {}

SyntheticModel::Plan SyntheticModel::BuildPlan(
    const GenerationRequest& request) const {
  Stance stance =
      DrawStance(profile_, knowledge_.get(), request.prompt, request.seed);
  Rng& rng = stance.rng;

  Plan plan;
  if (stance.item == nullptr) {
    // The model has no knowledge of this topic: hedge.
    AppendPhrase(UnknownWords(), &plan.words);
    const auto& filler = FillerWords();
    const int extra = static_cast<int>(
        std::lround(profile_.verbosity * rng.Uniform(4.0, 10.0)));
    for (int i = 0; i < extra; ++i) {
      plan.words.push_back(
          filler[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(filler.size()) - 1))]);
    }
    return plan;
  }
  const QaItem* item = stance.item;
  const double competence = stance.competence;
  const bool correct_stance = stance.correct;
  const auto& question_words = stance.question_set;

  // Choose the answer text.
  std::string answer_text;
  if (correct_stance) {
    if (!item->correct.empty() && rng.Bernoulli(0.4)) {
      answer_text = item->correct[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(item->correct.size()) - 1))];
    } else {
      answer_text = item->golden;
    }
  } else if (!item->incorrect.empty()) {
    answer_text = item->incorrect[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(item->incorrect.size()) - 1))];
  } else {
    answer_text = item->golden;  // degenerate item: nothing wrong to say
  }

  // Preamble (hedging) scaled by verbosity. Verbose models burn a
  // meaningful number of tokens before their answer appears — the situation
  // §8.4 identifies as adversarial for early pruning.
  const auto& hedges = HedgePhrases();
  int hedge_count = 0;
  if (profile_.verbosity > 0.2) {
    hedge_count = static_cast<int>(
        std::lround(rng.Uniform(0.0, profile_.verbosity * 2.0)));
  }
  for (int i = 0; i < hedge_count && i < 3; ++i) {
    AppendPhrase(hedges[static_cast<size_t>(rng.UniformInt(
                     0, static_cast<int64_t>(hedges.size()) - 1))],
                 &plan.words);
  }

  // Answer sentence.
  const auto& templates = AnswerTemplates();
  const auto& tmpl = templates[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(templates.size()) - 1))];
  for (const auto& word : tmpl) {
    if (word == "%A") {
      for (const auto& w : AllWords(answer_text)) plan.words.push_back(w);
    } else {
      plan.words.push_back(word);
    }
  }

  // Elaboration: verbosity-scaled sentences mixing topic, answer, filler,
  // and distractor vocabulary.
  const std::vector<std::string>& topic_pool = stance.question_words;
  // The discriminative part of the answer: its content words that the
  // question does not already contain. Repeating these is what creates
  // inter-model agreement among same-stance models (and divergence across
  // stances) at the embedding level.
  std::vector<std::string> answer_pool;
  for (const auto& w : ContentWords(answer_text)) {
    if (question_words.count(w) == 0) answer_pool.push_back(w);
  }
  if (answer_pool.empty()) answer_pool = ContentWords(answer_text);
  std::vector<std::string> distractor_pool;
  for (const auto& wrong : item->incorrect) {
    for (const auto& w : ContentWords(wrong)) {
      if (question_words.count(w) == 0) distractor_pool.push_back(w);
    }
  }
  const auto& filler_pool = FillerWords();

  const int num_sentences = static_cast<int>(
      std::lround(profile_.verbosity * rng.Uniform(2.0, 4.5)));
  for (int s = 0; s < num_sentences; ++s) {
    const int length = static_cast<int>(rng.UniformInt(7, 13));
    for (int w = 0; w < length; ++w) {
      // Pool weights: competent models stay on topic; weak or hallucinating
      // ones drift toward distractor vocabulary.
      // A model committed to a misconception elaborates the misconception:
      // wrong-stance responses draw heavily on the distractor vocabulary,
      // which is what lets the scorers (and Eq. 8.1) separate them.
      double distractor_w =
          (1.0 - competence) * 0.4 + profile_.hallucination_rate +
          (correct_stance ? 0.0 : 0.6);
      if (distractor_pool.empty()) distractor_w = 0.0;
      const double topic_w = topic_pool.empty() ? 0.0 : 0.20 + 0.25 * competence;
      const double answer_w = answer_pool.empty() ? 0.0 : 0.55;
      const double filler_w = 0.15;
      const size_t pool = rng.WeightedIndex(
          {topic_w, answer_w, filler_w, distractor_w});
      const std::vector<std::string>* source = nullptr;
      switch (pool) {
        case 0:
          source = &topic_pool;
          break;
        case 1:
          source = &answer_pool;
          break;
        case 2:
          source = &filler_pool;
          break;
        default:
          source = &distractor_pool;
          break;
      }
      if (source->empty()) source = &filler_pool;
      plan.words.push_back((*source)[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(source->size()) - 1))]);
    }
  }
  return plan;
}

StatusOr<std::unique_ptr<GenerationStream>> SyntheticModel::StartGeneration(
    const GenerationRequest& request) const {
  if (request.prompt.empty()) {
    return Status::InvalidArgument("prompt must not be empty");
  }
  Plan plan = BuildPlan(request);
  return std::unique_ptr<GenerationStream>(std::make_unique<SyntheticStream>(
      std::move(plan.words), plan.natural_end, request.max_tokens));
}

SyntheticModel::StancePreview SyntheticModel::PreviewStance(
    const std::string& prompt, uint64_t request_seed) const {
  const Stance stance =
      DrawStance(profile_, knowledge_.get(), prompt, request_seed);
  StancePreview preview;
  preview.has_knowledge = stance.item != nullptr;
  if (preview.has_knowledge) {
    preview.effective_competence = stance.competence;
    preview.correct = stance.correct;
  }
  return preview;
}

}  // namespace llmms::llm
