#ifndef LLMMS_TOKENIZER_WORD_TOKENIZER_H_
#define LLMMS_TOKENIZER_WORD_TOKENIZER_H_

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "llmms/common/scratch.h"

namespace llmms::tokenizer {

// Word-level tokenization with SQuAD-style normalization (lower-case, strip
// punctuation and articles). Used by the F1 metric and by components that
// reason about content words (summarizer, synthetic models).
class WordTokenizer {
 public:
  struct Options {
    bool lowercase = true;
    bool strip_punctuation = true;
    bool remove_articles = false;   // drop "a", "an", "the"
    bool remove_stopwords = false;  // drop a small English stopword list
  };

  WordTokenizer() : WordTokenizer(Options{}) {}
  explicit WordTokenizer(const Options& options);

  // Splits `text` into normalized tokens.
  std::vector<std::string> Tokenize(std::string_view text) const;

  // The one word rule, behind Tokenize: writes the normalized words of
  // `text` into one buffer in `scratch` and returns a view into it for each
  // word, in text order. Word bytes are classified by ASCII rules, whatever
  // the process locale: [0-9A-Za-z] are word bytes, and every other byte
  // (bytes >= 0x80 included) ends a word. Without strip_punctuation, every
  // byte but ASCII whitespace is a word byte. Lower-casing maps only A-Z.
  ScratchVector<std::string_view> TokenizeInto(std::string_view text,
                                               Scratch* scratch) const;

  // Convenience: tokens joined by single spaces.
  std::string Normalize(std::string_view text) const;

  // True if `word` (already lower-cased) is in the stopword list.
  static bool IsStopword(std::string_view word);

 private:
  bool IsWordByte(unsigned char c) const;
  // False for a word the options remove (articles, stopwords).
  bool Keep(std::string_view word) const;

  Options options_;
};

// Splits text into sentences on ., !, ? boundaries while keeping common
// abbreviations intact. Used by the chunker and the extractive summarizer.
std::vector<std::string> SplitSentences(std::string_view text);

}  // namespace llmms::tokenizer

#endif  // LLMMS_TOKENIZER_WORD_TOKENIZER_H_
