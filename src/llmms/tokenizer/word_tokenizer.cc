#include "llmms/tokenizer/word_tokenizer.h"

#include <cctype>

#include "llmms/common/string_util.h"

namespace llmms::tokenizer {
namespace {

const std::unordered_set<std::string_view>& Stopwords() {
  static const auto* kSet = new std::unordered_set<std::string_view>{
      "a",    "an",   "the",  "is",   "are",  "was",  "were", "be",
      "been", "of",   "to",   "in",   "on",   "at",   "by",   "for",
      "with", "and",  "or",   "not",  "that", "this", "it",   "as",
      "from", "but",  "if",   "then", "than", "so",   "do",   "does",
      "did",  "can",  "will", "would", "there", "their", "they", "he",
      "she",  "his",  "her",  "its",  "we",   "you",  "i",    "my",
      "your", "our",  "them", "have", "has",  "had",  "what", "which",
      "who",  "when", "where", "why", "how",  "all",  "any",  "no",
      "nor",  "only", "own",  "same", "some", "such", "too",  "very",
  };
  return *kSet;
}

bool IsArticle(std::string_view w) {
  return w == "a" || w == "an" || w == "the";
}

bool IsAsciiAlnum(unsigned char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

bool IsAsciiSpace(unsigned char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

WordTokenizer::WordTokenizer(const Options& options) : options_(options) {}

std::vector<std::string> WordTokenizer::Tokenize(std::string_view text) const {
  Scratch scratch;
  const auto words = TokenizeInto(text, &scratch);
  return std::vector<std::string>(words.begin(), words.end());
}

ScratchVector<std::string_view> WordTokenizer::TokenizeInto(
    std::string_view text, Scratch* scratch) const {
  ScratchVector<std::string_view> words{
      ScratchAllocator<std::string_view>(scratch)};
  // Reserve once for every word start, so the views never regrow.
  size_t starts = 0;
  bool in_word = false;
  for (const char raw : text) {
    const bool word_byte = IsWordByte(static_cast<unsigned char>(raw));
    starts += word_byte && !in_word;
    in_word = word_byte;
  }
  words.reserve(starts);
  auto* buffer = static_cast<char*>(scratch->Allocate(text.size(), 1));
  char* word = buffer;
  char* end = buffer;
  const auto flush = [&]() {
    const std::string_view w(word, static_cast<size_t>(end - word));
    if (!w.empty() && Keep(w)) {
      words.push_back(w);
    } else {
      end = word;
    }
    word = end;
  };
  for (const char raw : text) {
    if (IsWordByte(static_cast<unsigned char>(raw))) {
      *end++ = options_.lowercase ? AsciiLower(raw) : raw;
    } else {
      flush();
    }
  }
  flush();
  return words;
}

bool WordTokenizer::IsWordByte(unsigned char c) const {
  return IsAsciiAlnum(c) || (!options_.strip_punctuation && !IsAsciiSpace(c));
}

bool WordTokenizer::Keep(std::string_view word) const {
  if (options_.remove_articles && IsArticle(word)) return false;
  return !(options_.remove_stopwords && IsStopword(word));
}

std::string WordTokenizer::Normalize(std::string_view text) const {
  return Join(Tokenize(text), " ");
}

bool WordTokenizer::IsStopword(std::string_view word) {
  return Stopwords().count(word) > 0;
}

std::vector<std::string> SplitSentences(std::string_view text) {
  static const auto* kAbbreviations = new std::unordered_set<std::string>{
      "mr", "mrs", "ms", "dr", "prof", "st", "vs", "etc", "eg", "ie", "fig",
  };
  std::vector<std::string> sentences;
  std::string current;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    current += c;
    if (c == '.' || c == '!' || c == '?') {
      // Look back for an abbreviation like "Dr." that should not split.
      if (c == '.') {
        size_t end = current.size() - 1;
        size_t start = end;
        while (start > 0 && std::isalpha(static_cast<unsigned char>(
                                current[start - 1]))) {
          --start;
        }
        const std::string word = ToLower(current.substr(start, end - start));
        if (kAbbreviations->count(word) > 0) continue;
        // Don't split decimal numbers like "3.14".
        if (i + 1 < text.size() &&
            std::isdigit(static_cast<unsigned char>(text[i + 1]))) {
          continue;
        }
      }
      const std::string trimmed = Trim(current);
      if (!trimmed.empty()) sentences.push_back(trimmed);
      current.clear();
    }
  }
  const std::string trimmed = Trim(current);
  if (!trimmed.empty()) sentences.push_back(trimmed);
  return sentences;
}

}  // namespace llmms::tokenizer
