#include "llmms/tokenizer/word_tokenizer.h"

#include <gtest/gtest.h>

namespace llmms::tokenizer {
namespace {

TEST(WordTokenizerTest, DefaultLowercasesAndStripsPunctuation) {
  WordTokenizer tok;
  EXPECT_EQ(tok.Tokenize("Hello, World!"),
            (std::vector<std::string>{"hello", "world"}));
}

TEST(WordTokenizerTest, KeepsDigits) {
  WordTokenizer tok;
  EXPECT_EQ(tok.Tokenize("founded in 1842."),
            (std::vector<std::string>{"founded", "in", "1842"}));
}

TEST(WordTokenizerTest, RemoveArticlesOption) {
  WordTokenizer::Options opts;
  opts.remove_articles = true;
  WordTokenizer tok(opts);
  EXPECT_EQ(tok.Tokenize("The cat saw a dog and an owl"),
            (std::vector<std::string>{"cat", "saw", "dog", "and", "owl"}));
}

TEST(WordTokenizerTest, RemoveStopwordsOption) {
  WordTokenizer::Options opts;
  opts.remove_stopwords = true;
  WordTokenizer tok(opts);
  const auto tokens = tok.Tokenize("the mineral is heated in the lab");
  EXPECT_EQ(tokens, (std::vector<std::string>{"mineral", "heated", "lab"}));
}

TEST(WordTokenizerTest, EmptyAndPunctuationOnly) {
  WordTokenizer tok;
  EXPECT_TRUE(tok.Tokenize("").empty());
  EXPECT_TRUE(tok.Tokenize("... !!! ???").empty());
}

TEST(WordTokenizerTest, NormalizeJoinsWithSpaces) {
  WordTokenizer tok;
  EXPECT_EQ(tok.Normalize("A  B,   C!"), "a b c");
}

TEST(WordTokenizerTest, IsStopword) {
  EXPECT_TRUE(WordTokenizer::IsStopword("the"));
  EXPECT_TRUE(WordTokenizer::IsStopword("and"));
  EXPECT_FALSE(WordTokenizer::IsStopword("mineral"));
}

// Word bytes follow ASCII rules, not the process locale: bytes >= 0x80 end
// a word, digits stay, and only A-Z lower-case.
TEST(WordTokenizerTest, ClassifiesBytesByAsciiRules) {
  WordTokenizer tok;
  EXPECT_EQ(tok.Tokenize("Caf\xc3\xa9 ABC123 na\xefve \xff\x80X9"),
            (std::vector<std::string>{"caf", "abc123", "na", "ve", "x9"}));
  WordTokenizer::Options opts;
  opts.strip_punctuation = false;
  WordTokenizer keep_punctuation(opts);
  EXPECT_EQ(keep_punctuation.Tokenize("\xc3\x89T\xc3\xa9 R&D\tOK!"),
            (std::vector<std::string>{"\xc3\x89t\xc3\xa9", "r&d", "ok!"}));
}

TEST(WordTokenizerTest, TokenizeIntoViewsOneBuffer) {
  WordTokenizer::Options opts;
  opts.remove_articles = true;
  WordTokenizer tok(opts);
  const std::string_view text = "The Cat saw an OWL, a dog.";
  Scratch scratch;
  const auto words = tok.TokenizeInto(text, &scratch);
  ASSERT_EQ(std::vector<std::string_view>(words.begin(), words.end()),
            (std::vector<std::string_view>{"cat", "saw", "owl", "dog"}));
  // Lower-cased copies, back to back in one buffer, in text order.
  for (size_t i = 0; i + 1 < words.size(); ++i) {
    EXPECT_EQ(words[i].data() + words[i].size(), words[i + 1].data());
  }
  EXPECT_EQ(tok.Tokenize(text),
            (std::vector<std::string>{"cat", "saw", "owl", "dog"}));
}

TEST(SplitSentencesTest, SplitsOnTerminators) {
  const auto s = SplitSentences("First one. Second one! Third one?");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], "First one.");
  EXPECT_EQ(s[1], "Second one!");
  EXPECT_EQ(s[2], "Third one?");
}

TEST(SplitSentencesTest, KeepsAbbreviations) {
  const auto s = SplitSentences("Dr. Smith arrived. He was late.");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], "Dr. Smith arrived.");
}

TEST(SplitSentencesTest, KeepsDecimals) {
  const auto s = SplitSentences("The value is 3.14 exactly. Nice.");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], "The value is 3.14 exactly.");
}

TEST(SplitSentencesTest, TrailingTextWithoutTerminator) {
  const auto s = SplitSentences("Complete sentence. trailing fragment");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[1], "trailing fragment");
}

TEST(SplitSentencesTest, EmptyInput) {
  EXPECT_TRUE(SplitSentences("").empty());
  EXPECT_TRUE(SplitSentences("   ").empty());
}

}  // namespace
}  // namespace llmms::tokenizer
