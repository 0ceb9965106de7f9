#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <string>
#include <string_view>
#include <vector>

#include "llmms/embedding/embedding_cache.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/embedding/similarity.h"

namespace llmms::embedding {
namespace {

double Norm(const Vector& v) {
  double s = 0.0;
  for (float x : v) s += static_cast<double>(x) * x;
  return std::sqrt(s);
}

TEST(HashEmbedderTest, FixedDimensionUnitNorm) {
  HashEmbedder embedder;
  const auto v = embedder.Embed("the capital of France is Paris");
  EXPECT_EQ(v.size(), embedder.dimension());
  EXPECT_NEAR(Norm(v), 1.0, 1e-5);
}

TEST(HashEmbedderTest, EmptyTextIsZeroVector) {
  HashEmbedder embedder;
  const auto v = embedder.Embed("");
  EXPECT_NEAR(Norm(v), 0.0, 1e-9);
}

TEST(HashEmbedderTest, Deterministic) {
  HashEmbedder a;
  HashEmbedder b;
  EXPECT_EQ(a.Embed("some text here"), b.Embed("some text here"));
}

TEST(HashEmbedderTest, SimilarTextsCloserThanUnrelated) {
  HashEmbedder embedder;
  const auto query = embedder.Embed("what color does the mineral turn when heated");
  const auto related = embedder.Embed("the mineral turns crimson when heated");
  const auto unrelated = embedder.Embed("general zelkor won the naval battle in 1742");
  EXPECT_GT(CosineSimilarity(query, related),
            CosineSimilarity(query, unrelated) + 0.2);
}

TEST(HashEmbedderTest, ParaphraseSimilarity) {
  HashEmbedder embedder;
  const auto a = embedder.Embed("the city was founded in 1200");
  const auto b = embedder.Embed("its founding year is 1200 the city");
  const auto c = embedder.Embed("bananas are rich in potassium today");
  EXPECT_GT(CosineSimilarity(a, b), CosineSimilarity(a, c));
}

TEST(HashEmbedderTest, StopwordsContributeLess) {
  HashEmbedder embedder;
  const auto content = embedder.Embed("mineral crimson heated");
  const auto with_stops = embedder.Embed("the mineral is crimson and it is heated");
  EXPECT_GT(CosineSimilarity(content, with_stops), 0.6);
}

TEST(HashEmbedderTest, DifferentSeedsGiveDifferentSpaces) {
  HashEmbedder::Options a_opts;
  a_opts.seed = 1;
  HashEmbedder::Options b_opts;
  b_opts.seed = 2;
  HashEmbedder a(a_opts);
  HashEmbedder b(b_opts);
  EXPECT_NE(a.Embed("hello world"), b.Embed("hello world"));
}

TEST(HashEmbedderTest, NameIncludesDimension) {
  HashEmbedder::Options opts;
  opts.dimension = 128;
  HashEmbedder embedder(opts);
  EXPECT_EQ(embedder.name(), "hash-embedder-128");
  EXPECT_EQ(embedder.Embed("x").size(), 128u);
}

TEST(HashEmbedderTest, ZeroDimensionEmbedsAsTheEmptyVector) {
  HashEmbedder::Options opts;
  opts.dimension = 0;
  HashEmbedder embedder(opts);
  EXPECT_TRUE(embedder.Embed("the capital of France is Paris").empty());
  EXPECT_TRUE(embedder.Embed("").empty());
}

TEST(SimilarityTest, CosineBoundsAndIdentity) {
  HashEmbedder embedder;
  const auto v = embedder.Embed("identical text");
  EXPECT_NEAR(CosineSimilarity(v, v), 1.0, 1e-6);
  Vector zero(v.size(), 0.0f);
  EXPECT_EQ(CosineSimilarity(v, zero), 0.0);
}

TEST(L2NormalizeTest, NormalizesNonZero) {
  Vector v{3.0f, 4.0f};
  L2Normalize(&v);
  EXPECT_NEAR(v[0], 0.6f, 1e-6);
  EXPECT_NEAR(v[1], 0.8f, 1e-6);
  Vector zero{0.0f, 0.0f};
  L2Normalize(&zero);
  EXPECT_EQ(zero[0], 0.0f);
}

TEST(EmbeddingCacheTest, HitsAndMisses) {
  auto inner = std::make_shared<HashEmbedder>();
  EmbeddingCache cache(inner, 10);
  const auto v1 = cache.Embed("repeat me");
  const auto v2 = cache.Embed("repeat me");
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EmbeddingCacheTest, EvictsLeastRecentlyUsed) {
  auto inner = std::make_shared<HashEmbedder>();
  EmbeddingCache cache(inner, 2);
  cache.Embed("a");
  cache.Embed("b");
  cache.Embed("a");  // refresh a
  cache.Embed("c");  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  cache.Embed("a");
  EXPECT_EQ(cache.hits(), 2u);
  cache.Embed("b");  // must be a miss again
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(EmbeddingCacheTest, ZeroCapacityPassThrough) {
  auto inner = std::make_shared<HashEmbedder>();
  EmbeddingCache cache(inner, 0);
  EXPECT_EQ(cache.Embed("x"), inner->Embed("x"));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EmbeddingCacheTest, MatchesInnerEmbedderExactly) {
  auto inner = std::make_shared<HashEmbedder>();
  EmbeddingCache cache(inner, 100);
  for (const std::string text : {"one", "two", "three", "one"}) {
    EXPECT_EQ(cache.Embed(text), inner->Embed(text));
  }
  EXPECT_EQ(cache.name(), inner->name() + "+lru");
  EXPECT_EQ(cache.dimension(), inner->dimension());
}

TEST(EmbeddingCacheTest, ClearResetsEntries) {
  auto inner = std::make_shared<HashEmbedder>();
  EmbeddingCache cache(inner, 10);
  cache.Embed("x");
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

// The index keys are views of the cached entries' own strings. These cases
// cover both string layouts (short strings live inside the node, long ones
// on the heap) and every path that moves or frees a node.
const std::string kShortKey = "short key";  // fits the small-string buffer
const std::string kLongKey =
    "a long key that cannot fit in any small-string buffer, so it is "
    "stored on the heap";

TEST(EmbeddingCacheTest, ShortAndLongKeysHit) {
  auto inner = std::make_shared<HashEmbedder>();
  EmbeddingCache cache(inner, 10);
  ASSERT_LE(kShortKey.size(), 15u);
  ASSERT_GT(kLongKey.size(), 15u);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(cache.Embed(kShortKey), inner->Embed(kShortKey));
    EXPECT_EQ(cache.Embed(kLongKey), inner->Embed(kLongKey));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 4u);
}

TEST(EmbeddingCacheTest, EvictsByRecencyAfterHitsSplice) {
  auto inner = std::make_shared<HashEmbedder>();
  EmbeddingCache cache(inner, 3);
  cache.Embed(kShortKey);
  cache.Embed(kLongKey);
  cache.Embed("third");
  // Hits move the two oldest entries to the front, leaving "third" last.
  cache.Embed(kShortKey);
  cache.Embed(kLongKey);
  cache.Embed("fourth");  // evicts "third"
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.Embed(kShortKey), inner->Embed(kShortKey));
  EXPECT_EQ(cache.Embed(kLongKey), inner->Embed(kLongKey));
  EXPECT_EQ(cache.Embed("fourth"), inner->Embed("fourth"));
  EXPECT_EQ(cache.hits(), 5u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.Embed("third"), inner->Embed("third"));
  EXPECT_EQ(cache.misses(), 5u);
}

TEST(EmbeddingCacheTest, ReinsertsAfterEviction) {
  auto inner = std::make_shared<HashEmbedder>();
  EmbeddingCache cache(inner, 1);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(cache.Embed(kLongKey), inner->Embed(kLongKey));
    EXPECT_EQ(cache.Embed(kShortKey), inner->Embed(kShortKey));
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 6u);
  // The survivor of the last eviction is still found.
  EXPECT_EQ(cache.Embed(kShortKey), inner->Embed(kShortKey));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(EmbeddingCacheTest, IndexNeverViewsCallerMemory) {
  auto inner = std::make_shared<HashEmbedder>();
  EmbeddingCache cache(inner, 10);
  for (const std::string& text : {kShortKey, kLongKey}) {
    std::string buffer = text;
    const Vector expected = inner->Embed(text);
    EXPECT_EQ(cache.Embed(std::string_view(buffer)), expected);
    // Overwrite the caller's bytes in place, then free them.
    std::fill(buffer.begin(), buffer.end(), 'x');
    EXPECT_EQ(cache.Embed(std::string_view(buffer)), inner->Embed(buffer));
    buffer = std::string();
    buffer.shrink_to_fit();
    EXPECT_EQ(cache.Embed(text), expected);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(EmbeddingCacheTest, ReusableAfterClear) {
  auto inner = std::make_shared<HashEmbedder>();
  EmbeddingCache cache(inner, 2);
  cache.Embed(kShortKey);
  cache.Embed(kLongKey);
  cache.Clear();
  EXPECT_EQ(cache.Embed(kLongKey), inner->Embed(kLongKey));
  EXPECT_EQ(cache.Embed(kLongKey), inner->Embed(kLongKey));
  cache.Embed(kShortKey);
  cache.Embed("third");  // evicts kLongKey
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 5u);
}

// A fixed mix of repeats, evictions and re-inserts with the hit and miss
// counts the cache has always produced for it.
TEST(EmbeddingCacheTest, CountsForAFixedSequence) {
  auto inner = std::make_shared<HashEmbedder>();
  EmbeddingCache cache(inner, 3);
  const std::vector<std::string> texts = {"a", kLongKey, "b",       "a",
                                          kLongKey, "c", "a",       "b",
                                          kLongKey, kShortKey, "a", kShortKey,
                                          "c"};
  for (const auto& text : texts) cache.Embed(text);
  EXPECT_EQ(cache.hits(), 4u);
  EXPECT_EQ(cache.misses(), 9u);
  EXPECT_EQ(cache.size(), 3u);
}

}  // namespace
}  // namespace llmms::embedding
