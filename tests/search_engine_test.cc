#include "llmms/core/search_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "llmms/embedding/embedding_cache.h"
#include "testutil.h"

namespace llmms::core {
namespace {

class SearchEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = testutil::MakeWorld(6);
    db_ = std::make_shared<vectordb::VectorDatabase>();
    sessions_ = std::make_shared<session::SessionStore>();
    engine_ = std::make_unique<SearchEngine>(world_.runtime.get(),
                                             world_.embedder, db_, sessions_);
  }

  testutil::World world_;
  std::shared_ptr<vectordb::VectorDatabase> db_;
  std::shared_ptr<session::SessionStore> sessions_;
  std::unique_ptr<SearchEngine> engine_;
};

TEST_F(SearchEngineTest, AskAnswersWithDefaultOua) {
  SearchEngine::QueryOptions options;
  auto result = engine_->Ask("s1", world_.dataset[0].question, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->orchestration.answer.empty());
  EXPECT_FALSE(result->orchestration.best_model.empty());
  EXPECT_NE(result->prompt.find(world_.dataset[0].question),
            std::string::npos);
}

TEST_F(SearchEngineTest, RejectsEmptyQuery) {
  EXPECT_TRUE(
      engine_->Ask("s1", "", {}).status().IsInvalidArgument());
}

TEST_F(SearchEngineTest, AllAlgorithmsWork) {
  for (auto algorithm : {Algorithm::kOua, Algorithm::kMab, Algorithm::kHybrid,
                         Algorithm::kSingle}) {
    SearchEngine::QueryOptions options;
    options.algorithm = algorithm;
    auto result = engine_->Ask("s-algo", world_.dataset[1].question, options);
    ASSERT_TRUE(result.ok()) << AlgorithmToString(algorithm);
    EXPECT_FALSE(result->orchestration.answer.empty());
  }
}

TEST_F(SearchEngineTest, SingleAlgorithmUsesRequestedModel) {
  SearchEngine::QueryOptions options;
  options.algorithm = Algorithm::kSingle;
  options.single_model = "qwen2:7b";
  auto result = engine_->Ask("s1", world_.dataset[0].question, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->orchestration.best_model, "qwen2:7b");
}

TEST_F(SearchEngineTest, UploadFeedsRetrievalIntoPrompt) {
  const auto& item = world_.dataset[0];
  ASSERT_TRUE(engine_
                  ->Upload("s-rag", "notes",
                           "Background fact. " + item.golden +
                               " More background noise.")
                  .ok());
  SearchEngine::QueryOptions options;
  auto result = engine_->Ask("s-rag", item.question, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->retrieved_chunks, 0u);
  EXPECT_NE(result->prompt.find("Use the following context"),
            std::string::npos);
}

TEST_F(SearchEngineTest, RagCanBeDisabled) {
  const auto& item = world_.dataset[0];
  ASSERT_TRUE(engine_->Upload("s-norag", "notes", item.golden).ok());
  SearchEngine::QueryOptions options;
  options.use_rag = false;
  auto result = engine_->Ask("s-norag", item.question, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->retrieved_chunks, 0u);
  EXPECT_EQ(result->prompt.find("Use the following context"),
            std::string::npos);
}

TEST_F(SearchEngineTest, SessionHistoryCarriesIntoNextPrompt) {
  SearchEngine::QueryOptions options;
  auto first = engine_->Ask("s-hist", world_.dataset[0].question, options);
  ASSERT_TRUE(first.ok());
  auto second = engine_->Ask("s-hist", world_.dataset[1].question, options);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->prompt.find("Conversation so far"), std::string::npos);
  // The first question must be referenced in the second prompt's history.
  auto session = sessions_->Get("s-hist");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->message_count(), 4u);  // 2 turns x (user + assistant)
}

TEST_F(SearchEngineTest, HistoryCanBeDisabled) {
  SearchEngine::QueryOptions options;
  options.use_history = false;
  ASSERT_TRUE(engine_->Ask("s-nohist", world_.dataset[0].question, options).ok());
  auto second = engine_->Ask("s-nohist", world_.dataset[1].question, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->prompt.find("Conversation so far"), std::string::npos);
}

TEST_F(SearchEngineTest, EndSessionDropsStateAndCollection) {
  ASSERT_TRUE(engine_->Upload("s-end", "doc", "Some text to chunk.").ok());
  ASSERT_TRUE(engine_->Ask("s-end", world_.dataset[0].question, {}).ok());
  ASSERT_TRUE(engine_->EndSession("s-end").ok());
  EXPECT_TRUE(sessions_->Get("s-end").status().IsNotFound());
  EXPECT_TRUE(db_->GetCollection("session-s-end").status().IsNotFound());
}

TEST_F(SearchEngineTest, StreamCallbackReceivesFinalEvent) {
  bool saw_final = false;
  SearchEngine::QueryOptions options;
  auto result = engine_->Ask("s-stream", world_.dataset[0].question, options,
                             [&saw_final](const OrchestratorEvent& e) {
                               saw_final =
                                   saw_final || e.type == EventType::kFinal;
                             });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(saw_final);
}

TEST_F(SearchEngineTest, ExplicitModelSubsetHonored) {
  SearchEngine::QueryOptions options;
  options.models = {"mistral:7b", "qwen2:7b"};
  auto result = engine_->Ask("s-subset", world_.dataset[0].question, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->orchestration.per_model.size(), 2u);
  EXPECT_EQ(result->orchestration.per_model.count("llama3:8b"), 0u);
}

TEST_F(SearchEngineTest, MemoryGraphRecallsRelatedExchanges) {
  SearchEngine::QueryOptions options;
  options.use_memory_graph = true;
  options.use_history = false;  // isolate the memory-graph contribution
  // First exchange populates the graph.
  auto first = engine_->Ask("s-mem", world_.dataset[0].question, options);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->recalled_memories, 0u);
  // A re-ask of the same question must recall the earlier exchange and
  // inject it into the prompt.
  auto second = engine_->Ask("s-mem", world_.dataset[0].question, options);
  ASSERT_TRUE(second.ok());
  EXPECT_GE(second->recalled_memories, 1u);
  EXPECT_NE(second->prompt.find("Related earlier exchange"),
            std::string::npos);
}

TEST_F(SearchEngineTest, MemoryGraphOffByDefault) {
  ASSERT_TRUE(engine_->Ask("s-nomem", world_.dataset[0].question, {}).ok());
  auto second = engine_->Ask("s-nomem", world_.dataset[0].question, {});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->recalled_memories, 0u);
  EXPECT_EQ(second->prompt.find("Related earlier exchange"),
            std::string::npos);
}

// Scoring embeds the prompt and the responses query-scoped, and uploads
// and retrieval embed through EmbedOnce, so an engine over a shared
// EmbeddingCache leaves it untouched on plain and RAG queries alike and
// answers bit for bit like one over the bare embedder.
TEST(SearchEngineCacheTest, ScoringBypassesSharedCacheWithIdenticalAnswers) {
  auto cached_world = testutil::MakeWorld(6);
  auto bare_world = testutil::MakeWorld(6);
  auto cache = std::make_shared<embedding::EmbeddingCache>(
      cached_world.embedder, /*capacity=*/4096);
  SearchEngine cached(cached_world.runtime.get(), cache,
                      std::make_shared<vectordb::VectorDatabase>(),
                      std::make_shared<session::SessionStore>());
  SearchEngine bare(bare_world.runtime.get(), bare_world.embedder,
                    std::make_shared<vectordb::VectorDatabase>(),
                    std::make_shared<session::SessionStore>());

  const auto bits = [](double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  // A RAG session: uploads and retrieval embed around the cache too.
  for (size_t d = 0; d < 3; ++d) {
    const std::string id = "notes" + std::to_string(d);
    const std::string text = "Background fact. " +
                             cached_world.dataset[d].golden +
                             " More background noise.";
    ASSERT_TRUE(cached.Upload("s-rag", id, text).ok());
    ASSERT_TRUE(bare.Upload("s-rag", id, text).ok());
  }
  for (const bool rag : {false, true}) {
    for (auto algorithm : {Algorithm::kOua, Algorithm::kMab, Algorithm::kHybrid,
                           Algorithm::kSingle}) {
      SearchEngine::QueryOptions options;
      options.algorithm = algorithm;
      options.use_rag = rag;
      const std::string session = rag ? "s-rag" : "s-cache";
      for (size_t q = 0; q < 3; ++q) {
        const std::string& question = cached_world.dataset[q].question;
        auto a = cached.Ask(session, question, options);
        auto b = bare.Ask(session, question, options);
        ASSERT_TRUE(a.ok()) << AlgorithmToString(algorithm);
        ASSERT_TRUE(b.ok()) << AlgorithmToString(algorithm);
        EXPECT_EQ(a->retrieved_chunks, b->retrieved_chunks);
        if (rag) {
          EXPECT_GT(a->retrieved_chunks, 0u);
        }
        EXPECT_EQ(a->prompt, b->prompt);
        EXPECT_EQ(a->orchestration.answer, b->orchestration.answer);
        EXPECT_EQ(a->orchestration.best_model, b->orchestration.best_model);
        ASSERT_EQ(a->orchestration.per_model.size(),
                  b->orchestration.per_model.size());
        for (const auto& [model, outcome] : a->orchestration.per_model) {
          const ModelOutcome& other = b->orchestration.per_model.at(model);
          EXPECT_EQ(bits(outcome.final_score), bits(other.final_score))
              << AlgorithmToString(algorithm) << " " << model;
          EXPECT_EQ(bits(outcome.query_similarity),
                    bits(other.query_similarity))
              << AlgorithmToString(algorithm) << " " << model;
          EXPECT_EQ(bits(outcome.inter_similarity),
                    bits(other.inter_similarity))
              << AlgorithmToString(algorithm) << " " << model;
        }
      }
    }
  }
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_EQ(cache->hits(), 0u);
  EXPECT_EQ(cache->misses(), 0u);
}

TEST_F(SearchEngineTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmToString(Algorithm::kOua), "oua");
  EXPECT_STREQ(AlgorithmToString(Algorithm::kMab), "mab");
  EXPECT_STREQ(AlgorithmToString(Algorithm::kHybrid), "hybrid");
  EXPECT_STREQ(AlgorithmToString(Algorithm::kSingle), "single");
}

}  // namespace
}  // namespace llmms::core
