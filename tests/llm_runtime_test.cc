#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "embedding_corpus.h"
#include "llmms/embedding/embedding_cache.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/llm/knowledge.h"
#include "llmms/vectordb/distance.h"
#include "llmms/llm/registry.h"
#include "llmms/llm/runtime.h"
#include "testutil.h"

namespace llmms::llm {
namespace {

TEST(KnowledgeBaseTest, LookupFindsMatchingItem) {
  auto world = testutil::MakeWorld();
  const auto& item = world.dataset[3];
  const QaItem* found = world.knowledge->Lookup(item.question);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, item.id);
}

TEST(KnowledgeBaseTest, LookupSurvivesPromptDecoration) {
  auto world = testutil::MakeWorld();
  const auto& item = world.dataset[5];
  const std::string decorated =
      "Conversation so far:\nuser: hello\n\nQuestion: " + item.question;
  const QaItem* found = world.knowledge->Lookup(decorated);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, item.id);
}

TEST(KnowledgeBaseTest, LookupRejectsOffTopicPrompts) {
  auto world = testutil::MakeWorld();
  EXPECT_EQ(world.knowledge->Lookup("zzz qqq completely unrelated blorp",
                                    /*min_similarity=*/0.3),
            nullptr);
}

TEST(KnowledgeBaseTest, FindByIdAndValidation) {
  auto world = testutil::MakeWorld();
  EXPECT_NE(world.knowledge->FindById(world.dataset[0].id), nullptr);
  EXPECT_EQ(world.knowledge->FindById("no-such-id"), nullptr);
  KnowledgeBase kb(world.embedder);
  QaItem empty;
  EXPECT_TRUE(kb.Add(empty).IsInvalidArgument());
  EXPECT_EQ(kb.Lookup("anything"), nullptr);
}

// Counts every text it embeds; Embed and EmbedOnce both land in Embed.
class CountingEmbedder final : public embedding::Embedder {
 public:
  embedding::Vector Embed(std::string_view text) const override {
    ++calls_;
    return inner_.Embed(text);
  }
  size_t dimension() const override { return inner_.dimension(); }
  std::string name() const override { return "counting"; }
  int calls() const { return calls_.load(); }

 private:
  embedding::HashEmbedder inner_;
  mutable std::atomic<int> calls_{0};
};

TEST(KnowledgeBaseTest, RepeatedLookupEmbedsThePromptOnce) {
  auto world = testutil::MakeWorld();
  auto counter = std::make_shared<CountingEmbedder>();
  KnowledgeBase kb(counter);
  ASSERT_TRUE(kb.AddAll(world.dataset).ok());
  const int after_add = counter->calls();
  EXPECT_EQ(after_add, static_cast<int>(world.dataset.size()));
  const std::string prompt = "Question: " + world.dataset[2].question;
  for (int i = 0; i < 3; ++i) {
    const QaItem* found = kb.Lookup(prompt);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->id, world.dataset[2].id);
  }
  EXPECT_EQ(counter->calls(), after_add + 1);
}

TEST(KnowledgeBaseTest, AddAllAndLookupBypassTheEmbeddingCache) {
  auto world = testutil::MakeWorld();
  auto cache =
      std::make_shared<embedding::EmbeddingCache>(world.embedder, 4096);
  KnowledgeBase kb(cache);
  ASSERT_TRUE(kb.AddAll(world.dataset).ok());
  EXPECT_EQ(kb.Lookup(world.dataset[0].question)->id, world.dataset[0].id);
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_EQ(cache->hits(), 0u);
  EXPECT_EQ(cache->misses(), 0u);
}

// AddAll reserves once, resets the memo once and moves each question's
// vector into the index; every prompt must still resolve to the slot and
// the similarity that adding the items one by one gives.
TEST(KnowledgeBaseTest, AddAllResolvesLikeItemByItemAdd) {
  const auto dataset = eval::GenerateDataset(eval::DatasetOptions{});
  auto embedder = std::make_shared<embedding::HashEmbedder>();
  KnowledgeBase bulk(embedder);
  ASSERT_TRUE(bulk.AddAll(dataset).ok());
  KnowledgeBase one_by_one(embedder);
  for (const auto& item : dataset) ASSERT_TRUE(one_by_one.Add(item).ok());
  ASSERT_EQ(bulk.size(), one_by_one.size());

  auto prompts = testutil::MakeRagPrompts(dataset, 40, 0xADDA11ULL);
  for (const auto& item : dataset) prompts.push_back(item.question);
  const double kAny = -2.0;  // below every cosine similarity
  for (const auto& prompt : prompts) {
    const QaItem* want = one_by_one.Lookup(prompt, kAny);
    const QaItem* got = bulk.Lookup(prompt, kAny);
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    const auto slot = want - one_by_one.items().data();
    EXPECT_EQ(got - bulk.items().data(), slot) << prompt;
    // Lookup answers at min_similarity s iff its similarity is >= s, so
    // this pins both bases' similarity to the winning question's, computed
    // as FlatIndex computes it.
    const auto query = embedder->Embed(prompt);
    const auto row = embedder->Embed(want->question);
    const double similarity =
        1.0 - vectordb::Distance(vectordb::DistanceMetric::kCosine, query,
                                 vectordb::Norm(query), row,
                                 vectordb::Norm(row));
    const double above =
        std::nextafter(similarity, std::numeric_limits<double>::infinity());
    for (const KnowledgeBase* kb : {&bulk, &one_by_one}) {
      EXPECT_NE(kb->Lookup(prompt, similarity), nullptr) << prompt;
      EXPECT_EQ(kb->Lookup(prompt, above), nullptr) << prompt;
    }
  }
}

// The memo stores the best match before the min_similarity cut, so a
// memoized prompt answers every threshold exactly as a fresh base does.
TEST(KnowledgeBaseTest, MemoizedLookupMatchesFreshBaseAtEveryThreshold) {
  auto world = testutil::MakeWorld();
  KnowledgeBase memoized(world.embedder);
  ASSERT_TRUE(memoized.AddAll(world.dataset).ok());
  const std::vector<std::string> prompts{
      world.dataset[1].question,
      "Conversation so far:\nuser: hi\n\nQuestion: " +
          world.dataset[4].question,
      "zzz qqq completely unrelated blorp"};
  for (const auto& prompt : prompts) memoized.Lookup(prompt);
  for (const double min_similarity : {0.0, 0.1, 0.15, 0.3, 0.5, 0.7, 0.9,
                                      1.0}) {
    KnowledgeBase fresh(world.embedder);
    ASSERT_TRUE(fresh.AddAll(world.dataset).ok());
    for (const auto& prompt : prompts) {
      const QaItem* want = fresh.Lookup(prompt, min_similarity);
      const QaItem* got = memoized.Lookup(prompt, min_similarity);
      ASSERT_EQ(got == nullptr, want == nullptr)
          << prompt << " at " << min_similarity;
      if (want != nullptr) {
        EXPECT_EQ(got->id, want->id);
      }
    }
  }
}

TEST(KnowledgeBaseTest, LookupsBeyondTheMemoRingStayCorrect) {
  auto world = testutil::MakeWorld();
  ASSERT_GE(world.dataset.size(), 20u);
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < 20; ++i) {
      // Alternate two prompts per step so hits interleave with evictions.
      for (const size_t j : {i, (i * 7) % 20}) {
        const QaItem* found =
            world.knowledge->Lookup(world.dataset[j].question);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found->id, world.dataset[j].id) << pass << " " << j;
      }
    }
  }
}

TEST(KnowledgeBaseTest, AddInvalidatesMemoizedLookups) {
  auto world = testutil::MakeWorld();
  const QaItem& first = world.dataset[0];
  const QaItem& second = world.dataset[7];
  KnowledgeBase kb(world.embedder);
  ASSERT_TRUE(kb.Add(first).ok());
  const QaItem* before = kb.Lookup(second.question, /*min_similarity=*/0.0);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->id, first.id);
  ASSERT_TRUE(kb.Add(second).ok());
  const QaItem* after = kb.Lookup(second.question, /*min_similarity=*/0.0);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->id, second.id);
}

TEST(ModelRegistryTest, RegisterGetRemove) {
  auto world = testutil::MakeWorld();
  EXPECT_EQ(world.registry->size(), 3u);
  EXPECT_TRUE(world.registry->Contains("llama3:8b"));
  auto model = world.registry->Get("mistral:7b");
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->name(), "mistral:7b");
  EXPECT_TRUE(world.registry->Get("nope").status().IsNotFound());
  EXPECT_TRUE(world.registry->Remove("nope").IsNotFound());
  ASSERT_TRUE(world.registry->Remove("qwen2:7b").ok());
  EXPECT_EQ(world.registry->size(), 2u);
}

TEST(ModelRegistryTest, DuplicateAndNullRegistrationsRejected) {
  auto world = testutil::MakeWorld();
  auto model = world.registry->Get("llama3:8b");
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(world.registry->Register(*model).IsAlreadyExists());
  EXPECT_TRUE(world.registry->Register(nullptr).IsInvalidArgument());
}

TEST(ModelRegistryTest, ListIsSorted) {
  auto world = testutil::MakeWorld();
  const auto names = world.registry->List();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "llama3:8b");
  EXPECT_EQ(names[1], "mistral:7b");
  EXPECT_EQ(names[2], "qwen2:7b");
}

TEST(ModelRuntimeTest, LoadReservesDeviceMemory) {
  auto world = testutil::MakeWorld();
  // The test world loads all three models in MakeWorld; together they need
  // ~14.6 GB of the 32 GB V100.
  const auto snapshot = world.hardware->Snapshot();
  uint64_t used = 0;
  for (const auto& t : snapshot) used += t.memory_used_mb;
  EXPECT_GT(used, 14000u);
  EXPECT_EQ(world.runtime->LoadedModels().size(), 3u);
  EXPECT_TRUE(world.runtime->IsLoaded("llama3:8b"));
}

TEST(ModelRuntimeTest, LoadTwiceIsNoop) {
  auto world = testutil::MakeWorld();
  const auto before = world.hardware->Snapshot();
  ASSERT_TRUE(world.runtime->LoadModel("llama3:8b").ok());
  const auto after = world.hardware->Snapshot();
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].memory_used_mb, after[i].memory_used_mb);
  }
}

TEST(ModelRuntimeTest, DestroyingTheRuntimeFreesMemory) {
  auto world = testutil::MakeWorld();
  const auto used = [&] {
    uint64_t total = 0;
    for (const auto& t : world.hardware->Snapshot()) {
      total += t.memory_used_mb;
    }
    return total;
  };
  const uint64_t used_before = used();
  EXPECT_GT(used_before, 0u);
  // Loaded models stay loaded for the runtime's life; their placements
  // release the reservations when it is destroyed.
  world.runtime.reset();
  EXPECT_EQ(used(), 0u);
}

TEST(ModelRuntimeTest, GenerateUnloadedModelFails) {
  auto world = testutil::MakeWorld();
  // qwen2:7b is registered, but this runtime never loads it.
  ModelRuntime runtime(world.registry, world.hardware, 2);
  GenerationRequest request;
  request.prompt = world.dataset[0].question;
  EXPECT_FALSE(runtime.IsLoaded("qwen2:7b"));
  EXPECT_TRUE(
      runtime.Generate("qwen2:7b", request).status().IsFailedPrecondition());
}

TEST(ModelRuntimeTest, StartGenerationValidatesInput) {
  auto world = testutil::MakeWorld();
  GenerationRequest request;
  request.prompt = world.dataset[0].question;
  EXPECT_TRUE(world.runtime->StartGeneration({}, request)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(world.runtime
                  ->StartGeneration({"llama3:8b", "llama3:8b"}, request)
                  .status()
                  .IsInvalidArgument());
}

TEST(ParallelGenerationTest, NextChunksRunsAllModels) {
  auto world = testutil::MakeWorld();
  GenerationRequest request;
  request.prompt = world.dataset[0].question;
  auto generation =
      world.runtime->StartGeneration(world.model_names, request);
  ASSERT_TRUE(generation.ok());
  std::vector<std::pair<std::string, size_t>> requests;
  for (const auto& m : world.model_names) requests.emplace_back(m, 8);
  auto batch = (*generation)->NextChunks(requests);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->errors.empty());
  EXPECT_EQ(batch->chunks.size(), 3u);
  for (const auto& [model, chunk] : batch->chunks) {
    EXPECT_LE(chunk.num_tokens, 8u);
    EXPECT_GT(chunk.num_tokens, 0u) << model;
  }
  EXPECT_EQ((*generation)->TotalTokens(),
            batch->chunks.at("llama3:8b").num_tokens +
                batch->chunks.at("mistral:7b").num_tokens +
                batch->chunks.at("qwen2:7b").num_tokens);
}

TEST(ParallelGenerationTest, UnknownModelRejected) {
  auto world = testutil::MakeWorld();
  GenerationRequest request;
  request.prompt = world.dataset[0].question;
  auto generation = world.runtime->StartGeneration({"llama3:8b"}, request);
  ASSERT_TRUE(generation.ok());
  EXPECT_TRUE((*generation)->NextChunk("mistral:7b", 4).status().IsNotFound());
  EXPECT_TRUE((*generation)->TextOf("nope").status().IsNotFound());
  EXPECT_TRUE((*generation)->StatsOf("nope").status().IsNotFound());
}

TEST(ParallelGenerationTest, SimulatedTimeUsesSlowestOfRound) {
  auto world = testutil::MakeWorld();
  GenerationRequest request;
  request.prompt = world.dataset[0].question;
  auto generation =
      world.runtime->StartGeneration(world.model_names, request);
  ASSERT_TRUE(generation.ok());
  std::vector<std::pair<std::string, size_t>> requests;
  for (const auto& m : world.model_names) requests.emplace_back(m, 8);
  ASSERT_TRUE((*generation)->NextChunks(requests).ok());
  // Parallel round: wall time must be <= the sum of per-model times.
  double sum = 0.0;
  for (const auto& m : world.model_names) {
    auto stats = (*generation)->StatsOf(m);
    ASSERT_TRUE(stats.ok());
    sum += stats->simulated_seconds;
  }
  EXPECT_GT((*generation)->SimulatedWallSeconds(), 0.0);
  EXPECT_LT((*generation)->SimulatedWallSeconds(), sum);
}

TEST(ParallelGenerationTest, DuplicateModelInOneRoundRejected) {
  // A model named twice in one NextChunks round would hand the same stream
  // to two concurrent pool tasks — reject it before any task is submitted.
  auto world = testutil::MakeWorld();
  GenerationRequest request;
  request.prompt = world.dataset[0].question;
  auto generation =
      world.runtime->StartGeneration(world.model_names, request);
  ASSERT_TRUE(generation.ok());
  auto batch = (*generation)->NextChunks(
      {{"llama3:8b", 8}, {"mistral:7b", 8}, {"llama3:8b", 8}});
  EXPECT_TRUE(batch.status().IsInvalidArgument());
  // The failed round charged nothing and generated nothing.
  EXPECT_EQ((*generation)->TotalTokens(), 0u);
  EXPECT_DOUBLE_EQ((*generation)->SimulatedWallSeconds(), 0.0);
}

// The head-of-line accounting invariant (DESIGN.md §13): a round's
// wall-clock charge is the max over the streams actually scheduled in it.
// Models that are idle this round — not requested — contribute nothing,
// with and without a BatchScheduler multiplexing the replicas underneath.
void ExpectRoundChargesOnlyScheduledStreams(llm::ModelRuntime* runtime,
                                            const testutil::World& world) {
  GenerationRequest request;
  request.prompt = world.dataset[1].question;
  auto generation = runtime->StartGeneration(world.model_names, request);
  ASSERT_TRUE(generation.ok());

  // Round 1: only two of the three models are scheduled.
  const std::string idle = world.model_names[2];
  std::vector<std::pair<std::string, size_t>> partial = {
      {world.model_names[0], 8}, {world.model_names[1], 8}};
  auto batch = (*generation)->NextChunks(partial);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->errors.empty());

  double slowest = 0.0;
  for (const auto& [name, tokens] : partial) {
    auto stats = (*generation)->StatsOf(name);
    ASSERT_TRUE(stats.ok());
    slowest = std::max(slowest, stats->simulated_seconds);
  }
  // The idle model was never touched...
  auto idle_stats = (*generation)->StatsOf(idle);
  ASSERT_TRUE(idle_stats.ok());
  EXPECT_EQ(idle_stats->tokens, 0u);
  EXPECT_DOUBLE_EQ(idle_stats->simulated_seconds, 0.0);
  // ...and the round's wall-clock is exactly the slowest *scheduled*
  // stream, not inflated by idle replicas or unrequested models.
  EXPECT_DOUBLE_EQ((*generation)->SimulatedWallSeconds(), slowest);

  // Round 2: only the previously idle model runs; the wall advances by its
  // chunk alone.
  const double wall_before = (*generation)->SimulatedWallSeconds();
  auto second = (*generation)->NextChunks({{idle, 8}});
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->errors.empty());
  auto after = (*generation)->StatsOf(idle);
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ((*generation)->SimulatedWallSeconds(),
                   wall_before + after->simulated_seconds);
}

TEST(ParallelGenerationTest, RoundChargesOnlyScheduledStreams) {
  auto world = testutil::MakeWorld();
  ExpectRoundChargesOnlyScheduledStreams(world.runtime.get(), world);
}

TEST(ParallelGenerationTest, RoundChargesOnlyScheduledStreamsWithScheduler) {
  auto world = testutil::MakeWorld();
  SchedulerConfig config;
  config.replicas_per_model = 2;
  world.runtime->EnableScheduler(config);
  ExpectRoundChargesOnlyScheduledStreams(world.runtime.get(), world);
  // The scheduler saw the streams and released them all.
  const auto stats = world.runtime->scheduler()->stats();
  EXPECT_GT(stats.dispatches, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.waiting, 0u);
}

TEST(ParallelGenerationTest, GenerateToCompletionViaRuntime) {
  auto world = testutil::MakeWorld();
  GenerationRequest request;
  request.prompt = world.dataset[2].question;
  auto result = world.runtime->Generate("mistral:7b", request);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->num_tokens, 0u);
  EXPECT_EQ(result->stop_reason, StopReason::kStop);
  EXPECT_GT(result->simulated_seconds, 0.0);
  EXPECT_FALSE(result->text.empty());
}

}  // namespace
}  // namespace llmms::llm
