// Failure injection: IO errors, resource exhaustion, degenerate inputs, and
// mid-flight misuse. Every failure must surface as a typed Status — never a
// crash, hang, or silent wrong answer.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "llmms/core/oua.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/llm/synthetic_model.h"
#include "llmms/vectordb/database.h"
#include "testutil.h"

namespace llmms {
namespace {

TEST(IoFailureTest, VectorDatabaseSaveToUnwritablePath) {
  vectordb::VectorDatabase db;
  EXPECT_TRUE(db.Save("/nonexistent-dir/sub/file.bin").IsIOError());
  EXPECT_TRUE(vectordb::VectorDatabase::Load("/nonexistent-dir/db.bin")
                  .status()
                  .IsIOError());
}

TEST(IoFailureTest, DatasetSaveToUnwritablePath) {
  eval::DatasetOptions opts;
  opts.questions_per_domain = 1;
  const auto items = eval::GenerateDataset(opts);
  EXPECT_TRUE(
      eval::SaveDatasetJsonl(items, "/nonexistent-dir/d.jsonl").IsIOError());
}

// Saves a database holding one HNSW collection "c" of five 4-d records to
// `path` and returns the file's bytes.
std::string SaveSmallDatabase(const std::string& path) {
  vectordb::VectorDatabase db;
  vectordb::Collection::Options copts;
  copts.dimension = 4;
  std::string bytes;
  auto collection = db.CreateCollection("c", copts);
  EXPECT_TRUE(collection.ok());
  if (!collection.ok()) return bytes;
  for (int i = 0; i < 5; ++i) {
    vectordb::VectorRecord record;
    record.id = "r" + std::to_string(i);
    record.vector = {1.0f, 0.0f, 0.0f, static_cast<float>(i)};
    record.metadata["k"] = "v";
    record.document = "doc";
    EXPECT_TRUE((*collection)->Upsert(std::move(record)).ok());
  }
  EXPECT_TRUE(db.Save(path).ok());
  FILE* f = fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  fclose(f);
  return bytes;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite(bytes.data(), 1, bytes.size(), f);
  fclose(f);
}

TEST(IoFailureTest, TruncatedDatabaseFileRejected) {
  // Write a valid database, then truncate it at several byte offsets; every
  // truncation must be rejected cleanly.
  const std::string path = ::testing::TempDir() + "/trunc.bin";
  const std::string bytes = SaveSmallDatabase(path);
  ASSERT_GT(bytes.size(), 64u);
  for (size_t cut : {size_t{6}, size_t{20}, bytes.size() / 2,
                     bytes.size() - 3}) {
    const std::string truncated_path =
        ::testing::TempDir() + "/trunc_cut.bin";
    WriteBytes(truncated_path, bytes.substr(0, cut));
    auto loaded = vectordb::VectorDatabase::Load(truncated_path);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
    std::remove(truncated_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(IoFailureTest, OutOfRangeCollectionOptionsRejected) {
  // A collection header whose fields decode to values the indexes do not
  // support is corruption, reported as IOError; an hnsw_m of 2^40 used to
  // abort the process on the first insert's link-list reserve.
  const std::string path = ::testing::TempDir() + "/options.bin";
  const std::string bytes = SaveSmallDatabase(path);
  ASSERT_TRUE(vectordb::VectorDatabase::Load(path).ok());
  // Header: magic u32, version u32, collection count u64, name "c" (u64
  // length + 1 byte), then dimension u64, metric u32, index kind u32,
  // hnsw_m u64, ef_construction u64, ef_search u64.
  constexpr size_t kMetric = 4 + 4 + 8 + 8 + 1 + 8;
  constexpr size_t kIndexKind = kMetric + 4;
  constexpr size_t kM = kIndexKind + 4;
  constexpr size_t kEfConstruction = kM + 8;
  constexpr size_t kEfSearch = kEfConstruction + 8;
  struct Corruption {
    size_t offset;
    size_t width;
    uint64_t value;
  };
  for (const Corruption c : {Corruption{kMetric, 4, 3},
                             Corruption{kIndexKind, 4, 2},
                             Corruption{kM, 8, 0},
                             Corruption{kM, 8, uint64_t{1} << 40},
                             Corruption{kEfConstruction, 8, 0},
                             Corruption{kEfConstruction, 8, uint64_t{1} << 40},
                             Corruption{kEfSearch, 8, uint64_t{1} << 40}}) {
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + c.offset, &c.value, c.width);
    const std::string corrupt_path = ::testing::TempDir() + "/options_bad.bin";
    WriteBytes(corrupt_path, corrupt);
    auto loaded = vectordb::VectorDatabase::Load(corrupt_path);
    EXPECT_TRUE(loaded.status().IsIOError())
        << "offset " << c.offset << " value " << c.value << ": "
        << loaded.status().ToString();
    std::remove(corrupt_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(ResourceExhaustionTest, TinyGpuFallsBackThenExhausts) {
  auto embedder = std::make_shared<embedding::HashEmbedder>();
  auto knowledge = std::make_shared<llm::KnowledgeBase>(embedder);
  auto registry = std::make_shared<llm::ModelRegistry>();
  for (const auto& profile : llm::DefaultProfiles()) {
    ASSERT_TRUE(
        registry->Register(std::make_shared<llm::SyntheticModel>(profile,
                                                                 knowledge))
            .ok());
  }
  // GPU too small for any model; CPU fallback holds two of three.
  hardware::DeviceSpec tiny_gpu;
  tiny_gpu.name = "tiny";
  tiny_gpu.kind = hardware::DeviceKind::kGpu;
  tiny_gpu.memory_mb = 1000;
  hardware::DeviceSpec cpu;
  cpu.name = "cpu";
  cpu.kind = hardware::DeviceKind::kCpu;
  cpu.memory_mb = 10000;  // fits two ~4.5GB models, not three
  auto hw = std::make_shared<hardware::HardwareManager>(
      std::vector<hardware::DeviceSpec>{tiny_gpu, cpu});
  llm::ModelRuntime runtime(registry, hw, 2);

  ASSERT_TRUE(runtime.LoadModel("mistral:7b").ok());
  ASSERT_TRUE(runtime.LoadModel("qwen2:7b").ok());
  EXPECT_TRUE(runtime.LoadModel("llama3:8b").IsResourceExhausted());
  // Unloading frees capacity again.
  ASSERT_TRUE(runtime.UnloadModel("qwen2:7b").ok());
  EXPECT_TRUE(runtime.LoadModel("llama3:8b").ok());
}

TEST(DegenerateInputTest, ModelWithEmptyKnowledgeHedges) {
  auto embedder = std::make_shared<embedding::HashEmbedder>();
  auto empty_kb = std::make_shared<llm::KnowledgeBase>(embedder);
  llm::ModelProfile profile = llm::DefaultProfiles()[0];
  llm::SyntheticModel model(profile, empty_kb);
  llm::GenerationRequest request;
  request.prompt = "what is the capital of veldan";
  auto result = model.Generate(request);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->text.empty());
  EXPECT_EQ(result->stop_reason, llm::StopReason::kStop);
}

TEST(DegenerateInputTest, OrchestratorSurvivesNonsenseQuery) {
  auto world = testutil::MakeWorld(2);
  core::OuaOrchestrator orchestrator(world.runtime.get(), world.model_names,
                                     world.embedder, {});
  auto result = orchestrator.Run("qqq zzz blorp unknown entity xyzzy");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->answer.empty());  // hedged answers still returned
}

TEST(DegenerateInputTest, OrchestratorRejectsEmptyPrompt) {
  auto world = testutil::MakeWorld(2);
  core::OuaOrchestrator orchestrator(world.runtime.get(), world.model_names,
                                     world.embedder, {});
  EXPECT_FALSE(orchestrator.Run("").ok());
}

TEST(MisuseTest, GenerationWithUnloadedModelFailsAtomically) {
  auto world = testutil::MakeWorld(2);
  ASSERT_TRUE(world.runtime->UnloadModel("qwen2:7b").ok());
  llm::GenerationRequest request;
  request.prompt = world.dataset[0].question;
  // One of the requested models is missing: the whole start must fail.
  auto generation = world.runtime->StartGeneration(
      {"llama3:8b", "qwen2:7b"}, request);
  EXPECT_TRUE(generation.status().IsFailedPrecondition());
}

TEST(MisuseTest, RemovingRegisteredModelDoesNotBreakLoadedOne) {
  auto world = testutil::MakeWorld(2);
  // Loaded models hold their own reference; deregistering must not affect
  // in-flight service.
  ASSERT_TRUE(world.registry->Remove("mistral:7b").ok());
  llm::GenerationRequest request;
  request.prompt = world.dataset[0].question;
  auto result = world.runtime->Generate("mistral:7b", request);
  EXPECT_TRUE(result.ok());
}

TEST(MisuseTest, BudgetSmallerThanModelCountStillAnswers) {
  auto world = testutil::MakeWorld(2);
  core::OuaOrchestrator::Config config;
  config.token_budget = 2;  // less than one token per model
  config.chunk_tokens = 8;
  core::OuaOrchestrator orchestrator(world.runtime.get(), world.model_names,
                                     world.embedder, config);
  auto result = orchestrator.Run(world.dataset[0].question);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->total_tokens, 2u);
}

}  // namespace
}  // namespace llmms
