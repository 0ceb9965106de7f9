// Failure injection: resource exhaustion, degenerate inputs, and mid-flight
// misuse. Every failure must surface as a typed Status — never a
// crash, hang, or silent wrong answer.

#include <gtest/gtest.h>

#include "llmms/core/oua.h"
#include "llmms/llm/synthetic_model.h"
#include "testutil.h"

namespace llmms {
namespace {

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
  {
    llm::ModelRuntime runtime(registry, hw, 2);
    ASSERT_TRUE(runtime.LoadModel("mistral:7b").ok());
    ASSERT_TRUE(runtime.LoadModel("qwen2:7b").ok());
    EXPECT_TRUE(runtime.LoadModel("llama3:8b").IsResourceExhausted());
  }
  // Destroying the runtime frees its capacity again.
  llm::ModelRuntime runtime(registry, hw, 2);
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
  // qwen2:7b is registered, but this runtime never loads it.
  llm::ModelRuntime runtime(world.registry, world.hardware, 2);
  ASSERT_TRUE(runtime.LoadModel("llama3:8b").ok());
  llm::GenerationRequest request;
  request.prompt = world.dataset[0].question;
  // One of the requested models is missing: the whole start must fail.
  auto generation =
      runtime.StartGeneration({"llama3:8b", "qwen2:7b"}, request);
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
