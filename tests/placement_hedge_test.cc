// Placement regression tests for hedge-aware scheduling (DESIGN.md §11):
// a hedged group reserves its *peak* footprint — steady-state residency
// plus the largest backup replica, since a hedge race keeps two replicas
// resident — so a device that only fits the group between races is
// rejected and the load re-packs. Non-hedged placement must behave exactly
// as it did before the hedge-aware scheduler existed.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "llmms/app/service.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/hardware/placement.h"
#include "llmms/llm/hedged_model.h"
#include "llmms/llm/registry.h"
#include "llmms/llm/runtime.h"

namespace llmms {
namespace {

hardware::DeviceSpec Gpu(const std::string& name, uint64_t memory_mb) {
  hardware::DeviceSpec spec;
  spec.name = name;
  spec.kind = hardware::DeviceKind::kGpu;
  spec.memory_mb = memory_mb;
  spec.throughput_factor = 1.0;
  return spec;
}

// A model whose only interesting property is its memory footprint.
class SizedModel final : public llm::LanguageModel {
 public:
  SizedModel(std::string name, uint64_t memory_mb)
      : name_(std::move(name)), memory_mb_(memory_mb) {}
  const std::string& name() const override { return name_; }
  uint64_t memory_mb() const override { return memory_mb_; }
  double tokens_per_second() const override { return 10.0; }
  size_t context_window() const override { return 4096; }
  StatusOr<std::unique_ptr<llm::GenerationStream>> StartGeneration(
      const llm::GenerationRequest&) const override {
    return Status::Unimplemented("placement-only model");
  }

 private:
  std::string name_;
  uint64_t memory_mb_;
};

std::shared_ptr<llm::HedgedModel> MakeHedged(const std::string& name,
                                             uint64_t primary_mb,
                                             uint64_t backup_mb) {
  return std::make_shared<llm::HedgedModel>(
      std::make_shared<SizedModel>(name, primary_mb),
      std::vector<std::shared_ptr<llm::LanguageModel>>{
          std::make_shared<SizedModel>(name + ":backup", backup_mb)});
}

// ---------------------------------------------------------------------------
// HardwareManager::Place — the seed behaviour must be unchanged for plain
// loads.

TEST(PlacementTest, PlainLoadsPreferTheEmptiestGpuThenFallBackToCpu) {
  hardware::HardwareManager manager({Gpu("gpu-small", 6 * 1024),
                                     Gpu("gpu-big", 8 * 1024)});
  auto first = manager.Place(7 * 1024);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->device()->spec().name, "gpu-big");
  EXPECT_EQ((*first)->memory_mb(), 7u * 1024);
  EXPECT_EQ((*first)->hedge_extra_mb(), 0u);
  EXPECT_EQ((*first)->total_mb(), 7u * 1024);

  // gpu-big has 1 GB free, gpu-small 6 GB: no GPU fits, CPU catches it.
  auto second = manager.Place(7 * 1024);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->device()->spec().kind, hardware::DeviceKind::kCpu);
}

TEST(PlacementTest, OversizedPlainLoadKeepsTheSeedErrorMessage) {
  hardware::HardwareManager manager({Gpu("gpu-0", 8 * 1024)});
  auto placement = manager.Place(200 * 1024);  // beyond GPU and CPU fallback
  ASSERT_FALSE(placement.ok());
  EXPECT_EQ(placement.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(placement.status().message(),
            "no device can host a model of 204800 MB");
}

TEST(PlacementTest, HedgedPeakFootprintRepacksOntoTheCpu) {
  hardware::HardwareManager manager({Gpu("gpu-0", 10 * 1024)});
  hardware::Device* gpu = manager.device(0);
  ASSERT_EQ(gpu->spec().name, "gpu-0");
  hardware::Device* cpu = manager.device(1);  // auto-added fallback
  ASSERT_EQ(cpu->spec().kind, hardware::DeviceKind::kCpu);
  const uint64_t cpu_free = cpu->FreeMemoryMb();

  // Steady state alone (6 GB) fits the GPU…
  hardware::PlacementRequest request;
  request.memory_mb = 6 * 1024;
  request.hedge_extra_mb = 0;
  {
    auto steady = manager.Place(request);
    ASSERT_TRUE(steady.ok());
    EXPECT_EQ((*steady)->device(), gpu);
  }
  EXPECT_EQ(gpu->FreeMemoryMb(), 10u * 1024);  // RAII released it

  // …but the race peak (6 + 5 GB) does not: the load re-packs to the CPU
  // instead of taking a placement that would OOM on the first tail spike.
  request.hedge_extra_mb = 5 * 1024;
  auto hedged = manager.Place(request);
  ASSERT_TRUE(hedged.ok());
  EXPECT_EQ((*hedged)->device(), cpu);
  EXPECT_EQ((*hedged)->memory_mb(), 6u * 1024);
  EXPECT_EQ((*hedged)->hedge_extra_mb(), 5u * 1024);
  EXPECT_EQ((*hedged)->total_mb(), 11u * 1024);
  // The reservation covers the peak, not just the steady state.
  EXPECT_EQ(cpu->FreeMemoryMb(), cpu_free - 11 * 1024);
  hedged->reset();
  EXPECT_EQ(cpu->FreeMemoryMb(), cpu_free);
}

TEST(PlacementTest, UnplaceableRacePeakNamesTheHedgeHeadroom) {
  hardware::HardwareManager manager({Gpu("gpu-0", 10 * 1024)});
  hardware::PlacementRequest request;
  request.memory_mb = 90 * 1024;      // would fit the 96 GB CPU fallback…
  request.hedge_extra_mb = 20 * 1024; // …but not with the race headroom
  auto placement = manager.Place(request);
  ASSERT_FALSE(placement.ok());
  EXPECT_EQ(placement.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(placement.status().message().find("hedge-race headroom"),
            std::string::npos)
      << placement.status().message();

  // Proof the headroom is what rejected it: the steady state alone places.
  request.hedge_extra_mb = 0;
  EXPECT_TRUE(manager.Place(request).ok());
}

// ---------------------------------------------------------------------------
// ModelRuntime::LoadModel — the runtime detects hedged groups and charges
// the peak.

class HedgedRuntimePlacementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = std::make_shared<llm::ModelRegistry>();
    ASSERT_TRUE(
        registry_->Register(std::make_shared<SizedModel>("solo", 6 * 1024))
            .ok());
    ASSERT_TRUE(
        registry_->Register(MakeHedged("dup", 6 * 1024, 5 * 1024)).ok());
    hardware_ = std::make_shared<hardware::HardwareManager>(
        std::vector<hardware::DeviceSpec>{Gpu("gpu-0", 10 * 1024)});
    runtime_ = std::make_unique<llm::ModelRuntime>(registry_, hardware_,
                                                   /*num_threads=*/2);
  }

  std::shared_ptr<llm::ModelRegistry> registry_;
  std::shared_ptr<hardware::HardwareManager> hardware_;
  std::unique_ptr<llm::ModelRuntime> runtime_;
};

TEST_F(HedgedRuntimePlacementTest, RuntimeChargesThePeakForHedgedGroups) {
  // The plain 6 GB model fits the 10 GB GPU.
  ASSERT_TRUE(runtime_->LoadModel("solo").ok());
  auto snapshot = runtime_->PlacementSnapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].model, "solo");
  EXPECT_EQ(snapshot[0].device, "gpu-0");
  EXPECT_EQ(snapshot[0].hedge_extra_mb, 0u);
  // Destroying the runtime releases its placements.
  runtime_.reset();
  EXPECT_EQ(hardware_->device(0)->FreeMemoryMb(), 10u * 1024);
  runtime_ = std::make_unique<llm::ModelRuntime>(registry_, hardware_,
                                                 /*num_threads=*/2);

  // The hedged group has the same steady-state footprint, but its race
  // peak (6 + 5 GB) exceeds the GPU: the runtime re-packs it to the CPU.
  hardware::Device* cpu = hardware_->device(1);
  const uint64_t cpu_free = cpu->FreeMemoryMb();
  ASSERT_TRUE(runtime_->LoadModel("dup").ok());
  snapshot = runtime_->PlacementSnapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].model, "dup");
  EXPECT_EQ(snapshot[0].device, "cpu-fallback");
  EXPECT_EQ(snapshot[0].memory_mb, 6u * 1024);
  EXPECT_EQ(snapshot[0].hedge_extra_mb, 5u * 1024);
  EXPECT_EQ(cpu->FreeMemoryMb(), cpu_free - 11 * 1024);
  EXPECT_EQ(hardware_->device(0)->FreeMemoryMb(), 10u * 1024);

  // Destroying the runtime releases the full peak reservation.
  runtime_.reset();
  EXPECT_EQ(cpu->FreeMemoryMb(), cpu_free);
}

TEST_F(HedgedRuntimePlacementTest, SnapshotIsSortedByModelName) {
  ASSERT_TRUE(runtime_->LoadModel("solo").ok());
  ASSERT_TRUE(runtime_->LoadModel("dup").ok());
  auto snapshot = runtime_->PlacementSnapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].model, "dup");
  EXPECT_EQ(snapshot[1].model, "solo");
}

TEST_F(HedgedRuntimePlacementTest, HealthPlacementBlockShowsTheRacePeak) {
  ASSERT_TRUE(runtime_->LoadModel("solo").ok());
  ASSERT_TRUE(runtime_->LoadModel("dup").ok());

  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto sessions = std::make_shared<session::SessionStore>();
  auto embedder = std::make_shared<embedding::HashEmbedder>();
  core::SearchEngine engine(runtime_.get(), embedder, db, sessions);
  app::ApiService service(&engine);

  auto response = service.HandleHealth();
  ASSERT_TRUE(response["ok"].AsBool());
  const Json& placement = response["placement"];
  ASSERT_TRUE(placement.is_array());
  ASSERT_EQ(placement.Size(), 2u);

  const Json& dup = placement.At(0);  // sorted by model name
  EXPECT_EQ(dup["model"].AsString(), "dup");
  EXPECT_EQ(dup["device"].AsString(), "cpu-fallback");
  EXPECT_EQ(dup["memory_mb"].AsInt(), 6 * 1024);
  EXPECT_EQ(dup["hedge_extra_mb"].AsInt(), 5 * 1024);
  EXPECT_EQ(dup["race_peak_mb"].AsInt(), 11 * 1024);

  const Json& solo = placement.At(1);
  EXPECT_EQ(solo["model"].AsString(), "solo");
  EXPECT_EQ(solo["device"].AsString(), "gpu-0");
  EXPECT_EQ(solo["hedge_extra_mb"].AsInt(), 0);
  EXPECT_EQ(solo["race_peak_mb"].AsInt(), 6 * 1024);
}

}  // namespace
}  // namespace llmms
