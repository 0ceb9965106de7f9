#include <gtest/gtest.h>

#include "llmms/hardware/device.h"
#include "llmms/hardware/placement.h"

namespace llmms::hardware {
namespace {

DeviceSpec GpuSpec(const std::string& name, uint64_t memory_mb) {
  DeviceSpec spec;
  spec.name = name;
  spec.kind = DeviceKind::kGpu;
  spec.memory_mb = memory_mb;
  spec.throughput_factor = 1.0;
  return spec;
}

TEST(DeviceTest, MemoryReservationAccounting) {
  Device device(GpuSpec("gpu0", 1000));
  EXPECT_EQ(device.FreeMemoryMb(), 1000u);
  ASSERT_TRUE(device.ReserveMemory(600).ok());
  EXPECT_EQ(device.FreeMemoryMb(), 400u);
  EXPECT_TRUE(device.ReserveMemory(500).IsResourceExhausted());
  device.ReleaseMemory(600);
  EXPECT_EQ(device.FreeMemoryMb(), 1000u);
}

TEST(DeviceTest, ReleaseMoreThanUsedClampsToZero) {
  Device device(GpuSpec("gpu0", 1000));
  ASSERT_TRUE(device.ReserveMemory(100).ok());
  device.ReleaseMemory(5000);
  EXPECT_EQ(device.FreeMemoryMb(), 1000u);
}

TEST(DeviceTest, TelemetryTracksJobsAndTemperature) {
  Device device(GpuSpec("gpu0", 1000));
  auto idle = device.Telemetry();
  EXPECT_EQ(idle.active_jobs, 0);
  EXPECT_DOUBLE_EQ(idle.utilization, 0.0);
  EXPECT_NEAR(idle.temperature_c, 35.0, 1e-9);

  device.BeginJob();
  device.BeginJob();
  auto busy = device.Telemetry();
  EXPECT_EQ(busy.active_jobs, 2);
  EXPECT_GT(busy.utilization, 0.0);
  EXPECT_GT(busy.temperature_c, idle.temperature_c);

  device.EndJob();
  device.EndJob();
  device.EndJob();  // extra EndJob must not underflow
  EXPECT_EQ(device.Telemetry().active_jobs, 0);
}

TEST(HardwareManagerTest, AddsCpuFallbackAutomatically) {
  HardwareManager manager({GpuSpec("gpu0", 8000)});
  EXPECT_EQ(manager.device_count(), 2u);
  const auto snapshot = manager.Snapshot();
  bool has_cpu = false;
  for (const auto& t : snapshot) {
    has_cpu = has_cpu || t.kind == DeviceKind::kCpu;
  }
  EXPECT_TRUE(has_cpu);
}

TEST(HardwareManagerTest, PrefersGpuWithMostFreeMemory) {
  HardwareManager manager({GpuSpec("gpu0", 8000), GpuSpec("gpu1", 16000)});
  auto placement = manager.Place(4000);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ((*placement)->device()->spec().name, "gpu1");
}

TEST(HardwareManagerTest, FallsBackToCpuWhenGpusFull) {
  HardwareManager manager({GpuSpec("gpu0", 4000)});
  auto first = manager.Place(3500);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->device()->spec().kind, DeviceKind::kGpu);
  auto second = manager.Place(3500);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->device()->spec().kind, DeviceKind::kCpu);
}

TEST(HardwareManagerTest, PlacementReleasesOnDestruction) {
  HardwareManager manager({GpuSpec("gpu0", 4000)});
  {
    auto placement = manager.Place(3000);
    ASSERT_TRUE(placement.ok());
    EXPECT_EQ(manager.device(0)->FreeMemoryMb(), 1000u);
  }
  EXPECT_EQ(manager.device(0)->FreeMemoryMb(), 4000u);
}

TEST(HardwareManagerTest, NothingFitsAnywhere) {
  HardwareManager manager({GpuSpec("gpu0", 1000)});
  // CPU fallback has 96GB, so ask for more than that.
  auto placement = manager.Place(200ull * 1024);
  EXPECT_TRUE(placement.status().IsResourceExhausted());
}

TEST(HardwareManagerTest, SnapshotReportsReservationsAndJobs) {
  HardwareManager manager(
      {GpuSpec("gpu0", 8000), GpuSpec("gpu1", 16000)});
  ASSERT_TRUE(manager.device(0)->ReserveMemory(4000).ok());
  manager.device(1)->BeginJob();
  const auto snapshot = manager.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  uint64_t memory_total_mb = 0;
  for (const auto& t : snapshot) memory_total_mb += t.memory_total_mb;
  EXPECT_EQ(memory_total_mb, 8000u + 16000u + 96u * 1024u);
  EXPECT_EQ(snapshot[0].memory_used_mb, 4000u);
  EXPECT_EQ(snapshot[1].memory_used_mb, 0u);
  EXPECT_EQ(snapshot[2].kind, DeviceKind::kCpu);
  EXPECT_EQ(snapshot[2].memory_total_mb, 96u * 1024u);
  EXPECT_EQ(snapshot[0].active_jobs, 0);
  EXPECT_EQ(snapshot[1].active_jobs, 1);
  EXPECT_GT(snapshot[1].utilization, 0.0);
  EXPECT_GT(snapshot[1].temperature_c, 35.0);
  manager.device(1)->EndJob();
}

}  // namespace
}  // namespace llmms::hardware
