// Crash-at-every-syscall recovery harness for the storage plane
// (DESIGN.md §14). The stack's one durable file is llm::StateStore's: the
// sweep counts the I/O ops of a baseline load + save, then reruns it once
// per op index with FaultyFileSystem armed to kill the world exactly there,
// reopens through a clean filesystem (a process restart after a power cut),
// and asserts that the state file still holds the old snapshot or the new
// one, never a mixture. Plus failpoint unit tests: each injected fault
// fires, is typed, and is deterministic for a fixed seed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "llmms/common/fs.h"
#include "llmms/llm/state_store.h"

namespace llmms {
namespace {

// A fresh scratch directory per sweep iteration, so crash debris from one
// run can never leak into the next.
std::string FreshDir(const std::string& tag) {
  static int counter = 0;
  const std::string dir =
      ::testing::TempDir() + "/storage_chaos_" + tag + "_" +
      std::to_string(counter++);
  std::string cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

// ---------------------------------------------------------------------------
// FaultyFileSystem unit tests: each failpoint fires, is typed, and is
// deterministic for a fixed seed.
// ---------------------------------------------------------------------------

TEST(FaultyFileSystemTest, EnospcFailpointFiresWithTypedError) {
  RealFileSystem real;
  FsFaultConfig config;
  config.enospc_prob = 1.0;
  FaultyFileSystem faulty(&real, config);
  const std::string path = FreshDir("enospc") + "/f";
  auto file = faulty.OpenTrunc(path);
  ASSERT_TRUE(file.ok());
  Status status = (*file)->Append("hello");
  ASSERT_TRUE(status.IsIOError());
  EXPECT_NE(status.message().find("ENOSPC"), std::string::npos);
  EXPECT_GE(faulty.op_counts().injected_faults, 1u);
}

TEST(FaultyFileSystemTest, ShortWriteLandsAPrefixThenFails) {
  RealFileSystem real;
  FsFaultConfig config;
  config.short_write_prob = 1.0;
  FaultyFileSystem faulty(&real, config);
  const std::string path = FreshDir("short") + "/f";
  auto file = faulty.OpenTrunc(path);
  ASSERT_TRUE(file.ok());
  const std::string data(64, 'x');
  ASSERT_TRUE((*file)->Append(data).IsIOError());
  ASSERT_TRUE((*file)->Close().ok());
  auto on_disk = real.ReadFile(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_LT(on_disk->size(), data.size());  // a strict prefix landed
  EXPECT_EQ(*on_disk, data.substr(0, on_disk->size()));
}

TEST(FaultyFileSystemTest, SyncFailureIsTyped) {
  RealFileSystem real;
  FsFaultConfig config;
  config.sync_error_prob = 1.0;
  FaultyFileSystem faulty(&real, config);
  const std::string path = FreshDir("sync") + "/f";
  auto file = faulty.OpenTrunc(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("data").ok());
  EXPECT_TRUE((*file)->Sync().IsIOError());
}

TEST(FaultyFileSystemTest, LostRenameLeavesTargetUntouched) {
  RealFileSystem real;
  FsFaultConfig config;
  config.rename_error_prob = 1.0;
  FaultyFileSystem faulty(&real, config);
  const std::string dir = FreshDir("rename");
  ASSERT_TRUE(AtomicWriteFile(&real, dir + "/from", "new").ok());
  ASSERT_TRUE(AtomicWriteFile(&real, dir + "/to", "old").ok());
  EXPECT_TRUE(faulty.Rename(dir + "/from", dir + "/to").IsIOError());
  auto to = real.ReadFile(dir + "/to");
  ASSERT_TRUE(to.ok());
  EXPECT_EQ(*to, "old");
  EXPECT_TRUE(real.Exists(dir + "/from"));
}

TEST(FaultyFileSystemTest, ReadCorruptionFlipsExactlyOneBit) {
  RealFileSystem real;
  FsFaultConfig config;
  config.read_corrupt_prob = 1.0;
  FaultyFileSystem faulty(&real, config);
  const std::string dir = FreshDir("corrupt");
  const std::string data(128, 'a');
  ASSERT_TRUE(AtomicWriteFile(&real, dir + "/f", data).ok());
  auto read = faulty.ReadFile(dir + "/f");
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), data.size());
  size_t differing_bits = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>((*read)[i] ^ data[i]);
    while (diff != 0) {
      differing_bits += diff & 1u;
      diff >>= 1u;
    }
  }
  EXPECT_EQ(differing_bits, 1u);
  EXPECT_EQ(faulty.op_counts().read_corruptions, 1u);
}

TEST(FaultyFileSystemTest, SameSeedSameFaults) {
  for (int round = 0; round < 2; ++round) {
    std::vector<bool> outcomes[2];
    for (int run = 0; run < 2; ++run) {
      RealFileSystem real;
      FsFaultConfig config;
      config.seed = 0xABCD;
      config.write_error_prob = 0.3;
      FaultyFileSystem faulty(&real, config);
      const std::string path = FreshDir("det") + "/f";
      auto file = faulty.OpenTrunc(path);
      ASSERT_TRUE(file.ok());
      for (int i = 0; i < 32; ++i) {
        outcomes[run].push_back((*file)->Append("x").ok());
      }
    }
    EXPECT_EQ(outcomes[0], outcomes[1]);
  }
}

TEST(FaultyFileSystemTest, CrashPointHaltsTheWorld) {
  RealFileSystem real;
  FaultyFileSystem faulty(&real, {});
  faulty.ArmCrashPoint(2);
  const std::string dir = FreshDir("halt");
  auto f1 = faulty.OpenTrunc(dir + "/a");  // op 0
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE((*f1)->Append("x").ok());  // op 1
  EXPECT_TRUE((*f1)->Append("y").IsIOError());  // op 2: the crash
  EXPECT_TRUE(faulty.crashed());
  EXPECT_TRUE(faulty.OpenTrunc(dir + "/b").status().IsIOError());
  EXPECT_TRUE(faulty.ReadFile(dir + "/a").status().IsIOError());
}

TEST(FaultyFileSystemTest, CrashDropsUnsyncedSuffixAndUndoesRenames) {
  const std::string dir = FreshDir("undo");
  RealFileSystem real;
  ASSERT_TRUE(AtomicWriteFile(&real, dir + "/live", "old-contents").ok());

  FaultyFileSystem faulty(&real, {});
  faulty.ArmCrashPoint(1'000'000);  // arm tracking; crash far away
  {
    auto tmp = faulty.OpenTrunc(dir + "/live.tmp");
    ASSERT_TRUE(tmp.ok());
    ASSERT_TRUE((*tmp)->Append("new-contents").ok());
    ASSERT_TRUE((*tmp)->Sync().ok());
    ASSERT_TRUE((*tmp)->Close().ok());
  }
  ASSERT_TRUE(faulty.Rename(dir + "/live.tmp", dir + "/live").ok());
  // No SyncDir: the rename is not durable. Also leave unsynced bytes on a
  // second file.
  {
    auto scratch = faulty.OpenTrunc(dir + "/scratch");
    ASSERT_TRUE(scratch.ok());
    ASSERT_TRUE((*scratch)->Append(std::string(100, 'z')).ok());
  }
  faulty.ArmCrashPoint(0);  // next op crashes
  EXPECT_TRUE(faulty.ReadFile(dir + "/live").status().IsIOError());

  // The un-dir-synced rename was undone and the clobbered contents restored.
  auto live = real.ReadFile(dir + "/live");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, "old-contents");
  // The scratch file's creation was never made durable with SyncDir, so the
  // crash either removed it outright or left a prefix of the unsynced bytes.
  auto scratch = real.ReadFile(dir + "/scratch");
  if (scratch.ok()) {
    EXPECT_LE(scratch->size(), 100u);
  } else {
    EXPECT_TRUE(scratch.status().IsNotFound());
  }
}

TEST(FsHelpersTest, DirnameOf) {
  EXPECT_EQ(DirnameOf("/a/b/c"), "/a/b");
  EXPECT_EQ(DirnameOf("/a"), "/");
  EXPECT_EQ(DirnameOf("rel/x"), "rel");
  EXPECT_EQ(DirnameOf("bare"), ".");
}

TEST(FsHelpersTest, AtomicWriteFileReplacesAndCleansTemp) {
  RealFileSystem real;
  const std::string dir = FreshDir("awf");
  ASSERT_TRUE(AtomicWriteFile(&real, dir + "/f", "v1").ok());
  ASSERT_TRUE(AtomicWriteFile(&real, dir + "/f", "v2").ok());
  auto contents = real.ReadFile(dir + "/f");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "v2");
  EXPECT_FALSE(real.Exists(dir + "/f.tmp"));
}

// ---------------------------------------------------------------------------
// The crash-point sweep harness.
// ---------------------------------------------------------------------------

// Runs `workload` against a FaultyFileSystem armed to crash at op `k`
// (k < 0 means never: the baseline). Returns the total op count.
template <typename Workload>
int64_t RunWithCrashAt(RealFileSystem* real, int64_t k, Workload&& workload) {
  FaultyFileSystem faulty(real, {});
  if (k >= 0) faulty.ArmCrashPoint(k);
  workload(&faulty);
  return faulty.op_count();
}

// --- StateStore sweep (incl. the tmp-write/rename crash-point matrix) ------

TEST(StorageChaosTest, StateStoreSaveKeepsOldStateReadableAtEveryCrashPoint) {
  RealFileSystem real;

  // Seed a state file holding a breaker for "alpha" via the public JSON
  // serialization.
  auto seed_state = [&](const std::string& path) {
    llm::CircuitBreaker::Snapshot snapshot;
    snapshot.state = llm::CircuitBreaker::State::kOpen;
    snapshot.total_failures = 7;
    Json breakers = Json::MakeObject();
    breakers.Set("alpha", llm::StateStore::BreakerToJson(snapshot));
    Json doc = Json::MakeObject();
    doc.Set("breakers", std::move(breakers));
    doc.Set("sketches", Json::MakeObject());
    ASSERT_TRUE(AtomicWriteFile(&real, path, doc.Dump(2)).ok());
  };

  const std::string base = FreshDir("state_base") + "/state.json";
  seed_state(base);
  const int64_t total = RunWithCrashAt(&real, -1, [&](FileSystem* fs) {
    llm::StateStore store(base, fs);
    ASSERT_TRUE(store.Load().ok());
    ASSERT_TRUE(store.SaveNow().ok());
  });
  ASSERT_GT(total, 3);

  for (int64_t k = 0; k < total; ++k) {
    const std::string path = FreshDir("state") + "/state.json";
    seed_state(path);
    RunWithCrashAt(&real, k, [&](FileSystem* fs) {
      llm::StateStore store(path, fs);
      if (!store.Load().ok()) return;
      (void)store.SaveNow();  // may fail: the world is dying
    });

    // The matrix invariant: at EVERY crash point — including between the
    // temp write and the rename — the state file parses cleanly and still
    // holds alpha's breaker (the store loaded it, so old and new contents
    // both carry it; a torn file would cold-start instead).
    llm::StateStore recovered(path, &real);
    ASSERT_TRUE(recovered.Load().ok()) << "crash at op " << k;
    EXPECT_TRUE(recovered.load_warning().empty())
        << "crash at op " << k << ": " << recovered.load_warning();
    EXPECT_TRUE(recovered.HasBreaker("alpha")) << "crash at op " << k;
  }
}

TEST(StorageChaosTest, StateStoreCrashBetweenTmpWriteAndRename) {
  // The specific matrix entry: the temp file is fully written and fsynced,
  // the rename never happens. The old state must be untouched and the stray
  // tmp must not shadow it.
  RealFileSystem real;
  const std::string dir = FreshDir("state_tmp");
  const std::string path = dir + "/state.json";
  ASSERT_TRUE(AtomicWriteFile(&real, path,
                              R"({"breakers":{},"sketches":{}})").ok());
  const std::string old_contents = *real.ReadFile(path);

  // SaveNow's op stream is OpenTrunc, Append, Sync, Rename, SyncDir; Load
  // costs one read before it. Crash on the Rename.
  FaultyFileSystem faulty(&real, {});
  llm::StateStore store(path, &faulty);
  ASSERT_TRUE(store.Load().ok());
  faulty.ArmCrashPoint(faulty.op_count() + 3);
  EXPECT_FALSE(store.SaveNow().ok());
  EXPECT_TRUE(faulty.crashed());

  auto after = real.ReadFile(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, old_contents);
  llm::StateStore recovered(path, &real);
  ASSERT_TRUE(recovered.Load().ok());
  EXPECT_TRUE(recovered.load_warning().empty());
}

// LLMMS_IO_CHAOS wires a FaultyFileSystem under FileSystem::Default(); the
// plumbing (env parse + decorator) is what this exercises — the env var is
// read once at first use, so the default here is the real filesystem and
// the decorator is constructed directly.
TEST(StorageChaosTest, DefaultFileSystemIsUsableAndCountsOps) {
  FileSystem* fs = FileSystem::Default();
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs, FileSystem::Default());  // a process-wide singleton
  const std::string path = FreshDir("default") + "/f";
  const auto before = fs->op_counts();
  ASSERT_TRUE(AtomicWriteFile(fs, path, "x").ok());
  const auto after = fs->op_counts();
  EXPECT_GT(after.opens, before.opens);
  EXPECT_GT(after.syncs, before.syncs);
  EXPECT_GT(after.renames, before.renames);
}

}  // namespace
}  // namespace llmms
