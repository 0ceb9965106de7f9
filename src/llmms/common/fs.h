#ifndef LLMMS_COMMON_FS_H_
#define LLMMS_COMMON_FS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/rng.h"
#include "llmms/common/status.h"

namespace llmms {

// The storage plane's single I/O seam (DESIGN.md §14). The stack's one
// durable file, llm::StateStore's state file, does its I/O through
// FileSystem so that
//   - durability barriers are explicit: Sync (fsync the file) and SyncDir
//     (fsync the parent directory, which is what makes a rename durable)
//     are first-class operations, and AtomicWriteFile implements the full
//     write-tmp / fsync / rename / fsync-dir replace pattern in one place;
//   - fault injection is pluggable: FaultyFileSystem turns any component
//     into a crash-at-every-syscall test subject without that component
//     knowing (tests/storage_chaos_test.cc), and LLMMS_IO_CHAOS=<prob>
//     injects seeded probabilistic disk faults into the default filesystem
//     for live demos.
//
// Durability model (what the crash harness enforces):
//   - write()s are *visible* immediately (a reopen in the same process sees
//     them) but *durable* only once Sync'd; a simulated crash may lose any
//     unsynced suffix, including partially (torn writes).
//   - a rename is durable only once the parent directory is SyncDir'd; a
//     simulated crash may undo unsynced renames (the "lost rename" fault).

// Cumulative operation counters, surfaced in the /api/health storage block.
// injected_faults / read_corruptions / crashed stay zero on the real
// filesystem; they count FaultyFileSystem's interventions.
struct FsOpCounts {
  uint64_t opens = 0;
  uint64_t appends = 0;
  uint64_t bytes_appended = 0;
  uint64_t syncs = 0;
  uint64_t dir_syncs = 0;
  uint64_t reads = 0;
  uint64_t renames = 0;
  uint64_t removes = 0;
  uint64_t truncates = 0;
  uint64_t injected_faults = 0;
  uint64_t read_corruptions = 0;
  bool crashed = false;
};

// A writable file handle. Append/Sync return typed statuses; Close is
// idempotent and the destructor closes (without syncing — like POSIX
// close(), closing is not a durability barrier).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  // Opens `path` truncated to empty (created if absent). Overwriting a live
  // file in place is NOT crash-safe — use AtomicWriteFile for replacement.
  virtual StatusOr<std::unique_ptr<WritableFile>> OpenTrunc(
      const std::string& path) = 0;
  // Whole-file read. NotFound if the file does not exist, IOError otherwise.
  virtual StatusOr<std::string> ReadFile(const std::string& path) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  // NotFound if absent (callers cleaning up stale temp files ignore that).
  virtual Status Remove(const std::string& path) = 0;
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;
  // fsync on the directory itself: the barrier that makes entries (created
  // files, renames) inside it durable.
  virtual Status SyncDir(const std::string& path) = 0;
  virtual bool Exists(const std::string& path) = 0;

  virtual FsOpCounts op_counts() const = 0;
  // True when this filesystem injects faults (the health endpoint reports
  // it so operators can tell chaos-mode telemetry from real disk trouble).
  virtual bool injects_faults() const { return false; }

  // Process-wide default. Honours LLMMS_IO_CHAOS=<prob> (read once, at
  // first use): when set > 0, the default is a seeded FaultyFileSystem
  // injecting that per-op probability of short writes, fsync failures,
  // ENOSPC, lost renames, and read-time bit corruption over the real disk.
  static FileSystem* Default();
};

// POSIX filesystem: open/write/fsync/rename/unlink/fsync-dir, no user-space
// buffering (every Append is a write() syscall, so data is visible to
// readers immediately and Sync makes exactly the appended bytes durable).
class RealFileSystem : public FileSystem {
 public:
  RealFileSystem();
  ~RealFileSystem() override;

  StatusOr<std::unique_ptr<WritableFile>> OpenTrunc(
      const std::string& path) override;
  StatusOr<std::string> ReadFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status SyncDir(const std::string& path) override;
  bool Exists(const std::string& path) override;
  FsOpCounts op_counts() const override;

 private:
  friend class RealWritableFile;
  struct Counters;
  std::shared_ptr<Counters> counters_;
};

// Failpoint configuration for FaultyFileSystem. All probabilities are
// per-operation and drawn from one seeded Rng, so a given (seed, workload)
// pair fails identically on every run.
struct FsFaultConfig {
  uint64_t seed = 0x10c4a05;
  // Append failpoints.
  double write_error_prob = 0.0;  // Append fails cleanly, nothing written
  double short_write_prob = 0.0;  // a random prefix lands, then IOError
  double enospc_prob = 0.0;       // Append fails with "(ENOSPC)"
  // Sync failpoints. A failed fsync leaves durability unknown — callers
  // must treat the file as suspect (AtomicWriteFile then never renames it).
  double sync_error_prob = 0.0;
  // Rename failpoint: the rename is not performed and IOError is returned
  // ("lost rename"). Crash mode additionally undoes renames whose parent
  // directory was never SyncDir'd.
  double rename_error_prob = 0.0;
  // Read-time silent bit corruption: one random bit of the returned
  // contents is flipped with this probability (the reader must cope).
  double read_corrupt_prob = 0.0;
};

// Decorator injecting the FsFaultConfig failpoints over `base`, plus a
// crash-point mode for exhaustive crash-recovery sweeps:
//
//   FaultyFileSystem faulty(&real, {});
//   RunWorkload(&faulty);                  // count the ops
//   const int64_t total = faulty.op_count();
//   for (int64_t k = 0; k < total; ++k) {  // kill the world at every op
//     FaultyFileSystem crashing(&real, {});
//     crashing.ArmCrashPoint(k);
//     RunWorkload(&crashing);              // dies at op k with IOError
//     ReopenWithCleanFsAndCheckInvariants();
//   }
//
// When the armed op index is reached, the op "crashes": an Append first
// lands a seeded-random prefix (a torn write), then the simulated kernel
// state is applied to the real directory — every tracked file loses a
// random portion of its unsynced suffix, renames not made durable by
// SyncDir are undone (restoring any file they clobbered), and files whose
// creation was never made durable are removed. Every subsequent op fails
// with IOError("simulated crash"). The component under test is then thrown
// away and reopened through a clean filesystem, exactly like a process
// restart after a power cut.
class FaultyFileSystem : public FileSystem {
 public:
  // `base` must outlive this decorator.
  FaultyFileSystem(FileSystem* base, const FsFaultConfig& config);
  ~FaultyFileSystem() override;

  StatusOr<std::unique_ptr<WritableFile>> OpenTrunc(
      const std::string& path) override;
  StatusOr<std::string> ReadFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status SyncDir(const std::string& path) override;
  bool Exists(const std::string& path) override;
  FsOpCounts op_counts() const override;
  bool injects_faults() const override { return true; }

  // Arms the crash point: the world halts at op index `halt_after_ops`
  // (0-based, counted across open/append/read/sync/dir-sync/rename/remove/
  // truncate). Also switches on the durability tracking that the
  // crash applies. Arm before the workload runs.
  void ArmCrashPoint(int64_t halt_after_ops);

  int64_t op_count() const;
  bool crashed() const;

 private:
  friend class FaultyWritableFile;

  struct FileTrack {
    uint64_t synced = 0;   // bytes known durable
    uint64_t written = 0;  // bytes written (visible but maybe not durable)
  };
  struct PendingRename {
    std::string from;
    std::string to;
    bool had_old = false;
    std::string old_contents;  // what the rename clobbered at `to`
  };

  // Returns the crash/failure status for this op, or OK to proceed.
  // Called with mu_ held; fires the crash when the armed index is hit.
  Status BeginOp();
  void CrashNowLocked();

  Status OnAppend(const std::string& path, std::string_view data,
                  WritableFile* file);
  Status OnSync(const std::string& path, WritableFile* file);

  FileSystem* const base_;
  const FsFaultConfig config_;

  mutable std::mutex mu_;
  Rng rng_;
  int64_t ops_ = 0;
  int64_t halt_after_ops_ = -1;  // -1 = crash mode off
  bool armed_ = false;
  bool crashed_ = false;
  uint64_t injected_faults_ = 0;
  uint64_t read_corruptions_ = 0;
  std::map<std::string, FileTrack> tracks_;
  std::vector<PendingRename> pending_renames_;
  std::vector<std::string> pending_creates_;
};

// Process-wide state-store counters, incremented by llm::StateStore and
// surfaced in the /api/health "storage" block. Monotonic; readers should
// diff or treat as lifetime totals.
struct StorageCounters {
  std::atomic<uint64_t> state_saves{0};
  std::atomic<uint64_t> state_save_failures{0};
  std::atomic<uint64_t> state_cold_starts{0};
};
StorageCounters& GlobalStorageCounters();

// The directory part of `path` ("." when it has no '/').
std::string DirnameOf(const std::string& path);

// The atomic-replace durability barrier: writes `data` to `path`.tmp,
// fsyncs and closes it, renames it over `path`, and fsyncs the parent
// directory. After a crash at ANY point, `path` holds either the complete
// old contents or the complete new contents — never a mixture, never the
// temp file under the final name.
Status AtomicWriteFile(FileSystem* fs, const std::string& path,
                       std::string_view data);

}  // namespace llmms

#endif  // LLMMS_COMMON_FS_H_
