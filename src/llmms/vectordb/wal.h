#ifndef LLMMS_VECTORDB_WAL_H_
#define LLMMS_VECTORDB_WAL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "llmms/common/fs.h"
#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/vectordb/collection.h"
#include "llmms/vectordb/types.h"

namespace llmms::vectordb {

// Append-only write-ahead log for one collection: every upsert/delete is
// recorded as a length-prefixed, checksummed, sequence-numbered record, so
// the collection state can be rebuilt after a crash by replaying the log
// (the standard database-durability pattern).
//
// Record framing (v2):
//   [u32 payload length][u32 FNV checksum][u64 sequence][payload]
// The checksum covers sequence + payload, so a record can neither be torn
// nor transplanted from another position without detection. Sequence numbers
// start at 1 and must increase by exactly 1; replay stops at the first gap
// (a sequence break — evidence of a lost or reordered write, counted in
// GlobalStorageCounters().sequence_breaks).
//
// Durability contract (DESIGN.md §14): what an OK status from Append*
// promises depends on Options::sync_policy —
//   kNone        bytes reached the kernel (a process crash loses nothing,
//                a power cut may lose any suffix);
//   kGroupCommit fsync every Options::group_commit_every appends — at most
//                that many acknowledged records may be lost to a power cut;
//   kEveryRecord fsync before returning — an OK append survives any crash.
// After any append or sync I/O failure the log poisons itself: further
// appends fail with FailedPrecondition rather than risk an undetected gap
// in the middle of the log.
//
// Recovery is torn-tail tolerant: Replay applies records until the first
// truncated or checksum-failing record and reports how many were applied —
// a partially written final record (the crash case) is not an error.
class WriteAheadLog {
 public:
  enum class SyncPolicy {
    kNone = 0,
    kGroupCommit = 1,
    kEveryRecord = 2,
  };

  struct Options {
    SyncPolicy sync_policy = SyncPolicy::kNone;
    // Under kGroupCommit, fsync once per this many appended records.
    size_t group_commit_every = 8;
  };

  // Opens (creating or appending to) the log at `path`, scanning any
  // existing records so new appends continue the sequence run. All I/O goes
  // through `fs`, which must outlive the log.
  static StatusOr<std::unique_ptr<WriteAheadLog>> Open(FileSystem* fs,
                                                       const std::string& path,
                                                       const Options& options);
  // Convenience overload: FileSystem::Default() and default Options.
  static StatusOr<std::unique_ptr<WriteAheadLog>> Open(const std::string& path);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Appends an upsert record. See the class comment for what an OK return
  // promises under each sync policy — only kEveryRecord makes the record
  // durable before returning.
  Status AppendUpsert(const VectorRecord& record);

  // Appends a delete record (same durability contract as AppendUpsert).
  Status AppendDelete(const std::string& id);

  // Explicit durability barrier: fsyncs the log regardless of policy.
  // Callers using kNone/kGroupCommit call this before acknowledging a
  // batch externally.
  Status Sync();

  const std::string& path() const { return path_; }
  // Sequence number of the last appended (or scanned-at-open) record;
  // 0 when the log is empty.
  uint64_t last_sequence() const { return sequence_; }

  struct ReplayStats {
    size_t upserts = 0;
    size_t deletes = 0;
    bool torn_tail = false;  // log ended mid-record (clean crash recovery)
    bool sequence_break = false;  // intact record with the wrong sequence
    uint64_t last_sequence = 0;   // sequence of the last applied record
  };

  // Replays the log at `path` into `collection` (applied in order; deletes
  // of absent ids are ignored). The file not existing yields empty stats.
  static StatusOr<ReplayStats> Replay(FileSystem* fs, const std::string& path,
                                      Collection* collection);
  static StatusOr<ReplayStats> Replay(const std::string& path,
                                      Collection* collection);

  // Writes a fresh, fsynced log at `path` holding exactly the live records
  // of `collection`, removing any stale file at `path` first (a previous
  // crash mid-rewrite may have left one; appending to it would resurrect
  // deleted records). The caller makes the file live afterwards with
  // Rename + SyncDir (DurableCollection's compaction).
  static Status WriteCompacted(FileSystem* fs, const std::string& path,
                               const Collection& collection,
                               const Options& options);

 private:
  WriteAheadLog(FileSystem* fs, std::string path, const Options& options,
                std::unique_ptr<WritableFile> file, uint64_t sequence);

  Status AppendRecord(const std::string& payload);

  FileSystem* fs_;
  std::string path_;
  Options options_;
  std::unique_ptr<WritableFile> file_;
  uint64_t sequence_;  // last sequence number written
  size_t unsynced_appends_ = 0;
  bool broken_ = false;  // poisoned after an append/sync I/O failure
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_WAL_H_
