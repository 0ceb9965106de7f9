#ifndef LLMMS_VECTORDB_DURABLE_COLLECTION_H_
#define LLMMS_VECTORDB_DURABLE_COLLECTION_H_

#include <memory>
#include <string>
#include <vector>

#include "llmms/common/fs.h"
#include "llmms/vectordb/collection.h"
#include "llmms/vectordb/wal.h"

namespace llmms::vectordb {

// A Collection whose mutations are journaled to a write-ahead log before
// they are applied, so the in-memory state is rebuilt from disk on open —
// the durability story of the storage layer (§3.3) at record granularity.
//
// Open() replays any existing log (including torn tails from a crash) into
// a fresh Collection, then appends subsequent mutations to the same log.
// Compact() rewrites the log to the live record set. Both rewrite paths go
// through the full barrier sequence (write temp, fsync, rename, fsync the
// parent directory) so a crash at any point leaves either the old or the
// new log intact — never a mixture.
class DurableCollection {
 public:
  struct OpenStats {
    size_t replayed_upserts = 0;
    size_t replayed_deletes = 0;
    bool recovered_torn_tail = false;
    bool sequence_break = false;
  };

  // Opens (or creates) the durable collection journaled at `wal_path`.
  // All I/O goes through `fs` (FileSystem::Default() when null), and
  // `wal_options` sets the append sync policy (see WriteAheadLog).
  static StatusOr<std::unique_ptr<DurableCollection>> Open(
      const std::string& name, const Collection::Options& options,
      const std::string& wal_path, OpenStats* stats = nullptr,
      FileSystem* fs = nullptr,
      const WriteAheadLog::Options& wal_options = {});

  // Journal-then-apply mutations. Fail with FailedPrecondition when the log
  // is unavailable (a failed compaction swap — see Compact()).
  Status Upsert(VectorRecord record);
  Status Delete(const std::string& id);

  // Explicit durability barrier: fsyncs the journal (for callers running
  // sync-policy kNone/kGroupCommit that need a batch on disk now).
  Status Sync();

  // Reads pass through to the in-memory collection.
  StatusOr<std::vector<QueryResult>> Query(
      const Vector& query, size_t k, const MetadataFilter& filter = {}) const {
    return collection_->Query(query, k, filter);
  }
  StatusOr<VectorRecord> Get(const std::string& id) const {
    return collection_->Get(id);
  }
  size_t size() const { return collection_->size(); }

  // Rewrites the log so it contains exactly the live records (drops
  // superseded upserts and applied deletes). On failure before the swap the
  // old log and handle remain fully usable; only if the swap itself
  // half-fails (renamed but not reopenable) does the collection enter a
  // journal-less state where mutations fail with FailedPrecondition.
  Status Compact();

  const std::string& wal_path() const { return wal_path_; }
  Collection* collection() { return collection_.get(); }
  const Collection* collection() const { return collection_.get(); }

 private:
  DurableCollection(FileSystem* fs, std::unique_ptr<Collection> collection,
                    std::unique_ptr<WriteAheadLog> wal, std::string wal_path,
                    Collection::Options options,
                    WriteAheadLog::Options wal_options, std::string name);

  FileSystem* fs_;
  std::unique_ptr<Collection> collection_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::string wal_path_;
  Collection::Options options_;
  WriteAheadLog::Options wal_options_;
  std::string name_;
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_DURABLE_COLLECTION_H_
