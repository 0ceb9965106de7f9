#include "llmms/vectordb/durable_collection.h"

namespace llmms::vectordb {

DurableCollection::DurableCollection(FileSystem* fs,
                                     std::unique_ptr<Collection> collection,
                                     std::unique_ptr<WriteAheadLog> wal,
                                     std::string wal_path,
                                     Collection::Options options,
                                     WriteAheadLog::Options wal_options,
                                     std::string name)
    : fs_(fs),
      collection_(std::move(collection)),
      wal_(std::move(wal)),
      wal_path_(std::move(wal_path)),
      options_(options),
      wal_options_(wal_options),
      name_(std::move(name)) {}

StatusOr<std::unique_ptr<DurableCollection>> DurableCollection::Open(
    const std::string& name, const Collection::Options& options,
    const std::string& wal_path, OpenStats* stats, FileSystem* fs,
    const WriteAheadLog::Options& wal_options) {
  if (fs == nullptr) fs = FileSystem::Default();
  auto collection = std::make_unique<Collection>(name, options);
  LLMMS_ASSIGN_OR_RETURN(auto replay,
                         WriteAheadLog::Replay(fs, wal_path, collection.get()));
  if (stats != nullptr) {
    stats->replayed_upserts = replay.upserts;
    stats->replayed_deletes = replay.deletes;
    stats->recovered_torn_tail = replay.torn_tail;
    stats->sequence_break = replay.sequence_break;
  }
  // A torn tail means the last write crashed mid-record; rewrite the log to
  // the recovered state so the tail garbage cannot confuse later replays.
  // (A sequence break is handled the same way: the suffix past the gap is
  // untrustworthy and is dropped with the rewrite.)
  if (replay.torn_tail || replay.sequence_break) {
    const std::string tmp = wal_path + ".compact";
    LLMMS_RETURN_NOT_OK(
        WriteAheadLog::WriteCompacted(fs, tmp, *collection, wal_options));
    LLMMS_RETURN_NOT_OK(fs->Rename(tmp, wal_path));
    LLMMS_RETURN_NOT_OK(fs->SyncDir(DirnameOf(wal_path)));
  }
  LLMMS_ASSIGN_OR_RETURN(auto wal,
                         WriteAheadLog::Open(fs, wal_path, wal_options));
  return std::unique_ptr<DurableCollection>(
      new DurableCollection(fs, std::move(collection), std::move(wal),
                            wal_path, options, wal_options, name));
}

Status DurableCollection::Upsert(VectorRecord record) {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "journal unavailable after failed compaction swap: " + wal_path_);
  }
  LLMMS_RETURN_NOT_OK(wal_->AppendUpsert(record));
  return collection_->Upsert(std::move(record));
}

Status DurableCollection::Delete(const std::string& id) {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "journal unavailable after failed compaction swap: " + wal_path_);
  }
  LLMMS_RETURN_NOT_OK(wal_->AppendDelete(id));
  return collection_->Delete(id);
}

Status DurableCollection::Sync() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "journal unavailable after failed compaction swap: " + wal_path_);
  }
  return wal_->Sync();
}

Status DurableCollection::Compact() {
  auto& counters = GlobalStorageCounters();
  const std::string tmp = wal_path_ + ".compact";
  Status status =
      WriteAheadLog::WriteCompacted(fs_, tmp, *collection_, wal_options_);
  if (status.ok()) status = fs_->Rename(tmp, wal_path_);
  if (!status.ok()) {
    // Nothing replaced the live log: keep the old handle — it is still
    // appending to the real log, and mutations must keep working.
    counters.compaction_failures.fetch_add(1, std::memory_order_relaxed);
    (void)fs_->Remove(tmp);  // best effort; Open/Compact also clear leftovers
    return status;
  }
  // The rename succeeded, so the old handle now points at an unlinked
  // inode; keeping it would silently journal into the void. Drop it and
  // reopen the new log; if the reopen fails, mutations must fail loudly
  // (FailedPrecondition) instead of dereferencing null.
  wal_.reset();
  const Status dir_sync = fs_->SyncDir(DirnameOf(wal_path_));
  auto reopened = WriteAheadLog::Open(fs_, wal_path_, wal_options_);
  if (!reopened.ok()) {
    counters.compaction_failures.fetch_add(1, std::memory_order_relaxed);
    return reopened.status();
  }
  wal_ = std::move(*reopened);
  if (!dir_sync.ok()) {
    counters.compaction_failures.fetch_add(1, std::memory_order_relaxed);
    return dir_sync;
  }
  counters.compactions.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace llmms::vectordb
