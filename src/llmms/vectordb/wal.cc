#include "llmms/vectordb/wal.h"

#include <cstring>

#include "llmms/common/rng.h"

namespace llmms::vectordb {
namespace {

// Record framing (v2): [u32 payload length][u32 FNV checksum][u64 sequence]
// [payload]; checksum over sequence + payload. Payload: 'U' + record fields,
// or 'D' + id.
constexpr size_t kFrameHeaderBytes = 16;  // len(4) + checksum(4) + seq(8)

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

// Cursor-based payload reader; every getter returns false on truncation.
// Bounds checks are phrased as `len > remaining` so that hostile declared
// lengths near UINT64_MAX cannot overflow `pos_ + len` and wrap past the
// check (tests/fuzz_test.cc feeds exactly those).
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU64(uint64_t* v) {
    if (sizeof(*v) > data_.size() - pos_) return false;
    std::memcpy(v, data_.data() + pos_, sizeof(*v));
    pos_ += sizeof(*v);
    return true;
  }

  bool GetString(std::string* s) {
    uint64_t len = 0;
    if (!GetU64(&len) || len > data_.size() - pos_) return false;
    s->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool GetByte(char* c) {
    if (pos_ >= data_.size()) return false;
    *c = data_[pos_++];
    return true;
  }

  bool GetFloats(size_t n, Vector* v) {
    if (n > (data_.size() - pos_) / sizeof(float)) return false;
    v->resize(n);
    std::memcpy(v->data(), data_.data() + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
    return true;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

uint32_t Checksum(std::string_view covered) {
  return static_cast<uint32_t>(HashBytes(covered.data(), covered.size()));
}

std::string SerializeUpsert(const VectorRecord& record) {
  std::string payload;
  payload.push_back('U');
  PutString(&payload, record.id);
  PutU64(&payload, record.vector.size());
  payload.append(reinterpret_cast<const char*>(record.vector.data()),
                 record.vector.size() * sizeof(float));
  PutU64(&payload, record.metadata.size());
  for (const auto& [k, v] : record.metadata) {
    PutString(&payload, k);
    PutString(&payload, v);
  }
  PutString(&payload, record.document);
  return payload;
}

struct Frame {
  uint64_t sequence = 0;
  std::string_view payload;
};

// Parses the frame at `pos`; returns false (a torn tail) when the bytes at
// `pos` do not form a complete, checksum-valid record.
bool ParseFrame(std::string_view contents, size_t pos, Frame* frame) {
  if (kFrameHeaderBytes > contents.size() - pos) return false;
  uint32_t length = 0;
  uint32_t checksum = 0;
  std::memcpy(&length, contents.data() + pos, 4);
  std::memcpy(&checksum, contents.data() + pos + 4, 4);
  if (length > contents.size() - pos - kFrameHeaderBytes) return false;
  // Checksum covers sequence + payload so a record can neither be torn nor
  // transplanted from another log position without detection.
  const std::string_view covered(contents.data() + pos + 8, 8 + length);
  if (Checksum(covered) != checksum) return false;
  std::memcpy(&frame->sequence, contents.data() + pos + 8, 8);
  frame->payload = std::string_view(contents.data() + pos + kFrameHeaderBytes,
                                    length);
  return true;
}

// Scans an existing log for the last intact record's sequence number, so a
// reopened log continues the run rather than restarting at 1.
uint64_t ScanLastSequence(std::string_view contents) {
  uint64_t last = 0;
  size_t pos = 0;
  while (pos < contents.size()) {
    Frame frame;
    if (!ParseFrame(contents, pos, &frame)) break;
    last = frame.sequence;
    pos += kFrameHeaderBytes + frame.payload.size();
  }
  return last;
}

}  // namespace

WriteAheadLog::WriteAheadLog(FileSystem* fs, std::string path,
                             const Options& options,
                             std::unique_ptr<WritableFile> file,
                             uint64_t sequence)
    : fs_(fs),
      path_(std::move(path)),
      options_(options),
      file_(std::move(file)),
      sequence_(sequence) {}

WriteAheadLog::~WriteAheadLog() = default;

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    FileSystem* fs, const std::string& path, const Options& options) {
  uint64_t sequence = 0;
  auto existing = fs->ReadFile(path);
  if (existing.ok()) {
    sequence = ScanLastSequence(*existing);
  } else if (!existing.status().IsNotFound()) {
    return existing.status();
  }
  const bool created = !existing.ok();
  auto file = fs->OpenAppend(path);
  if (!file.ok()) {
    return Status::IOError("cannot open WAL for append: " + path + ": " +
                           file.status().message());
  }
  if (created) {
    // A freshly created log is only durable once its directory entry is:
    // without this barrier a crash can drop the whole file — including
    // records that were individually fsynced and acked — because fsync on
    // the file does not persist its name in the parent directory.
    LLMMS_RETURN_NOT_OK(fs->SyncDir(DirnameOf(path)));
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(fs, path, options, std::move(*file), sequence));
}

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path) {
  return Open(FileSystem::Default(), path, Options{});
}

Status WriteAheadLog::AppendRecord(const std::string& payload) {
  if (broken_) {
    return Status::FailedPrecondition(
        "WAL poisoned by an earlier I/O failure: " + path_);
  }
  const uint64_t sequence = sequence_ + 1;
  std::string framed;
  framed.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&framed, static_cast<uint32_t>(payload.size()));
  std::string covered;
  covered.reserve(8 + payload.size());
  PutU64(&covered, sequence);
  covered += payload;
  PutU32(&framed, Checksum(covered));
  framed += covered;

  Status status = file_->Append(framed);
  if (status.ok()) {
    sequence_ = sequence;
    ++unsynced_appends_;
    switch (options_.sync_policy) {
      case SyncPolicy::kNone:
        break;
      case SyncPolicy::kGroupCommit:
        if (unsynced_appends_ >= options_.group_commit_every) {
          status = Sync();
        }
        break;
      case SyncPolicy::kEveryRecord:
        status = Sync();
        break;
    }
  }
  if (!status.ok()) {
    // An unknown number of bytes may have landed; appending more would bury
    // garbage in the middle of the log and invalidate later acked records.
    broken_ = true;
  }
  return status;
}

Status WriteAheadLog::AppendUpsert(const VectorRecord& record) {
  if (record.id.empty()) {
    return Status::InvalidArgument("record id must not be empty");
  }
  return AppendRecord(SerializeUpsert(record));
}

Status WriteAheadLog::AppendDelete(const std::string& id) {
  if (id.empty()) {
    return Status::InvalidArgument("record id must not be empty");
  }
  std::string payload;
  payload.push_back('D');
  PutString(&payload, id);
  return AppendRecord(payload);
}

Status WriteAheadLog::WriteCompacted(FileSystem* fs, const std::string& path,
                                     const Collection& collection,
                                     const Options& options) {
  Status removed = fs->Remove(path);
  if (!removed.ok() && !removed.IsNotFound()) return removed;
  LLMMS_ASSIGN_OR_RETURN(auto fresh, Open(fs, path, options));
  for (const auto& id : collection.Ids()) {
    LLMMS_ASSIGN_OR_RETURN(auto record, collection.Get(id));
    LLMMS_RETURN_NOT_OK(fresh->AppendUpsert(record));
  }
  // The rewrite replaces a whole log; it must be durable before anything
  // points at it, whatever the append-path sync policy is.
  return fresh->Sync();
}

Status WriteAheadLog::Sync() {
  if (broken_) {
    return Status::FailedPrecondition(
        "WAL poisoned by an earlier I/O failure: " + path_);
  }
  Status status = file_->Sync();
  if (status.ok()) {
    unsynced_appends_ = 0;
  } else {
    broken_ = true;  // durability of the tail is now unknown
  }
  return status;
}

StatusOr<WriteAheadLog::ReplayStats> WriteAheadLog::Replay(
    FileSystem* fs, const std::string& path, Collection* collection) {
  ReplayStats stats;
  auto contents_or = fs->ReadFile(path);
  if (!contents_or.ok()) {
    if (contents_or.status().IsNotFound()) return stats;  // no log yet
    return contents_or.status();
  }
  const std::string contents = std::move(*contents_or);

  auto& counters = GlobalStorageCounters();
  counters.wal_replays.fetch_add(1, std::memory_order_relaxed);

  size_t pos = 0;
  while (pos < contents.size()) {
    Frame frame;
    if (!ParseFrame(contents, pos, &frame)) {
      stats.torn_tail = true;
      counters.torn_tails_recovered.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (frame.sequence != stats.last_sequence + 1) {
      // An intact record with the wrong sequence number: a lost or
      // reordered write, not a torn tail. Stop applying — everything after
      // the gap is untrustworthy.
      stats.sequence_break = true;
      counters.sequence_breaks.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    pos += kFrameHeaderBytes + frame.payload.size();

    Reader reader(frame.payload);
    char op = 0;
    if (!reader.GetByte(&op)) {
      return Status::IOError("corrupt WAL record in " + path);
    }
    if (op == 'U') {
      VectorRecord record;
      uint64_t dim = 0;
      uint64_t num_meta = 0;
      if (!reader.GetString(&record.id) || !reader.GetU64(&dim) ||
          !reader.GetFloats(static_cast<size_t>(dim), &record.vector) ||
          !reader.GetU64(&num_meta)) {
        return Status::IOError("corrupt WAL upsert record in " + path);
      }
      for (uint64_t i = 0; i < num_meta; ++i) {
        std::string k;
        std::string v;
        if (!reader.GetString(&k) || !reader.GetString(&v)) {
          return Status::IOError("corrupt WAL metadata in " + path);
        }
        record.metadata[std::move(k)] = std::move(v);
      }
      if (!reader.GetString(&record.document)) {
        return Status::IOError("corrupt WAL document in " + path);
      }
      LLMMS_RETURN_NOT_OK(collection->Upsert(std::move(record)));
      ++stats.upserts;
    } else if (op == 'D') {
      std::string id;
      if (!reader.GetString(&id)) {
        return Status::IOError("corrupt WAL delete record in " + path);
      }
      Status status = collection->Delete(id);
      if (!status.ok() && !status.IsNotFound()) return status;
      ++stats.deletes;
    } else {
      return Status::IOError("unknown WAL record type in " + path);
    }
    stats.last_sequence = frame.sequence;
    counters.wal_records_replayed.fetch_add(1, std::memory_order_relaxed);
  }
  return stats;
}

StatusOr<WriteAheadLog::ReplayStats> WriteAheadLog::Replay(
    const std::string& path, Collection* collection) {
  return Replay(FileSystem::Default(), path, collection);
}

}  // namespace llmms::vectordb
