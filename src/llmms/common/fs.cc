#include "llmms/common/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace llmms {

namespace {

Status ErrnoStatus(const std::string& what, const std::string& path) {
  const int err = errno;
  const std::string message =
      what + " '" + path + "': " + std::strerror(err);
  if (err == ENOENT) return Status::NotFound(message);
  return Status::IOError(message);
}

}  // namespace

// ------------------------------------------------------------------ real

struct RealFileSystem::Counters {
  std::atomic<uint64_t> opens{0};
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> bytes_appended{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> dir_syncs{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> renames{0};
  std::atomic<uint64_t> removes{0};
  std::atomic<uint64_t> truncates{0};
};

RealFileSystem::RealFileSystem() : counters_(std::make_shared<Counters>()) {}
RealFileSystem::~RealFileSystem() = default;

class RealWritableFile : public WritableFile {
 public:
  RealWritableFile(int fd, std::string path,
                   std::shared_ptr<RealFileSystem::Counters> counters)
      : fd_(fd), path_(std::move(path)), counters_(std::move(counters)) {}

  ~RealWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return Status::FailedPrecondition("file closed: " + path_);
    counters_->appends.fetch_add(1, std::memory_order_relaxed);
    size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write failed to", path_);
      }
      done += static_cast<size_t>(n);
    }
    counters_->bytes_appended.fetch_add(data.size(),
                                        std::memory_order_relaxed);
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::FailedPrecondition("file closed: " + path_);
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync failed on", path_);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close failed on", path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
  std::shared_ptr<RealFileSystem::Counters> counters_;
};

StatusOr<std::unique_ptr<WritableFile>> RealFileSystem::OpenTrunc(
    const std::string& path) {
  counters_->opens.fetch_add(1, std::memory_order_relaxed);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("cannot open for write", path);
  return std::unique_ptr<WritableFile>(
      new RealWritableFile(fd, path, counters_));
}

StatusOr<std::string> RealFileSystem::ReadFile(const std::string& path) {
  counters_->reads.fetch_add(1, std::memory_order_relaxed);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("cannot open for read", path);
  std::string contents;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = ErrnoStatus("read failed from", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    contents.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return contents;
}

Status RealFileSystem::Rename(const std::string& from, const std::string& to) {
  counters_->renames.fetch_add(1, std::memory_order_relaxed);
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("cannot rename", from + "' -> '" + to);
  }
  return Status::OK();
}

Status RealFileSystem::Remove(const std::string& path) {
  counters_->removes.fetch_add(1, std::memory_order_relaxed);
  if (::unlink(path.c_str()) != 0) return ErrnoStatus("cannot remove", path);
  return Status::OK();
}

Status RealFileSystem::Truncate(const std::string& path, uint64_t size) {
  counters_->truncates.fetch_add(1, std::memory_order_relaxed);
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("cannot truncate", path);
  }
  return Status::OK();
}

Status RealFileSystem::SyncDir(const std::string& path) {
  counters_->dir_syncs.fetch_add(1, std::memory_order_relaxed);
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("cannot open directory", path);
  const int rc = ::fsync(fd);
  // Some filesystems refuse fsync on directories (EINVAL); treat that as a
  // barrier the platform cannot strengthen rather than a failure.
  const bool failed = rc != 0 && errno != EINVAL;
  const Status status =
      failed ? ErrnoStatus("fsync failed on directory", path) : Status::OK();
  ::close(fd);
  return status;
}

bool RealFileSystem::Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

FsOpCounts RealFileSystem::op_counts() const {
  FsOpCounts out;
  out.opens = counters_->opens.load(std::memory_order_relaxed);
  out.appends = counters_->appends.load(std::memory_order_relaxed);
  out.bytes_appended =
      counters_->bytes_appended.load(std::memory_order_relaxed);
  out.syncs = counters_->syncs.load(std::memory_order_relaxed);
  out.dir_syncs = counters_->dir_syncs.load(std::memory_order_relaxed);
  out.reads = counters_->reads.load(std::memory_order_relaxed);
  out.renames = counters_->renames.load(std::memory_order_relaxed);
  out.removes = counters_->removes.load(std::memory_order_relaxed);
  out.truncates = counters_->truncates.load(std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------- faulty

namespace {
constexpr char kCrashMessage[] = "simulated crash: filesystem halted";
}  // namespace

class FaultyWritableFile : public WritableFile {
 public:
  FaultyWritableFile(FaultyFileSystem* parent, std::string path,
                     std::unique_ptr<WritableFile> base)
      : parent_(parent), path_(std::move(path)), base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    return parent_->OnAppend(path_, data, base_.get());
  }
  Status Sync() override { return parent_->OnSync(path_, base_.get()); }
  // Close is not a durability barrier and not a crash point; it never
  // injects (a close that "fails" has no bearing on what survives).
  Status Close() override { return base_->Close(); }

 private:
  FaultyFileSystem* parent_;
  std::string path_;
  std::unique_ptr<WritableFile> base_;
};

FaultyFileSystem::FaultyFileSystem(FileSystem* base,
                                   const FsFaultConfig& config)
    : base_(base), config_(config), rng_(config.seed) {}

FaultyFileSystem::~FaultyFileSystem() = default;

void FaultyFileSystem::ArmCrashPoint(int64_t halt_after_ops) {
  std::lock_guard<std::mutex> lock(mu_);
  halt_after_ops_ = halt_after_ops;
  armed_ = true;
}

int64_t FaultyFileSystem::op_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

bool FaultyFileSystem::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

Status FaultyFileSystem::BeginOp() {
  if (crashed_) return Status::IOError(kCrashMessage);
  const int64_t op = ops_++;
  if (armed_ && halt_after_ops_ >= 0 && op >= halt_after_ops_) {
    CrashNowLocked();
    return Status::IOError(kCrashMessage);
  }
  return Status::OK();
}

// Applies the simulated kernel state to the real directory: unsynced bytes
// are (partially, seeded-randomly) lost, un-dir-synced renames are undone
// with their clobbered targets restored, un-dir-synced creations vanish.
void FaultyFileSystem::CrashNowLocked() {
  crashed_ = true;
  for (const auto& [path, track] : tracks_) {
    if (track.written <= track.synced) continue;
    const uint64_t unsynced = track.written - track.synced;
    const uint64_t kept = static_cast<uint64_t>(
        rng_.UniformInt(0, static_cast<int64_t>(unsynced)));
    (void)base_->Truncate(path, track.synced + kept);
  }
  for (auto it = pending_renames_.rbegin(); it != pending_renames_.rend();
       ++it) {
    (void)base_->Rename(it->to, it->from);
    if (it->had_old) {
      auto restored = base_->OpenTrunc(it->to);
      if (restored.ok()) {
        (void)(*restored)->Append(it->old_contents);
        (void)(*restored)->Close();
      }
    }
  }
  for (const auto& path : pending_creates_) {
    (void)base_->Remove(path);
  }
}

StatusOr<std::unique_ptr<WritableFile>> FaultyFileSystem::OpenTrunc(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  LLMMS_RETURN_NOT_OK(BeginOp());
  const bool existed = base_->Exists(path);
  LLMMS_ASSIGN_OR_RETURN(auto file, base_->OpenTrunc(path));
  if (armed_) {
    if (!existed) pending_creates_.push_back(path);
    // In-place truncation is destructive: the old durable content is gone
    // the moment the open succeeds (which is exactly why replacement must
    // go through AtomicWriteFile).
    tracks_[path] = FileTrack{0, 0};
  }
  return std::unique_ptr<WritableFile>(
      new FaultyWritableFile(this, path, std::move(file)));
}

Status FaultyFileSystem::OnAppend(const std::string& path,
                                  std::string_view data, WritableFile* file) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::IOError(kCrashMessage);
  const int64_t op = ops_++;
  const bool crash_here = armed_ && halt_after_ops_ >= 0 &&
                          op >= halt_after_ops_;
  if (crash_here) {
    // The dying write lands a seeded-random prefix: the torn-write case.
    const size_t torn = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(data.size())));
    if (torn > 0) {
      (void)file->Append(data.substr(0, torn));
      tracks_[path].written += torn;
    }
    CrashNowLocked();
    return Status::IOError(kCrashMessage);
  }
  if (config_.enospc_prob > 0.0 && rng_.Bernoulli(config_.enospc_prob)) {
    ++injected_faults_;
    return Status::IOError("injected fault: no space left on device "
                           "(ENOSPC) writing '" + path + "'");
  }
  if (config_.write_error_prob > 0.0 &&
      rng_.Bernoulli(config_.write_error_prob)) {
    ++injected_faults_;
    return Status::IOError("injected fault: write failed to '" + path + "'");
  }
  if (config_.short_write_prob > 0.0 &&
      rng_.Bernoulli(config_.short_write_prob)) {
    ++injected_faults_;
    const size_t torn = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(data.size())));
    if (torn > 0) {
      (void)file->Append(data.substr(0, torn));
      if (armed_) tracks_[path].written += torn;
    }
    return Status::IOError("injected fault: short write to '" + path +
                           "' (" + std::to_string(torn) + "/" +
                           std::to_string(data.size()) + " bytes)");
  }
  LLMMS_RETURN_NOT_OK(file->Append(data));
  if (armed_) tracks_[path].written += data.size();
  return Status::OK();
}

Status FaultyFileSystem::OnSync(const std::string& path, WritableFile* file) {
  std::lock_guard<std::mutex> lock(mu_);
  LLMMS_RETURN_NOT_OK(BeginOp());
  if (config_.sync_error_prob > 0.0 &&
      rng_.Bernoulli(config_.sync_error_prob)) {
    ++injected_faults_;
    return Status::IOError("injected fault: fsync failed on '" + path +
                           "' (EIO)");
  }
  LLMMS_RETURN_NOT_OK(file->Sync());
  if (armed_) {
    auto it = tracks_.find(path);
    if (it != tracks_.end()) it->second.synced = it->second.written;
  }
  return Status::OK();
}

StatusOr<std::string> FaultyFileSystem::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  LLMMS_RETURN_NOT_OK(BeginOp());
  LLMMS_ASSIGN_OR_RETURN(auto contents, base_->ReadFile(path));
  if (!contents.empty() && config_.read_corrupt_prob > 0.0 &&
      rng_.Bernoulli(config_.read_corrupt_prob)) {
    ++injected_faults_;
    ++read_corruptions_;
    const size_t byte = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(contents.size()) - 1));
    contents[byte] = static_cast<char>(
        contents[byte] ^ (1u << rng_.UniformInt(0, 7)));
  }
  return contents;
}

Status FaultyFileSystem::Rename(const std::string& from,
                                const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  LLMMS_RETURN_NOT_OK(BeginOp());
  if (config_.rename_error_prob > 0.0 &&
      rng_.Bernoulli(config_.rename_error_prob)) {
    ++injected_faults_;
    return Status::IOError("injected fault: lost rename '" + from +
                           "' -> '" + to + "'");
  }
  if (armed_) {
    PendingRename pending;
    pending.from = from;
    pending.to = to;
    if (base_->Exists(to)) {
      auto old = base_->ReadFile(to);
      if (old.ok()) {
        pending.had_old = true;
        pending.old_contents = std::move(*old);
      }
    }
    LLMMS_RETURN_NOT_OK(base_->Rename(from, to));
    pending_renames_.push_back(std::move(pending));
    auto it = tracks_.find(from);
    if (it != tracks_.end()) {
      tracks_[to] = it->second;
      tracks_.erase(it);
    }
    return Status::OK();
  }
  return base_->Rename(from, to);
}

Status FaultyFileSystem::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  LLMMS_RETURN_NOT_OK(BeginOp());
  if (armed_) {
    tracks_.erase(path);
    pending_creates_.erase(
        std::remove(pending_creates_.begin(), pending_creates_.end(), path),
        pending_creates_.end());
  }
  return base_->Remove(path);
}

Status FaultyFileSystem::Truncate(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  LLMMS_RETURN_NOT_OK(BeginOp());
  LLMMS_RETURN_NOT_OK(base_->Truncate(path, size));
  if (armed_) {
    auto it = tracks_.find(path);
    if (it != tracks_.end()) {
      it->second.written = std::min(it->second.written, size);
      it->second.synced = std::min(it->second.synced, size);
    }
  }
  return Status::OK();
}

Status FaultyFileSystem::SyncDir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  LLMMS_RETURN_NOT_OK(BeginOp());
  LLMMS_RETURN_NOT_OK(base_->SyncDir(path));
  if (armed_) {
    // Entries in this directory become durable: their renames can no longer
    // be lost and their creations can no longer vanish.
    pending_renames_.erase(
        std::remove_if(pending_renames_.begin(), pending_renames_.end(),
                       [&](const PendingRename& r) {
                         return DirnameOf(r.to) == path;
                       }),
        pending_renames_.end());
    pending_creates_.erase(
        std::remove_if(pending_creates_.begin(), pending_creates_.end(),
                       [&](const std::string& p) {
                         return DirnameOf(p) == path;
                       }),
        pending_creates_.end());
  }
  return Status::OK();
}

bool FaultyFileSystem::Exists(const std::string& path) {
  return base_->Exists(path);
}

FsOpCounts FaultyFileSystem::op_counts() const {
  FsOpCounts out = base_->op_counts();
  std::lock_guard<std::mutex> lock(mu_);
  out.injected_faults = injected_faults_;
  out.read_corruptions = read_corruptions_;
  out.crashed = crashed_;
  return out;
}

// --------------------------------------------------------------- helpers

FileSystem* FileSystem::Default() {
  static FileSystem* instance = [] {
    auto* real = new RealFileSystem();  // intentionally leaked singleton
    const char* env = std::getenv("LLMMS_IO_CHAOS");
    const double prob = env != nullptr ? std::atof(env) : 0.0;
    if (prob <= 0.0) return static_cast<FileSystem*>(real);
    FsFaultConfig config;
    config.short_write_prob = prob;
    config.sync_error_prob = prob;
    config.enospc_prob = prob;
    config.rename_error_prob = prob;
    config.read_corrupt_prob = prob;
    return static_cast<FileSystem*>(new FaultyFileSystem(real, config));
  }();
  return instance;
}

StorageCounters& GlobalStorageCounters() {
  static StorageCounters counters;
  return counters;
}

std::string DirnameOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status AtomicWriteFile(FileSystem* fs, const std::string& path,
                       std::string_view data) {
  const std::string tmp = path + ".tmp";
  LLMMS_ASSIGN_OR_RETURN(auto file, fs->OpenTrunc(tmp));
  Status status = file->Append(data);
  if (status.ok()) status = file->Sync();
  const Status close = file->Close();
  if (status.ok()) status = close;
  if (!status.ok()) {
    (void)fs->Remove(tmp);  // best effort; stale tmps are also ignored later
    return status;
  }
  LLMMS_RETURN_NOT_OK(fs->Rename(tmp, path));
  return fs->SyncDir(DirnameOf(path));
}

}  // namespace llmms
