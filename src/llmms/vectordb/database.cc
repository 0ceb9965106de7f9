#include "llmms/vectordb/database.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "llmms/vectordb/hnsw_index.h"

namespace llmms::vectordb {
namespace {

constexpr uint32_t kMagic = 0x4C4D5644;  // "LMVD"
// v1: plain collections only, no quantization options.
// v2: quantization options per collection + a sharded-collection section.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kOldestReadableVersion = 1;

void WriteU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteString(std::string* out, const std::string& s) {
  WriteU64(out, s.size());
  out->append(s);
}

// Cursor reader over the snapshot bytes; bounds checks are phrased as
// `len > remaining` so hostile declared lengths cannot overflow the cursor.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view data) : data_(data) {}

  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }

  bool ReadString(std::string* s) {
    uint64_t len = 0;
    if (!ReadU64(&len)) return false;
    if (len > (1ULL << 32)) return false;  // sanity bound against corruption
    if (len > data_.size() - pos_) return false;
    s->assign(data_.data() + pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return true;
  }

  bool ReadFloats(size_t n, std::vector<float>* v) {
    if (n > (data_.size() - pos_) / sizeof(float)) return false;
    v->resize(n);
    std::memcpy(v->data(), data_.data() + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
    return true;
  }

 private:
  bool ReadRaw(void* out, size_t n) {
    if (n > data_.size() - pos_) return false;
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// Collection options, v2 layout (v1 lacks the quantization fields).
void WriteCollectionOptions(std::string* out, const Collection::Options& opts) {
  WriteU64(out, opts.dimension);
  WriteU32(out, static_cast<uint32_t>(opts.metric));
  WriteU32(out, static_cast<uint32_t>(opts.index_kind));
  WriteU64(out, opts.hnsw_m);
  WriteU64(out, opts.hnsw_ef_construction);
  WriteU64(out, opts.hnsw_ef_search);
  WriteU64(out, opts.seed);
  WriteU32(out, opts.quantization.enabled ? 1 : 0);
  WriteU64(out, opts.quantization.overfetch);
  WriteU64(out, opts.quantization.train_size);
}

// Widest ef_construction or ef_search a snapshot may declare.
constexpr uint64_t kMaxEf = 1ULL << 20;

// Reads one collection's options. A value the indexes do not support means
// a corrupt file: a metric or index kind past its enum, an hnsw_m outside
// [1, HnswIndex::kMaxM] (M = 0 links nothing), an ef_construction of 0
// (SearchLayer then compares against an empty result heap) or an ef above
// kMaxEf. ef_search may be 0, since searches raise it to k.
Status ReadCollectionOptions(SnapshotReader* in, uint32_t version,
                             Collection::Options* opts) {
  uint64_t dimension = 0;
  uint32_t metric = 0;
  uint32_t index_kind = 0;
  uint64_t m = 0;
  uint64_t efc = 0;
  uint64_t efs = 0;
  uint64_t seed = 0;
  if (!in->ReadU64(&dimension) || !in->ReadU32(&metric) ||
      !in->ReadU32(&index_kind) || !in->ReadU64(&m) || !in->ReadU64(&efc) ||
      !in->ReadU64(&efs) || !in->ReadU64(&seed)) {
    return Status::IOError("truncated collection options");
  }
  if (metric > static_cast<uint32_t>(DistanceMetric::kInnerProduct)) {
    return Status::IOError("corrupt collection metric");
  }
  if (index_kind > static_cast<uint32_t>(IndexKind::kHnsw)) {
    return Status::IOError("corrupt collection index kind");
  }
  if (m == 0 || m > HnswIndex::kMaxM) {
    return Status::IOError("corrupt collection hnsw_m");
  }
  if (efc == 0 || efc > kMaxEf || efs > kMaxEf) {
    return Status::IOError("corrupt collection hnsw ef");
  }
  opts->dimension = static_cast<size_t>(dimension);
  opts->metric = static_cast<DistanceMetric>(metric);
  opts->index_kind = static_cast<IndexKind>(index_kind);
  opts->hnsw_m = static_cast<size_t>(m);
  opts->hnsw_ef_construction = static_cast<size_t>(efc);
  opts->hnsw_ef_search = static_cast<size_t>(efs);
  opts->seed = seed;
  if (version >= 2) {
    uint32_t quantized = 0;
    uint64_t overfetch = 0;
    uint64_t train_size = 0;
    if (!in->ReadU32(&quantized) || !in->ReadU64(&overfetch) ||
        !in->ReadU64(&train_size)) {
      return Status::IOError("truncated collection options");
    }
    opts->quantization.enabled = quantized != 0;
    opts->quantization.overfetch = static_cast<size_t>(overfetch);
    opts->quantization.train_size = static_cast<size_t>(train_size);
  }
  return Status::OK();
}

Status WriteRecords(std::string* out, const CollectionBase& collection) {
  const auto ids = collection.Ids();
  WriteU64(out, ids.size());
  for (const auto& id : ids) {
    auto record = collection.Get(id);
    if (!record.ok()) return record.status();
    WriteString(out, record->id);
    WriteU64(out, record->vector.size());
    out->append(reinterpret_cast<const char*>(record->vector.data()),
                record->vector.size() * sizeof(float));
    WriteU64(out, record->metadata.size());
    for (const auto& [k, v] : record->metadata) {
      WriteString(out, k);
      WriteString(out, v);
    }
    WriteString(out, record->document);
  }
  return Status::OK();
}

Status ReadRecordsInto(SnapshotReader* in, const Collection::Options& opts,
                       CollectionBase* collection) {
  uint64_t num_records = 0;
  if (!in->ReadU64(&num_records)) {
    return Status::IOError("truncated record count");
  }
  for (uint64_t r = 0; r < num_records; ++r) {
    VectorRecord record;
    if (!in->ReadString(&record.id)) {
      return Status::IOError("truncated record id");
    }
    uint64_t dim = 0;
    if (!in->ReadU64(&dim) || dim != opts.dimension) {
      return Status::IOError("corrupt record vector length");
    }
    if (!in->ReadFloats(static_cast<size_t>(dim), &record.vector)) {
      return Status::IOError("truncated record vector");
    }
    uint64_t num_meta = 0;
    if (!in->ReadU64(&num_meta)) {
      return Status::IOError("truncated metadata count");
    }
    for (uint64_t i = 0; i < num_meta; ++i) {
      std::string k;
      std::string v;
      if (!in->ReadString(&k) || !in->ReadString(&v)) {
        return Status::IOError("truncated metadata entry");
      }
      record.metadata[std::move(k)] = std::move(v);
    }
    if (!in->ReadString(&record.document)) {
      return Status::IOError("truncated record document");
    }
    LLMMS_RETURN_NOT_OK(collection->Upsert(std::move(record)));
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::shared_ptr<Collection>> VectorDatabase::CreateCollection(
    const std::string& name, const Collection::Options& options) {
  if (name.empty()) {
    return Status::InvalidArgument("collection name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (NameTakenLocked(name)) {
    return Status::AlreadyExists("collection '" + name + "' already exists");
  }
  auto collection = std::make_shared<Collection>(name, options);
  collections_[name] = collection;
  return collection;
}

StatusOr<std::shared_ptr<Collection>> VectorDatabase::GetCollection(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("no collection named '" + name + "'");
  }
  return it->second;
}

StatusOr<std::shared_ptr<Collection>> VectorDatabase::GetOrCreateCollection(
    const std::string& name, const Collection::Options& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = collections_.find(name);
    if (it != collections_.end()) {
      const auto& existing = it->second->options();
      if (existing.dimension != options.dimension ||
          existing.metric != options.metric) {
        return Status::FailedPrecondition(
            "collection '" + name + "' exists with incompatible options");
      }
      return it->second;
    }
  }
  return CreateCollection(name, options);
}

StatusOr<std::shared_ptr<ShardedCollection>>
VectorDatabase::CreateShardedCollection(
    const std::string& name, const ShardedCollection::Options& options) {
  if (name.empty()) {
    return Status::InvalidArgument("collection name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (NameTakenLocked(name)) {
    return Status::AlreadyExists("collection '" + name + "' already exists");
  }
  auto collection = std::make_shared<ShardedCollection>(name, options);
  sharded_[name] = collection;
  return collection;
}

StatusOr<std::shared_ptr<ShardedCollection>>
VectorDatabase::GetShardedCollection(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sharded_.find(name);
  if (it == sharded_.end()) {
    return Status::NotFound("no sharded collection named '" + name + "'");
  }
  return it->second;
}

StatusOr<std::shared_ptr<ShardedCollection>>
VectorDatabase::GetOrCreateShardedCollection(
    const std::string& name, const ShardedCollection::Options& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sharded_.find(name);
    if (it != sharded_.end()) {
      const auto& existing = it->second->options();
      if (existing.collection.dimension != options.collection.dimension ||
          existing.collection.metric != options.collection.metric ||
          existing.num_shards != std::max<size_t>(1, options.num_shards)) {
        return Status::FailedPrecondition(
            "collection '" + name + "' exists with incompatible options");
      }
      return it->second;
    }
    if (collections_.count(name) > 0) {
      return Status::FailedPrecondition(
          "collection '" + name + "' exists but is not sharded");
    }
  }
  return CreateShardedCollection(name, options);
}

Status VectorDatabase::DropCollection(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (collections_.erase(name) == 0 && sharded_.erase(name) == 0) {
    return Status::NotFound("no collection named '" + name + "'");
  }
  return Status::OK();
}

std::vector<std::string> VectorDatabase::ListCollections() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(collections_.size() + sharded_.size());
  for (const auto& [name, c] : collections_) names.push_back(name);
  for (const auto& [name, c] : sharded_) names.push_back(name);
  return names;
}

size_t VectorDatabase::collection_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return collections_.size() + sharded_.size();
}

std::vector<VectorDatabase::CollectionStats> VectorDatabase::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CollectionStats> out;
  out.reserve(collections_.size() + sharded_.size());
  for (const auto& [name, collection] : collections_) {
    CollectionStats stats;
    stats.name = name;
    ShardedCollection::ShardStats shard;
    shard.records = collection->size();
    shard.queries = collection->query_count();
    shard.vector_bytes = collection->approx_vector_bytes();
    shard.quantized = collection->quantized();
    stats.shards.push_back(shard);
    out.push_back(std::move(stats));
  }
  for (const auto& [name, collection] : sharded_) {
    CollectionStats stats;
    stats.name = name;
    stats.sharded = true;
    stats.shards = collection->Stats();
    out.push_back(std::move(stats));
  }
  // Map iteration order is unspecified; health payloads should be stable.
  std::sort(out.begin(), out.end(),
            [](const CollectionStats& a, const CollectionStats& b) {
              return a.name < b.name;
            });
  return out;
}

Status VectorDatabase::Save(FileSystem* fs, const std::string& path) const {
  auto& counters = GlobalStorageCounters();
  std::string out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    WriteU32(&out, kMagic);
    WriteU32(&out, kVersion);
    WriteU64(&out, collections_.size());
    for (const auto& [name, collection] : collections_) {
      WriteString(&out, name);
      WriteCollectionOptions(&out, collection->options());
      LLMMS_RETURN_NOT_OK(WriteRecords(&out, *collection));
    }
    // v2 trailer: sharded collections, records merged across shards (the
    // hash placement is deterministic, so Load re-partitions identically).
    WriteU64(&out, sharded_.size());
    for (const auto& [name, collection] : sharded_) {
      WriteString(&out, name);
      WriteU64(&out, collection->num_shards());
      WriteCollectionOptions(&out, collection->options().collection);
      LLMMS_RETURN_NOT_OK(WriteRecords(&out, *collection));
    }
  }
  Status status = AtomicWriteFile(fs, path, out);
  if (!status.ok()) {
    counters.snapshot_save_failures.fetch_add(1, std::memory_order_relaxed);
    // A missing parent directory surfaces as NotFound from open(); this API
    // reports every save failure uniformly as IOError.
    if (status.IsNotFound()) return Status::IOError(status.message());
    return status;
  }
  counters.snapshot_saves.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status VectorDatabase::Save(const std::string& path) const {
  return Save(FileSystem::Default(), path);
}

StatusOr<std::unique_ptr<VectorDatabase>> VectorDatabase::Load(
    FileSystem* fs, const std::string& path) {
  auto& counters = GlobalStorageCounters();
  auto contents_or = fs->ReadFile(path);
  if (!contents_or.ok()) {
    counters.snapshot_load_failures.fetch_add(1, std::memory_order_relaxed);
    return Status::IOError("cannot open for read: " + path);
  }
  // Parsed in place: `in` views the bytes `contents_or` owns until we return.
  const std::string& contents = *contents_or;
  SnapshotReader in(contents);

  // Any parse failure from here on counts as a failed load.
  struct FailureCounter {
    ~FailureCounter() {
      auto& c = GlobalStorageCounters();
      (ok ? c.snapshot_loads : c.snapshot_load_failures)
          .fetch_add(1, std::memory_order_relaxed);
    }
    bool ok = false;
  } outcome;

  uint32_t magic = 0;
  uint32_t version = 0;
  if (!in.ReadU32(&magic) || magic != kMagic) {
    return Status::IOError("bad database file magic: " + path);
  }
  if (!in.ReadU32(&version) || version < kOldestReadableVersion ||
      version > kVersion) {
    return Status::IOError("unsupported database file version");
  }
  uint64_t num_collections = 0;
  if (!in.ReadU64(&num_collections)) {
    return Status::IOError("truncated database file");
  }

  auto db = std::make_unique<VectorDatabase>();
  for (uint64_t c = 0; c < num_collections; ++c) {
    std::string name;
    Collection::Options opts;
    if (!in.ReadString(&name)) {
      return Status::IOError("truncated collection header");
    }
    LLMMS_RETURN_NOT_OK(ReadCollectionOptions(&in, version, &opts));
    LLMMS_ASSIGN_OR_RETURN(auto collection, db->CreateCollection(name, opts));
    LLMMS_RETURN_NOT_OK(ReadRecordsInto(&in, opts, collection.get()));
  }

  if (version >= 2) {
    uint64_t num_sharded = 0;
    if (!in.ReadU64(&num_sharded)) {
      return Status::IOError("truncated sharded collection count");
    }
    for (uint64_t c = 0; c < num_sharded; ++c) {
      std::string name;
      uint64_t num_shards = 0;
      ShardedCollection::Options opts;
      if (!in.ReadString(&name) || !in.ReadU64(&num_shards)) {
        return Status::IOError("truncated sharded collection header");
      }
      LLMMS_RETURN_NOT_OK(
          ReadCollectionOptions(&in, version, &opts.collection));
      if (num_shards == 0 || num_shards > (1ULL << 20)) {
        return Status::IOError("corrupt shard count");
      }
      opts.num_shards = static_cast<size_t>(num_shards);
      LLMMS_ASSIGN_OR_RETURN(auto collection,
                             db->CreateShardedCollection(name, opts));
      LLMMS_RETURN_NOT_OK(
          ReadRecordsInto(&in, opts.collection, collection.get()));
    }
  }
  outcome.ok = true;
  return db;
}

StatusOr<std::unique_ptr<VectorDatabase>> VectorDatabase::Load(
    const std::string& path) {
  return Load(FileSystem::Default(), path);
}

}  // namespace llmms::vectordb
