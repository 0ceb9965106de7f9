#include "llmms/vectordb/collection.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>
#include <shared_mutex>

#include "llmms/vectordb/distance.h"
#include "llmms/vectordb/flat_index.h"
#include "llmms/vectordb/hnsw_index.h"

namespace llmms::vectordb {

Collection::Collection(std::string name, const Options& options)
    : name_(std::move(name)), options_(options), index_(MakeIndex()) {}

std::unique_ptr<VectorIndex> Collection::MakeIndex() const {
  if (options_.index_kind == IndexKind::kFlat) {
    return std::make_unique<FlatIndex>(options_.dimension, options_.metric);
  }
  HnswIndex::Options hnsw;
  hnsw.M = options_.hnsw_m;
  hnsw.ef_construction = options_.hnsw_ef_construction;
  hnsw.ef_search = options_.hnsw_ef_search;
  hnsw.seed = options_.seed;
  return std::make_unique<HnswIndex>(options_.dimension, options_.metric,
                                     hnsw);
}

StatusOr<Collection::StoredRecord> Collection::StoredRecord::Pack(
    const VectorRecord& record) {
  const size_t words = 3 + 2 * record.metadata.size();
  size_t bytes = words * sizeof(uint32_t) + record.id.size() +
                 record.document.size();
  for (const auto& [key, value] : record.metadata) {
    bytes += key.size() + value.size();
  }
  if (bytes > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("record '" + record.id +
                                   "' exceeds 4 GiB packed");
  }
  StoredRecord stored;
  stored.bytes_ = std::make_unique_for_overwrite<char[]>(bytes);
  char* header = stored.bytes_.get();
  char* payload = header + words * sizeof(uint32_t);
  auto put = [&](std::string_view text) {
    const auto size = static_cast<uint32_t>(text.size());
    std::memcpy(header, &size, sizeof(size));
    header += sizeof(size);
    std::memcpy(payload, text.data(), text.size());
    payload += text.size();
  };
  const auto entries = static_cast<uint32_t>(record.metadata.size());
  std::memcpy(header, &entries, sizeof(entries));
  header += sizeof(entries);
  put(record.id);
  put(record.document);
  for (const auto& [key, value] : record.metadata) {
    put(key);
    put(value);
  }
  return stored;
}

uint32_t Collection::StoredRecord::Word(size_t i) const {
  uint32_t word;
  std::memcpy(&word, bytes_.get() + i * sizeof(word), sizeof(word));
  return word;
}

const char* Collection::StoredRecord::Payload() const {
  return bytes_.get() + (3 + 2 * Word(0)) * sizeof(uint32_t);
}

std::string_view Collection::StoredRecord::id() const {
  return {Payload(), Word(1)};
}

std::string_view Collection::StoredRecord::document() const {
  return {Payload() + Word(1), Word(2)};
}

template <typename Fn>
void Collection::StoredRecord::ForEachEntry(Fn&& fn) const {
  const char* at = Payload() + Word(1) + Word(2);
  for (uint32_t e = 0; e < Word(0); ++e) {
    const uint32_t key_size = Word(3 + 2 * e);
    const uint32_t value_size = Word(4 + 2 * e);
    if (!fn(std::string_view(at, key_size),
            std::string_view(at + key_size, value_size))) {
      return;
    }
    at += key_size + value_size;
  }
}

bool Collection::StoredRecord::MatchesFilter(
    const MetadataFilter& filter) const {
  for (const auto& [key, value] : filter) {
    bool matched = false;
    ForEachEntry([&](std::string_view k, std::string_view v) {
      if (k != key) return true;
      matched = v == value;
      return false;
    });
    if (!matched) return false;
  }
  return true;
}

Metadata Collection::StoredRecord::metadata() const {
  Metadata metadata;
  ForEachEntry([&](std::string_view key, std::string_view value) {
    metadata.emplace_hint(metadata.end(), key, value);
    return true;
  });
  return metadata;
}

Status Collection::RemoveLocked(
    std::unordered_map<std::string_view, SlotId>::iterator it) {
  const SlotId slot = it->second;
  LLMMS_RETURN_NOT_OK(index_->Remove(slot));
  // The key views the record's bytes: erase it before freeing them.
  id_to_slot_.erase(it);
  records_[slot] = StoredRecord();
  return Status::OK();
}

Status Collection::Upsert(VectorRecord record) {
  if (record.id.empty()) {
    return Status::InvalidArgument("record id must not be empty");
  }
  if (record.vector.size() != options_.dimension) {
    return Status::InvalidArgument(
        "vector dimension " + std::to_string(record.vector.size()) +
        " does not match collection dimension " +
        std::to_string(options_.dimension));
  }
  LLMMS_ASSIGN_OR_RETURN(StoredRecord stored, StoredRecord::Pack(record));
  std::unique_lock<WriterPreferringSharedMutex> lock(mu_);
  auto existing = id_to_slot_.find(record.id);
  if (existing != id_to_slot_.end()) {
    LLMMS_RETURN_NOT_OK(RemoveLocked(existing));
  }
  LLMMS_ASSIGN_OR_RETURN(SlotId slot, index_->Add(record.vector));
  if (slot != records_.size()) {
    return Status::Internal("index assigned slot " + std::to_string(slot) +
                            " after " + std::to_string(records_.size()));
  }
  records_.push_back(std::move(stored));
  id_to_slot_.emplace(records_.back().id(), slot);
  return Status::OK();
}

Status Collection::Delete(const std::string& id) {
  std::unique_lock<WriterPreferringSharedMutex> lock(mu_);
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) {
    return Status::NotFound("no record with id '" + id + "' in collection '" +
                            name_ + "'");
  }
  return RemoveLocked(it);
}

StatusOr<VectorRecord> Collection::Get(const std::string& id) const {
  std::shared_lock<WriterPreferringSharedMutex> lock(mu_);
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) {
    return Status::NotFound("no record with id '" + id + "' in collection '" +
                            name_ + "'");
  }
  const StoredRecord& stored = records_[it->second];
  VectorRecord record;
  record.id = id;
  const std::span<const float> row = index_->GetVector(it->second);
  record.vector.assign(row.begin(), row.end());
  record.metadata = stored.metadata();
  record.document = stored.document();
  return record;
}

bool Collection::Contains(const std::string& id) const {
  std::shared_lock<WriterPreferringSharedMutex> lock(mu_);
  return id_to_slot_.find(id) != id_to_slot_.end();
}

StatusOr<std::vector<QueryResult>> Collection::Query(
    const Vector& query, size_t k, const MetadataFilter& filter) const {
  std::shared_lock<WriterPreferringSharedMutex> lock(mu_);
  queries_.fetch_add(1, std::memory_order_relaxed);
  std::vector<QueryResult> out;
  if (k == 0 || id_to_slot_.empty()) return out;

  struct Kept {
    double distance;
    const StoredRecord* record;
  };
  // The selected top-k is ordered by (distance, id) while the index cuts
  // its candidate list by (distance, slot), so fetch at least one past k:
  // only seeing a strictly-farther candidate proves no tie straddles the
  // boundary. Filters over-fetch more aggressively so k survivors remain.
  size_t fetch = filter.empty() ? k + 1 : std::max<size_t>(k * 4, 16);
  std::vector<Kept> kept;
  for (;;) {
    LLMMS_ASSIGN_OR_RETURN(auto hits, index_->Search(query, fetch));
    kept.clear();
    for (const IndexHit& hit : hits) {
      const StoredRecord& record = records_[hit.slot];
      if (!record.live() || !record.MatchesFilter(filter)) continue;
      kept.push_back(Kept{hit.distance, &record});
    }
    std::sort(kept.begin(), kept.end(), [](const Kept& a, const Kept& b) {
      if (a.distance != b.distance) return a.distance < b.distance;
      return a.record->id() < b.record->id();
    });
    const bool exhausted =
        hits.size() < fetch || fetch >= id_to_slot_.size();
    if (exhausted) break;
    // The boundary is decided once the worst fetched candidate is strictly
    // farther than the k-th kept one; otherwise an unfetched record could
    // tie into the top-k and win on id — grow and look again.
    if (kept.size() >= k && hits.back().distance > kept[k - 1].distance) break;
    fetch *= 2;
  }
  if (kept.size() > k) kept.resize(k);
  out.reserve(kept.size());
  for (const Kept& item : kept) {
    QueryResult qr;
    qr.id = item.record->id();
    qr.score = SimilarityFromDistance(options_.metric, item.distance);
    qr.metadata = item.record->metadata();
    qr.document = item.record->document();
    out.push_back(std::move(qr));
  }
  return out;
}

std::vector<std::string> Collection::Ids() const {
  std::shared_lock<WriterPreferringSharedMutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(id_to_slot_.size());
  for (const auto& [id, slot] : id_to_slot_) ids.emplace_back(id);
  return ids;
}

size_t Collection::size() const {
  std::shared_lock<WriterPreferringSharedMutex> lock(mu_);
  return id_to_slot_.size();
}

size_t Collection::approx_vector_bytes() const {
  std::shared_lock<WriterPreferringSharedMutex> lock(mu_);
  return id_to_slot_.size() * options_.dimension * sizeof(float);
}

}  // namespace llmms::vectordb
