#include "llmms/vectordb/collection.h"

#include <algorithm>
#include <mutex>

#include "llmms/vectordb/distance.h"
#include "llmms/vectordb/flat_index.h"
#include "llmms/vectordb/hnsw_index.h"

namespace llmms::vectordb {

Collection::Collection(std::string name, const Options& options)
    : name_(std::move(name)), options_(options), index_(MakeIndex()) {
  quant_overfetch_.store(std::max<size_t>(1, options_.quantization.overfetch),
                         std::memory_order_relaxed);
}

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

Status Collection::TrainQuantizerLocked() {
  // Collect the live vectors in slot order so the code index's slot
  // assignment is deterministic for a given insertion history.
  std::vector<std::pair<SlotId, const Vector*>> live;
  live.reserve(id_to_slot_.size());
  for (const auto& [id, slot] : id_to_slot_) {
    const Vector* v = index_->GetVector(slot);
    if (v != nullptr) live.emplace_back(slot, v);
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Vector> sample;
  sample.reserve(live.size());
  for (const auto& [slot, v] : live) sample.push_back(*v);

  ScalarQuantizer quantizer;
  LLMMS_RETURN_NOT_OK(quantizer.Train(sample));
  auto qindex =
      std::make_unique<QuantizedFlatIndex>(quantizer, options_.metric);
  std::unordered_map<SlotId, SlotId> slot_to_qslot;
  std::unordered_map<SlotId, SlotId> qslot_to_slot;
  for (const auto& [slot, v] : live) {
    LLMMS_ASSIGN_OR_RETURN(SlotId qslot, qindex->Add(*v));
    slot_to_qslot[slot] = qslot;
    qslot_to_slot[qslot] = slot;
  }
  qindex_ = std::move(qindex);
  slot_to_qslot_ = std::move(slot_to_qslot);
  qslot_to_slot_ = std::move(qslot_to_slot);
  return Status::OK();
}

Status Collection::AddToQuantizedLocked(SlotId slot, const Vector& vector) {
  LLMMS_ASSIGN_OR_RETURN(SlotId qslot, qindex_->Add(vector));
  slot_to_qslot_[slot] = qslot;
  qslot_to_slot_[qslot] = slot;
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
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto existing = id_to_slot_.find(record.id);
  if (existing != id_to_slot_.end()) {
    LLMMS_RETURN_NOT_OK(index_->Remove(existing->second));
    if (qindex_ != nullptr) {
      auto q = slot_to_qslot_.find(existing->second);
      if (q != slot_to_qslot_.end()) {
        LLMMS_RETURN_NOT_OK(qindex_->Remove(q->second));
        qslot_to_slot_.erase(q->second);
        slot_to_qslot_.erase(q);
      }
    }
    slot_to_record_.erase(existing->second);
    id_to_slot_.erase(existing);
  }
  LLMMS_ASSIGN_OR_RETURN(SlotId slot, index_->Add(record.vector));
  id_to_slot_[record.id] = slot;
  const Vector vector = std::move(record.vector);
  slot_to_record_[slot] = std::move(record);
  if (options_.quantization.enabled) {
    if (qindex_ != nullptr) {
      LLMMS_RETURN_NOT_OK(AddToQuantizedLocked(slot, vector));
    } else if (id_to_slot_.size() >=
               std::max<size_t>(1, options_.quantization.train_size)) {
      LLMMS_RETURN_NOT_OK(TrainQuantizerLocked());
    }
  }
  return Status::OK();
}

Status Collection::UpsertBatch(std::vector<VectorRecord> records) {
  for (auto& r : records) {
    LLMMS_RETURN_NOT_OK(Upsert(std::move(r)));
  }
  return Status::OK();
}

Status Collection::Delete(const std::string& id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) {
    return Status::NotFound("no record with id '" + id + "' in collection '" +
                            name_ + "'");
  }
  LLMMS_RETURN_NOT_OK(index_->Remove(it->second));
  if (qindex_ != nullptr) {
    auto q = slot_to_qslot_.find(it->second);
    if (q != slot_to_qslot_.end()) {
      LLMMS_RETURN_NOT_OK(qindex_->Remove(q->second));
      qslot_to_slot_.erase(q->second);
      slot_to_qslot_.erase(q);
    }
  }
  slot_to_record_.erase(it->second);
  id_to_slot_.erase(it);
  return Status::OK();
}

StatusOr<VectorRecord> Collection::Get(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) {
    return Status::NotFound("no record with id '" + id + "' in collection '" +
                            name_ + "'");
  }
  VectorRecord record = slot_to_record_.at(it->second);
  record.vector = *index_->GetVector(it->second);
  return record;
}

bool Collection::Contains(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return id_to_slot_.find(id) != id_to_slot_.end();
}

StatusOr<std::vector<IndexHit>> Collection::CandidatesLocked(
    const Vector& query, size_t fetch) const {
  if (qindex_ == nullptr || qindex_->size() == 0) {
    return index_->Search(query, fetch);
  }
  // Two-stage path: the int8 scan proposes fetch*overfetch candidates, the
  // exact distance against the stored full-precision vector re-ranks them.
  const size_t overfetch = quant_overfetch_.load(std::memory_order_relaxed);
  LLMMS_ASSIGN_OR_RETURN(auto qhits, qindex_->Search(query, fetch * overfetch));
  const double query_norm = Norm(query);
  std::vector<IndexHit> hits;
  hits.reserve(qhits.size());
  for (const IndexHit& qh : qhits) {
    auto it = qslot_to_slot_.find(qh.slot);
    if (it == qslot_to_slot_.end()) continue;
    const Vector* v = index_->GetVector(it->second);
    if (v == nullptr) continue;
    hits.push_back(IndexHit{it->second, Distance(options_.metric, query,
                                                 query_norm, *v, Norm(*v))});
  }
  std::sort(hits.begin(), hits.end(), [](const IndexHit& a, const IndexHit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.slot < b.slot;
  });
  if (hits.size() > fetch) hits.resize(fetch);
  return hits;
}

StatusOr<std::vector<QueryResult>> Collection::Query(
    const Vector& query, size_t k, const MetadataFilter& filter) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  queries_.fetch_add(1, std::memory_order_relaxed);
  std::vector<QueryResult> out;
  if (k == 0 || slot_to_record_.empty()) return out;

  struct Kept {
    double distance;
    const VectorRecord* record;
  };
  // The selected top-k is ordered by (distance, id) while the index cuts
  // its candidate list by (distance, slot), so fetch at least one past k:
  // only seeing a strictly-farther candidate proves no tie straddles the
  // boundary. Filters over-fetch more aggressively so k survivors remain.
  size_t fetch = filter.empty() ? k + 1 : std::max<size_t>(k * 4, 16);
  std::vector<Kept> kept;
  for (;;) {
    LLMMS_ASSIGN_OR_RETURN(auto hits, CandidatesLocked(query, fetch));
    kept.clear();
    for (const IndexHit& hit : hits) {
      auto it = slot_to_record_.find(hit.slot);
      if (it == slot_to_record_.end()) continue;
      if (!MatchesFilter(it->second.metadata, filter)) continue;
      kept.push_back(Kept{hit.distance, &it->second});
    }
    std::sort(kept.begin(), kept.end(), [](const Kept& a, const Kept& b) {
      if (a.distance != b.distance) return a.distance < b.distance;
      return a.record->id < b.record->id;
    });
    const bool exhausted =
        hits.size() < fetch || fetch >= slot_to_record_.size();
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
    const VectorRecord& rec = *item.record;
    QueryResult qr;
    qr.id = rec.id;
    qr.score = SimilarityFromDistance(options_.metric, item.distance);
    qr.metadata = rec.metadata;
    qr.document = rec.document;
    out.push_back(std::move(qr));
  }
  return out;
}

std::vector<std::string> Collection::Ids() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(id_to_slot_.size());
  for (const auto& [id, slot] : id_to_slot_) ids.push_back(id);
  return ids;
}

size_t Collection::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return id_to_slot_.size();
}

bool Collection::quantized() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return qindex_ != nullptr;
}

size_t Collection::approx_vector_bytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t bytes = id_to_slot_.size() * options_.dimension * sizeof(float);
  if (qindex_ != nullptr) bytes += qindex_->code_bytes();
  return bytes;
}

void Collection::set_quantization_overfetch(size_t overfetch) {
  quant_overfetch_.store(std::max<size_t>(1, overfetch),
                         std::memory_order_relaxed);
}

}  // namespace llmms::vectordb
