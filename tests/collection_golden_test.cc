// Pins what a caller of the vector store sees in
// tests/golden/collection_ops.golden: a seeded history of upserts,
// replacements of existing ids with new metadata, deletes and re-inserts,
// then Get (metadata, document, vector digest), the sorted ids and filtered
// and unfiltered top-k queries (ids, score bits, metadata, documents). The
// same history runs over a flat L2, an HNSW cosine and a flat
// inner-product collection, so a change to how records are stored must
// leave every line as it is.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "golden_file.h"
#include "llmms/common/rng.h"
#include "llmms/vectordb/collection.h"

namespace llmms::vectordb {
namespace {

constexpr size_t kDimension = 16;

std::string Hex(uint64_t bits) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
  return buf;
}

std::string ScoreText(double score) {
  uint64_t bits = 0;
  std::memcpy(&bits, &score, sizeof(bits));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", score);
  return std::string(buf) + " " + Hex(bits);
}

std::string VectorDigest(const Vector& v) {
  return Hex(HashBytes(v.data(), v.size() * sizeof(float)));
}

std::string MetadataText(const Metadata& metadata) {
  std::string out = "{";
  for (const auto& [key, value] : metadata) {
    if (out.size() > 1) out += ",";
    out += key + "=" + value;
  }
  return out + "}";
}

// Drives one seeded history; every configuration sees the same calls.
class History {
 public:
  History() : rng_(0xC011EC7ULL) {}

  Vector NextVector() {
    // Some records copy an earlier vector, so equal scores must resolve
    // by id.
    if (!vectors_.empty() && rng_.Bernoulli(0.12)) {
      return vectors_[static_cast<size_t>(rng_.UniformInt(
          0, static_cast<int64_t>(vectors_.size()) - 1))];
    }
    Vector v(kDimension);
    for (auto& x : v) x = static_cast<float>(rng_.Normal());
    vectors_.push_back(v);
    return v;
  }

  Metadata NextMetadata(size_t n) {
    Metadata metadata;
    const double kind = rng_.NextDouble();
    if (kind < 0.1) return metadata;  // no metadata at all
    static const char* kGroups[] = {"a", "b", "c"};
    metadata["group"] = kGroups[rng_.UniformInt(0, 2)];
    metadata["parity"] = n % 2 == 0 ? "even" : "odd";
    if (kind > 0.7) metadata["tag"] = rng_.Bernoulli(0.5) ? "x" : "y";
    return metadata;
  }

  VectorRecord NextRecord(const std::string& id) {
    VectorRecord record;
    record.id = id;
    record.vector = NextVector();
    const size_t version = ++versions_;
    record.metadata = NextMetadata(version);
    record.document = "document of " + id + " v" + std::to_string(version);
    return record;
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  std::vector<Vector> vectors_;
  size_t versions_ = 0;
};

std::string RecordId(int64_t n) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "r%03" PRId64, n);
  return buf;
}

void AppendQueries(const Collection& collection, const char* phase,
                   uint64_t seed, std::string* out) {
  Rng rng(seed);
  const std::vector<MetadataFilter> filters = {
      {},
      {{"group", "b"}},
      {{"group", "a"}, {"parity", "odd"}},
      {{"tag", "x"}},
      {{"group", "none"}},
  };
  for (int q = 0; q < 3; ++q) {
    Vector query(kDimension);
    for (auto& x : query) x = static_cast<float>(rng.Normal());
    for (size_t k : {1u, 4u, 12u}) {
      for (size_t f = 0; f < filters.size(); ++f) {
        auto hits = collection.Query(query, k, filters[f]);
        *out += std::string(phase) + " query " + std::to_string(q) +
                " k=" + std::to_string(k) + " filter=" +
                MetadataText(filters[f]);
        if (!hits.ok()) {
          *out += " error " + hits.status().ToString() + "\n";
          continue;
        }
        *out += " hits=" + std::to_string(hits->size()) + "\n";
        for (const auto& hit : *hits) {
          *out += "  " + hit.id + " " + ScoreText(hit.score) + " " +
                  MetadataText(hit.metadata) + " \"" + hit.document + "\"\n";
        }
      }
    }
  }
}

void AppendState(const Collection& collection, const char* phase,
                 int64_t universe, std::string* out) {
  auto ids = collection.Ids();
  std::sort(ids.begin(), ids.end());
  *out += std::string(phase) + " size " + std::to_string(collection.size()) +
          " ids";
  for (const auto& id : ids) *out += " " + id;
  *out += "\n";
  for (int64_t n = 0; n < universe; n += 3) {
    const std::string id = RecordId(n);
    auto record = collection.Get(id);
    *out += std::string(phase) + " get " + id;
    if (!record.ok()) {
      *out += " " + std::string(record.status().IsNotFound() ? "not found"
                                                              : "error") +
              "\n";
      continue;
    }
    *out += " id=" + record->id + " " + MetadataText(record->metadata) +
            " \"" + record->document + "\" vector " +
            VectorDigest(record->vector) + "\n";
  }
}

std::string RunHistory(Collection* collection) {
  std::string out;
  History history;
  // Phase 1: fresh ids.
  constexpr int64_t kInitial = 120;
  for (int64_t n = 0; n < kInitial; ++n) {
    const Status status = collection->Upsert(history.NextRecord(RecordId(n)));
    if (!status.ok()) out += "upsert " + RecordId(n) + " " + status.ToString() + "\n";
  }
  AppendState(*collection, "loaded", kInitial, &out);
  AppendQueries(*collection, "loaded", 0x51ULL, &out);

  // Phase 2: replacements with new metadata, deletes, re-inserts and new
  // ids, in seeded order.
  int64_t next_id = kInitial;
  for (int op = 0; op < 160; ++op) {
    const double kind = history.rng().NextDouble();
    if (kind < 0.4) {
      const std::string id = RecordId(history.rng().UniformInt(0, next_id - 1));
      const Status status = collection->Upsert(history.NextRecord(id));
      out += "replace " + id + " " + (status.ok() ? "ok" : status.ToString()) +
             "\n";
    } else if (kind < 0.7) {
      const std::string id = RecordId(history.rng().UniformInt(0, next_id - 1));
      const Status status = collection->Delete(id);
      out += "delete " + id + " " +
             (status.ok() ? "ok" : status.IsNotFound() ? "not found"
                                                       : status.ToString()) +
             "\n";
    } else {
      const std::string id = RecordId(next_id++);
      const Status status = collection->Upsert(history.NextRecord(id));
      out += "insert " + id + " " + (status.ok() ? "ok" : status.ToString()) +
             "\n";
    }
  }
  AppendState(*collection, "mutated", next_id, &out);
  AppendQueries(*collection, "mutated", 0x52ULL, &out);
  return out;
}

Collection::Options BaseOptions(IndexKind kind, DistanceMetric metric) {
  Collection::Options opts;
  opts.dimension = kDimension;
  opts.metric = metric;
  opts.index_kind = kind;
  opts.hnsw_m = 6;
  opts.hnsw_ef_construction = 40;
  opts.hnsw_ef_search = 24;
  return opts;
}

TEST(CollectionGolden, SeededOperationsMatchGolden) {
  std::string fresh;
  {
    Collection flat("flat", BaseOptions(IndexKind::kFlat, DistanceMetric::kL2));
    fresh += "# flat, l2\n" + RunHistory(&flat);
  }
  {
    Collection hnsw("hnsw",
                    BaseOptions(IndexKind::kHnsw, DistanceMetric::kCosine));
    fresh += "# hnsw, cosine\n" + RunHistory(&hnsw);
  }
  {
    Collection flat_ip(
        "flat_ip", BaseOptions(IndexKind::kFlat, DistanceMetric::kInnerProduct));
    fresh += "# flat, inner product\n" + RunHistory(&flat_ip);
  }
  testutil::ExpectMatchesGolden("collection_ops.golden", fresh);
}

}  // namespace
}  // namespace llmms::vectordb
