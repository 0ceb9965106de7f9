// Vector-database benchmark harness (BENCH_vectordb.json): the recorded
// performance baseline for the sharded, quantized RAG substrate
// (DESIGN.md §15) plus the durability-plane throughput numbers the crash
// harness certifies.
//
// Phase 1 (durability): WAL append throughput per sync policy — kNone is
// the in-memory ceiling, kGroupCommit amortizes one fsync over
// group_commit_every appends, kEveryRecord is the acked-means-durable mode.
//
// Phase 2 (Pareto): a clustered corpus of LLMMS_BENCH_VECTORS embeddings
// (default 1M) is loaded into ShardedCollections across a shard-count sweep,
// exact and quantized (two-stage int8 scan + full-precision re-rank, with an
// overfetch sweep). Every configuration reports recall@k against the
// single-shard exact ground truth and sustained query throughput: the
// recall-vs-QPS Pareto frontier. The headline is the fastest multi-shard
// quantized point whose recall is within 0.5% of exact.
//
// Usage: bench_vectordb [output.json]
//   LLMMS_BENCH_VECTORS   corpus size for the Pareto phase (default 1000000)
//   LLMMS_BENCH_DIM       embedding dimension (default 64)
//   LLMMS_BENCH_QUERIES   query-set size (default 24)
//   LLMMS_BENCH_K         top-k per query (default 10)
//   LLMMS_BENCH_POOL      query fan-out pool threads (default: hardware
//                         concurrency; 1 disables the pool)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "llmms/common/fs.h"
#include "llmms/common/json.h"
#include "llmms/common/rng.h"
#include "llmms/common/thread_pool.h"
#include "llmms/vectordb/collection.h"
#include "llmms/vectordb/sharded_collection.h"
#include "llmms/vectordb/wal.h"

#include "clustered_sampler.h"

namespace llmms::bench {
namespace {

using Clock = std::chrono::steady_clock;
using vectordb::Collection;
using vectordb::ShardedCollection;
using vectordb::Vector;
using vectordb::VectorRecord;
using vectordb::WriteAheadLog;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

// --- Phase 1: durability ---------------------------------------------------

Json BenchWalAppend(WriteAheadLog::SyncPolicy policy, const char* label,
                    size_t appends, size_t dim) {
  RealFileSystem fs;
  const std::string path = "/tmp/llmms_bench.wal";
  (void)fs.Remove(path);
  WriteAheadLog::Options options;
  options.sync_policy = policy;
  auto log = WriteAheadLog::Open(&fs, path, options);
  Json row = Json::MakeObject();
  row.Set("sync_policy", label);
  row.Set("appends", appends);
  if (!log.ok()) {
    row.Set("error", log.status().ToString());
    return row;
  }
  Rng rng(17);
  VectorRecord record;
  record.vector.resize(dim);
  for (auto& x : record.vector) x = static_cast<float>(rng.Normal());
  record.metadata["k"] = "v";
  const auto start = Clock::now();
  for (size_t i = 0; i < appends; ++i) {
    record.id = "rec-" + std::to_string(i);
    if (!(*log)->AppendUpsert(record).ok()) break;
  }
  const double seconds = SecondsSince(start);
  row.Set("seconds", seconds);
  row.Set("appends_per_sec",
          seconds > 0.0 ? static_cast<double>(appends) / seconds : 0.0);
  (void)fs.Remove(path);
  return row;
}

// --- Phase 2: the recall-vs-QPS Pareto -------------------------------------

struct ParetoRow {
  size_t shards = 0;
  bool quantized = false;
  size_t overfetch = 0;
  double recall = 0.0;
  double qps = 0.0;
  double mean_query_ms = 0.0;
  double build_seconds = 0.0;
};

std::unique_ptr<ShardedCollection> BuildCollection(
    const std::vector<Vector>& corpus, size_t dim, size_t shards,
    bool quantized, ThreadPool* pool, double* build_seconds) {
  ShardedCollection::Options options;
  options.collection.dimension = dim;
  options.collection.metric = vectordb::DistanceMetric::kCosine;
  options.collection.index_kind = vectordb::IndexKind::kFlat;
  options.collection.quantization.enabled = quantized;
  options.collection.quantization.train_size = 4096;
  options.num_shards = shards;
  options.pool = pool;
  auto collection = std::make_unique<ShardedCollection>("pareto", options);
  const auto start = Clock::now();
  constexpr size_t kBatch = 100000;
  std::vector<VectorRecord> batch;
  batch.reserve(kBatch);
  for (size_t i = 0; i < corpus.size(); ++i) {
    VectorRecord record;
    record.id = "v-" + std::to_string(i);
    record.vector = corpus[i];
    batch.push_back(std::move(record));
    if (batch.size() == kBatch || i + 1 == corpus.size()) {
      (void)collection->UpsertBatch(std::move(batch));
      batch.clear();
      batch.reserve(kBatch);
    }
  }
  *build_seconds = SecondsSince(start);
  return collection;
}

// Recall@k of `collection` against per-query ground-truth id sets, then
// sustained throughput: passes over the query set until >= 0.5s elapsed.
ParetoRow MeasureRow(const ShardedCollection& collection,
                     const std::vector<Vector>& queries, size_t k,
                     const std::vector<std::unordered_set<std::string>>&
                         truth) {
  ParetoRow row;
  size_t found = 0;
  size_t expected = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto results = *collection.Query(queries[q], k);
    expected += truth[q].size();
    for (const auto& hit : results) found += truth[q].count(hit.id);
  }
  row.recall = expected > 0
                   ? static_cast<double>(found) / static_cast<double>(expected)
                   : 0.0;
  size_t served = 0;
  const auto start = Clock::now();
  double seconds = 0.0;
  while (seconds < 0.5) {
    for (const auto& q : queries) (void)*collection.Query(q, k);
    served += queries.size();
    seconds = SecondsSince(start);
  }
  row.qps = seconds > 0.0 ? static_cast<double>(served) / seconds : 0.0;
  row.mean_query_ms =
      served > 0 ? seconds * 1e3 / static_cast<double>(served) : 0.0;
  return row;
}

Json ToJson(const ParetoRow& row) {
  Json out = Json::MakeObject();
  out.Set("shards", row.shards);
  out.Set("quantized", row.quantized);
  if (row.quantized) out.Set("overfetch", row.overfetch);
  out.Set("recall_at_k", row.recall);
  out.Set("qps", row.qps);
  out.Set("mean_query_ms", row.mean_query_ms);
  out.Set("build_seconds", row.build_seconds);
  return out;
}

int Main(int argc, char** argv) {
  const std::string output = argc > 1 ? argv[1] : "BENCH_vectordb.json";
  const size_t n = EnvSize("LLMMS_BENCH_VECTORS", 1000000);
  const size_t dim = EnvSize("LLMMS_BENCH_DIM", 64);
  const size_t num_queries = EnvSize("LLMMS_BENCH_QUERIES", 24);
  const size_t k = EnvSize("LLMMS_BENCH_K", 10);
  const size_t pool_threads = EnvSize(
      "LLMMS_BENCH_POOL", std::max<size_t>(1, std::thread::hardware_concurrency()));

  std::fprintf(stderr, "durability phase\n");
  Json wal_rows = Json::MakeArray();
  wal_rows.Append(BenchWalAppend(WriteAheadLog::SyncPolicy::kNone, "none",
                                 200000, 128));
  wal_rows.Append(BenchWalAppend(WriteAheadLog::SyncPolicy::kGroupCommit,
                                 "group_commit", 30000, 128));
  wal_rows.Append(BenchWalAppend(WriteAheadLog::SyncPolicy::kEveryRecord,
                                 "every_record", 5000, 128));
  for (size_t i = 0; i < wal_rows.Size(); ++i) {
    std::fprintf(stderr, "  wal %-12s %.0f appends/s\n",
                 wal_rows.At(i)["sync_policy"].AsString().c_str(),
                 wal_rows.At(i)["appends_per_sec"].AsDouble(0.0));
  }
  Json durability = Json::MakeObject();
  durability.Set("wal_append", std::move(wal_rows));

  std::fprintf(stderr,
               "pareto phase: %zu vectors, dim %zu, %zu queries, k=%zu\n", n,
               dim, num_queries, k);
  Rng rng(0xBEEF);
  ClusteredSampler sampler(&rng, dim, /*num_clusters=*/64);
  std::vector<Vector> corpus;
  corpus.reserve(n);
  for (size_t i = 0; i < n; ++i) corpus.push_back(sampler.Sample());
  std::vector<Vector> queries;
  for (size_t i = 0; i < num_queries; ++i) queries.push_back(sampler.Sample());

  std::unique_ptr<ThreadPool> pool;
  if (pool_threads > 1) pool = std::make_unique<ThreadPool>(pool_threads);

  const std::vector<size_t> shard_sweep = {1, 2, 4, 8};
  const std::vector<size_t> overfetch_sweep = {2, 4, 8, 16, 32};

  // Ground truth + baseline: single shard, quantization off — byte-for-byte
  // the pre-sharding query path (vectordb_shard_test asserts this).
  std::vector<std::unordered_set<std::string>> truth(num_queries);
  std::vector<ParetoRow> rows;
  double baseline_qps = 0.0;
  for (const size_t shards : shard_sweep) {
    for (const bool quantized : {false, true}) {
      double build_seconds = 0.0;
      auto collection = BuildCollection(corpus, dim, shards, quantized,
                                        pool.get(), &build_seconds);
      if (shards == 1 && !quantized) {
        for (size_t q = 0; q < num_queries; ++q) {
          const auto exact = *collection->Query(queries[q], k);
          for (const auto& hit : exact) truth[q].insert(hit.id);
        }
      }
      const auto sweep =
          quantized ? overfetch_sweep : std::vector<size_t>{0};
      for (const size_t overfetch : sweep) {
        if (quantized) collection->set_quantization_overfetch(overfetch);
        ParetoRow row = MeasureRow(*collection, queries, k, truth);
        row.shards = shards;
        row.quantized = quantized;
        row.overfetch = overfetch;
        row.build_seconds = build_seconds;
        if (shards == 1 && !quantized) baseline_qps = row.qps;
        std::fprintf(stderr,
                     "  shards=%zu %s%-2zu  recall %.3f  qps %.1f  "
                     "%.2f ms/query\n",
                     shards, quantized ? "overfetch=" : "exact     ",
                     overfetch, row.recall, row.qps, row.mean_query_ms);
        rows.push_back(row);
      }
    }
  }

  // Headline: fastest multi-shard quantized point within 0.5% of exact
  // recall, against the single-shard exact baseline.
  const ParetoRow* best = nullptr;
  for (const auto& row : rows) {
    if (row.shards < 2 || !row.quantized) continue;
    if (row.recall < 0.995) continue;
    if (best == nullptr || row.qps > best->qps) best = &row;
  }
  Json headline = Json::MakeObject();
  headline.Set("single_shard_exact_qps", baseline_qps);
  if (best != nullptr) {
    headline.Set("config", ToJson(*best));
    headline.Set("qps_vs_single_shard_exact",
                 baseline_qps > 0.0 ? best->qps / baseline_qps : 0.0);
    std::fprintf(stderr,
                 "headline: shards=%zu overfetch=%zu  recall %.3f  "
                 "%.2fx single-shard exact qps\n",
                 best->shards, best->overfetch, best->recall,
                 baseline_qps > 0.0 ? best->qps / baseline_qps : 0.0);
  }

  Json config = Json::MakeObject();
  config.Set("vectors", n);
  config.Set("dim", dim);
  config.Set("queries", num_queries);
  config.Set("k", k);
  config.Set("index", "flat");
  config.Set("metric", "cosine");
  config.Set("pool_threads", pool_threads);
  config.Set("quantization_train_size", 4096);

  Json out = Json::MakeObject();
  out.Set("bench", "vectordb");
  out.Set("description",
          "WAL append throughput per sync policy, then the recall-vs-QPS "
          "Pareto for sharded exact vs. quantized two-stage retrieval; "
          "recall is against the single-shard exact ground truth");
  out.Set("config", std::move(config));
  out.Set("durability", std::move(durability));
  Json pareto = Json::MakeArray();
  for (const auto& row : rows) pareto.Append(ToJson(row));
  out.Set("pareto", std::move(pareto));
  out.Set("headline", std::move(headline));

  FILE* f = std::fopen(output.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", output.c_str());
    return 1;
  }
  const std::string dump = out.Dump(2);
  std::fwrite(dump.data(), 1, dump.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", output.c_str());
  return 0;
}

}  // namespace
}  // namespace llmms::bench

int main(int argc, char** argv) { return llmms::bench::Main(argc, argv); }
