// Vector-database benchmark harness (BENCH_vectordb.json): the recorded
// performance baseline for the RAG vector store (DESIGN.md §15).
//
// A clustered corpus of LLMMS_BENCH_VECTORS embeddings (default 1M) is
// loaded into one flat cosine Collection, then kPasses timed passes each
// run every query of the set once. Each pass gives one QPS figure; the
// file reports every pass and their median and interquartile range, so a
// later change can be compared with the run-to-run spread.
//
// Usage: bench_vectordb [output.json]
//   LLMMS_BENCH_VECTORS   corpus size (default 1000000)
//   LLMMS_BENCH_DIM       embedding dimension (default 64)
//   LLMMS_BENCH_QUERIES   queries per pass (default 200)
//   LLMMS_BENCH_K         top-k per query (default 10)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "llmms/common/json.h"
#include "llmms/common/rng.h"
#include "llmms/vectordb/collection.h"

#include "clustered_sampler.h"

namespace llmms::bench {
namespace {

using Clock = std::chrono::steady_clock;
using vectordb::Collection;
using vectordb::Vector;
using vectordb::VectorRecord;

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

// Timed passes over the query set: enough for quartiles that one slow pass
// does not move.
constexpr size_t kPasses = 7;

std::unique_ptr<Collection> BuildCollection(const std::vector<Vector>& corpus,
                                            size_t dim) {
  Collection::Options options;
  options.dimension = dim;
  options.metric = vectordb::DistanceMetric::kCosine;
  options.index_kind = vectordb::IndexKind::kFlat;
  auto collection = std::make_unique<Collection>("scan", options);
  for (size_t i = 0; i < corpus.size(); ++i) {
    VectorRecord record;
    record.id = "v-" + std::to_string(i);
    record.vector = corpus[i];
    (void)collection->Upsert(std::move(record));
  }
  return collection;
}

// The q-quantile of `values`, interpolating linearly between ranks.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (at - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// Median, quartiles and interquartile range of one figure across passes.
Json Spread(const std::vector<double>& values) {
  Json out = Json::MakeObject();
  const double p25 = Quantile(values, 0.25);
  const double p75 = Quantile(values, 0.75);
  out.Set("median", Quantile(values, 0.5));
  out.Set("p25", p25);
  out.Set("p75", p75);
  out.Set("iqr", p75 - p25);
  return out;
}

int Main(int argc, char** argv) {
  const std::string output = argc > 1 ? argv[1] : "BENCH_vectordb.json";
  const size_t n = EnvSize("LLMMS_BENCH_VECTORS", 1000000);
  const size_t dim = EnvSize("LLMMS_BENCH_DIM", 64);
  const size_t num_queries = EnvSize("LLMMS_BENCH_QUERIES", 200);
  const size_t k = EnvSize("LLMMS_BENCH_K", 10);

  std::fprintf(stderr,
               "exact scan: %zu vectors, dim %zu, %zu queries x %zu passes, "
               "k=%zu\n",
               n, dim, num_queries, kPasses, k);
  Rng rng(0xBEEF);
  ClusteredSampler sampler(&rng, dim, /*num_clusters=*/64);
  std::vector<Vector> corpus;
  corpus.reserve(n);
  for (size_t i = 0; i < n; ++i) corpus.push_back(sampler.Sample());
  std::vector<Vector> queries;
  for (size_t i = 0; i < num_queries; ++i) queries.push_back(sampler.Sample());

  const auto build_start = Clock::now();
  auto collection = BuildCollection(corpus, dim);
  const double build_seconds = SecondsSince(build_start);
  corpus.clear();
  corpus.shrink_to_fit();
  std::fprintf(stderr, "  built in %.2f s\n", build_seconds);

  // One untimed pass warms the caches and the allocator.
  for (const auto& q : queries) (void)*collection->Query(q, k);
  Json passes = Json::MakeArray();
  std::vector<double> qps;
  std::vector<double> query_ms;
  for (size_t r = 0; r < kPasses; ++r) {
    const auto start = Clock::now();
    for (const auto& q : queries) (void)*collection->Query(q, k);
    const double seconds = SecondsSince(start);
    qps.push_back(static_cast<double>(num_queries) / seconds);
    query_ms.push_back(seconds * 1e3 / static_cast<double>(num_queries));
    Json pass = Json::MakeObject();
    pass.Set("qps", qps.back());
    pass.Set("mean_query_ms", query_ms.back());
    passes.Append(std::move(pass));
    std::fprintf(stderr, "  pass %zu  qps %.1f  %.2f ms/query\n", r + 1,
                 qps.back(), query_ms.back());
  }
  Json scan = Json::MakeObject();
  scan.Set("build_seconds", build_seconds);
  scan.Set("passes", std::move(passes));
  scan.Set("qps", Spread(qps));
  scan.Set("mean_query_ms", Spread(query_ms));
  std::fprintf(stderr, "exact scan: median %.1f qps (IQR %.1f)\n",
               scan["qps"]["median"].AsDouble(0.0),
               scan["qps"]["iqr"].AsDouble(0.0));

  Json config = Json::MakeObject();
  config.Set("vectors", n);
  config.Set("dim", dim);
  config.Set("queries_per_pass", num_queries);
  config.Set("passes", kPasses);
  config.Set("k", k);
  config.Set("index", "flat");
  config.Set("metric", "cosine");

  Json out = Json::MakeObject();
  out.Set("bench", "vectordb");
  out.Set("description",
          "The exact flat cosine scan of one Collection: QPS per timed "
          "pass over the query set, with the median and interquartile "
          "range");
  out.Set("config", std::move(config));
  out.Set("exact_scan", std::move(scan));

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
