// Vector-database quality bench: HNSW recall@10 and speedup vs. exact
// brute-force search, across corpus sizes and ef_search settings — the
// "sub-millisecond top-k" claim of §7.1 — and the HNSW build time per
// insert at each corpus size.
//
// The index is built ONCE per corpus size and the ef sweep reuses it via
// SearchWithEf (ef_search is a query-time knob, not a build parameter), so
// the corpus sweep scales to large n. Set LLMMS_BENCH_HNSW_N to grow the
// largest corpus (e.g. 1000000); the default keeps the quick-run sizes.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <unordered_set>

#include "llmms/common/rng.h"
#include "llmms/common/string_util.h"
#include "llmms/vectordb/flat_index.h"
#include "llmms/vectordb/hnsw_index.h"

#include "clustered_sampler.h"

namespace {

using namespace llmms;
using namespace llmms::vectordb;

size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

}  // namespace

int main() {
  constexpr size_t kDim = 128;
  constexpr size_t kQueries = 50;
  constexpr size_t kK = 10;
  const size_t max_n = EnvSize("LLMMS_BENCH_HNSW_N", 20000);
  std::cout << "HNSW recall@" << kK << " and latency vs. exact search (dim="
            << kDim << ")\n\n";
  std::cout
      << "n       ef     recall   hnsw_us   flat_us   speedup   build_us\n";
  std::cout
      << "---------------------------------------------------------------\n";

  std::vector<size_t> sizes;
  for (size_t n : {size_t{1000}, size_t{5000}, size_t{20000}}) {
    if (n <= max_n) sizes.push_back(n);
  }
  if (sizes.empty() || sizes.back() != max_n) sizes.push_back(max_n);

  for (size_t n : sizes) {
    Rng rng(0xBEEF);
    bench::ClusteredSampler sampler(&rng, kDim, /*num_clusters=*/64);
    std::vector<Vector> corpus;
    corpus.reserve(n);
    for (size_t i = 0; i < n; ++i) corpus.push_back(sampler.Sample());
    std::vector<Vector> queries;
    for (size_t i = 0; i < kQueries; ++i) {
      queries.push_back(sampler.Sample());
    }

    FlatIndex flat(kDim, DistanceMetric::kCosine);
    for (const auto& v : corpus) (void)*flat.Add(v);
    HnswIndex hnsw(kDim, DistanceMetric::kCosine);
    const auto build_start = std::chrono::steady_clock::now();
    for (const auto& v : corpus) (void)*hnsw.Add(v);
    const double build_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - build_start)
            .count() /
        static_cast<double>(n);

    // Exact ground truth once per corpus; the ef sweep reuses it.
    std::vector<std::unordered_set<SlotId>> truth;
    double flat_us = 0.0;
    for (const auto& q : queries) {
      auto t0 = std::chrono::steady_clock::now();
      auto exact = *flat.Search(q, kK);
      auto t1 = std::chrono::steady_clock::now();
      flat_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
      std::unordered_set<SlotId> hits;
      for (const auto& hit : exact) hits.insert(hit.slot);
      truth.push_back(std::move(hits));
    }
    flat_us /= kQueries;

    for (size_t ef : {16u, 64u, 128u}) {
      size_t found = 0;
      size_t expected = 0;
      double hnsw_us = 0.0;
      for (size_t q = 0; q < kQueries; ++q) {
        auto t0 = std::chrono::steady_clock::now();
        auto approx = *hnsw.SearchWithEf(queries[q], kK, ef);
        auto t1 = std::chrono::steady_clock::now();
        hnsw_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
        expected += truth[q].size();
        for (const auto& hit : approx) found += truth[q].count(hit.slot);
      }
      const double recall =
          static_cast<double>(found) / static_cast<double>(expected);
      hnsw_us /= kQueries;
      std::cout << n << (n < 10000 ? "    " : "   ") << ef
                << (ef < 100 ? "     " : "    ") << FormatDouble(recall, 3)
                << "    " << FormatDouble(hnsw_us, 1) << "      "
                << FormatDouble(flat_us, 1) << "     "
                << FormatDouble(flat_us / hnsw_us, 1) << "x      "
                << FormatDouble(build_us, 1) << "\n";
    }
  }
  return 0;
}
