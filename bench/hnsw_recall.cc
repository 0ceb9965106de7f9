// Exact scan versus HNSW at the sizes and settings of a RAG session's
// collection: the measurement behind serving a session by an exact scan
// (DESIGN.md §15), and the recall side of the paper's "sub-millisecond
// top-k" claim (§7.1).
//
// At each corpus size, a clustered corpus at the embedder's dimension is
// loaded into a FlatIndex and into an HnswIndex with a kHnsw collection's
// default M, ef_construction, ef_search and seed. kRepeats timed passes
// then run every query through each index, the two indexes in turn, and
// the table reports the median and interquartile range of each index's
// µs per query, HNSW's recall@10 and its build µs per insert. The last
// column says whether HNSW's whole IQR lies below the flat scan's; the
// closing line names the first grid size where it does.
//
// Usage: hnsw_recall

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "llmms/common/rng.h"
#include "llmms/vectordb/collection.h"
#include "llmms/vectordb/flat_index.h"
#include "llmms/vectordb/hnsw_index.h"

#include "clustered_sampler.h"

namespace {

using namespace llmms;
using namespace llmms::vectordb;
using Clock = std::chrono::steady_clock;

constexpr size_t kDim = 384;  // HashEmbedder's
constexpr size_t kQueries = 200;
constexpr size_t kK = 10;
// Timed passes per index and size: enough for quartiles that one slow pass
// does not move.
constexpr size_t kRepeats = 9;

// The q-quantile of `values`, interpolating linearly between ranks.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (at - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// µs per query over one pass of every query.
double TimePass(const VectorIndex& index, const std::vector<Vector>& queries) {
  const auto start = Clock::now();
  for (const auto& q : queries) (void)*index.Search(q, kK);
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
             .count() /
         static_cast<double>(queries.size());
}

}  // namespace

int main() {
  // A kHnsw collection's default HNSW settings.
  const Collection::Options defaults;
  HnswIndex::Options hnsw_options;
  hnsw_options.M = defaults.hnsw_m;
  hnsw_options.ef_construction = defaults.hnsw_ef_construction;
  hnsw_options.ef_search = defaults.hnsw_ef_search;
  hnsw_options.seed = defaults.seed;

  std::printf(
      "Exact scan vs. HNSW, dim %zu, cosine, k=%zu, %zu queries per pass, "
      "%zu passes\n(HNSW M=%zu, ef_construction=%zu, ef_search=%zu; "
      "us per query, median [p25, p75])\n\n",
      kDim, kK, kQueries, kRepeats, hnsw_options.M,
      hnsw_options.ef_construction, hnsw_options.ef_search);
  std::printf("%6s  %-24s  %-24s  %9s  %9s  %s\n", "n", "flat us/query",
              "hnsw us/query", "recall@10", "build_us", "hnsw faster");

  size_t crossover = 0;
  for (size_t n : {size_t{500}, size_t{1000}, size_t{1500}, size_t{2000},
                   size_t{2500}, size_t{3000}, size_t{4000}, size_t{5000}}) {
    Rng rng(0xBEEF);
    bench::ClusteredSampler sampler(&rng, kDim, /*num_clusters=*/64);
    FlatIndex flat(kDim, DistanceMetric::kCosine);
    HnswIndex hnsw(kDim, DistanceMetric::kCosine, hnsw_options);
    std::vector<Vector> corpus;
    corpus.reserve(n);
    for (size_t i = 0; i < n; ++i) corpus.push_back(sampler.Sample());
    std::vector<Vector> queries;
    for (size_t i = 0; i < kQueries; ++i) queries.push_back(sampler.Sample());

    for (const auto& v : corpus) (void)*flat.Add(v);
    const auto build_start = Clock::now();
    for (const auto& v : corpus) (void)*hnsw.Add(v);
    const double build_us =
        std::chrono::duration<double, std::micro>(Clock::now() - build_start)
            .count() /
        static_cast<double>(n);

    size_t found = 0;
    for (const auto& q : queries) {
      const std::vector<IndexHit> exact = *flat.Search(q, kK);
      const std::vector<IndexHit> approx = *hnsw.Search(q, kK);
      std::unordered_set<SlotId> truth;
      for (const auto& hit : exact) truth.insert(hit.slot);
      for (const auto& hit : approx) found += truth.count(hit.slot);
    }
    const double recall =
        static_cast<double>(found) / static_cast<double>(kQueries * kK);

    // The recall pass above warmed both indexes; alternate the timed ones.
    std::vector<double> flat_us, hnsw_us;
    for (size_t r = 0; r < kRepeats; ++r) {
      flat_us.push_back(TimePass(flat, queries));
      hnsw_us.push_back(TimePass(hnsw, queries));
    }
    const double flat_p25 = Quantile(flat_us, 0.25);
    const double hnsw_p75 = Quantile(hnsw_us, 0.75);
    const bool faster = hnsw_p75 < flat_p25;
    if (faster && crossover == 0) crossover = n;

    char flat_cell[64], hnsw_cell[64];
    std::snprintf(flat_cell, sizeof(flat_cell), "%.1f [%.1f, %.1f]",
                  Quantile(flat_us, 0.5), flat_p25, Quantile(flat_us, 0.75));
    std::snprintf(hnsw_cell, sizeof(hnsw_cell), "%.1f [%.1f, %.1f]",
                  Quantile(hnsw_us, 0.5), Quantile(hnsw_us, 0.25), hnsw_p75);
    std::printf("%6zu  %-24s  %-24s  %9.3f  %9.1f  %s\n", n, flat_cell,
                hnsw_cell, recall, build_us, faster ? "yes" : "no");
  }
  std::printf("\nfirst n where HNSW's IQR lies below the flat scan's: ");
  if (crossover == 0) {
    std::printf("none measured\n");
  } else {
    std::printf("%zu\n", crossover);
  }
  return 0;
}
