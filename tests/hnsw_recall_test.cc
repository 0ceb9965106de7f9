// HNSW recall floors on bench/hnsw_recall.cc's clustered 128-d corpus at
// n=2000. Pins the graph's quality so a change to the distance kernel or
// to neighbor selection cannot trade recall for speed unnoticed.

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "clustered_sampler.h"
#include "llmms/common/rng.h"
#include "llmms/vectordb/flat_index.h"
#include "llmms/vectordb/hnsw_index.h"

namespace llmms::vectordb {
namespace {

constexpr size_t kDim = 128;
constexpr size_t kCorpus = 2000;
constexpr size_t kQueries = 50;
constexpr size_t kK = 10;

TEST(HnswRecallFloorTest, ClusteredCorpusAtTwoThousand) {
  // The seed and cluster count of bench/hnsw_recall.cc.
  Rng rng(0xBEEF);
  bench::ClusteredSampler sampler(&rng, kDim, /*num_clusters=*/64);
  FlatIndex flat(kDim, DistanceMetric::kCosine);
  HnswIndex hnsw(kDim, DistanceMetric::kCosine);
  for (size_t i = 0; i < kCorpus; ++i) {
    const Vector v = sampler.Sample();
    ASSERT_TRUE(flat.Add(v).ok());
    ASSERT_TRUE(hnsw.Add(v).ok());
  }
  std::vector<Vector> queries;
  for (size_t i = 0; i < kQueries; ++i) queries.push_back(sampler.Sample());

  std::vector<std::unordered_set<SlotId>> truth;
  for (const auto& q : queries) {
    auto exact = flat.Search(q, kK);
    ASSERT_TRUE(exact.ok());
    std::unordered_set<SlotId> slots;
    for (const auto& hit : *exact) slots.insert(hit.slot);
    truth.push_back(std::move(slots));
  }

  // True neighbors found out of 500 (recall@10 of 0.952, 0.998 and 1.0),
  // as measured when these floors were set.
  struct Floor {
    size_t ef;
    size_t found;
  };
  for (const Floor floor : {Floor{16, 476}, Floor{64, 499}, Floor{128, 500}}) {
    size_t found = 0;
    size_t expected = 0;
    for (size_t q = 0; q < kQueries; ++q) {
      auto approx = hnsw.SearchWithEf(queries[q], kK, floor.ef);
      ASSERT_TRUE(approx.ok());
      expected += truth[q].size();
      for (const auto& hit : *approx) found += truth[q].count(hit.slot);
    }
    EXPECT_EQ(expected, kQueries * kK);
    EXPECT_GE(found, floor.found) << "ef=" << floor.ef;
  }
}

}  // namespace
}  // namespace llmms::vectordb
