// HNSW recall floors on a clustered 128-d corpus from the benches' sampler
// at n=2000. Pins the graph's quality so a change to the distance kernel or
// to neighbor selection cannot trade recall for speed unnoticed, and pins
// the exact graph and search output in tests/golden/hnsw_graph.golden so a
// change meant to be output-neutral (a faster visited set, cached link
// distances) provably is. tests/golden/hnsw_edge_cases.golden does the same
// for small-M graphs over tied, duplicated and removed vectors.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "clustered_sampler.h"
#include "golden_file.h"
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
  // The seed and cluster count bench/hnsw_recall.cc draws with.
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

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Mix(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::string Hex(uint64_t bits) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

std::string DistanceBits(double distance) {
  uint64_t bits = 0;
  std::memcpy(&bits, &distance, sizeof(bits));
  return Hex(bits);
}

// Every node's link lists in slot and level order.
std::string LinksDigest(const HnswIndex& hnsw) {
  Digest digest;
  digest.Mix(hnsw.slot_count());
  for (SlotId slot = 0; slot < hnsw.slot_count(); ++slot) {
    const auto& levels = hnsw.links(slot);
    digest.Mix(levels.size());
    for (const auto& level : levels) {
      digest.Mix(level.size());
      for (SlotId nbr : level) digest.Mix(nbr);
    }
  }
  return Hex(digest.value());
}

// " slot:distance-bits" per hit.
std::string Hits(const std::vector<IndexHit>& hits) {
  std::string out;
  for (const auto& hit : hits) {
    out += ' ';
    out += std::to_string(hit.slot);
    out += ':';
    out += DistanceBits(hit.distance);
  }
  return out;
}

// The floor test's corpus and queries with every 7th slot (0, 7, 14, ...)
// tombstoned, so searches take the over-fetch path. Records a digest of
// every node's link lists in slot and level order, then every query's
// SearchWithEf(k=10) hits at ef 16 and 64 as slot:distance-bits.
TEST(HnswGoldenTest, GraphAndHitsAreBitExact) {
  Rng rng(0xBEEF);
  bench::ClusteredSampler sampler(&rng, kDim, /*num_clusters=*/64);
  HnswIndex hnsw(kDim, DistanceMetric::kCosine);
  for (size_t i = 0; i < kCorpus; ++i) {
    ASSERT_TRUE(hnsw.Add(sampler.Sample()).ok());
  }
  std::vector<Vector> queries;
  for (size_t i = 0; i < kQueries; ++i) queries.push_back(sampler.Sample());
  for (SlotId slot = 0; slot < kCorpus; slot += 7) {
    ASSERT_TRUE(hnsw.Remove(slot).ok());
  }

  std::ostringstream out;
  out << "links " << LinksDigest(hnsw) << "\n";
  for (size_t ef : {size_t{16}, size_t{64}}) {
    for (size_t q = 0; q < kQueries; ++q) {
      auto hits = hnsw.SearchWithEf(queries[q], kK, ef);
      ASSERT_TRUE(hits.ok());
      out << "ef=" << ef << " q=" << q << Hits(*hits) << "\n";
    }
  }
  testutil::ExpectMatchesGolden("hnsw_graph.golden", out.str());
}

// Small graphs where neighbor selection meets its edge cases: M of 2 to 4
// (so nearly every reverse edge overflows a list), ef_construction 8,
// squared-L2 and inner-product distances, vectors on a small integer grid
// (many exactly tied distances), exact duplicates of earlier vectors, and
// Removes interleaved with the Adds. Records each graph's link digest and
// every query's SearchWithEf(k=5, ef=8) hits.
TEST(HnswGoldenTest, EdgeCaseGraphsAreBitExact) {
  constexpr size_t kEdgeDim = 4;
  constexpr size_t kEdgeCorpus = 400;
  constexpr size_t kEdgeQueries = 12;
  std::ostringstream out;
  for (DistanceMetric metric :
       {DistanceMetric::kL2, DistanceMetric::kInnerProduct}) {
    for (size_t m : {size_t{2}, size_t{3}, size_t{4}}) {
      HnswIndex::Options options;
      options.M = m;
      options.ef_construction = 8;
      HnswIndex hnsw(kEdgeDim, metric, options);
      Rng rng(0xED6E + m);
      auto grid = [&rng] {
        Vector v(kEdgeDim);
        for (float& x : v) x = static_cast<float>(rng.UniformInt(-2, 2));
        return v;
      };
      std::vector<Vector> added;
      for (size_t i = 0; i < kEdgeCorpus; ++i) {
        Vector v;
        if (i % 5 == 4) {
          v = added[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(added.size()) - 1))];
        } else if (i % 2 == 0) {
          v = grid();
        } else {
          v.resize(kEdgeDim);
          for (float& x : v) x = static_cast<float>(rng.Normal());
        }
        ASSERT_TRUE(hnsw.Add(v).ok());
        added.push_back(std::move(v));
        if (i % 9 == 8) {
          const auto slot = static_cast<SlotId>(
              rng.UniformInt(0, static_cast<int64_t>(added.size()) - 1));
          ASSERT_TRUE(hnsw.Remove(slot).ok());
        }
      }
      out << DistanceMetricToString(metric) << " M=" << m << " size "
          << hnsw.size() << " links " << LinksDigest(hnsw) << "\n";
      for (size_t q = 0; q < kEdgeQueries; ++q) {
        auto hits = hnsw.SearchWithEf(grid(), /*k=*/5, /*ef=*/8);
        ASSERT_TRUE(hits.ok());
        out << "  q=" << q << Hits(*hits) << "\n";
      }
    }
  }
  testutil::ExpectMatchesGolden("hnsw_edge_cases.golden", out.str());
}

}  // namespace
}  // namespace llmms::vectordb
