// Property suite for the sharded / quantized vector-search path
// (DESIGN.md §15): sharding must never change results on the exact path,
// and the two-stage quantized path must clear per-overfetch recall floors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "llmms/vectordb/collection.h"
#include "llmms/vectordb/database.h"
#include "llmms/vectordb/sharded_collection.h"

namespace llmms::vectordb {
namespace {

constexpr size_t kDim = 8;

Collection::Options FlatOptions(DistanceMetric metric = DistanceMetric::kCosine) {
  Collection::Options opts;
  opts.dimension = kDim;
  opts.metric = metric;
  opts.index_kind = IndexKind::kFlat;
  return opts;
}

VectorRecord MakeRecord(const std::string& id, Vector v) {
  VectorRecord r;
  r.id = id;
  r.vector = std::move(v);
  r.document = "doc-" + id;
  return r;
}

// Deterministic corpus with deliberate duplicate vectors: every fourth
// record reuses the previous vector, so duplicate-distance ties occur at
// every k and land on different shards (ids differ, so placement differs).
std::vector<VectorRecord> MakeCorpus(size_t n, uint64_t seed = 7) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<VectorRecord> records;
  records.reserve(n);
  Vector previous(kDim, 0.5f);
  for (size_t i = 0; i < n; ++i) {
    Vector v(kDim);
    if (i % 4 == 3) {
      v = previous;
    } else {
      for (auto& x : v) x = dist(rng);
      previous = v;
    }
    records.push_back(MakeRecord("rec-" + std::to_string(i), std::move(v)));
  }
  return records;
}

Vector MakeQuery(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  Vector q(kDim);
  for (auto& x : q) x = dist(rng);
  return q;
}

// Exact equality — the sharded exact path promises byte-identical results,
// not merely approximately equal scores.
void ExpectIdenticalResults(const std::vector<QueryResult>& expected,
                            const std::vector<QueryResult>& actual,
                            const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].id, actual[i].id) << context << " at rank " << i;
    EXPECT_EQ(expected[i].score, actual[i].score)
        << context << " at rank " << i;
    EXPECT_EQ(expected[i].document, actual[i].document)
        << context << " at rank " << i;
  }
}

TEST(ShardedCollectionTest, ShardForIsStableAndInRange) {
  for (size_t shards : {1u, 2u, 7u, 16u}) {
    for (int i = 0; i < 100; ++i) {
      const std::string id = "id-" + std::to_string(i);
      const size_t s = ShardedCollection::ShardFor(id, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ShardedCollection::ShardFor(id, shards));
    }
  }
  EXPECT_EQ(ShardedCollection::ShardFor("anything", 1), 0u);
}

TEST(ShardedCollectionTest, PartitionCoversEveryShard) {
  ShardedCollection::Options opts;
  opts.collection = FlatOptions();
  opts.num_shards = 7;
  ShardedCollection sharded("c", opts);
  for (auto& r : MakeCorpus(300)) {
    ASSERT_TRUE(sharded.Upsert(std::move(r)).ok());
  }
  EXPECT_EQ(sharded.size(), 300u);
  size_t total = 0;
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    EXPECT_GT(sharded.shard(i)->size(), 0u) << "empty shard " << i;
    total += sharded.shard(i)->size();
  }
  EXPECT_EQ(total, 300u);
}

// The tentpole property: for every (k, shard-count) combination — including
// k far above the per-shard record counts and duplicate-distance ties — the
// sharded top-k equals the single-collection top-k exactly.
TEST(ShardedCollectionTest, ShardedTopKMatchesSingleShardExactly) {
  for (DistanceMetric metric :
       {DistanceMetric::kCosine, DistanceMetric::kL2,
        DistanceMetric::kInnerProduct}) {
    const auto corpus = MakeCorpus(300);
    Collection reference("ref", FlatOptions(metric));
    for (const auto& r : corpus) {
      ASSERT_TRUE(reference.Upsert(r).ok());
    }
    for (size_t shards : {1u, 2u, 7u, 16u}) {
      ShardedCollection::Options opts;
      opts.collection = FlatOptions(metric);
      opts.num_shards = shards;
      ShardedCollection sharded("c", opts);
      for (const auto& r : corpus) {
        ASSERT_TRUE(sharded.Upsert(r).ok());
      }
      for (size_t k : {1u, 10u, 100u}) {
        for (uint64_t qseed = 0; qseed < 5; ++qseed) {
          const Vector q = MakeQuery(1000 + qseed);
          auto expected = reference.Query(q, k);
          auto actual = sharded.Query(q, k);
          ASSERT_TRUE(expected.ok());
          ASSERT_TRUE(actual.ok());
          ExpectIdenticalResults(
              *expected, *actual,
              "metric=" + std::to_string(static_cast<int>(metric)) +
                  " shards=" + std::to_string(shards) +
                  " k=" + std::to_string(k) +
                  " q=" + std::to_string(qseed));
        }
      }
    }
  }
}

// k greater than the whole corpus: every shard is asked for more than it
// holds and the merge must return all records, still in global order.
TEST(ShardedCollectionTest, KBeyondCorpusReturnsEverythingInOrder) {
  const auto corpus = MakeCorpus(12);
  Collection reference("ref", FlatOptions());
  ShardedCollection::Options opts;
  opts.collection = FlatOptions();
  opts.num_shards = 16;  // more shards than records: some shards are empty
  ShardedCollection sharded("c", opts);
  for (const auto& r : corpus) {
    ASSERT_TRUE(reference.Upsert(r).ok());
    ASSERT_TRUE(sharded.Upsert(r).ok());
  }
  const Vector q = MakeQuery(42);
  auto expected = reference.Query(q, 100);
  auto actual = sharded.Query(q, 100);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(actual->size(), 12u);
  ExpectIdenticalResults(*expected, *actual, "k>corpus");
}

// All-duplicate corpus: every distance ties, so ordering is decided purely
// by the id tie-break and must not depend on the sharding.
TEST(ShardedCollectionTest, DuplicateDistanceTiesBreakById) {
  Collection reference("ref", FlatOptions());
  ShardedCollection::Options opts;
  opts.collection = FlatOptions();
  opts.num_shards = 7;
  ShardedCollection sharded("c", opts);
  const Vector same = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 40; ++i) {
    auto r = MakeRecord("tie-" + std::to_string(i), same);
    ASSERT_TRUE(reference.Upsert(r).ok());
    ASSERT_TRUE(sharded.Upsert(std::move(r)).ok());
  }
  auto expected = reference.Query(MakeQuery(3), 10);
  auto actual = sharded.Query(MakeQuery(3), 10);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  ExpectIdenticalResults(*expected, *actual, "all-ties");
  // Ties sort by id ascending — the documented total order.
  for (size_t i = 1; i < actual->size(); ++i) {
    EXPECT_LT((*actual)[i - 1].id, (*actual)[i].id);
  }
}

// Deletes and replacing upserts must keep the sharded view equal to the
// reference view.
TEST(ShardedCollectionTest, MutationsPreserveEquivalence) {
  auto corpus = MakeCorpus(120);
  Collection reference("ref", FlatOptions());
  ShardedCollection::Options opts;
  opts.collection = FlatOptions();
  opts.num_shards = 7;
  ShardedCollection sharded("c", opts);
  for (const auto& r : corpus) {
    ASSERT_TRUE(reference.Upsert(r).ok());
    ASSERT_TRUE(sharded.Upsert(r).ok());
  }
  for (size_t i = 0; i < corpus.size(); i += 3) {
    ASSERT_TRUE(reference.Delete(corpus[i].id).ok());
    ASSERT_TRUE(sharded.Delete(corpus[i].id).ok());
  }
  for (size_t i = 1; i < corpus.size(); i += 5) {
    auto replaced = MakeRecord(corpus[i].id, MakeQuery(9000 + i));
    ASSERT_TRUE(reference.Upsert(replaced).ok());
    ASSERT_TRUE(sharded.Upsert(replaced).ok());
  }
  EXPECT_EQ(reference.size(), sharded.size());
  auto expected = reference.Query(MakeQuery(5), 20);
  auto actual = sharded.Query(MakeQuery(5), 20);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  ExpectIdenticalResults(*expected, *actual, "after mutations");
  EXPECT_TRUE(sharded.Get("rec-0").status().IsNotFound());
  EXPECT_FALSE(sharded.Contains("rec-0"));
  EXPECT_TRUE(sharded.Contains("rec-1"));
}

TEST(MergeShardResultsTest, MergesSortedListsUnderTotalOrder) {
  auto mk = [](const std::string& id, double score) {
    QueryResult r;
    r.id = id;
    r.score = score;
    return r;
  };
  // Per-shard lists already sorted by (score desc, id asc).
  std::vector<std::vector<QueryResult>> per_shard = {
      {mk("a", 0.9), mk("d", 0.5)},
      {},
      {mk("b", 0.9), mk("c", 0.7), mk("e", 0.5)},
  };
  auto merged = MergeShardResults(per_shard, 4);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].id, "a");  // ties at 0.9 break by id
  EXPECT_EQ(merged[1].id, "b");
  EXPECT_EQ(merged[2].id, "c");
  EXPECT_EQ(merged[3].id, "d");  // ties at 0.5 break by id

  EXPECT_TRUE(MergeShardResults({}, 5).empty());
  EXPECT_TRUE(MergeShardResults({{}, {}}, 5).empty());
  auto all = MergeShardResults(per_shard, 100);
  EXPECT_EQ(all.size(), 5u);
}

// The opt-in criterion: one shard + quantization off must reproduce the
// plain Collection path exactly — same ids, bit-identical scores.
TEST(ShardedCollectionTest, SingleShardUnquantizedIsByteForByteIdentical) {
  const auto corpus = MakeCorpus(150);
  Collection plain("plain", FlatOptions());
  ShardedCollection::Options opts;
  opts.collection = FlatOptions();
  opts.num_shards = 1;
  ShardedCollection sharded("c", opts);
  ASSERT_FALSE(opts.collection.quantization.enabled);
  for (const auto& r : corpus) {
    ASSERT_TRUE(plain.Upsert(r).ok());
    ASSERT_TRUE(sharded.Upsert(r).ok());
  }
  EXPECT_FALSE(sharded.shard(0)->quantized());
  for (size_t k : {1u, 7u, 50u}) {
    for (uint64_t qseed = 0; qseed < 10; ++qseed) {
      const Vector q = MakeQuery(2000 + qseed);
      auto expected = plain.Query(q, k);
      auto actual = sharded.Query(q, k);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok());
      ASSERT_EQ(expected->size(), actual->size());
      for (size_t i = 0; i < expected->size(); ++i) {
        EXPECT_EQ((*expected)[i].id, (*actual)[i].id);
        // Bit-identical, not approximately equal.
        EXPECT_EQ(std::memcmp(&(*expected)[i].score, &(*actual)[i].score,
                              sizeof(double)),
                  0);
      }
    }
  }
}

double RecallAt10(const std::vector<QueryResult>& truth,
                  const std::vector<QueryResult>& got) {
  std::set<std::string> expected;
  for (const auto& r : truth) expected.insert(r.id);
  size_t hit = 0;
  for (const auto& r : got) hit += expected.count(r.id);
  return truth.empty() ? 1.0 : static_cast<double>(hit) / truth.size();
}

// Two-stage quantized retrieval: recall@10 against the exact path must
// clear a floor that rises with the overfetch factor.
TEST(ShardedCollectionTest, QuantizedRerankClearsRecallFloors) {
  Collection::Options exact_opts;
  exact_opts.dimension = 16;
  exact_opts.metric = DistanceMetric::kCosine;
  exact_opts.index_kind = IndexKind::kFlat;

  Collection exact("exact", exact_opts);
  Collection::Options qopts = exact_opts;
  qopts.quantization.enabled = true;
  qopts.quantization.train_size = 256;
  Collection quantized("quant", qopts);

  std::mt19937_64 rng(11);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (int i = 0; i < 2000; ++i) {
    Vector v(16);
    for (auto& x : v) x = dist(rng);
    auto r = MakeRecord("q-" + std::to_string(i), std::move(v));
    ASSERT_TRUE(exact.Upsert(r).ok());
    ASSERT_TRUE(quantized.Upsert(std::move(r)).ok());
  }
  ASSERT_TRUE(quantized.quantized());

  const struct {
    size_t overfetch;
    double floor;
  } kFloors[] = {{1, 0.45}, {2, 0.60}, {4, 0.75}, {8, 0.85}, {16, 0.90}};

  double previous = 0.0;
  for (const auto& [overfetch, floor] : kFloors) {
    quantized.set_quantization_overfetch(overfetch);
    double total = 0.0;
    constexpr int kQueries = 20;
    for (int qi = 0; qi < kQueries; ++qi) {
      Vector q(16);
      for (auto& x : q) x = dist(rng);
      auto truth = exact.Query(q, 10);
      auto got = quantized.Query(q, 10);
      ASSERT_TRUE(truth.ok());
      ASSERT_TRUE(got.ok());
      total += RecallAt10(*truth, *got);
    }
    const double recall = total / kQueries;
    EXPECT_GE(recall, floor) << "overfetch=" << overfetch;
    // Larger candidate sets must not lose recall (small epsilon: queries
    // are regenerated per sweep, but the generator sequence is fixed).
    EXPECT_GE(recall, previous - 0.05) << "overfetch=" << overfetch;
    previous = recall;
  }
}

// The same floors hold when quantization runs inside a sharded collection
// (each shard trains its own quantizer).
TEST(ShardedCollectionTest, ShardedQuantizedRecall) {
  Collection::Options exact_opts;
  exact_opts.dimension = 16;
  exact_opts.metric = DistanceMetric::kCosine;
  exact_opts.index_kind = IndexKind::kFlat;
  Collection exact("exact", exact_opts);

  ShardedCollection::Options sopts;
  sopts.collection = exact_opts;
  sopts.collection.quantization.enabled = true;
  sopts.collection.quantization.train_size = 64;
  sopts.collection.quantization.overfetch = 8;
  sopts.num_shards = 4;
  ShardedCollection sharded("c", sopts);

  std::mt19937_64 rng(13);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (int i = 0; i < 1200; ++i) {
    Vector v(16);
    for (auto& x : v) x = dist(rng);
    auto r = MakeRecord("s-" + std::to_string(i), std::move(v));
    ASSERT_TRUE(exact.Upsert(r).ok());
    ASSERT_TRUE(sharded.Upsert(std::move(r)).ok());
  }
  double total = 0.0;
  constexpr int kQueries = 20;
  for (int qi = 0; qi < kQueries; ++qi) {
    Vector q(16);
    for (auto& x : q) x = dist(rng);
    auto truth = exact.Query(q, 10);
    auto got = sharded.Query(q, 10);
    ASSERT_TRUE(truth.ok());
    ASSERT_TRUE(got.ok());
    total += RecallAt10(*truth, *got);
  }
  EXPECT_GE(total / kQueries, 0.85);
}

TEST(ShardedCollectionTest, StatsReportPerShardGauges) {
  ShardedCollection::Options opts;
  opts.collection = FlatOptions();
  opts.num_shards = 4;
  ShardedCollection sharded("c", opts);
  for (auto& r : MakeCorpus(100)) {
    ASSERT_TRUE(sharded.Upsert(std::move(r)).ok());
  }
  ASSERT_TRUE(sharded.Query(MakeQuery(1), 5).ok());
  ASSERT_TRUE(sharded.Query(MakeQuery(2), 5).ok());
  const auto stats = sharded.Stats();
  ASSERT_EQ(stats.size(), 4u);
  size_t records = 0;
  uint64_t queries = 0;
  for (const auto& s : stats) {
    records += s.records;
    queries += s.queries;
    EXPECT_GT(s.vector_bytes, 0u);
    EXPECT_FALSE(s.quantized);
  }
  EXPECT_EQ(records, 100u);
  EXPECT_EQ(queries, 8u);  // 2 queries fanned out over 4 shards
}

TEST(VectorDatabaseShardTest, RegistrySharesOneNamespace) {
  auto db = std::make_unique<VectorDatabase>();
  ShardedCollection::Options sopts;
  sopts.collection = FlatOptions();
  sopts.num_shards = 3;
  auto sharded = db->CreateShardedCollection("big", sopts);
  ASSERT_TRUE(sharded.ok());
  // One namespace across plain and sharded.
  EXPECT_TRUE(db->CreateCollection("big", FlatOptions())
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(db->CreateShardedCollection("big", sopts)
                  .status()
                  .IsAlreadyExists());
  ASSERT_TRUE(db->CreateCollection("small", FlatOptions()).ok());
  EXPECT_EQ(db->collection_count(), 2u);

  const auto corpus = MakeCorpus(90);
  for (const auto& r : corpus) {
    ASSERT_TRUE((*sharded)->Upsert(r).ok());
  }

  auto found = db->GetShardedCollection("big");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->get(), sharded->get());
  EXPECT_EQ((*found)->size(), 90u);
  EXPECT_TRUE(db->GetShardedCollection("small").status().IsNotFound());
}

}  // namespace
}  // namespace llmms::vectordb
