#include <cmath>
#include <cstring>
#include <gtest/gtest.h>

#include "llmms/common/rng.h"
#include "llmms/vectordb/collection.h"
#include "llmms/vectordb/database.h"
#include "llmms/vectordb/distance.h"

namespace llmms::vectordb {
namespace {

Collection::Options SmallOptions(IndexKind kind = IndexKind::kFlat) {
  Collection::Options opts;
  opts.dimension = 4;
  opts.metric = DistanceMetric::kCosine;
  opts.index_kind = kind;
  return opts;
}

VectorRecord MakeRecord(const std::string& id, Vector v,
                        Metadata metadata = {}) {
  VectorRecord r;
  r.id = id;
  r.vector = std::move(v);
  r.metadata = std::move(metadata);
  r.document = "doc-" + id;
  return r;
}

TEST(CollectionTest, UpsertGetDelete) {
  Collection c("test", SmallOptions());
  ASSERT_TRUE(c.Upsert(MakeRecord("a", {1, 0, 0, 0})).ok());
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.Contains("a"));
  auto rec = c.Get("a");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->document, "doc-a");
  ASSERT_TRUE(c.Delete("a").ok());
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.Get("a").status().IsNotFound());
  EXPECT_TRUE(c.Delete("a").IsNotFound());
}

TEST(CollectionTest, UpsertReplacesExisting) {
  Collection c("test", SmallOptions());
  ASSERT_TRUE(c.Upsert(MakeRecord("a", {1, 0, 0, 0})).ok());
  ASSERT_TRUE(c.Upsert(MakeRecord("a", {0, 1, 0, 0})).ok());
  EXPECT_EQ(c.size(), 1u);
  auto hits = c.Query({0, 1, 0, 0}, 1);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].id, "a");
  EXPECT_NEAR((*hits)[0].score, 1.0, 1e-5);
}

TEST(CollectionTest, RejectsBadInput) {
  Collection c("test", SmallOptions());
  EXPECT_TRUE(c.Upsert(MakeRecord("", {1, 0, 0, 0})).IsInvalidArgument());
  EXPECT_TRUE(c.Upsert(MakeRecord("a", {1, 0})).IsInvalidArgument());
}

TEST(CollectionTest, QueryOrdersBySimilarity) {
  Collection c("test", SmallOptions());
  ASSERT_TRUE(c.Upsert(MakeRecord("x", {1, 0, 0, 0})).ok());
  ASSERT_TRUE(c.Upsert(MakeRecord("y", {0.7f, 0.7f, 0, 0})).ok());
  ASSERT_TRUE(c.Upsert(MakeRecord("z", {0, 0, 1, 0})).ok());
  auto hits = c.Query({1, 0, 0, 0}, 2);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 2u);
  EXPECT_EQ((*hits)[0].id, "x");
  EXPECT_EQ((*hits)[1].id, "y");
  EXPECT_GT((*hits)[0].score, (*hits)[1].score);
}

TEST(CollectionTest, MetadataFilterRestrictsResults) {
  Collection c("test", SmallOptions());
  ASSERT_TRUE(
      c.Upsert(MakeRecord("a1", {1, 0, 0, 0}, {{"doc", "a"}})).ok());
  ASSERT_TRUE(
      c.Upsert(MakeRecord("a2", {0.9f, 0.1f, 0, 0}, {{"doc", "a"}})).ok());
  ASSERT_TRUE(
      c.Upsert(MakeRecord("b1", {0.99f, 0.05f, 0, 0}, {{"doc", "b"}})).ok());
  auto hits = c.Query({1, 0, 0, 0}, 10, {{"doc", "a"}});
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 2u);
  for (const auto& hit : *hits) {
    EXPECT_EQ(hit.metadata.at("doc"), "a");
  }
}

TEST(CollectionTest, FilterWithNoMatchesReturnsEmpty) {
  Collection c("test", SmallOptions());
  ASSERT_TRUE(c.Upsert(MakeRecord("a", {1, 0, 0, 0}, {{"k", "v"}})).ok());
  auto hits = c.Query({1, 0, 0, 0}, 5, {{"k", "other"}});
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST(CollectionTest, QueryZeroKOrEmptyCollection) {
  Collection c("test", SmallOptions());
  auto hits = c.Query({1, 0, 0, 0}, 5);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
  ASSERT_TRUE(c.Upsert(MakeRecord("a", {1, 0, 0, 0})).ok());
  hits = c.Query({1, 0, 0, 0}, 0);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST(CollectionTest, HnswBackedCollectionWorks) {
  Collection c("test", SmallOptions(IndexKind::kHnsw));
  for (int i = 0; i < 50; ++i) {
    const float angle = static_cast<float>(i) * 0.1f;
    ASSERT_TRUE(c.Upsert(MakeRecord(
                             std::string("v").append(std::to_string(i)),
                             {std::cos(angle), std::sin(angle), 0, 0}))
                    .ok());
  }
  auto hits = c.Query({1, 0, 0, 0}, 3);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 3u);
  EXPECT_EQ((*hits)[0].id, "v0");
}

TEST(CollectionTest, IdsListsLiveRecords) {
  Collection c("test", SmallOptions());
  ASSERT_TRUE(c.Upsert(MakeRecord("a", {1, 0, 0, 0})).ok());
  ASSERT_TRUE(c.Upsert(MakeRecord("b", {0, 1, 0, 0})).ok());
  ASSERT_TRUE(c.Delete("a").ok());
  const auto ids = c.Ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], "b");
}

bool SameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// A record keeps one copy of its vector, in the index; Get must hand back
// exactly what was upserted.
TEST(CollectionTest, GetReturnsTheStoredVectorBitForBit) {
  for (IndexKind kind : {IndexKind::kFlat, IndexKind::kHnsw}) {
    SCOPED_TRACE(kind == IndexKind::kFlat ? "flat" : "hnsw");
    Rng rng(41);
    auto random_vector = [&rng] {
      Vector v(8);
      for (auto& x : v) x = static_cast<float>(rng.Normal());
      return v;
    };
    Collection::Options opts = SmallOptions(kind);
    opts.dimension = 8;
    Collection c("vectors", opts);
    std::vector<Vector> expected;

    expected.push_back(random_vector());
    ASSERT_TRUE(c.Upsert(MakeRecord("0", expected[0])).ok());
    auto rec = c.Get("0");
    ASSERT_TRUE(rec.ok());
    EXPECT_TRUE(SameBits(rec->vector, expected[0])) << "after insert";

    expected[0] = random_vector();
    ASSERT_TRUE(c.Upsert(MakeRecord("0", expected[0])).ok());
    rec = c.Get("0");
    ASSERT_TRUE(rec.ok());
    EXPECT_TRUE(SameBits(rec->vector, expected[0])) << "after replace";

    for (size_t i = 1; i < 10; ++i) {
      expected.push_back(random_vector());
      ASSERT_TRUE(
          c.Upsert(MakeRecord(std::to_string(i), expected[i])).ok());
    }
    expected[3] = random_vector();
    ASSERT_TRUE(c.Upsert(MakeRecord("3", expected[3])).ok());
    for (size_t i = 0; i < expected.size(); ++i) {
      rec = c.Get(std::to_string(i));
      ASSERT_TRUE(rec.ok());
      EXPECT_TRUE(SameBits(rec->vector, expected[i]))
          << "id " << i;
    }

    // A query scores each hit exactly as a cosine over the stored vectors
    // would, norms included.
    const Vector query = random_vector();
    auto hits = c.Query(query, expected.size());
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), expected.size());
    for (const QueryResult& hit : *hits) {
      rec = c.Get(hit.id);
      ASSERT_TRUE(rec.ok());
      EXPECT_EQ(hit.score,
                SimilarityFromDistance(
                    DistanceMetric::kCosine,
                    Distance(DistanceMetric::kCosine, query, rec->vector)))
          << "query, id " << hit.id;
    }
  }
}

TEST(VectorDatabaseTest, CreateGetDropCollections) {
  VectorDatabase db;
  ASSERT_TRUE(db.CreateCollection("one", SmallOptions()).ok());
  EXPECT_TRUE(db.CreateCollection("one", SmallOptions())
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(db.CreateCollection("", SmallOptions())
                  .status()
                  .IsInvalidArgument());
  ASSERT_TRUE(db.GetCollection("one").ok());
  EXPECT_TRUE(db.GetCollection("two").status().IsNotFound());
  EXPECT_EQ(db.ListCollections().size(), 1u);
  ASSERT_TRUE(db.DropCollection("one").ok());
  EXPECT_TRUE(db.DropCollection("one").IsNotFound());
}

TEST(VectorDatabaseTest, GetOrCreateChecksCompatibility) {
  VectorDatabase db;
  ASSERT_TRUE(db.GetOrCreateCollection("c", SmallOptions()).ok());
  ASSERT_TRUE(db.GetOrCreateCollection("c", SmallOptions()).ok());
  EXPECT_EQ(db.ListCollections().size(), 1u);
  auto other = SmallOptions();
  other.dimension = 8;
  EXPECT_TRUE(db.GetOrCreateCollection("c", other)
                  .status()
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace llmms::vectordb
