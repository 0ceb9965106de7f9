#include <unistd.h>

#include <cstdio>
#include <gtest/gtest.h>

#include "llmms/vectordb/durable_collection.h"

namespace llmms {
namespace {

// -------------------------------------------------- durable collections
vectordb::Collection::Options DcOptions() {
  vectordb::Collection::Options opts;
  opts.dimension = 3;
  opts.index_kind = vectordb::IndexKind::kFlat;
  return opts;
}

vectordb::VectorRecord DcRecord(const std::string& id, float x) {
  vectordb::VectorRecord record;
  record.id = id;
  record.vector = {x, 1.0f - x, 0.5f};
  record.document = "doc " + id;
  return record;
}

TEST(DurableCollectionTest, SurvivesReopen) {
  const std::string path = ::testing::TempDir() + "/durable_basic.wal";
  std::remove(path.c_str());
  {
    auto dc = vectordb::DurableCollection::Open("d", DcOptions(), path);
    ASSERT_TRUE(dc.ok());
    ASSERT_TRUE((*dc)->Upsert(DcRecord("a", 0.2f)).ok());
    ASSERT_TRUE((*dc)->Upsert(DcRecord("b", 0.7f)).ok());
    ASSERT_TRUE((*dc)->Delete("a").ok());
  }  // "crash": the object goes away; only the log remains
  vectordb::DurableCollection::OpenStats stats;
  auto reopened =
      vectordb::DurableCollection::Open("d", DcOptions(), path, &stats);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(stats.replayed_upserts, 2u);
  EXPECT_EQ(stats.replayed_deletes, 1u);
  EXPECT_FALSE(stats.recovered_torn_tail);
  EXPECT_EQ((*reopened)->size(), 1u);
  auto record = (*reopened)->Get("b");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->document, "doc b");
  std::remove(path.c_str());
}

TEST(DurableCollectionTest, RecoversFromTornTail) {
  const std::string path = ::testing::TempDir() + "/durable_torn.wal";
  std::remove(path.c_str());
  {
    auto dc = vectordb::DurableCollection::Open("d", DcOptions(), path);
    ASSERT_TRUE(dc.ok());
    ASSERT_TRUE((*dc)->Upsert(DcRecord("a", 0.2f)).ok());
    ASSERT_TRUE((*dc)->Upsert(DcRecord("b", 0.7f)).ok());
  }
  // Simulate a crash mid-append: chop off the last few bytes.
  {
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    fseek(f, 0, SEEK_END);
    const long size = ftell(f);
    fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size - 5), 0);
  }
  vectordb::DurableCollection::OpenStats stats;
  auto recovered =
      vectordb::DurableCollection::Open("d", DcOptions(), path, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(stats.recovered_torn_tail);
  EXPECT_EQ((*recovered)->size(), 1u);  // only "a" was fully durable
  // Writes continue cleanly after recovery, and a further reopen sees them.
  ASSERT_TRUE((*recovered)->Upsert(DcRecord("c", 0.9f)).ok());
  recovered->reset();
  auto again = vectordb::DurableCollection::Open("d", DcOptions(), path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->size(), 2u);
  std::remove(path.c_str());
}

TEST(DurableCollectionTest, CompactShrinksLog) {
  const std::string path = ::testing::TempDir() + "/durable_compact.wal";
  std::remove(path.c_str());
  auto dc = vectordb::DurableCollection::Open("d", DcOptions(), path);
  ASSERT_TRUE(dc.ok());
  // Churn: repeated updates of the same key bloat the log.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*dc)->Upsert(DcRecord("hot", 0.01f * i)).ok());
  }
  auto file_size = [&]() {
    FILE* f = fopen(path.c_str(), "rb");
    fseek(f, 0, SEEK_END);
    const long size = ftell(f);
    fclose(f);
    return size;
  };
  const long before = file_size();
  ASSERT_TRUE((*dc)->Compact().ok());
  const long after = file_size();
  EXPECT_LT(after, before / 10);
  EXPECT_EQ((*dc)->size(), 1u);
  // Post-compaction writes and replay still work.
  ASSERT_TRUE((*dc)->Upsert(DcRecord("cold", 0.5f)).ok());
  dc->reset();
  auto reopened = vectordb::DurableCollection::Open("d", DcOptions(), path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), 2u);
  std::remove(path.c_str());
}

TEST(DurableCollectionTest, QueriesPassThrough) {
  const std::string path = ::testing::TempDir() + "/durable_query.wal";
  std::remove(path.c_str());
  auto dc = vectordb::DurableCollection::Open("d", DcOptions(), path);
  ASSERT_TRUE(dc.ok());
  ASSERT_TRUE((*dc)->Upsert(DcRecord("x", 0.9f)).ok());
  auto hits = (*dc)->Query({0.9f, 0.1f, 0.5f}, 1);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].id, "x");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace llmms
