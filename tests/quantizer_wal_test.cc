#include <cmath>
#include <cstdio>
#include <gtest/gtest.h>

#include "llmms/common/rng.h"
#include "llmms/vectordb/flat_index.h"
#include "llmms/vectordb/quantizer.h"
#include "llmms/vectordb/wal.h"

namespace llmms::vectordb {
namespace {

std::vector<Vector> RandomSample(Rng* rng, size_t n, size_t dim) {
  std::vector<Vector> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Vector v(dim);
    for (auto& x : v) x = static_cast<float>(rng->Normal());
    out.push_back(std::move(v));
  }
  return out;
}

TEST(ScalarQuantizerTest, TrainValidatesInput) {
  ScalarQuantizer quantizer;
  EXPECT_TRUE(quantizer.Train({}).IsInvalidArgument());
  EXPECT_TRUE(quantizer.Train({Vector{}}).IsInvalidArgument());
  EXPECT_TRUE(
      quantizer.Train({Vector{1.0f, 2.0f}, Vector{1.0f}}).IsInvalidArgument());
  EXPECT_FALSE(quantizer.trained());
  EXPECT_TRUE(quantizer.Encode({1.0f}).status().IsFailedPrecondition());
  EXPECT_TRUE(quantizer.Decode({1}).status().IsFailedPrecondition());
}

TEST(ScalarQuantizerTest, RoundTripErrorWithinHalfBucket) {
  Rng rng(7);
  const auto sample = RandomSample(&rng, 200, 16);
  ScalarQuantizer quantizer;
  ASSERT_TRUE(quantizer.Train(sample).ok());
  for (const auto& v : sample) {
    auto codes = quantizer.Encode(v);
    ASSERT_TRUE(codes.ok());
    auto decoded = quantizer.Decode(*codes);
    ASSERT_TRUE(decoded.ok());
    for (size_t d = 0; d < v.size(); ++d) {
      EXPECT_LE(std::abs((*decoded)[d] - v[d]),
                quantizer.MaxErrorFor(d) + 1e-6f);
    }
  }
}

TEST(ScalarQuantizerTest, OutOfRangeValuesClamp) {
  ScalarQuantizer quantizer;
  ASSERT_TRUE(quantizer.Train({Vector{0.0f}, Vector{1.0f}}).ok());
  auto low = quantizer.Encode({-100.0f});
  auto high = quantizer.Encode({100.0f});
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_EQ((*low)[0], 0);
  EXPECT_EQ((*high)[0], 255);
}

TEST(ScalarQuantizerTest, DegenerateDimensionHandled) {
  ScalarQuantizer quantizer;
  ASSERT_TRUE(quantizer.Train({Vector{5.0f}, Vector{5.0f}}).ok());
  auto codes = quantizer.Encode({5.0f});
  ASSERT_TRUE(codes.ok());
  auto decoded = quantizer.Decode(*codes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_NEAR((*decoded)[0], 5.0f, 1.0f);
}

TEST(QuantizedFlatIndexTest, NearlyMatchesExactIndex) {
  Rng rng(11);
  const size_t dim = 32;
  const auto corpus = RandomSample(&rng, 400, dim);
  ScalarQuantizer quantizer;
  ASSERT_TRUE(quantizer.Train(corpus).ok());

  FlatIndex exact(dim, DistanceMetric::kCosine);
  QuantizedFlatIndex quantized(quantizer, DistanceMetric::kCosine);
  for (const auto& v : corpus) {
    ASSERT_TRUE(exact.Add(v).ok());
    ASSERT_TRUE(quantized.Add(v).ok());
  }
  EXPECT_EQ(quantized.code_bytes(), 400u * dim);  // 1 byte per dim (4x less)

  size_t agreement = 0;
  size_t total = 0;
  for (int q = 0; q < 25; ++q) {
    Vector query(dim);
    for (auto& x : query) x = static_cast<float>(rng.Normal());
    auto truth = exact.Search(query, 10);
    auto approx = quantized.Search(query, 10);
    ASSERT_TRUE(truth.ok());
    ASSERT_TRUE(approx.ok());
    std::set<SlotId> truth_slots;
    for (const auto& hit : *truth) truth_slots.insert(hit.slot);
    for (const auto& hit : *approx) agreement += truth_slots.count(hit.slot);
    total += truth->size();
  }
  EXPECT_GE(static_cast<double>(agreement) / static_cast<double>(total), 0.85);
}

TEST(QuantizedFlatIndexTest, RemoveAndGetVector) {
  ScalarQuantizer quantizer;
  ASSERT_TRUE(quantizer.Train({Vector{0.0f, 0.0f}, Vector{1.0f, 1.0f}}).ok());
  QuantizedFlatIndex index(quantizer, DistanceMetric::kL2);
  ASSERT_TRUE(index.Add({0.2f, 0.8f}).ok());
  ASSERT_TRUE(index.Add({0.9f, 0.1f}).ok());
  EXPECT_EQ(index.size(), 2u);
  const std::span<const float> v = index.GetVector(0);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_NEAR(v[0], 0.2f, 0.01f);
  ASSERT_TRUE(index.Remove(0).ok());
  EXPECT_TRUE(index.GetVector(0).empty());
  EXPECT_TRUE(index.Remove(9).IsNotFound());
  auto hits = index.Search({0.2f, 0.8f}, 5);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].slot, 1u);
}

// ------------------------------------------------------------------- WAL
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
