// Deterministic fuzz sweeps over hostile inputs: parsers and interpreters
// must never crash and must fail with typed statuses, not garbage state.

#include <gtest/gtest.h>

#include "llmms/app/http.h"
#include "llmms/app/nl_config.h"
#include "llmms/app/sse.h"
#include "llmms/common/fs.h"
#include "llmms/common/json.h"
#include "llmms/common/rng.h"
#include "llmms/vectordb/wal.h"

namespace llmms {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  const size_t n =
      static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(max_len)));
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>(rng->UniformInt(0, 255)));
  }
  return out;
}

std::string RandomAsciiSoup(Rng* rng, size_t max_len) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz 0123456789{}[]\":,.\\/?\r\n-";
  const size_t n =
      static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(max_len)));
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(
        kAlphabet[rng->UniformInt(0, sizeof(kAlphabet) - 2)]);
  }
  return out;
}

TEST(FuzzTest, JsonParserSurvivesRandomBytes) {
  Rng rng(0xF022);
  for (int i = 0; i < 2000; ++i) {
    (void)Json::Parse(RandomBytes(&rng, 200));
    (void)Json::Parse(RandomAsciiSoup(&rng, 200));
  }
  SUCCEED();
}

TEST(FuzzTest, JsonParserSurvivesMutatedValidDocuments) {
  Rng rng(0xF023);
  const std::string valid =
      R"({"a":[1,2.5,"x",null,true],"b":{"c":"d\ne"},"n":-12})";
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const size_t edits = static_cast<size_t>(rng.UniformInt(1, 5));
    for (size_t e = 0; e < edits; ++e) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
    }
    auto parsed = Json::Parse(mutated);
    if (parsed.ok()) {
      // Whatever parsed must serialize and re-parse to itself.
      auto round = Json::Parse(parsed->Dump());
      ASSERT_TRUE(round.ok());
      EXPECT_EQ(*round, *parsed);
    }
  }
}

TEST(FuzzTest, HttpRequestParserSurvivesRandomBytes) {
  Rng rng(0xF024);
  for (int i = 0; i < 2000; ++i) {
    (void)app::ParseHttpRequest(RandomBytes(&rng, 300));
    (void)app::ParseHttpRequest(RandomAsciiSoup(&rng, 300));
    (void)app::ParseHttpResponseHead(RandomBytes(&rng, 300));
    (void)app::ParseHttpResponseHead(RandomAsciiSoup(&rng, 300));
  }
  SUCCEED();
}

TEST(FuzzTest, HttpRequestParserSurvivesMutatedValidRequests) {
  Rng rng(0xF025);
  const std::string valid =
      "POST /api/query?stream=1 HTTP/1.1\r\nhost: x\r\ncontent-length: "
      "4\r\n\r\nbody";
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
    mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
    (void)app::ParseHttpRequest(mutated);
  }
  SUCCEED();
}

TEST(FuzzTest, SseDecoderSurvivesAnything) {
  Rng rng(0xF026);
  for (int i = 0; i < 2000; ++i) {
    (void)app::DecodeSse(RandomBytes(&rng, 300));
    (void)app::DecodeSse(RandomAsciiSoup(&rng, 300));
  }
  SUCCEED();
}

TEST(FuzzTest, SseEncodeDecodeRoundTripsRandomPayloads) {
  Rng rng(0xF027);
  for (int i = 0; i < 500; ++i) {
    app::SseEvent event;
    event.event = "e";
    // SSE data cannot carry raw '\r'; the encoder splits on '\n'.
    std::string data = RandomAsciiSoup(&rng, 100);
    data.erase(std::remove(data.begin(), data.end(), '\r'), data.end());
    event.data = data;
    const auto decoded = app::DecodeSse(app::EncodeSse(event));
    ASSERT_EQ(decoded.size(), 1u) << data;
    EXPECT_EQ(decoded[0].data, data);
  }
}

TEST(FuzzTest, IncrementalSseDecoderMatchesOneShotAtRandomSplits) {
  Rng rng(0xF02B);
  for (int i = 0; i < 1000; ++i) {
    const std::string wire = rng.Bernoulli(0.5) ? RandomBytes(&rng, 300)
                                                : RandomAsciiSoup(&rng, 300);
    const auto whole = app::DecodeSse(wire);
    app::SseDecoder decoder;
    std::vector<app::SseEvent> incremental;
    size_t pos = 0;
    while (pos < wire.size()) {
      const size_t take = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(wire.size() - pos)));
      for (auto& event : app::DecodeSseIncremental(
               std::string_view(wire).substr(pos, take), &decoder)) {
        incremental.push_back(std::move(event));
      }
      pos += take;
    }
    // Slicing must never change what is decoded.
    ASSERT_EQ(incremental.size(), whole.size());
    for (size_t e = 0; e < whole.size(); ++e) {
      EXPECT_EQ(incremental[e].event, whole[e].event);
      EXPECT_EQ(incremental[e].data, whole[e].data);
      EXPECT_EQ(incremental[e].id, whole[e].id);
    }
  }
}

TEST(FuzzTest, ChunkedDecoderSurvivesRandomBytes) {
  Rng rng(0xF02C);
  for (int i = 0; i < 2000; ++i) {
    app::ChunkedDecoder decoder;
    std::string out;
    // Feeds after a decode error must keep failing, never crash.
    (void)decoder.Feed(RandomBytes(&rng, 200), &out);
    (void)decoder.Feed(RandomAsciiSoup(&rng, 200), &out);
  }
  SUCCEED();
}

TEST(FuzzTest, ChunkedDecoderRoundTripsRandomPayloadsAtRandomSplits) {
  Rng rng(0xF02D);
  for (int i = 0; i < 500; ++i) {
    // Build a valid chunked encoding of a random payload.
    const std::string payload = RandomBytes(&rng, 200);
    std::string wire;
    size_t pos = 0;
    while (pos < payload.size()) {
      const size_t take = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(payload.size() - pos)));
      char size_line[32];
      std::snprintf(size_line, sizeof(size_line), "%zx\r\n", take);
      wire += size_line;
      wire.append(payload, pos, take);
      wire += "\r\n";
      pos += take;
    }
    wire += "0\r\n\r\n";

    app::ChunkedDecoder decoder;
    std::string out;
    size_t fed = 0;
    while (fed < wire.size()) {
      const size_t take = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(wire.size() - fed)));
      ASSERT_TRUE(
          decoder.Feed(std::string_view(wire).substr(fed, take), &out).ok());
      fed += take;
    }
    EXPECT_EQ(out, payload);
    EXPECT_TRUE(decoder.done());
  }
}

TEST(FuzzTest, NlConfigNeverCrashesAndPoolStaysValid) {
  Rng rng(0xF028);
  const std::vector<app::NlModelInfo> models = {
      {"llama3:8b", 75.0}, {"mistral:7b", 95.0}, {"qwen2:7b", 85.0}};
  static const char* kFragments[] = {
      "avoid", "use", "the", "bandit", "llama3", "mistral", "qwen2",
      "budget", "512", "tokens", "slow", "models", "only", "prioritize",
      "no", "retrieval", "consensus", "focus", "on", ",", ".", "hybrid"};
  for (int i = 0; i < 2000; ++i) {
    std::string instruction;
    const int words = static_cast<int>(rng.UniformInt(0, 12));
    for (int w = 0; w < words; ++w) {
      if (!instruction.empty()) instruction += ' ';
      instruction += kFragments[rng.UniformInt(0, 21)];
    }
    auto result = app::ApplyNlConfig(
        instruction, core::SearchEngine::QueryOptions{}, models);
    if (result.ok()) {
      // The pool must only ever contain known models, no duplicates.
      ASSERT_FALSE(result->options.models.empty());
      for (const auto& m : result->options.models) {
        bool known = false;
        for (const auto& info : models) known = known || info.name == m;
        EXPECT_TRUE(known) << m << " from: " << instruction;
      }
      EXPECT_GT(result->options.token_budget, 0u) << instruction;
    }
  }
}

// WAL record-parser seeds: recovery must treat anything on disk — truncated
// length prefixes, corrupt checksums, absurd declared lengths — as a torn
// tail or typed error, never as a crash or an over-read.
TEST(FuzzTest, WalReplaySurvivesTruncatedLengthPrefix) {
  RealFileSystem fs;
  const std::string path = ::testing::TempDir() + "/fuzz_wal_trunc.log";
  vectordb::WriteAheadLog::Options wal_opts;
  {
    (void)fs.Remove(path);
    auto log = vectordb::WriteAheadLog::Open(&fs, path, wal_opts);
    ASSERT_TRUE(log.ok());
    vectordb::VectorRecord record;
    record.id = "seed";
    record.vector = {0.1f, 0.2f, 0.3f};
    ASSERT_TRUE((*log)->AppendUpsert(record).ok());
    ASSERT_TRUE((*log)->Sync().ok());
  }
  auto contents = fs.ReadFile(path);
  ASSERT_TRUE(contents.ok());
  vectordb::Collection::Options copts;
  copts.dimension = 3;
  copts.index_kind = vectordb::IndexKind::kFlat;
  // Every truncation inside the 16-byte frame header (including mid-length-
  // prefix) is a torn tail.
  for (size_t keep = 0; keep < 16 && keep < contents->size(); ++keep) {
    ASSERT_TRUE(fs.Truncate(path, keep).ok());
    vectordb::Collection collection("t", copts);
    auto stats = vectordb::WriteAheadLog::Replay(&fs, path, &collection);
    ASSERT_TRUE(stats.ok()) << "keep=" << keep;
    EXPECT_EQ(stats->upserts, 0u) << "keep=" << keep;
    EXPECT_EQ(stats->torn_tail, keep != 0) << "keep=" << keep;
  }
  (void)fs.Remove(path);
}

TEST(FuzzTest, WalReplaySurvivesCorruptChecksumsAndRandomMutations) {
  Rng rng(0xF02B);
  RealFileSystem fs;
  const std::string path = ::testing::TempDir() + "/fuzz_wal_mut.log";
  vectordb::WriteAheadLog::Options wal_opts;
  std::string pristine;
  {
    (void)fs.Remove(path);
    auto log = vectordb::WriteAheadLog::Open(&fs, path, wal_opts);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 4; ++i) {
      vectordb::VectorRecord record;
      record.id = "r" + std::to_string(i);
      record.vector = {0.1f * static_cast<float>(i), 0.5f, 0.9f};
      record.document = "payload " + std::string(20, 'x');
      ASSERT_TRUE((*log)->AppendUpsert(record).ok());
    }
    ASSERT_TRUE((*log)->Sync().ok());
    auto contents = fs.ReadFile(path);
    ASSERT_TRUE(contents.ok());
    pristine = *contents;
  }
  vectordb::Collection::Options copts;
  copts.dimension = 3;
  copts.index_kind = vectordb::IndexKind::kFlat;
  for (int i = 0; i < 300; ++i) {
    std::string mutated = pristine;
    // Flip one random byte (often inside a checksum or length field).
    const size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
    mutated[pos] ^= static_cast<char>(1 << rng.UniformInt(0, 7));
    {
      auto out = fs.OpenTrunc(path);
      ASSERT_TRUE(out.ok());
      ASSERT_TRUE((*out)->Append(mutated).ok());
    }
    vectordb::Collection collection("m", copts);
    auto stats = vectordb::WriteAheadLog::Replay(&fs, path, &collection);
    // A flipped checksum/length is a torn tail (replay stops, Status OK); a
    // flip inside a payload that survives its checksum is vanishingly rare
    // but must still surface as a typed error, never a crash.
    if (stats.ok()) {
      EXPECT_LE(stats->upserts, 4u);
      EXPECT_EQ(collection.size(), stats->upserts);
    } else {
      EXPECT_TRUE(stats.status().IsIOError());
    }
  }
  (void)fs.Remove(path);
}

TEST(FuzzTest, WalReplaySurvivesGiantDeclaredLength) {
  RealFileSystem fs;
  const std::string path = ::testing::TempDir() + "/fuzz_wal_giant.log";
  // Hand-build frames whose length prefix declares far more payload than the
  // file holds — including values chosen to wrap 32-bit and size_t math.
  const uint32_t kHostileLengths[] = {0xFFFFFFFFu, 0xFFFFFFF0u, 0x80000000u,
                                      0x7FFFFFFFu, 1u << 20};
  vectordb::Collection::Options copts;
  copts.dimension = 3;
  copts.index_kind = vectordb::IndexKind::kFlat;
  for (const uint32_t len : kHostileLengths) {
    std::string frame;
    frame.append(reinterpret_cast<const char*>(&len), 4);  // declared length
    frame.append(12, '\x5a');  // checksum + sequence, then no payload at all
    {
      auto out = fs.OpenTrunc(path);
      ASSERT_TRUE(out.ok());
      ASSERT_TRUE((*out)->Append(frame).ok());
    }
    vectordb::Collection collection("g", copts);
    auto stats = vectordb::WriteAheadLog::Replay(&fs, path, &collection);
    ASSERT_TRUE(stats.ok()) << "len=" << len;
    EXPECT_TRUE(stats->torn_tail) << "len=" << len;
    EXPECT_EQ(stats->upserts, 0u) << "len=" << len;
    EXPECT_EQ(collection.size(), 0u) << "len=" << len;
  }
  (void)fs.Remove(path);
}

TEST(FuzzTest, WalReplaySurvivesRandomByteSoup) {
  Rng rng(0xF02C);
  RealFileSystem fs;
  const std::string path = ::testing::TempDir() + "/fuzz_wal_soup.log";
  vectordb::Collection::Options copts;
  copts.dimension = 3;
  copts.index_kind = vectordb::IndexKind::kFlat;
  for (int i = 0; i < 200; ++i) {
    const std::string soup = RandomBytes(&rng, 400);
    {
      auto out = fs.OpenTrunc(path);
      ASSERT_TRUE(out.ok());
      ASSERT_TRUE((*out)->Append(soup).ok());
    }
    vectordb::Collection collection("s", copts);
    auto stats = vectordb::WriteAheadLog::Replay(&fs, path, &collection);
    if (stats.ok()) {
      EXPECT_EQ(collection.size(), stats->upserts);
    } else {
      EXPECT_TRUE(stats.status().IsIOError());
    }
  }
  (void)fs.Remove(path);
}

}  // namespace
}  // namespace llmms
