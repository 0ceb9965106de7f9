// Deterministic fuzz sweeps over hostile inputs: parsers and interpreters
// must never crash and must fail with typed statuses, not garbage state.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "llmms/app/http.h"
#include "llmms/app/nl_config.h"
#include "llmms/app/sse.h"
#include "llmms/common/fs.h"
#include "llmms/common/json.h"
#include "llmms/common/rng.h"
#include "llmms/core/reward_feed.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/llm/hedged_model.h"
#include "llmms/llm/knowledge.h"
#include "llmms/llm/model_profile.h"
#include "llmms/llm/state_store.h"
#include "llmms/llm/synthetic_model.h"

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

// StateStore::Load is the one parser that reads bytes from disk. The
// seeds are mutations of a file SaveNow wrote with a tripped breaker, a
// hedged group's latency sketches and a reward feed in it. Every load must
// return OK, and the restore code then runs on whatever it accepted. The
// file carries no checksum, so a mutation that still parses may restore
// different values without a warning; a load that warns restores nothing.
class StateFileRig {
 public:
  struct Restored {
    bool warned = false;
    llm::CircuitBreaker::Snapshot breaker;
    std::vector<QuantileWindow::Snapshot> sketches;
    core::RewardFeed::Snapshot rewards;
  };

  StateFileRig()
      : path_(::testing::TempDir() + "/fuzz_state.json"),
        knowledge_(std::make_shared<llm::KnowledgeBase>(
            std::make_shared<embedding::HashEmbedder>())) {
    (void)fs_.Remove(path_);
    (void)fs_.Remove(path_ + ".tmp");
  }
  ~StateFileRig() { (void)fs_.Remove(path_); }

  // A hedged group named "m1" over two synthetic replicas, each with its
  // own latency window.
  std::shared_ptr<llm::HedgedModel> MakeHedged() const {
    llm::ModelProfile primary = llm::DefaultProfiles()[0];
    llm::ModelProfile backup = primary;
    primary.name = "m1";
    backup.name = "m1:backup";
    return std::make_shared<llm::HedgedModel>(
        std::make_shared<llm::SyntheticModel>(primary, knowledge_),
        std::vector<std::shared_ptr<llm::LanguageModel>>{
            std::make_shared<llm::SyntheticModel>(backup, knowledge_)});
  }

  std::string WriteValidFile() {
    llm::StateStore store(path_, &fs_);
    EXPECT_TRUE(store.Load().ok());
    llm::CircuitBreaker breaker(1, 1);
    store.AttachBreaker("m1", &breaker);
    auto hedged = MakeHedged();
    for (int i = 1; i <= 6; ++i) {
      hedged->RecordLatency(0, 0.125 * i);
      hedged->RecordLatency(1, 0.5 * i);
    }
    store.AttachSketches("m1", hedged);
    core::RewardFeed feed;
    core::AttachRewardFeed(&store, &feed);
    feed.Publish("m1", 0.75);
    feed.Publish("m2", 0.25);
    feed.Publish("m1", 0.5);
    breaker.RecordFailure();  // trips: the transition saves the file
    breaker.SetTransitionListener(nullptr);
    EXPECT_TRUE(store.SaveNow().ok());
    auto contents = fs_.ReadFile(path_);
    EXPECT_TRUE(contents.ok());
    return contents.ok() ? *contents : std::string();
  }

  // Writes `contents` as the state file, loads it and attaches a breaker, a
  // hedged group and a reward feed, then reads back what they restored.
  Restored LoadAndAttach(const std::string& contents, const std::string& what) {
    SCOPED_TRACE(what);
    Restored out;
    {
      auto file = fs_.OpenTrunc(path_);
      EXPECT_TRUE(file.ok());
      if (!file.ok()) return out;
      EXPECT_TRUE((*file)->Append(contents).ok());
      EXPECT_TRUE((*file)->Close().ok());
    }
    llm::StateStore store(path_, &fs_);
    EXPECT_TRUE(store.Load().ok());
    llm::CircuitBreaker breaker(1, 1);
    auto hedged = MakeHedged();
    core::RewardFeed feed;
    store.AttachBreaker("m1", &breaker);
    store.AttachSketches("m1", hedged);
    core::AttachRewardFeed(&store, &feed);
    breaker.SetTransitionListener(nullptr);
    out.warned = !store.load_warning().empty();
    out.breaker = breaker.snapshot();
    out.sketches = hedged->SketchSnapshot();
    out.rewards = feed.SnapshotState();
    if (out.warned) {
      EXPECT_FALSE(store.HasBreaker("m1"));
      EXPECT_FALSE(store.HasSketches("m1"));
      EXPECT_TRUE(store.LoadedSection("rewards").is_null());
      EXPECT_EQ(out.breaker.state, llm::CircuitBreaker::State::kClosed);
      EXPECT_EQ(out.breaker.total_failures, 0u);
      EXPECT_TRUE(out.breaker.history.empty());
      for (const auto& sketch : out.sketches) {
        EXPECT_TRUE(sketch.samples.empty());
        EXPECT_EQ(sketch.count, 0u);
      }
      EXPECT_EQ(out.rewards.tick, 0u);
      EXPECT_TRUE(out.rewards.models.empty());
    }
    return out;
  }

 private:
  RealFileSystem fs_;
  const std::string path_;
  const std::shared_ptr<llm::KnowledgeBase> knowledge_;
};

TEST(FuzzTest, StateStoreLoadSurvivesMutationsOfASavedFile) {
  StateFileRig rig;
  const std::string pristine = rig.WriteValidFile();
  ASSERT_GT(pristine.size(), 100u);
  const auto restored = rig.LoadAndAttach(pristine, "pristine");
  ASSERT_FALSE(restored.warned);
  EXPECT_EQ(restored.breaker.state, llm::CircuitBreaker::State::kOpen);
  ASSERT_EQ(restored.sketches.size(), 2u);
  EXPECT_EQ(restored.sketches[0].samples.size(), 6u);
  EXPECT_EQ(restored.rewards.tick, 3u);

  // Truncation at every byte. Only the whole file, or the whole file less
  // its trailing newline, is still a complete JSON document.
  size_t truncations_warned = 0;
  for (size_t keep = 0; keep < pristine.size(); ++keep) {
    truncations_warned +=
        rig.LoadAndAttach(pristine.substr(0, keep),
                          "keep=" + std::to_string(keep))
            .warned;
  }
  // An empty file is a clean first run; every other cut but the last warns.
  EXPECT_EQ(truncations_warned, pristine.size() - 2);

  // Seeded bit flips: one to four per mutant.
  Rng rng(0xF02D);
  for (int i = 0; i < 600; ++i) {
    std::string mutated = pristine;
    const int flips = static_cast<int>(rng.UniformInt(1, 4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(mutated[pos] ^
                                       (1 << rng.UniformInt(0, 7)));
    }
    rig.LoadAndAttach(mutated, "flip mutant " + std::to_string(i));
  }
}

TEST(FuzzTest, StateStoreLoadSurvivesRandomByteSoup) {
  StateFileRig rig;
  Rng rng(0xF02E);
  for (int i = 0; i < 200; ++i) {
    rig.LoadAndAttach(RandomBytes(&rng, 400),
                      "byte soup " + std::to_string(i));
    rig.LoadAndAttach(RandomAsciiSoup(&rng, 400),
                      "ascii soup " + std::to_string(i));
  }
}

}  // namespace
}  // namespace llmms
