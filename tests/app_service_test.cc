#include "llmms/app/service.h"

#include <gtest/gtest.h>

#include "llmms/app/sse.h"
#include "llmms/llm/hedged_model.h"
#include "testutil.h"

namespace llmms::app {
namespace {

class ApiServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = testutil::MakeWorld(4);
    db_ = std::make_shared<vectordb::VectorDatabase>();
    sessions_ = std::make_shared<session::SessionStore>();
    engine_ = std::make_unique<core::SearchEngine>(
        world_.runtime.get(), world_.embedder, db_, sessions_);
    service_ = std::make_unique<ApiService>(engine_.get());
  }

  Json QueryRequest(const std::string& question) {
    Json request = Json::MakeObject();
    request.Set("session", "s1");
    request.Set("query", question);
    return request;
  }

  testutil::World world_;
  std::shared_ptr<vectordb::VectorDatabase> db_;
  std::shared_ptr<session::SessionStore> sessions_;
  std::unique_ptr<core::SearchEngine> engine_;
  std::unique_ptr<ApiService> service_;
};

TEST_F(ApiServiceTest, QueryReturnsAnswerAndTransparencyData) {
  auto response = service_->Handle("/api/query",
                                   QueryRequest(world_.dataset[0].question));
  ASSERT_TRUE(response["ok"].AsBool());
  EXPECT_FALSE(response["answer"].AsString().empty());
  EXPECT_FALSE(response["model"].AsString().empty());
  EXPECT_GT(response["total_tokens"].AsInt(), 0);
  EXPECT_EQ(response["models"].Size(), 3u);
  const auto& winner = response["models"][response["model"].AsString()];
  EXPECT_FALSE(winner.is_null());
  EXPECT_TRUE(winner.Contains("score"));
  EXPECT_TRUE(winner.Contains("tokens"));
}

TEST_F(ApiServiceTest, QueryValidatesArguments) {
  Json missing = Json::MakeObject();
  missing.Set("session", "s1");
  auto response = service_->Handle("/api/query", missing);
  EXPECT_FALSE(response["ok"].AsBool());
  EXPECT_EQ(response["error"]["code"].AsString(), "InvalidArgument");

  Json bad_budget = QueryRequest("q");
  bad_budget.Set("budget", -5);
  response = service_->Handle("/api/query", bad_budget);
  EXPECT_FALSE(response["ok"].AsBool());
}

TEST_F(ApiServiceTest, QueryHonorsAlgorithmAndModelSettings) {
  Json request = QueryRequest(world_.dataset[0].question);
  request.Set("algorithm", "single");
  request.Set("single_model", "mistral:7b");
  auto response = service_->Handle("/api/query", request);
  ASSERT_TRUE(response["ok"].AsBool());
  EXPECT_EQ(response["model"].AsString(), "mistral:7b");
  EXPECT_EQ(response["models"].Size(), 1u);
}

TEST_F(ApiServiceTest, QueryStreamsEvents) {
  std::vector<Json> events;
  auto response =
      service_->Handle("/api/query", QueryRequest(world_.dataset[1].question),
                       [&events](const Json& e) { events.push_back(e); });
  ASSERT_TRUE(response["ok"].AsBool());
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back()["type"].AsString(), "final");
  bool saw_chunk = false;
  for (const auto& e : events) {
    saw_chunk = saw_chunk || e["type"].AsString() == "chunk";
  }
  EXPECT_TRUE(saw_chunk);
}

TEST_F(ApiServiceTest, UploadThenQueryUsesRag) {
  const auto& item = world_.dataset[0];
  Json upload = Json::MakeObject();
  upload.Set("session", "s1");
  upload.Set("document_id", "notes");
  upload.Set("text", item.golden);
  auto up_response = service_->Handle("/api/upload", upload);
  ASSERT_TRUE(up_response["ok"].AsBool());
  EXPECT_GE(up_response["chunks"].AsInt(), 1);

  auto response = service_->Handle("/api/query", QueryRequest(item.question));
  ASSERT_TRUE(response["ok"].AsBool());
  EXPECT_GE(response["retrieved_chunks"].AsInt(), 1);
}

// The vectordb block of /api/health reports each session collection's
// gauges directly (DESIGN.md §15): its stored records, the queries it
// served and the bytes its vectors hold.
TEST_F(ApiServiceTest, HealthReportsSessionCollectionGauges) {
  const auto& item = world_.dataset[0];
  Json upload = Json::MakeObject();
  upload.Set("session", "s1");
  upload.Set("document_id", "notes");
  upload.Set("text", item.golden);
  auto up_response = service_->Handle("/api/upload", upload);
  ASSERT_TRUE(up_response["ok"].AsBool());
  const int64_t chunks = up_response["chunks"].AsInt();
  ASSERT_GE(chunks, 1);
  ASSERT_TRUE(
      service_->Handle("/api/query", QueryRequest(item.question))["ok"]
          .AsBool());

  auto health = service_->Handle("/api/health", Json::MakeObject());
  ASSERT_TRUE(health["ok"].AsBool());
  ASSERT_TRUE(health.Contains("vectordb"));
  const auto& vdb = health["vectordb"];
  ASSERT_EQ(vdb["collections"].Size(), 1u);
  const auto& entry = vdb["collections"].At(0);
  EXPECT_EQ(entry["collection"].AsString(), "session-s1");
  EXPECT_EQ(entry["records"].AsInt(), chunks);
  EXPECT_GE(entry["queries"].AsInt(), 1);
  EXPECT_GT(entry["vector_bytes"].AsInt(), 0);
  EXPECT_EQ(vdb["total_records"].AsInt(), chunks);
}

TEST_F(ApiServiceTest, UploadValidatesArguments) {
  Json upload = Json::MakeObject();
  upload.Set("session", "s1");
  auto response = service_->Handle("/api/upload", upload);
  EXPECT_FALSE(response["ok"].AsBool());
}

TEST_F(ApiServiceTest, InstructionsFieldAppliesNlConfig) {
  Json request = QueryRequest(world_.dataset[0].question);
  request.Set("instructions", "use the bandit algorithm, avoid llama3");
  auto response = service_->Handle("/api/query", request);
  ASSERT_TRUE(response["ok"].AsBool());
  EXPECT_EQ(response["applied_config"].Size(), 2u);
  EXPECT_EQ(response["models"].Size(), 2u);
  EXPECT_TRUE(response["models"]["llama3:8b"].is_null());
}

TEST_F(ApiServiceTest, ContradictoryInstructionsRejected) {
  Json request = QueryRequest(world_.dataset[0].question);
  request.Set("instructions",
              "avoid llama3, avoid mistral, avoid qwen2");
  auto response = service_->Handle("/api/query", request);
  EXPECT_FALSE(response["ok"].AsBool());
}

TEST_F(ApiServiceTest, ModelsEndpointListsLoadedModels) {
  auto response = service_->Handle("/api/models", Json::MakeObject());
  ASSERT_TRUE(response["ok"].AsBool());
  EXPECT_EQ(response["models"].Size(), 3u);
}

TEST_F(ApiServiceTest, SessionsLifecycle) {
  ASSERT_TRUE(service_
                  ->Handle("/api/query",
                           QueryRequest(world_.dataset[0].question))["ok"]
                  .AsBool());
  auto listing = service_->Handle("/api/sessions", Json::MakeObject());
  ASSERT_TRUE(listing["ok"].AsBool());
  EXPECT_EQ(listing["sessions"].Size(), 1u);
  EXPECT_EQ(listing["sessions"].At(0).AsString(), "s1");

  Json end = Json::MakeObject();
  end.Set("session", "s1");
  EXPECT_TRUE(service_->Handle("/api/session/end", end)["ok"].AsBool());
  listing = service_->Handle("/api/sessions", Json::MakeObject());
  EXPECT_EQ(listing["sessions"].Size(), 0u);
  // Ending again fails cleanly.
  EXPECT_FALSE(service_->Handle("/api/session/end", end)["ok"].AsBool());
}

TEST_F(ApiServiceTest, HealthAndHardwareEndpoints) {
  auto health = service_->Handle("/api/health", Json::MakeObject());
  ASSERT_TRUE(health["ok"].AsBool());
  EXPECT_EQ(health["status"].AsString(), "healthy");
  EXPECT_EQ(health["loaded_models"].AsInt(), 3);

  // The storage block (DESIGN.md §14): the state store's counters + I/O op
  // counts.
  ASSERT_TRUE(health.Contains("storage"));
  const auto& storage = health["storage"];
  EXPECT_FALSE(storage["chaos"].AsBool());  // no LLMMS_IO_CHAOS in tests
  ASSERT_TRUE(storage.Contains("recovery"));
  EXPECT_TRUE(storage["recovery"].Contains("state_saves"));
  EXPECT_TRUE(storage["recovery"].Contains("state_save_failures"));
  EXPECT_TRUE(storage["recovery"].Contains("state_cold_starts"));
  EXPECT_EQ(storage["recovery"].Size(), 3u);
  ASSERT_TRUE(storage.Contains("io"));
  EXPECT_TRUE(storage["io"].Contains("appends"));
  EXPECT_TRUE(storage["io"].Contains("syncs"));
  EXPECT_TRUE(storage["io"].Contains("dir_syncs"));

  auto hardware = service_->Handle("/api/hardware", Json::MakeObject());
  ASSERT_TRUE(hardware["ok"].AsBool());
  ASSERT_GE(hardware["devices"].Size(), 1u);
  const auto& gpu = hardware["devices"].At(0);
  EXPECT_TRUE(gpu.Contains("memory_total_mb"));
  EXPECT_TRUE(gpu.Contains("utilization"));
  EXPECT_TRUE(gpu.Contains("temperature_c"));
}

TEST_F(ApiServiceTest, UnknownEndpointIsNotFound) {
  auto response = service_->Handle("/api/nope", Json::MakeObject());
  EXPECT_FALSE(response["ok"].AsBool());
  EXPECT_EQ(response["error"]["code"].AsString(), "NotFound");
}

// The adaptive hedging block surfaces the engine feed's estimator
// configuration (DESIGN.md §16): `window_size` / `reward_half_life` tell an
// operator which estimator the favours driving the percentiles come from.
// The engine's feed keeps RewardFeedConfig's defaults: the lifetime mean,
// with neither a window nor a decay.
TEST(ApiServiceAdaptiveHealthTest, HealthReportsRewardEstimatorConfig) {
  auto world = testutil::MakeWorld(1);
  auto profile = llm::DefaultProfiles()[0];
  profile.name = "hedged:demo";
  llm::HedgeConfig hedge;
  hedge.adapt = true;
  ASSERT_TRUE(world.registry
                  ->Register(std::make_shared<llm::HedgedModel>(
                      std::make_shared<llm::SyntheticModel>(profile,
                                                            world.knowledge),
                      std::vector<std::shared_ptr<llm::LanguageModel>>{
                          std::make_shared<llm::SyntheticModel>(
                              profile, world.knowledge)},
                      hedge))
                  .ok());
  ASSERT_TRUE(world.runtime->LoadModel("hedged:demo").ok());

  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto sessions = std::make_shared<session::SessionStore>();
  core::SearchEngine engine(world.runtime.get(), world.embedder, db, sessions);
  ApiService service(&engine);

  auto health = service.Handle("/api/health", Json::MakeObject());
  ASSERT_TRUE(health["ok"].AsBool());
  const Json* entry = nullptr;
  for (const Json& model : health["models"].AsArray()) {
    if (model["model"].AsString() == "hedged:demo") entry = &model;
  }
  ASSERT_NE(entry, nullptr);
  const Json& hedging = (*entry)["hedging"];
  ASSERT_TRUE(hedging.is_object());
  EXPECT_TRUE(hedging["adaptive"].AsBool());
  ASSERT_TRUE(hedging.Contains("window_size"));
  ASSERT_TRUE(hedging.Contains("reward_half_life"));
  EXPECT_EQ(hedging["window_size"].AsInt(), 0);
  EXPECT_DOUBLE_EQ(hedging["reward_half_life"].AsDouble(), 0.0);
}

TEST(SseTest, EncodeBasicEvent) {
  SseEvent event;
  event.event = "chunk";
  event.data = "{\"a\":1}";
  EXPECT_EQ(EncodeSse(event), "event: chunk\ndata: {\"a\":1}\n\n");
}

TEST(SseTest, EncodeMultilineData) {
  SseEvent event;
  event.data = "line1\nline2";
  EXPECT_EQ(EncodeSse(event), "data: line1\ndata: line2\n\n");
}

TEST(SseTest, RoundTripWithIds) {
  SseEvent a;
  a.event = "score";
  a.id = "7";
  a.data = "payload";
  SseEvent b;
  b.data = "first\nsecond";
  const std::string wire = EncodeSse(a) + EncodeSse(b);
  const auto decoded = DecodeSse(wire);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].event, "score");
  EXPECT_EQ(decoded[0].id, "7");
  EXPECT_EQ(decoded[0].data, "payload");
  EXPECT_EQ(decoded[1].data, "first\nsecond");
}

TEST(SseTest, DecodeIgnoresCommentsAndIncompleteTrailers) {
  const auto decoded =
      DecodeSse(": a comment\ndata: complete\n\ndata: incomplete");
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].data, "complete");
}

TEST(SseTest, StreamedOrchestrationEventsSurviveSseRoundTrip) {
  // End-to-end: JSON event -> SSE wire -> decode -> JSON.
  Json event = Json::MakeObject();
  event.Set("type", "chunk");
  event.Set("text", "hello world");
  SseEvent sse;
  sse.event = "orchestration";
  sse.data = event.Dump();
  const auto decoded = DecodeSse(EncodeSse(sse));
  ASSERT_EQ(decoded.size(), 1u);
  auto parsed = Json::Parse(decoded[0].data);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, event);
}

}  // namespace
}  // namespace llmms::app
