// Federated model integration (§9.5): node B hosts models behind the HTTP
// API; node A registers a RemoteModel adapter for one of them and
// orchestrates it together with its local models — across a real socket.
// The streaming conformance tests pin down the wire protocol of DESIGN.md
// §9: chunk-for-chunk delivery with identical token accounting, the
// one-shot fallback for pre-streaming peers, and mid-stream peer death as
// a quarantinable stream error rather than a hang.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "llmms/app/http_server.h"
#include "llmms/app/remote_model.h"
#include "llmms/app/sse.h"
#include "llmms/core/oua.h"
#include "llmms/llm/fault_injection.h"
#include "llmms/llm/hedged_model.h"
#include "canned_peer.h"
#include "golden_file.h"
#include "testutil.h"

namespace llmms::app {
namespace {

// A model whose stream emits one immediate chunk and then blocks until the
// test opens the gate. Registering it on the remote node proves the first
// chunk crosses the federation wire while the remote generation is still
// in flight — deterministically, with no timing heuristics.
class GatedModel final : public llm::LanguageModel {
 public:
  explicit GatedModel(std::string name) : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }
  uint64_t memory_mb() const override { return 1; }
  double tokens_per_second() const override { return 100.0; }
  size_t context_window() const override { return 4096; }

  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      gate_open_ = true;
    }
    gate_cv_.notify_all();
  }

  StatusOr<std::unique_ptr<llm::GenerationStream>> StartGeneration(
      const llm::GenerationRequest&) const override {
    return {std::make_unique<Stream>(this)};
  }

 private:
  class Stream final : public llm::GenerationStream {
   public:
    explicit Stream(const GatedModel* model) : model_(model) {}

    StatusOr<llm::Chunk> NextChunk(size_t max_tokens) override {
      if (max_tokens == 0) {
        return Status::InvalidArgument("max_tokens must be positive");
      }
      llm::Chunk chunk;
      if (step_ == 0) {
        step_ = 1;
        chunk.text = "alpha beta gamma";
        chunk.num_tokens = 3;
      } else if (step_ == 1) {
        std::unique_lock<std::mutex> lock(model_->mutex_);
        if (!model_->gate_cv_.wait_for(
                lock, std::chrono::seconds(20),
                [this] { return model_->gate_open_; })) {
          return Status::Internal("gate never opened — test bug");
        }
        step_ = 2;
        chunk.text = " delta epsilon";
        chunk.num_tokens = 2;
        chunk.done = true;
        chunk.stop_reason = llm::StopReason::kStop;
      } else {
        chunk.done = true;
        chunk.stop_reason = llm::StopReason::kStop;
      }
      text_ += chunk.text;
      tokens_ += chunk.num_tokens;
      if (chunk.done) finished_ = true;
      return {std::move(chunk)};
    }

    const std::string& text() const override { return text_; }
    size_t tokens_generated() const override { return tokens_; }
    bool finished() const override { return finished_; }
    llm::StopReason stop_reason() const override {
      return llm::StopReason::kStop;
    }

   private:
    const GatedModel* model_;
    int step_ = 0;
    std::string text_;
    size_t tokens_ = 0;
    bool finished_ = false;
  };

  std::string name_;
  mutable std::mutex mutex_;
  mutable std::condition_variable gate_cv_;
  bool gate_open_ = false;
};

// One POST over a raw socket; returns every response byte up to the
// server's close, undecoded.
std::string RawExchange(int port, const std::string& target,
                        const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "<socket failed>";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  std::string raw;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request =
        "POST " + target + " HTTP/1.1\r\ncontent-type: application/json\r\n" +
        "content-length: " + std::to_string(body.size()) +
        "\r\nconnection: close\r\n\r\n" + body;
    (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
    char buf[4096];
    for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
      raw.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return raw;
}

// Makes wire bytes line-oriented and diffable: every CR and LF is spelled
// out, and each LF also ends the golden line.
std::string EscapeWire(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\n') {
      out += "\\n\n";
    } else {
      out += c;
    }
  }
  return out;
}

class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // --- Node B: the remote host serving the default three models. ---
    remote_world_ = testutil::MakeWorld(4);
    remote_db_ = std::make_shared<vectordb::VectorDatabase>();
    remote_sessions_ = std::make_shared<session::SessionStore>();
    remote_engine_ = std::make_unique<core::SearchEngine>(
        remote_world_.runtime.get(), remote_world_.embedder, remote_db_,
        remote_sessions_);
    remote_service_ = std::make_unique<ApiService>(remote_engine_.get());
    remote_server_ = std::make_unique<HttpServer>(remote_service_.get());
    ASSERT_TRUE(remote_server_->Start(0).ok());
  }

  void TearDown() override { remote_server_->Stop(); }

  testutil::World remote_world_;
  std::shared_ptr<vectordb::VectorDatabase> remote_db_;
  std::shared_ptr<session::SessionStore> remote_sessions_;
  std::unique_ptr<core::SearchEngine> remote_engine_;
  std::unique_ptr<ApiService> remote_service_;
  std::unique_ptr<HttpServer> remote_server_;
};

TEST_F(FederationTest, GenerateEndpointServesCompletions) {
  Json body = Json::MakeObject();
  body.Set("model", "mistral:7b");
  body.Set("prompt", remote_world_.dataset[0].question);
  auto response = HttpFetch("127.0.0.1", remote_server_->port(), "POST",
                            "/api/generate", body.Dump());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  auto result = Json::Parse(response->body);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*result)["ok"].AsBool());
  EXPECT_FALSE((*result)["text"].AsString().empty());
  EXPECT_GT((*result)["tokens"].AsInt(), 0);
  EXPECT_EQ((*result)["done_reason"].AsString(), "stop");
}

TEST_F(FederationTest, GenerateValidatesArguments) {
  Json body = Json::MakeObject();
  body.Set("model", "no-such-model");
  body.Set("prompt", "hello");
  auto response = HttpFetch("127.0.0.1", remote_server_->port(), "POST",
                            "/api/generate", body.Dump());
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->status, 200);
}

TEST_F(FederationTest, ModelInfoEndpoint) {
  Json body = Json::MakeObject();
  body.Set("model", "qwen2:7b");
  auto response = HttpFetch("127.0.0.1", remote_server_->port(), "POST",
                            "/api/model_info", body.Dump());
  ASSERT_TRUE(response.ok());
  auto info = Json::Parse(response->body);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE((*info)["ok"].AsBool());
  EXPECT_GT((*info)["tokens_per_second"].AsDouble(), 0.0);
  EXPECT_GT((*info)["context_window"].AsInt(), 0);
  EXPECT_TRUE((*info)["loaded"].AsBool());
}

TEST_F(FederationTest, ConnectFetchesMetadata) {
  auto remote = RemoteModel::Connect("127.0.0.1", remote_server_->port(),
                                     "mistral:7b");
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ((*remote)->remote_name(), "mistral:7b");
  EXPECT_NE((*remote)->name().find("mistral:7b@127.0.0.1"),
            std::string::npos);
  EXPECT_EQ((*remote)->memory_mb(), 0u);  // weights live remotely
  EXPECT_DOUBLE_EQ((*remote)->tokens_per_second(), 95.0);
}

TEST_F(FederationTest, ConnectRejectsUnknownModel) {
  EXPECT_FALSE(RemoteModel::Connect("127.0.0.1", remote_server_->port(),
                                    "ghost:13b")
                   .ok());
  EXPECT_FALSE(RemoteModel::Connect("127.0.0.1", 1, "mistral:7b").ok());
}

TEST_F(FederationTest, RemoteStreamMatchesRemoteExecution) {
  auto remote = RemoteModel::Connect("127.0.0.1", remote_server_->port(),
                                     "mistral:7b", "fed-mistral");
  ASSERT_TRUE(remote.ok());
  llm::GenerationRequest request;
  request.prompt = remote_world_.dataset[1].question;
  auto via_adapter = (*remote)->Generate(request);
  ASSERT_TRUE(via_adapter.ok());
  auto direct = remote_world_.runtime->Generate("mistral:7b", request);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_adapter->text, direct->text);
  EXPECT_EQ(via_adapter->num_tokens, direct->num_tokens);
  EXPECT_EQ(via_adapter->stop_reason, llm::StopReason::kStop);
}

// ----------------------------------------- streaming wire conformance
TEST_F(FederationTest, StreamingEndpointSpeaksTheWireProtocol) {
  Json body = Json::MakeObject();
  body.Set("model", "mistral:7b");
  body.Set("prompt", remote_world_.dataset[0].question);
  body.Set("chunk_tokens", 4);  // small frames force several chunk events

  auto stream = HttpClientStream::Open(
      "127.0.0.1", remote_server_->port(), "POST", "/api/generate?stream=1",
      body.Dump(), "application/json", /*timeout_seconds=*/5.0,
      /*accept_event_stream=*/true);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ((*stream)->head().status, 200);
  EXPECT_EQ((*stream)->head().headers.at("content-type"),
            "text/event-stream");

  SseDecoder decoder;
  std::vector<SseEvent> events;
  for (;;) {
    auto bytes = (*stream)->Read();
    ASSERT_TRUE(bytes.ok());
    if (bytes->empty()) break;
    for (auto& event : decoder.Feed(*bytes)) {
      events.push_back(std::move(event));
    }
  }
  EXPECT_FALSE(decoder.has_partial_event());

  // Several chunk frames, sequentially numbered, then exactly one typed
  // terminal frame.
  ASSERT_GE(events.size(), 3u);
  const SseEvent& terminal = events.back();
  EXPECT_EQ(terminal.event, "done");
  auto done = Json::Parse(terminal.data);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE((*done)["ok"].AsBool());
  EXPECT_EQ((*done)["done_reason"].AsString(), "stop");
  EXPECT_GT((*done)["simulated_seconds"].AsDouble(), 0.0);

  int64_t chunk_token_sum = 0;
  std::string chunk_text;
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_EQ(events[i].event, "chunk");
    EXPECT_EQ(events[i].id, std::to_string(i));
    auto data = Json::Parse(events[i].data);
    ASSERT_TRUE(data.ok());
    const int64_t tokens = (*data)["tokens"].AsInt();
    EXPECT_GE(tokens, 1);
    EXPECT_LE(tokens, 4);
    chunk_token_sum += tokens;
    // Chunk texts are word runs; consumers join them with single spaces —
    // the same convention local GenerationStream chunks follow.
    if (!chunk_text.empty()) chunk_text += ' ';
    chunk_text += (*data)["text"].AsString();
  }
  EXPECT_EQ(chunk_token_sum, (*done)["tokens"].AsInt());

  // Chunk-for-chunk reassembly must equal the one-shot endpoint's answer,
  // token for token.
  auto oneshot = HttpFetch("127.0.0.1", remote_server_->port(), "POST",
                           "/api/generate", body.Dump());
  ASSERT_TRUE(oneshot.ok());
  auto oneshot_result = Json::Parse(oneshot->body);
  ASSERT_TRUE(oneshot_result.ok());
  EXPECT_EQ(chunk_text, (*oneshot_result)["text"].AsString());
  EXPECT_EQ(chunk_token_sum, (*oneshot_result)["tokens"].AsInt());

  // Byte-for-byte pin of the seeded wire output — head, chunk framing, SSE
  // frames, terminal frame — of both streamed endpoints and the one-shot
  // generate JSON, so a refactor of the serving path cannot change a byte.
  Json capped = body;
  capped.Set("max_tokens", 10);  // ends mid-chunk: 4 + 4 + 2, "length"
  Json unknown = body;
  unknown.Set("model", "missing:1b");  // a terminal `error` frame only
  Json query = Json::MakeObject();
  query.Set("session", "wire-pin");
  query.Set("query", remote_world_.dataset[0].question);
  query.Set("algorithm", "oua");
  const std::pair<std::string, Json> exchanges[] = {
      {"/api/query?stream=1", query},
      {"/api/generate?stream=1", body},
      {"/api/generate?stream=1", capped},
      {"/api/generate?stream=1", unknown},
      {"/api/generate", body},
      {"/api/generate", capped},
  };
  std::string wire;
  for (const auto& [target, request] : exchanges) {
    wire += "== POST " + target + " " + request.Dump() + "\n";
    wire += EscapeWire(RawExchange(remote_server_->port(), target,
                                   request.Dump())) +
            "\n";
  }
  testutil::ExpectMatchesGolden("wire_protocol.golden", wire);
}

TEST_F(FederationTest, StreamingAdapterMatchesOneShotAccounting) {
  auto remote = RemoteModel::Connect("127.0.0.1", remote_server_->port(),
                                     "mistral:7b", "fed-mistral");
  ASSERT_TRUE(remote.ok());

  llm::GenerationRequest request;
  request.prompt = remote_world_.dataset[1].question;
  auto streamed = (*remote)->Generate(request);
  ASSERT_TRUE(streamed.ok());
  auto direct = remote_world_.runtime->Generate("mistral:7b", request);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(streamed->text, direct->text);
  EXPECT_EQ(streamed->num_tokens, direct->num_tokens);
  EXPECT_EQ(streamed->stop_reason, direct->stop_reason);
}

TEST_F(FederationTest, StreamingChunksCarryWireLatency) {
  auto remote = RemoteModel::Connect("127.0.0.1", remote_server_->port(),
                                     "mistral:7b", "fed-mistral");
  ASSERT_TRUE(remote.ok());
  llm::GenerationRequest request;
  request.prompt = remote_world_.dataset[0].question;
  auto stream = (*remote)->StartGeneration(request);
  ASSERT_TRUE(stream.ok());
  auto first = (*stream)->NextChunk(4);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->num_tokens, 0u);
  // TTFT: the first chunk is charged the real wire time it took to arrive
  // (connection setup included), so a slow federation link shows up in the
  // simulated accounting the orchestrators budget with.
  EXPECT_GT(first->extra_seconds, 0.0);
}

// A pre-streaming peer ignores ?stream=1 and answers with the one-shot JSON
// reply. The parameter says when the peer loses streaming: before Connect,
// or between Connect and Generate. Either way the content-type check
// catches the JSON reply and the adapter serves it instead of misparsing
// it, with identical token accounting.
class PreStreamingPeerTest : public FederationTest,
                             public ::testing::WithParamInterface<bool> {};

TEST_P(PreStreamingPeerTest, JsonReplyServesTheSameCompletion) {
  const bool downgrade_after_connect = GetParam();
  if (!downgrade_after_connect) remote_service_->set_streaming_generate(false);
  auto remote = RemoteModel::Connect("127.0.0.1", remote_server_->port(),
                                     "mistral:7b", "fed-old");
  ASSERT_TRUE(remote.ok());
  if (downgrade_after_connect) remote_service_->set_streaming_generate(false);

  llm::GenerationRequest request;
  request.prompt = remote_world_.dataset[1].question;
  auto via_adapter = (*remote)->Generate(request);
  ASSERT_TRUE(via_adapter.ok()) << via_adapter.status().ToString();
  auto direct = remote_world_.runtime->Generate("mistral:7b", request);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_adapter->text, direct->text);
  EXPECT_EQ(via_adapter->num_tokens, direct->num_tokens);
  EXPECT_EQ(via_adapter->stop_reason, direct->stop_reason);
}

INSTANTIATE_TEST_SUITE_P(
    StreamingSwitchedOff, PreStreamingPeerTest, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool>& info) {
      return info.param ? "AfterConnect" : "BeforeConnect";
    });

TEST_F(FederationTest, FirstChunkArrivesBeforeRemoteGenerationFinishes) {
  auto gated = std::make_shared<GatedModel>("gated:1b");
  ASSERT_TRUE(remote_world_.registry->Register(gated).ok());
  ASSERT_TRUE(remote_world_.runtime->LoadModel("gated:1b").ok());

  auto remote = RemoteModel::Connect("127.0.0.1", remote_server_->port(),
                                     "gated:1b", "fed-gated");
  ASSERT_TRUE(remote.ok());

  llm::GenerationRequest request;
  request.prompt = "unused";
  auto stream = (*remote)->StartGeneration(request);
  ASSERT_TRUE(stream.ok());

  // The remote generation cannot complete — its second chunk is blocked on
  // the gate — yet the first chunk is already readable here. This is the
  // time-to-first-token property: delivery is chunk-for-chunk, not
  // whole-response.
  auto first = (*stream)->NextChunk(8);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->text, "alpha beta gamma");
  EXPECT_EQ(first->num_tokens, 3u);
  EXPECT_FALSE(first->done);
  EXPECT_FALSE((*stream)->finished());

  gated->OpenGate();
  std::string text = first->text;
  while (!(*stream)->finished()) {
    auto chunk = (*stream)->NextChunk(8);
    ASSERT_TRUE(chunk.ok());
    if (!chunk->text.empty() && !text.empty()) text += ' ';
    text += chunk->text;
  }
  EXPECT_EQ(text, "alpha beta gamma delta epsilon");
  EXPECT_EQ((*stream)->tokens_generated(), 5u);
  EXPECT_EQ((*stream)->stop_reason(), llm::StopReason::kStop);
}

TEST_F(FederationTest, MidStreamPeerDeathIsQuarantinedByOrchestrator) {
  // A remote model that dies mid-generation: the wire carries its chunks
  // until the fault, then a typed `error` frame. On this side that must
  // surface as a stream failure the orchestrator quarantines — the query
  // still completes on the surviving local models.
  llm::FaultConfig faults;
  faults.fail_after_tokens = 5;
  auto profile = llm::DefaultProfiles()[0];
  profile.name = "dying:7b";
  auto dying = std::make_shared<llm::FaultyModel>(
      std::make_shared<llm::SyntheticModel>(profile, remote_world_.knowledge),
      faults);
  ASSERT_TRUE(remote_world_.registry->Register(dying).ok());
  ASSERT_TRUE(remote_world_.runtime->LoadModel("dying:7b").ok());

  auto local_world = testutil::MakeWorld(4);
  auto remote = RemoteModel::Connect("127.0.0.1", remote_server_->port(),
                                     "dying:7b", "fed-dying");
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE(local_world.registry->Register(*remote).ok());
  ASSERT_TRUE(local_world.runtime->LoadModel("fed-dying").ok());

  std::vector<core::OrchestratorEvent> events;
  core::OuaOrchestrator orchestrator(
      local_world.runtime.get(), {"llama3:8b", "qwen2:7b", "fed-dying"},
      local_world.embedder, {});
  auto result = orchestrator.Run(
      local_world.dataset[0].question,
      [&events](const core::OrchestratorEvent& event) {
        events.push_back(event);
      });
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->answer.empty());
  ASSERT_EQ(result->per_model.size(), 3u);
  EXPECT_TRUE(result->per_model["fed-dying"].failed);
  EXPECT_FALSE(result->per_model["llama3:8b"].failed);
  EXPECT_FALSE(result->per_model["qwen2:7b"].failed);
  bool saw_failure_event = false;
  for (const auto& event : events) {
    saw_failure_event = saw_failure_event ||
                        (event.type == core::EventType::kFailure &&
                         event.model == "fed-dying");
  }
  EXPECT_TRUE(saw_failure_event);
}

TEST_F(FederationTest, AbruptPeerCloseIsATypedErrorNotAHang) {
  // A fake peer that speaks just enough of the protocol to be believed,
  // sends one chunk frame, then drops the connection without the terminal
  // SSE event or the terminal HTTP chunk.
  SseEvent chunk;
  chunk.event = "chunk";
  chunk.data = "{\"text\":\"half an\",\"tokens\":2}";
  const std::string frame = EncodeSse(chunk);
  char size_line[32];
  std::snprintf(size_line, sizeof(size_line), "%zx\r\n", frame.size());
  testutil::CannedPeer fake_peer(
      {{"HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\n"
        "transfer-encoding: chunked\r\nconnection: close\r\n\r\n" +
        std::string(size_line) + frame + "\r\n"}});

  auto stream = HttpClientStream::Open(
      "127.0.0.1", fake_peer.port(), "POST", "/api/generate?stream=1",
      "{\"model\":\"x\",\"prompt\":\"y\"}", "application/json",
      /*timeout_seconds=*/5.0, /*accept_event_stream=*/true);
  ASSERT_TRUE(stream.ok());

  // Drain: the chunk frame arrives, then the close must surface as a typed
  // IOError within the deadline — never a hang, never a clean end.
  Status error = Status::OK();
  std::string received;
  for (;;) {
    auto bytes = (*stream)->Read();
    if (!bytes.ok()) {
      error = bytes.status();
      break;
    }
    if (bytes->empty()) break;  // would be a (wrong) clean end of stream
    received += *bytes;
  }
  EXPECT_TRUE(error.IsIOError()) << error.ToString();
  EXPECT_NE(received.find("half an"), std::string::npos);
}

TEST_F(FederationTest, ResetDuringJsonBodyReadIsRetried) {
  // A pre-streaming peer whose first one-shot reply is reset halfway
  // through its body. The body is read inside the transport retry, so the
  // adapter reconnects and serves the complete second reply.
  auto json_reply = [](const std::string& body) {
    return "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n"
           "content-length: " +
           std::to_string(body.size()) + "\r\nconnection: close\r\n\r\n" +
           body;
  };
  const std::string info =
      "{\"ok\":true,\"tokens_per_second\":50,\"context_window\":4096}";
  const std::string completion =
      "{\"done_reason\":\"stop\",\"ok\":true,"
      "\"text\":\"one two three four\",\"tokens\":4}";
  const std::string full = json_reply(completion);
  testutil::CannedPeer fake_peer(
      {{json_reply(info)},
       {full.substr(0, full.size() - completion.size() / 2), 1,
        /*reset=*/true},
       {full}});

  auto remote = RemoteModel::Connect("127.0.0.1", fake_peer.port(), "m:1b",
                                     "fed-reset");
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  llm::GenerationRequest request;
  request.prompt = "count to four";
  auto result = (*remote)->Generate(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->text, "one two three four");
  EXPECT_EQ(result->num_tokens, 4u);
  EXPECT_EQ(result->stop_reason, llm::StopReason::kStop);
  EXPECT_EQ(fake_peer.served(), 3u);  // model_info, the reset, the retry
}

// ----------------------------------------- hedged federation (DESIGN.md §10)

// A second full node, for two-peer hedging tests. Same dataset seed as the
// fixture's node B, so models with the same profile word their answers
// identically on both nodes.
struct TestNode {
  testutil::World world;
  std::shared_ptr<vectordb::VectorDatabase> db;
  std::shared_ptr<session::SessionStore> sessions;
  std::unique_ptr<core::SearchEngine> engine;
  std::unique_ptr<ApiService> service;
  std::unique_ptr<HttpServer> server;

  ~TestNode() {
    if (server != nullptr) server->Stop();
  }
};

std::unique_ptr<TestNode> StartNode() {
  auto node = std::make_unique<TestNode>();
  node->world = testutil::MakeWorld(4);
  node->db = std::make_shared<vectordb::VectorDatabase>();
  node->sessions = std::make_shared<session::SessionStore>();
  node->engine = std::make_unique<core::SearchEngine>(
      node->world.runtime.get(), node->world.embedder, node->db,
      node->sessions);
  node->service = std::make_unique<ApiService>(node->engine.get());
  node->server = std::make_unique<HttpServer>(node->service.get());
  if (!node->server->Start(0).ok()) return nullptr;
  return node;
}

TEST_F(FederationTest, HedgeRaceAdoptsFederatedReplica) {
  // A latency-spiky local model is hedged by a clean replica served by
  // node B across the wire — the "rent a healthy replica from a peer"
  // topology. A spike on the local stream fires the hedge; the federated
  // replica catches up over HTTP, is adopted, and the answer still matches
  // the model's canonical wording byte for byte (same profile, same
  // knowledge, identical token accounting on the wire path).
  auto profile = llm::DefaultProfiles()[0];
  profile.name = "spiky:7b";
  auto clean = std::make_shared<llm::SyntheticModel>(
      profile, remote_world_.knowledge);
  ASSERT_TRUE(remote_world_.registry->Register(clean).ok());
  ASSERT_TRUE(remote_world_.runtime->LoadModel("spiky:7b").ok());

  llm::FaultConfig faults;
  faults.seed = 0xCAFE;
  faults.latency_spike_prob = 0.3;
  faults.latency_spike_seconds = 5.0;
  auto local_world = testutil::MakeWorld(4);
  auto spiky = std::make_shared<llm::FaultyModel>(
      std::make_shared<llm::SyntheticModel>(profile, local_world.knowledge),
      faults);
  auto backup = RemoteModel::Connect("127.0.0.1", remote_server_->port(),
                                     "spiky:7b");
  ASSERT_TRUE(backup.ok());

  llm::HedgeConfig hedge;
  hedge.percentile = 0.5;
  hedge.min_samples = 4;
  auto hedged = std::make_shared<llm::HedgedModel>(
      spiky, std::vector<std::shared_ptr<llm::LanguageModel>>{*backup},
      hedge);

  llm::GenerationRequest request;
  request.prompt = remote_world_.dataset[0].question;
  auto stream = hedged->StartGeneration(request);
  ASSERT_TRUE(stream.ok());
  size_t tokens = 0;
  bool adopted = false;
  for (size_t i = 0; i < 300 && !(*stream)->finished(); ++i) {
    auto chunk = (*stream)->NextChunk(8);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    tokens += chunk->num_tokens;
    adopted = adopted || chunk->hedge == llm::HedgeOutcome::kBackupWon;
  }
  ASSERT_TRUE((*stream)->finished());

  const auto stats = hedged->stats();
  EXPECT_GE(stats.hedges_launched, 1u);
  EXPECT_GE(stats.hedges_won, 1u) << "spiky local model was never out-raced";
  EXPECT_TRUE(adopted);
  EXPECT_GT(stats.wasted_tokens, 0u);  // the documented hedge overhead

  // The adopted peer words the answer identically, so the race leaves no
  // seam in the emitted text.
  auto direct = remote_world_.runtime->Generate("spiky:7b", request);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ((*stream)->text(), direct->text);
  EXPECT_EQ(tokens, direct->num_tokens);

  // The latency snapshot identifies the peer replica by its derived
  // "<model>@host:port" name.
  const auto latency = hedged->LatencySnapshot();
  ASSERT_EQ(latency.size(), 2u);
  EXPECT_EQ(latency[0].model, "spiky:7b");
  EXPECT_NE(latency[1].model.find("spiky:7b@127.0.0.1"), std::string::npos);
  EXPECT_GT(latency[1].samples, 0u);  // the backup actually raced
}

TEST_F(FederationTest, HedgedPeersFailOverMidStreamToOneShotPeer) {
  // The primary peer dies mid-stream; the backup peer is a pre-streaming
  // node (one-shot /api/generate only). The hedged adapter fails over
  // across the protocol difference and still delivers the full answer —
  // token accounting is identical on both wire paths, so adoption is
  // seamless.
  auto profile = llm::DefaultProfiles()[1];
  profile.name = "fragile:7b";
  llm::FaultConfig faults;
  faults.fail_after_tokens = 10;
  auto dying = std::make_shared<llm::FaultyModel>(
      std::make_shared<llm::SyntheticModel>(profile, remote_world_.knowledge),
      faults);
  ASSERT_TRUE(remote_world_.registry->Register(dying).ok());
  ASSERT_TRUE(remote_world_.runtime->LoadModel("fragile:7b").ok());

  auto peer_c = StartNode();
  ASSERT_NE(peer_c, nullptr);
  peer_c->service->set_streaming_generate(false);  // a pre-streaming peer
  auto clean = std::make_shared<llm::SyntheticModel>(
      profile, peer_c->world.knowledge);
  ASSERT_TRUE(peer_c->world.registry->Register(clean).ok());
  ASSERT_TRUE(peer_c->world.runtime->LoadModel("fragile:7b").ok());

  auto primary = RemoteModel::Connect("127.0.0.1", remote_server_->port(),
                                      "fragile:7b", "fed-fragile");
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  auto backup = RemoteModel::Connect("127.0.0.1", peer_c->server->port(),
                                     "fragile:7b");
  ASSERT_TRUE(backup.ok()) << backup.status().ToString();
  llm::HedgeConfig hedge;
  hedge.min_samples = 1000;  // latency hedging off: pure failover
  auto hedged = std::make_shared<llm::HedgedModel>(
      *primary, std::vector<std::shared_ptr<llm::LanguageModel>>{*backup},
      hedge);

  llm::GenerationRequest request;
  request.prompt = remote_world_.dataset[2].question;
  auto stream = hedged->StartGeneration(request);
  ASSERT_TRUE(stream.ok());
  bool saw_failover = false;
  for (size_t i = 0; i < 300 && !(*stream)->finished(); ++i) {
    auto chunk = (*stream)->NextChunk(4);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    saw_failover =
        saw_failover || chunk->hedge == llm::HedgeOutcome::kFailover;
  }
  ASSERT_TRUE((*stream)->finished());
  EXPECT_TRUE(saw_failover);
  EXPECT_EQ(hedged->stats().failovers, 1u);
  EXPECT_EQ(hedged->stats().hedges_launched, 0u);

  // The full answer, not just the prefix the primary survived for.
  auto direct = peer_c->world.runtime->Generate("fragile:7b", request);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ((*stream)->text(), direct->text);
}

TEST_F(FederationTest, RemoteModelJoinsLocalOrchestration) {
  // --- Node A: a local node with two local models + the federated one. ---
  auto local_world = testutil::MakeWorld(4);
  auto remote = RemoteModel::Connect("127.0.0.1", remote_server_->port(),
                                     "mistral:7b", "fed-mistral");
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE(local_world.registry->Register(*remote).ok());
  ASSERT_TRUE(local_world.runtime->LoadModel("fed-mistral").ok());

  core::OuaOrchestrator orchestrator(
      local_world.runtime.get(),
      {"llama3:8b", "qwen2:7b", "fed-mistral"}, local_world.embedder, {});
  auto result = orchestrator.Run(local_world.dataset[0].question);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->answer.empty());
  ASSERT_EQ(result->per_model.size(), 3u);
  EXPECT_GT(result->per_model["fed-mistral"].tokens, 0u);
}

}  // namespace
}  // namespace llmms::app
