// Overload-safety suite for the serving layer (DESIGN.md §12): slow-loris
// socket deadlines, oversized-request rejection, client-disconnect
// cancellation, admission-control shedding, graceful drain, and the
// 4x-overload acceptance bound. Registered under the `overload` ctest label
// and run by the TSan CI job alongside `concurrency`.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "llmms/app/http.h"
#include "llmms/app/http_server.h"
#include "llmms/app/service.h"
#include "llmms/app/sse.h"
#include "llmms/core/search_engine.h"
#include "llmms/llm/fault_injection.h"
#include "testutil.h"

namespace llmms::app {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Polls `pred` until it holds or `timeout_seconds` elapses.
bool WaitFor(const std::function<bool()>& pred, double timeout_seconds) {
  const auto start = Clock::now();
  while (SecondsSince(start) < timeout_seconds) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// A raw client socket the tests drive byte-by-byte (slow-loris, mid-stream
// disconnect) — HttpFetch is too well-behaved to misbehave with.
class RawClient {
 public:
  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawClient() { Close(); }

  bool connected() const { return fd_ >= 0; }

  bool Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads to EOF (bounded by `max_seconds` via a socket deadline).
  std::string ReadAll(double max_seconds = 10.0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(max_seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (max_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string out;
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      out.append(buffer, static_cast<size_t>(n));
    }
    return out;
  }

  // Reads at least `want` bytes (or gives up after 10s).
  std::string ReadSome(size_t want) {
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string out;
    char buffer[1024];
    while (out.size() < want) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      out.append(buffer, static_cast<size_t>(n));
    }
    return out;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

std::string PostRequest(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nhost: t\r\n"
         "content-type: application/json\r\n"
         "content-length: " + std::to_string(body.size()) + "\r\n"
         "connection: close\r\n\r\n" + body;
}

class OverloadTest : public ::testing::Test {
 protected:
  void StartServer(const HttpServerOptions& options) {
    world_ = testutil::MakeWorld(2);
    db_ = std::make_shared<vectordb::VectorDatabase>();
    sessions_ = std::make_shared<session::SessionStore>();
    engine_ = std::make_unique<core::SearchEngine>(
        world_.runtime.get(), world_.embedder, db_, sessions_);
    service_ = std::make_unique<ApiService>(engine_.get());
    server_ = std::make_unique<HttpServer>(service_.get(), options);
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  Json QueryBody(const std::string& session) {
    Json request = Json::MakeObject();
    request.Set("session", session);
    request.Set("query", world_.dataset[0].question);
    request.Set("budget", 64);
    request.Set("use_rag", false);
    return request;
  }

  testutil::World world_;
  std::shared_ptr<vectordb::VectorDatabase> db_;
  std::shared_ptr<session::SessionStore> sessions_;
  std::unique_ptr<core::SearchEngine> engine_;
  std::unique_ptr<ApiService> service_;
  std::unique_ptr<HttpServer> server_;
};

// A peer that trickles bytes slower than the socket deadline gets 408 and
// frees its worker — it cannot pin the pool.
TEST_F(OverloadTest, SlowLorisTimesOutWith408) {
  HttpServerOptions options;
  options.socket_timeout_seconds = 0.3;
  StartServer(options);

  RawClient loris(server_->port());
  ASSERT_TRUE(loris.connected());
  ASSERT_TRUE(loris.Send("POST /api/query HTTP/1.1\r\nhost:"));  // ...crickets

  const std::string response = loris.ReadAll(5.0);
  EXPECT_NE(response.find("408"), std::string::npos) << response;
  EXPECT_GE(server_->stats().timeouts.load(), 1u);
  EXPECT_TRUE(WaitFor([&]() { return server_->stats().in_flight.load() == 0; },
                      5.0));
}

// A body larger than the cap is rejected with 413 as soon as Content-Length
// announces it — before the body is pulled off the wire.
TEST_F(OverloadTest, OversizedBodyRejectedWith413) {
  HttpServerOptions options;
  options.max_body_bytes = 1024;
  StartServer(options);

  const std::string big(8 * 1024, 'x');
  auto response = HttpFetch("127.0.0.1", server_->port(), "POST",
                            "/api/upload", big);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 413);
  EXPECT_GE(server_->stats().rejected_oversize.load(), 1u);
}

// A head that never terminates within the cap is rejected, not buffered
// forever.
TEST_F(OverloadTest, OversizedHeadRejectedWith413) {
  HttpServerOptions options;
  options.max_head_bytes = 1024;
  StartServer(options);

  RawClient client(server_->port());
  ASSERT_TRUE(client.connected());
  std::string junk = "GET /api/health HTTP/1.1\r\n";
  junk += "x-padding: " + std::string(4 * 1024, 'a') + "\r\n";
  ASSERT_TRUE(client.Send(junk));  // no terminating blank line needed
  const std::string response = client.ReadAll(5.0);
  EXPECT_NE(response.find("413"), std::string::npos) << response;
  EXPECT_GE(server_->stats().rejected_oversize.load(), 1u);
}

// The body is sized from the parsed Content-Length header alone: a header
// whose name merely contains "content-length" neither trips the body cap
// nor leaves the server waiting for bytes that never come, and a value that
// is not a number is a 400.
TEST_F(OverloadTest, BodySizedFromTheContentLengthHeaderOnly) {
  HttpServerOptions options;
  options.max_body_bytes = 1024;
  StartServer(options);

  auto send = [&](const std::string& headers) {
    RawClient client(server_->port());
    EXPECT_TRUE(client.connected());
    EXPECT_TRUE(client.Send("GET /api/health HTTP/1.1\r\nhost: t\r\n" +
                            headers + "connection: close\r\n\r\n{}"));
    return client.ReadAll(5.0);
  };
  for (const char* decoy : {"4096", "100"}) {
    const std::string response = send(std::string("x-content-length: ") +
                                      decoy + "\r\ncontent-length: 2\r\n");
    EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u)
        << "x-content-length: " << decoy << "\n" << response;
  }
  EXPECT_EQ(server_->stats().rejected_oversize.load(), 0u);

  const std::string invalid = send("content-length: 2abc\r\n");
  EXPECT_EQ(invalid.rfind("HTTP/1.1 400", 0), 0u) << invalid;
  EXPECT_NE(invalid.find("invalid content-length"), std::string::npos)
      << invalid;
}

// The request's wall-clock budget starts at admission: a request whose
// deadline has passed by the time the engine would run answers 504 without
// generating anything.
TEST_F(OverloadTest, ExpiredDeadlineAnswers504) {
  HttpServerOptions options;
  options.request_timeout_seconds = 0.1;
  StartServer(options);

  RawClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // Let the admission-time deadline lapse before the request arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(client.Send(PostRequest("/api/query", QueryBody("d").Dump())));
  const std::string response = client.ReadAll(5.0);
  EXPECT_NE(response.find("504"), std::string::npos) << response;
  EXPECT_NE(response.find("DeadlineExceeded"), std::string::npos) << response;
  EXPECT_GE(server_->stats().timeouts.load(), 1u);
}

// Service-level twin: an expired context stops generation through the
// orchestrator loop with a typed error, not a 200 built from partial output.
TEST_F(OverloadTest, ExpiredContextUnwindsGenerationTyped) {
  HttpServerOptions options;
  StartServer(options);

  auto ctx = RequestContext::WithTimeout(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Json result =
      service_->HandleQuery(QueryBody("svc"), StreamCallback(), ctx);
  ASSERT_FALSE(result["ok"].AsBool());
  EXPECT_EQ(result["error"]["code"].AsString(), "DeadlineExceeded");

  Json generate = Json::MakeObject();
  generate.Set("model", world_.model_names[0]);
  generate.Set("prompt", "hello");
  generate.Set("max_tokens", 64);
  const Json gen_result = service_->HandleGenerate(generate, ctx);
  ASSERT_FALSE(gen_result["ok"].AsBool());
  EXPECT_EQ(gen_result["error"]["code"].AsString(), "DeadlineExceeded");
}

// World whose models inject a latency spike on every chunk, served with
// real pacing — each flushed SSE frame is followed by its simulated latency
// in real time. Used both to verify pacing and to make mid-stream
// disconnection deterministic (the stream is guaranteed to still be on the
// wire when the client walks away).
class PacedOverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = testutil::MakeWorld(2);
    auto registry = std::make_shared<llm::ModelRegistry>();
    llm::FaultConfig faults;
    faults.latency_spike_prob = 1.0;
    faults.latency_spike_seconds = 0.05;
    for (const auto& profile : llm::DefaultProfiles()) {
      auto synthetic =
          std::make_shared<llm::SyntheticModel>(profile, world_.knowledge);
      ASSERT_TRUE(registry
                      ->Register(std::make_shared<llm::FaultyModel>(
                          std::move(synthetic), faults))
                      .ok());
    }
    runtime_ =
        std::make_unique<llm::ModelRuntime>(registry, world_.hardware, 4);
    for (const auto& name : world_.model_names) {
      ASSERT_TRUE(runtime_->LoadModel(name).ok());
    }
    db_ = std::make_shared<vectordb::VectorDatabase>();
    sessions_ = std::make_shared<session::SessionStore>();
    engine_ = std::make_unique<core::SearchEngine>(
        runtime_.get(), world_.embedder, db_, sessions_);
    service_ = std::make_unique<ApiService>(engine_.get());
    HttpServerOptions options;
    options.pace_scale = 1.0;
    server_ = std::make_unique<HttpServer>(service_.get(), options);
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override { server_->Stop(); }

  Json GenerateBody(size_t max_tokens, size_t chunk_tokens) {
    Json body = Json::MakeObject();
    body.Set("model", world_.model_names[0]);
    body.Set("prompt", "stream me a long paced answer");
    body.Set("max_tokens", max_tokens);
    body.Set("chunk_tokens", chunk_tokens);
    return body;
  }

  testutil::World world_;
  std::unique_ptr<llm::ModelRuntime> runtime_;
  std::shared_ptr<vectordb::VectorDatabase> db_;
  std::shared_ptr<session::SessionStore> sessions_;
  std::unique_ptr<core::SearchEngine> engine_;
  std::unique_ptr<ApiService> service_;
  std::unique_ptr<HttpServer> server_;
};

// A client that walks away mid-SSE cancels the in-flight generation at the
// next chunk boundary — the server does not keep generating for nobody.
// Pacing guarantees the stream is still live when the client disconnects.
TEST_F(PacedOverloadTest, ClientDisconnectMidStreamCancelsGeneration) {
  RawClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(PostRequest(
      "/api/generate?stream=1", GenerateBody(4096, 1).Dump())));
  // Take a few frames so the stream is demonstrably live, then vanish. The
  // server's next send into the dead socket fails and cancels the context.
  ASSERT_FALSE(client.ReadSome(256).empty());
  client.Close();

  EXPECT_TRUE(WaitFor(
      [&]() { return server_->stats().cancelled.load() >= 1; }, 15.0));
  EXPECT_TRUE(WaitFor([&]() { return server_->stats().in_flight.load() == 0; },
                      15.0));
}

// Streamed-generation pacing: with pace_scale > 0 each flushed chunk is
// followed by a scaled real-time delay matching its simulated latency
// (`extra_seconds`), so wire delivery takes at least the paced total
// instead of arriving as one burst.
TEST_F(PacedOverloadTest, PacedStreamingSlowsWireDelivery) {
  const auto start = Clock::now();
  auto response = HttpFetch("127.0.0.1", server_->port(), "POST",
                            "/api/generate?stream=1",
                            GenerateBody(32, 8).Dump(),
                            "application/json", 30.0);
  const double elapsed = SecondsSince(start);
  ASSERT_TRUE(response.ok());

  double advertised = 0.0;
  size_t chunk_frames = 0;
  for (const auto& frame : DecodeSse(response->body)) {
    if (frame.event != "chunk") continue;
    ++chunk_frames;
    auto event = Json::Parse(frame.data);
    ASSERT_TRUE(event.ok());
    if (event->Contains("extra_seconds")) {
      advertised += (*event)["extra_seconds"].AsDouble();
    }
  }
  ASSERT_GT(chunk_frames, 1u);
  ASSERT_GT(advertised, 0.0);
  // The wire must have actually slowed down: at least half the advertised
  // simulated latency elapsed for real (half, to absorb scheduler slop).
  EXPECT_GE(elapsed, 0.5 * advertised);
}

// With the single worker pinned and the admission queue full, the next
// connection is shed immediately with 503 + Retry-After; once the worker
// frees up, the queued request is still served.
TEST_F(OverloadTest, SaturationShedsWith503RetryAfter) {
  HttpServerOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.socket_timeout_seconds = 8.0;
  options.retry_after_seconds = 2.0;
  StartServer(options);

  // Pin the only worker: a connection that sends no request blocks it in
  // ReadRequest until we hang up.
  RawClient pin(server_->port());
  ASSERT_TRUE(pin.connected());
  ASSERT_TRUE(pin.Send("GET"));
  ASSERT_TRUE(WaitFor(
      [&]() {
        return server_->stats().in_flight.load() == 1 &&
               server_->stats().queued.load() == 0;
      },
      5.0));

  // Fill the one queue slot.
  RawClient queued(server_->port());
  ASSERT_TRUE(queued.connected());
  ASSERT_TRUE(queued.Send("GET /api/models HTTP/1.1\r\nhost: t\r\n"
                          "connection: close\r\n\r\n"));
  ASSERT_TRUE(WaitFor(
      [&]() { return server_->stats().queued.load() == 1; }, 5.0));

  // Over capacity: shed at the front door.
  RawClient shed(server_->port());
  ASSERT_TRUE(shed.connected());
  const std::string response = shed.ReadAll(5.0);
  EXPECT_NE(response.find("503"), std::string::npos) << response;
  EXPECT_NE(response.find("retry-after: 2"), std::string::npos) << response;
  EXPECT_GE(server_->stats().shed.load(), 1u);

  // Release the worker; the queued request must still complete.
  pin.Close();
  const std::string served = queued.ReadAll(10.0);
  EXPECT_NE(served.find("200"), std::string::npos) << served;

  // The health endpoint reports the serving counters.
  auto health =
      HttpFetch("127.0.0.1", server_->port(), "GET", "/api/health", "",
                "application/json", 10.0);
  ASSERT_TRUE(health.ok());
  auto parsed = Json::Parse(health->body);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->Contains("server"));
  EXPECT_GE((*parsed)["server"]["shed"].AsInt(), 1);
  EXPECT_GE((*parsed)["server"]["accepted"].AsInt(), 3);
}

// Stop() under load returns within the drain budget (plus margin), not the
// socket deadline: stragglers are cancelled and their sockets shut down.
TEST_F(OverloadTest, DrainUnderLoadIsBounded) {
  HttpServerOptions options;
  options.socket_timeout_seconds = 30.0;  // without drain this would pin Stop
  options.drain_timeout_seconds = 0.5;
  StartServer(options);

  RawClient pin(server_->port());
  ASSERT_TRUE(pin.connected());
  ASSERT_TRUE(pin.Send("POST /api/query HTTP/1.1\r\n"));
  ASSERT_TRUE(WaitFor(
      [&]() { return server_->stats().in_flight.load() == 1; }, 5.0));

  const auto start = Clock::now();
  server_->Stop();
  EXPECT_LT(SecondsSince(start), 5.0);
  EXPECT_GE(server_->stats().cancelled.load(), 1u);
  EXPECT_TRUE(server_->stats().draining.load());
  // The last counters remain readable through the service after the server
  // has stopped (the health closure shares ownership of the stats).
  const Json health = service_->HandleHealth();
  ASSERT_TRUE(health.Contains("server"));
  EXPECT_TRUE(health["server"]["draining"].AsBool());
}

// The acceptance bound: at 4x capacity the server sheds the excess with 503
// and keeps the latency of every ADMITTED request bounded — overload
// degrades availability, never admitted-request latency.
TEST_F(OverloadTest, FourTimesOverloadShedsAndKeepsAdmittedLatencyBounded) {
  HttpServerOptions options;
  options.num_workers = 2;
  options.max_queue = 2;  // capacity: 2 running + 2 queued
  StartServer(options);

  constexpr int kClients = 16;  // 4x the 4-connection capacity
  constexpr int kRequestsPerClient = 3;
  std::atomic<int> served{0};
  std::atomic<int> shed{0};
  std::atomic<int> unexpected{0};
  std::vector<double> latencies[kClients];
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const auto start = Clock::now();
        auto response = HttpFetch(
            "127.0.0.1", server_->port(), "POST", "/api/query",
            QueryBody("load-" + std::to_string(c)).Dump(),
            "application/json", 20.0);
        const double elapsed = SecondsSince(start);
        if (!response.ok()) {
          ++unexpected;  // connection refused/reset is not shedding
        } else if (response->status == 200) {
          ++served;
          latencies[c].push_back(elapsed);
        } else if (response->status == 503) {
          ++shed;
        } else {
          ++unexpected;
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(served.load(), 0);
  // Overload must actually shed (the load is 4x what the server admits).
  EXPECT_GT(shed.load(), 0);
  EXPECT_EQ(server_->stats().shed.load(), static_cast<size_t>(shed.load()));

  std::vector<double> admitted;
  for (const auto& per_client : latencies) {
    admitted.insert(admitted.end(), per_client.begin(), per_client.end());
  }
  std::sort(admitted.begin(), admitted.end());
  const double p99 =
      admitted[static_cast<size_t>(std::ceil(0.99 * admitted.size())) - 1];
  // Unloaded, these queries answer in milliseconds; bounded means nowhere
  // near the 20s client deadline even at 4x offered load.
  EXPECT_LT(p99, 10.0);
}

}  // namespace
}  // namespace llmms::app
