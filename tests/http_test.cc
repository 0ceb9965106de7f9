#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "llmms/app/http.h"
#include "llmms/app/http_server.h"
#include "llmms/app/sse.h"
#include "llmms/common/rng.h"
#include "canned_peer.h"
#include "testutil.h"

namespace llmms::app {
namespace {

// ------------------------------------------------------- message parsing
TEST(HttpParseTest, ParsesRequestWithBody) {
  const std::string raw =
      "POST /api/query?stream=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 13\r\n"
      "\r\n"
      "{\"a\": \"b\"}123";
  auto request = ParseHttpRequest(raw);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->method, "POST");
  EXPECT_EQ(request->path, "/api/query");
  EXPECT_EQ(request->query, "stream=1");
  EXPECT_EQ(request->headers.at("host"), "localhost");
  EXPECT_EQ(request->body.size(), 13u);
}

TEST(HttpParseTest, HeaderKeysLowercased) {
  auto request = ParseHttpRequest(
      "GET /x HTTP/1.1\r\nX-CUSTOM-Header:  spaced value \r\n\r\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->headers.at("x-custom-header"), "spaced value");
}

TEST(HttpParseTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseHttpRequest("").ok());
  EXPECT_FALSE(ParseHttpRequest("GET /x HTTP/1.1\r\n").ok());  // no blank line
  EXPECT_FALSE(ParseHttpRequest("NOT-HTTP\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpRequest("GET /x JUNK/9\r\n\r\n").ok());
  EXPECT_FALSE(
      ParseHttpRequest("GET /x HTTP/1.1\r\nbadheaderline\r\n\r\n").ok());
  // Body shorter than declared.
  EXPECT_FALSE(
      ParseHttpRequest("POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc")
          .ok());
}

// Content-Length must be all digits: strtoull-style parsing would read
// "abc" as 0 and "5abc" as 5 and mis-frame the body.
TEST(HttpParseTest, RejectsNonNumericContentLength) {
  for (const char* value :
       {"abc", "5abc", "-1", "+5", "0x10", "1 2", "99999999999999999999999"}) {
    const auto request = ParseHttpRequest(
        std::string("POST /x HTTP/1.1\r\ncontent-length: ") + value +
        "\r\n\r\nhello");
    ASSERT_FALSE(request.ok()) << value;
    EXPECT_TRUE(request.status().IsInvalidArgument()) << value;
    EXPECT_NE(request.status().message().find("invalid content-length"),
              std::string::npos)
        << request.status().message();

    // The same parse frames responses on the client.
    const auto length = ContentLength({{"content-length", value}});
    ASSERT_FALSE(length.ok()) << value;
    EXPECT_TRUE(length.status().IsInvalidArgument()) << value;
  }
  // Surrounding whitespace is trimmed with the header value; an empty value
  // is still not a number.
  auto padded =
      ParseHttpRequest("POST /x HTTP/1.1\r\ncontent-length:  5 \r\n\r\nhello");
  ASSERT_TRUE(padded.ok()) << padded.status().ToString();
  EXPECT_EQ(padded->body, "hello");
  EXPECT_FALSE(
      ParseHttpRequest("POST /x HTTP/1.1\r\ncontent-length:\r\n\r\n").ok());
}

TEST(HttpParseTest, ReasonPhrases) {
  EXPECT_STREQ(HttpReasonPhrase(200), "OK");
  EXPECT_STREQ(HttpReasonPhrase(404), "Not Found");
  EXPECT_STREQ(HttpReasonPhrase(418), "Unknown");
}

TEST(HttpParseTest, ResponseHeadOnly) {
  auto head = ParseHttpResponseHead(
      "HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\n"
      "transfer-encoding: chunked");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->status, 200);
  EXPECT_EQ(head->headers.at("content-type"), "text/event-stream");
  EXPECT_TRUE(head->body.empty());
  EXPECT_FALSE(ParseHttpResponseHead("NOT-HTTP junk").ok());
}

// ------------------------------------------- incremental chunked decoder
TEST(ChunkedDecoderTest, DecodesWholeBodyAtOnce) {
  ChunkedDecoder decoder;
  std::string out;
  ASSERT_TRUE(
      decoder.Feed("5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n", &out).ok());
  EXPECT_EQ(out, "hello world");
  EXPECT_TRUE(decoder.done());
}

TEST(ChunkedDecoderTest, EveryByteBoundaryDecodesIdentically) {
  const std::string wire = "5\r\nhello\r\n6\r\n world\r\nb\r\n, streaming\r\n"
                           "0\r\n\r\n";
  for (size_t split = 0; split <= wire.size(); ++split) {
    ChunkedDecoder decoder;
    std::string out;
    ASSERT_TRUE(decoder.Feed(wire.substr(0, split), &out).ok()) << split;
    ASSERT_TRUE(decoder.Feed(wire.substr(split), &out).ok()) << split;
    EXPECT_EQ(out, "hello world, streaming") << split;
    EXPECT_TRUE(decoder.done()) << split;
  }
}

TEST(ChunkedDecoderTest, ByteAtATime) {
  const std::string wire = "3\r\nabc\r\n1f\r\n0123456789012345678901234567890"
                           "\r\n0\r\n\r\n";
  ChunkedDecoder decoder;
  std::string out;
  for (const char c : wire) {
    ASSERT_TRUE(decoder.Feed(std::string_view(&c, 1), &out).ok());
  }
  EXPECT_EQ(out, "abc0123456789012345678901234567890");
  EXPECT_TRUE(decoder.done());
}

TEST(ChunkedDecoderTest, PartialInputIsNotDoneYet) {
  ChunkedDecoder decoder;
  std::string out;
  ASSERT_TRUE(decoder.Feed("5\r\nhel", &out).ok());
  EXPECT_EQ(out, "hel");
  EXPECT_FALSE(decoder.done());
}

TEST(ChunkedDecoderTest, RejectsMalformedFraming) {
  {
    ChunkedDecoder decoder;
    std::string out;
    EXPECT_FALSE(decoder.Feed("zz\r\ndata\r\n", &out).ok());
    // Poisoned: further feeds keep failing.
    EXPECT_FALSE(decoder.Feed("5\r\nhello\r\n", &out).ok());
  }
  {
    ChunkedDecoder decoder;
    std::string out;
    // Chunk payload not followed by CRLF.
    EXPECT_FALSE(decoder.Feed("3\r\nabcXX", &out).ok());
  }
}

TEST(ChunkedDecoderTest, IgnoresTrailersAfterTerminalChunk) {
  ChunkedDecoder decoder;
  std::string out;
  ASSERT_TRUE(
      decoder.Feed("2\r\nok\r\n0\r\nx-trailer: 1\r\n\r\n", &out).ok());
  EXPECT_EQ(out, "ok");
  EXPECT_TRUE(decoder.done());
}

// --------------------------------------------- incremental SSE decoding
// The decoder must produce identical events no matter how the stream is
// sliced — the property the federation client depends on, since TCP can
// split an event anywhere, including inside a CRLF pair or the BOM.
TEST(SseDecoderTest, EveryByteBoundaryDecodesIdentically) {
  SseEvent a;
  a.event = "chunk";
  a.id = "0";
  a.data = "{\"text\":\"hello world\",\"tokens\":2}";
  SseEvent b;
  b.event = "done";
  b.data = "line one\nline two";
  const std::string wire = EncodeSse(a) + EncodeSse(b);

  const auto whole = DecodeSse(wire);
  ASSERT_EQ(whole.size(), 2u);
  for (size_t split = 0; split <= wire.size(); ++split) {
    SseDecoder decoder;
    auto events = decoder.Feed(wire.substr(0, split));
    for (auto& event : decoder.Feed(wire.substr(split))) {
      events.push_back(std::move(event));
    }
    ASSERT_EQ(events.size(), 2u) << "split at " << split;
    EXPECT_EQ(events[0].event, a.event) << split;
    EXPECT_EQ(events[0].id, a.id) << split;
    EXPECT_EQ(events[0].data, a.data) << split;
    EXPECT_EQ(events[1].event, b.event) << split;
    EXPECT_EQ(events[1].data, b.data) << split;
  }
}

TEST(SseDecoderTest, CrlfAndCrLineEndings) {
  for (const char* newline : {"\r\n", "\n", "\r"}) {
    SseDecoder decoder;
    const std::string wire = std::string("event: e") + newline +
                             "data: payload" + newline + newline;
    const auto events = decoder.Feed(wire);
    ASSERT_EQ(events.size(), 1u) << "newline: " << static_cast<int>(newline[0]);
    EXPECT_EQ(events[0].event, "e");
    EXPECT_EQ(events[0].data, "payload");
  }
}

TEST(SseDecoderTest, CrlfSplitAcrossFeedBoundary) {
  SseDecoder decoder;
  auto events = decoder.Feed("data: x\r");
  EXPECT_TRUE(events.empty());
  // The LF finishes the split CRLF; the CR then terminates the blank line
  // on its own (CR alone is a valid terminator), dispatching the event.
  events = decoder.Feed("\n\r");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].data, "x");
  // The trailing LF of that final CRLF must be swallowed, not re-dispatch.
  EXPECT_TRUE(decoder.Feed("\n").empty());
  EXPECT_FALSE(decoder.has_partial_event());
}

TEST(SseDecoderTest, StripsBomOnlyAtStreamStart) {
  SseDecoder decoder;
  // The BOM itself split across feeds.
  EXPECT_TRUE(decoder.Feed("\xEF").empty());
  EXPECT_TRUE(decoder.Feed("\xBB").empty());
  auto events = decoder.Feed("\xBF" "data: first\n\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].data, "first");
  // A BOM mid-stream is content, not a marker.
  events = decoder.Feed("data: \xEF\xBB\xBFsecond\n\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].data, "\xEF\xBB\xBFsecond");
}

TEST(SseDecoderTest, CommentsAndUnknownFieldsIgnored) {
  SseDecoder decoder;
  const auto events = decoder.Feed(
      ": keep-alive comment\nretry: 1000\nevent: e\ndata: d\n\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].event, "e");
  EXPECT_EQ(events[0].data, "d");
}

TEST(SseDecoderTest, MissingTerminalBlankLineDropsTrailingEvent) {
  SseDecoder decoder;
  const auto events = decoder.Feed("data: complete\n\ndata: dangling\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].data, "complete");
  EXPECT_TRUE(decoder.has_partial_event());
}

TEST(SseDecoderTest, DataWithoutColonAndMultiDataJoin) {
  SseDecoder decoder;
  const auto events = decoder.Feed("data\ndata: two\n\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].data, "\ntwo");  // empty first data line joins with \n
}

TEST(SseDecoderTest, RoundTripPropertyAtRandomBoundaries) {
  Rng rng(0x55E1);
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz 0123456789{}[]\":,.\\/?-";
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::string wire;
    std::vector<SseEvent> expected;
    const int num_events = static_cast<int>(rng.UniformInt(1, 4));
    for (int e = 0; e < num_events; ++e) {
      SseEvent event;
      event.event = "chunk";
      event.id = std::to_string(e);
      const int len = static_cast<int>(rng.UniformInt(0, 60));
      for (int i = 0; i < len; ++i) {
        event.data +=
            kAlphabet[rng.UniformInt(0, sizeof(kAlphabet) - 2)];
      }
      wire += EncodeSse(event);
      expected.push_back(std::move(event));
    }
    SseDecoder decoder;
    std::vector<SseEvent> decoded;
    size_t pos = 0;
    while (pos < wire.size()) {
      const size_t take = static_cast<size_t>(rng.UniformInt(
          1, static_cast<int64_t>(wire.size() - pos)));
      for (auto& event :
           DecodeSseIncremental(std::string_view(wire).substr(pos, take),
                                &decoder)) {
        decoded.push_back(std::move(event));
      }
      pos += take;
    }
    ASSERT_EQ(decoded.size(), expected.size());
    for (size_t i = 0; i < decoded.size(); ++i) {
      EXPECT_EQ(decoded[i].event, expected[i].event);
      EXPECT_EQ(decoded[i].id, expected[i].id);
      EXPECT_EQ(decoded[i].data, expected[i].data);
    }
  }
}

// ------------------------------------------------------- HttpFetch client
TEST(HttpFetchTest, PeerThatNeverAnswersIsDeadlineExceeded) {
  testutil::CannedPeer silent({});
  auto response = HttpFetch("127.0.0.1", silent.port(), "GET", "/api/health",
                            "", "application/json", /*timeout_seconds=*/0.2);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsDeadlineExceeded())
      << response.status().ToString();
}

TEST(HttpFetchTest, SerializedResponseRoundTrips) {
  HttpResponse response;
  response.status = 404;
  response.headers["content-type"] = "application/json";
  response.body = "{\"ok\":false}";
  testutil::CannedPeer peer({{SerializeHttpResponse(response)}});
  auto fetched = HttpFetch("127.0.0.1", peer.port(), "GET", "/x", "",
                           "application/json", /*timeout_seconds=*/5.0);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(fetched->status, 404);
  EXPECT_EQ(fetched->body, response.body);
  EXPECT_EQ(fetched->headers.at("content-type"), "application/json");
}

TEST(HttpFetchTest, ChunkedBodyIsDecoded) {
  // Three sends split the framing mid-size-line and mid-payload.
  testutil::CannedPeer peer({{"HTTP/1.1 200 OK\r\n"
                              "content-type: text/plain\r\n"
                              "transfer-encoding: chunked\r\n\r\n"
                              "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n",
                              /*pieces=*/3}});
  auto response = HttpFetch("127.0.0.1", peer.port(), "GET", "/x", "",
                            "application/json", /*timeout_seconds=*/5.0);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->headers.at("content-type"), "text/plain");
  EXPECT_EQ(response->body, "hello world");
}

TEST(HttpFetchTest, CloseDelimitedBodyIsReadToTheClose) {
  testutil::CannedPeer peer({{"HTTP/1.1 404 Not Found\r\n"
                              "content-type: text/plain\r\n\r\n"
                              "no length, no chunks: ends at the close",
                              /*pieces=*/2}});
  auto response = HttpFetch("127.0.0.1", peer.port(), "GET", "/x", "",
                            "application/json", /*timeout_seconds=*/5.0);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 404);
  EXPECT_EQ(response->body, "no length, no chunks: ends at the close");
}

TEST(HttpFetchTest, BodyCutShortIsIOError) {
  // A chunked body and a Content-Length body, each closed mid-payload.
  testutil::CannedPeer peer(
      {{"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n"
        "ff\r\nshort"},
       {"HTTP/1.1 200 OK\r\ncontent-length: 50\r\n\r\nshort"}});
  for (int i = 0; i < 2; ++i) {
    auto response = HttpFetch("127.0.0.1", peer.port(), "GET", "/x", "",
                              "application/json", /*timeout_seconds=*/5.0);
    ASSERT_FALSE(response.ok()) << i;
    EXPECT_TRUE(response.status().IsIOError()) << response.status().ToString();
  }
}

// --------------------------------------------------- server integration
class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = testutil::MakeWorld(4);
    db_ = std::make_shared<vectordb::VectorDatabase>();
    sessions_ = std::make_shared<session::SessionStore>();
    engine_ = std::make_unique<core::SearchEngine>(
        world_.runtime.get(), world_.embedder, db_, sessions_);
    service_ = std::make_unique<ApiService>(engine_.get());
    server_ = std::make_unique<HttpServer>(service_.get());
    ASSERT_TRUE(server_->Start(0).ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override { server_->Stop(); }

  testutil::World world_;
  std::shared_ptr<vectordb::VectorDatabase> db_;
  std::shared_ptr<session::SessionStore> sessions_;
  std::unique_ptr<core::SearchEngine> engine_;
  std::unique_ptr<ApiService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, HealthEndpointOverTheWire) {
  auto response =
      HttpFetch("127.0.0.1", server_->port(), "GET", "/api/health");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  auto body = Json::Parse(response->body);
  ASSERT_TRUE(body.ok());
  EXPECT_TRUE((*body)["ok"].AsBool());
  EXPECT_EQ((*body)["status"].AsString(), "healthy");
}

TEST_F(HttpServerTest, QueryEndToEnd) {
  Json request = Json::MakeObject();
  request.Set("session", "wire");
  request.Set("query", world_.dataset[0].question);
  auto response = HttpFetch("127.0.0.1", server_->port(), "POST",
                            "/api/query", request.Dump());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  auto body = Json::Parse(response->body);
  ASSERT_TRUE(body.ok());
  EXPECT_TRUE((*body)["ok"].AsBool());
  EXPECT_FALSE((*body)["answer"].AsString().empty());
}

TEST_F(HttpServerTest, StreamingQueryDeliversSseFrames) {
  Json request = Json::MakeObject();
  request.Set("session", "wire-sse");
  request.Set("query", world_.dataset[1].question);
  auto response = HttpFetch("127.0.0.1", server_->port(), "POST",
                            "/api/query?stream=1", request.Dump());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->headers.at("content-type"), "text/event-stream");

  const auto frames = DecodeSse(response->body);
  ASSERT_GT(frames.size(), 1u);
  EXPECT_EQ(frames.back().event, "result");
  auto result = Json::Parse(frames.back().data);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*result)["ok"].AsBool());
  // At least one orchestration frame with a chunk or score event.
  bool saw_orchestration = false;
  for (const auto& frame : frames) {
    saw_orchestration =
        saw_orchestration || frame.event == "orchestration";
  }
  EXPECT_TRUE(saw_orchestration);
}

TEST_F(HttpServerTest, ErrorsMapToHttpStatusCodes) {
  auto not_found =
      HttpFetch("127.0.0.1", server_->port(), "GET", "/api/nothing");
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->status, 404);

  auto bad_json = HttpFetch("127.0.0.1", server_->port(), "POST",
                            "/api/query", "this is not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json->status, 400);

  auto bad_method =
      HttpFetch("127.0.0.1", server_->port(), "DELETE", "/api/health");
  ASSERT_TRUE(bad_method.ok());
  EXPECT_EQ(bad_method->status, 405);

  Json missing = Json::MakeObject();
  missing.Set("session", "x");
  auto invalid = HttpFetch("127.0.0.1", server_->port(), "POST", "/api/query",
                           missing.Dump());
  ASSERT_TRUE(invalid.ok());
  EXPECT_EQ(invalid->status, 400);
}

TEST_F(HttpServerTest, UploadThenQueryOverTheWire) {
  const auto& item = world_.dataset[0];
  Json upload = Json::MakeObject();
  upload.Set("session", "wire-rag");
  upload.Set("document_id", "doc");
  upload.Set("text", item.golden);
  auto up = HttpFetch("127.0.0.1", server_->port(), "POST", "/api/upload",
                      upload.Dump());
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up->status, 200);

  Json query = Json::MakeObject();
  query.Set("session", "wire-rag");
  query.Set("query", item.question);
  auto response = HttpFetch("127.0.0.1", server_->port(), "POST",
                            "/api/query", query.Dump());
  ASSERT_TRUE(response.ok());
  auto body = Json::Parse(response->body);
  ASSERT_TRUE(body.ok());
  EXPECT_GE((*body)["retrieved_chunks"].AsInt(), 1);
}

TEST_F(HttpServerTest, ConcurrentClients) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 5; ++i) {
        auto response =
            HttpFetch("127.0.0.1", server_->port(), "GET", "/api/models");
        if (!response.ok() || response->status != 200) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(HttpServerTest, DoubleStartRejectedStopIdempotent) {
  EXPECT_TRUE(server_->Start(0).IsFailedPrecondition());
  server_->Stop();
  server_->Stop();  // idempotent
  EXPECT_FALSE(server_->running());
  // Connections after stop fail cleanly.
  auto response =
      HttpFetch("127.0.0.1", server_->port(), "GET", "/api/health");
  EXPECT_FALSE(response.ok());
}

}  // namespace
}  // namespace llmms::app
