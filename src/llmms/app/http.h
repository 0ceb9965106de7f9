#ifndef LLMMS_APP_HTTP_H_
#define LLMMS_APP_HTTP_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "llmms/common/result.h"
#include "llmms/common/status.h"

namespace llmms::app {

// Minimal HTTP/1.1 message model shared by the server and the client.
// One request per connection (the server replies `Connection: close`), which
// keeps the state machine trivial while supporting everything the platform
// needs: JSON request/response plus chunked server-sent-event streaming.

struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // "/api/query" (query string split off into `query`)
  std::string query;   // raw query string without '?'
  std::map<std::string, std::string> headers;  // lower-cased keys
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::map<std::string, std::string> headers;  // lower-cased keys
  std::string body;
};

// Parses a complete request (head + body). Fails on malformed input or when
// the body is shorter than Content-Length.
StatusOr<HttpRequest> ParseHttpRequest(std::string_view raw);

// Parses only the request line and headers — everything before the blank
// line, excluded. Used by the server to size the body before reading it.
// The returned request's `body` is empty.
StatusOr<HttpRequest> ParseHttpRequestHead(std::string_view head);

// The body length a message's Content-Length header announces, or nullopt
// when there is none. InvalidArgument unless the value is all digits and
// fits in a size_t. The one Content-Length parse of requests, responses and
// streamed responses.
StatusOr<std::optional<size_t>> ContentLength(
    const std::map<std::string, std::string>& headers);

// Serializes a response with Content-Length framing.
std::string SerializeHttpResponse(const HttpResponse& response);

// Parses only the status line and headers of a response — everything before
// the blank line, excluded. Used by the client (HttpClientStream), which
// reads the body incrementally as it arrives. The returned response's
// `body` is empty.
StatusOr<HttpResponse> ParseHttpResponseHead(std::string_view head);

// Incremental decoder for HTTP/1.1 chunked transfer encoding: accepts the
// wire in arbitrary slices and appends decoded payload bytes as they become
// available. Once the terminal zero-length chunk is seen `done()` turns true
// and any further bytes (trailers) are ignored.
class ChunkedDecoder {
 public:
  // Consumes `bytes`, appending decoded payload to `out`. Fails with
  // InvalidArgument on malformed framing; the decoder is then poisoned and
  // every further Feed returns the same error.
  Status Feed(std::string_view bytes, std::string* out);

  bool done() const { return state_ == State::kDone; }

 private:
  enum class State { kSizeLine, kData, kDataEnd, kDone, kError };

  State state_ = State::kSizeLine;
  std::string size_line_;   // partial chunk-size line across Feed boundaries
  size_t remaining_ = 0;    // payload bytes left in the current chunk
};

// Standard reason phrase for a status code ("OK", "Not Found", ...).
const char* HttpReasonPhrase(int status);

}  // namespace llmms::app

#endif  // LLMMS_APP_HTTP_H_
