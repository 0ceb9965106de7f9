#include "llmms/app/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>

#include "llmms/common/string_util.h"

namespace llmms::app {
namespace {

std::string LowerCase(std::string_view s) { return ToLower(s); }

// Splits "HEAD\r\n\r\nBODY"; returns npos-safe positions.
bool SplitHead(std::string_view raw, std::string_view* head,
               std::string_view* rest) {
  const size_t pos = raw.find("\r\n\r\n");
  if (pos == std::string_view::npos) return false;
  *head = raw.substr(0, pos);
  *rest = raw.substr(pos + 4);
  return true;
}

Status ParseHeaderLines(std::string_view head,
                        std::map<std::string, std::string>* headers) {
  size_t start = 0;
  while (start < head.size()) {
    size_t end = head.find("\r\n", start);
    if (end == std::string_view::npos) end = head.size();
    const std::string_view line = head.substr(start, end - start);
    start = end + 2;
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("malformed header line");
    }
    std::string key = LowerCase(TrimView(line.substr(0, colon)));
    std::string value(TrimView(line.substr(colon + 1)));
    (*headers)[std::move(key)] = std::move(value);
  }
  return Status::OK();
}

}  // namespace

Status ChunkedDecoder::Feed(std::string_view bytes, std::string* out) {
  auto fail = [this](const char* message) {
    state_ = State::kError;
    return Status::InvalidArgument(message);
  };
  size_t pos = 0;
  while (pos < bytes.size()) {
    switch (state_) {
      case State::kSizeLine: {
        const size_t nl = bytes.find('\n', pos);
        size_line_.append(bytes.substr(pos, nl == std::string_view::npos
                                                ? bytes.size() - pos
                                                : nl - pos));
        if (size_line_.size() > 64) return fail("oversized chunk size line");
        if (nl == std::string_view::npos) return Status::OK();
        pos = nl + 1;
        while (!size_line_.empty() && size_line_.back() == '\r') {
          size_line_.pop_back();
        }
        if (size_line_.empty() ||
            !std::isxdigit(static_cast<unsigned char>(size_line_[0]))) {
          return fail("malformed chunk size line");
        }
        // Chunk extensions after ';' are ignored (strtoul stops there).
        remaining_ = std::strtoul(size_line_.c_str(), nullptr, 16);
        size_line_.clear();
        state_ = remaining_ == 0 ? State::kDone : State::kData;
        break;
      }
      case State::kData: {
        const size_t take = std::min(remaining_, bytes.size() - pos);
        out->append(bytes.substr(pos, take));
        pos += take;
        remaining_ -= take;
        if (remaining_ == 0) state_ = State::kDataEnd;
        break;
      }
      case State::kDataEnd: {
        // Consume the CRLF (or bare LF) that closes the chunk payload.
        // `remaining_` is 0 on entry and marks "CR seen, LF required".
        const char c = bytes[pos++];
        if (c == '\r' && remaining_ == 0) {
          remaining_ = 1;
          break;
        }
        if (c != '\n') return fail("missing CRLF after chunk payload");
        remaining_ = 0;
        state_ = State::kSizeLine;
        break;
      }
      case State::kDone:
        return Status::OK();  // trailers are ignored
      case State::kError:
        return Status::InvalidArgument("chunked decoder previously failed");
    }
  }
  return Status::OK();
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

StatusOr<std::optional<size_t>> ContentLength(
    const std::map<std::string, std::string>& headers) {
  const auto it = headers.find("content-length");
  if (it == headers.end()) return std::optional<size_t>();
  const std::string& value = it->second;
  size_t length = 0;
  const auto [end, error] =
      std::from_chars(value.data(), value.data() + value.size(), length);
  if (value.empty() || error != std::errc() ||
      end != value.data() + value.size()) {
    return Status::InvalidArgument("invalid content-length: '" + value + "'");
  }
  return std::optional<size_t>(length);
}

StatusOr<HttpRequest> ParseHttpRequest(std::string_view raw) {
  std::string_view head;
  std::string_view body;
  if (!SplitHead(raw, &head, &body)) {
    return Status::InvalidArgument("incomplete HTTP request head");
  }
  LLMMS_ASSIGN_OR_RETURN(HttpRequest request, ParseHttpRequestHead(head));
  LLMMS_ASSIGN_OR_RETURN(const auto length, ContentLength(request.headers));
  const size_t content_length = length.value_or(0);
  if (body.size() < content_length) {
    return Status::InvalidArgument("request body shorter than content-length");
  }
  request.body = std::string(body.substr(0, content_length));
  return request;
}

StatusOr<HttpRequest> ParseHttpRequestHead(std::string_view head) {
  const size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  HttpRequest request;
  const auto parts = SplitWhitespace(request_line);
  if (parts.size() < 3 || !StartsWith(parts[2], "HTTP/1.")) {
    return Status::InvalidArgument("malformed HTTP request line");
  }
  request.method = parts[0];
  std::string target = parts[1];
  const size_t question = target.find('?');
  if (question != std::string::npos) {
    request.query = target.substr(question + 1);
    target.resize(question);
  }
  request.path = std::move(target);

  if (line_end != std::string_view::npos) {
    LLMMS_RETURN_NOT_OK(
        ParseHeaderLines(head.substr(line_end + 2), &request.headers));
  }
  return request;
}

std::string SerializeHttpResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpReasonPhrase(response.status) + "\r\n";
  bool has_content_length = false;
  for (const auto& [key, value] : response.headers) {
    out += key + ": " + value + "\r\n";
    has_content_length = has_content_length || key == "content-length";
  }
  if (!has_content_length) {
    out += "content-length: " + std::to_string(response.body.size()) + "\r\n";
  }
  out += "connection: close\r\n\r\n";
  out += response.body;
  return out;
}

StatusOr<HttpResponse> ParseHttpResponseHead(std::string_view head) {
  const size_t line_end = head.find("\r\n");
  const std::string_view status_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const auto parts = SplitWhitespace(status_line);
  if (parts.size() < 2 || !StartsWith(parts[0], "HTTP/1.")) {
    return Status::InvalidArgument("malformed HTTP status line");
  }
  HttpResponse response;
  response.status = static_cast<int>(std::strtol(parts[1].c_str(), nullptr, 10));
  if (line_end != std::string_view::npos) {
    LLMMS_RETURN_NOT_OK(
        ParseHeaderLines(head.substr(line_end + 2), &response.headers));
  }
  return response;
}

}  // namespace llmms::app
