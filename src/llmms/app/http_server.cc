#include "llmms/app/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "llmms/app/sse.h"
#include "llmms/common/logging.h"
#include "llmms/common/string_util.h"

namespace llmms::app {
namespace {

// Sends all of `data` on `fd`; returns false on error (including an expired
// SO_SNDTIMEO — a peer that stopped reading).
bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

void SetSocketTimeouts(int fd, double timeout_seconds) {
  if (timeout_seconds <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// Lingering half-close for responses sent before the request was fully
// consumed (shed 503s, oversize 413s, slow-loris 408s). Closing with unread
// bytes in the receive buffer makes TCP reset the connection, which can
// destroy the in-flight response on the client side — exactly the response
// telling it to back off. Instead: FIN our side, then discard whatever the
// peer still sends until it closes (bounded by the fd's SO_RCVTIMEO).
void HalfCloseAndDrain(int fd) {
  ::shutdown(fd, SHUT_WR);
  char discard[4096];
  while (::recv(fd, discard, sizeof(discard), 0) > 0) {
  }
}

// Reads and parses one HTTP request (head + Content-Length body) from `fd`.
// Typed failures: DeadlineExceeded when SO_RCVTIMEO expires before the
// request arrives (a slow-loris peer trickling bytes slower than the socket
// deadline), ResourceExhausted when the head exceeds `max_head_bytes` or the
// announced/observed body exceeds `max_body_bytes` — checked as soon as the
// head (and its Content-Length) is parsed, so an oversized upload is
// rejected before its body is pulled off the wire — InvalidArgument when
// the head or its Content-Length does not parse or the body falls short of
// it, and IOError when the peer leaves before sending a head.
StatusOr<HttpRequest> ReadRequest(int fd, size_t max_head_bytes,
                                  size_t max_body_bytes) {
  std::string buffer;
  char chunk[4096];
  HttpRequest request;
  size_t body_needed = 0;
  size_t head_end = std::string::npos;
  for (;;) {
    if (head_end != std::string::npos &&
        buffer.size() >= head_end + 4 + body_needed) {
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded(
            "request not received within the socket deadline");
      }
      return Status::IOError("recv failed");
    }
    if (n == 0) {
      if (head_end != std::string::npos) break;
      return Status::IOError("connection closed before request head");
    }
    buffer.append(chunk, static_cast<size_t>(n));
    if (head_end == std::string::npos) {
      head_end = buffer.find("\r\n\r\n");
      if (head_end == std::string::npos) {
        if (buffer.size() > max_head_bytes) {
          return Status::ResourceExhausted(
              "request head exceeds " + std::to_string(max_head_bytes) +
              " bytes");
        }
        continue;
      }
      if (head_end > max_head_bytes) {
        return Status::ResourceExhausted(
            "request head exceeds " + std::to_string(max_head_bytes) +
            " bytes");
      }
      LLMMS_ASSIGN_OR_RETURN(
          request, ParseHttpRequestHead(std::string_view(buffer.data(),
                                                         head_end)));
      LLMMS_ASSIGN_OR_RETURN(const auto length, ContentLength(request.headers));
      body_needed = length.value_or(0);
      if (body_needed > max_body_bytes) {
        return Status::ResourceExhausted(
            "request body of " + std::to_string(body_needed) +
            " bytes exceeds the " + std::to_string(max_body_bytes) +
            "-byte limit");
      }
    }
    // Defence in depth for peers that send more body than they announced.
    if (buffer.size() > max_head_bytes + 4 + max_body_bytes) {
      return Status::ResourceExhausted("request too large");
    }
  }
  const std::string_view body = std::string_view(buffer).substr(head_end + 4);
  if (body.size() < body_needed) {
    return Status::InvalidArgument("request body shorter than content-length");
  }
  request.body = std::string(body.substr(0, body_needed));
  return request;
}

std::string ChunkEncode(std::string_view data) {
  char size_line[32];
  std::snprintf(size_line, sizeof(size_line), "%zx\r\n", data.size());
  std::string out = size_line;
  out += data;
  out += "\r\n";
  return out;
}

bool WantsStream(const HttpRequest& request) {
  if (request.query.find("stream=1") != std::string::npos) return true;
  auto it = request.headers.find("accept");
  return it != request.headers.end() &&
         it->second.find("text/event-stream") != std::string::npos;
}

// The response head every SSE stream starts with.
constexpr const char kSseHead[] =
    "HTTP/1.1 200 OK\r\n"
    "content-type: text/event-stream\r\n"
    "cache-control: no-cache\r\n"
    "transfer-encoding: chunked\r\n"
    "connection: close\r\n\r\n";

// Maps a service error payload's status-code name to the HTTP status the
// front door answers with. Anything unmapped stays a client-ish 400, which
// is what every error answered before typed serving codes existed.
int HttpStatusForError(const Json& result) {
  const std::string code = result["error"]["code"].AsString();
  if (code == "NotFound") return 404;
  if (code == "DeadlineExceeded") return 504;
  if (code == "Cancelled") return 503;
  if (code == "ResourceExhausted") return 413;
  return 400;
}

// Opens a TCP connection to host:port with optional send/recv deadlines.
StatusOr<int> ConnectSocket(const std::string& host, int port,
                            double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket() failed");
  SetSocketTimeouts(fd, timeout_seconds);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("connect() failed to " + host + ":" +
                           std::to_string(port));
  }
  return fd;
}

std::string SerializeHttpRequest(const std::string& host,
                                 const std::string& method,
                                 const std::string& target,
                                 const std::string& body,
                                 const std::string& content_type,
                                 bool accept_event_stream) {
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "host: " + host + "\r\n";
  request += "content-type: " + content_type + "\r\n";
  request += "content-length: " + std::to_string(body.size()) + "\r\n";
  if (accept_event_stream) request += "accept: text/event-stream\r\n";
  request += "connection: close\r\n\r\n";
  request += body;
  return request;
}

}  // namespace

Json HttpServerStats::ToJson() const {
  Json out = Json::MakeObject();
  out.Set("accepted", accepted.load());
  out.Set("completed", completed.load());
  out.Set("shed", shed.load());
  out.Set("rejected_oversize", rejected_oversize.load());
  out.Set("timeouts", timeouts.load());
  out.Set("cancelled", cancelled.load());
  out.Set("accept_errors", accept_errors.load());
  out.Set("queued", queued.load());
  out.Set("in_flight", in_flight.load());
  out.Set("draining", draining.load());
  return out;
}

HttpServer::HttpServer(ApiService* service, const HttpServerOptions& options)
    : service_(service),
      options_(options),
      stats_(std::make_shared<HttpServerStats>()),
      workers_(std::max<size_t>(1, options.num_workers)) {}

HttpServer::HttpServer(ApiService* service, size_t num_workers)
    : HttpServer(service, [num_workers] {
        HttpServerOptions options;
        options.num_workers = num_workers;
        return options;
      }()) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start(int port) {
  if (running_.load()) return Status::FailedPrecondition("already running");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("bind() failed on port " + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::IOError("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  listen_fd_.store(fd);
  stats_->draining.store(false);
  // /api/health's "server" block. The closure owns the stats struct, so the
  // last counters stay readable after the server stops or is destroyed.
  if (service_ != nullptr) {
    auto stats = stats_;
    service_->SetServerStats([stats]() { return stats->ToJson(); });
  }
  {
    std::lock_guard<std::mutex> lock(shed_mu_);
    shed_stop_ = false;
  }
  running_.store(true);
  shed_thread_ = std::thread([this]() { ShedLoop(); });
  accept_thread_ = std::thread([this]() { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  stats_->draining.store(true);

  // 1. Stop accepting: new connections are refused at the TCP layer. The
  // exchange publishes the cleared fd to the accept thread, which may still
  // be blocked in accept() on it (shutdown wakes it).
  if (const int listen = listen_fd_.exchange(-1); listen >= 0) {
    ::shutdown(listen, SHUT_RDWR);
    ::close(listen);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(shed_mu_);
    shed_stop_ = true;
  }
  shed_cv_.notify_all();
  if (shed_thread_.joinable()) shed_thread_.join();

  // 2. Grace period: queued and in-flight requests run to completion.
  const auto drain_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              std::max(0.0, options_.drain_timeout_seconds)));
  std::unique_lock<std::mutex> lock(conn_mu_);
  drain_cv_.wait_until(lock, drain_deadline,
                       [this]() { return active_.empty(); });

  // 3. Stragglers: cancel their contexts (generation loops unwind at the
  // next chunk boundary) and shut their sockets down so any thread blocked
  // in recv/send wakes immediately. Shutdown happens under conn_mu_, before
  // the owning worker can unregister-and-close, so the fd cannot have been
  // reused.
  for (auto& [fd, ctx] : active_) {
    if (ctx != nullptr) ctx->Cancel("server shutting down");
    ::shutdown(fd, SHUT_RDWR);
    stats_->cancelled.fetch_add(1);
  }

  // 4. Bounded second wait for the cancelled stragglers to unwind. The
  // ThreadPool destructor would join anyway; waiting here keeps Stop()'s
  // contract — no request is still touching the service when it returns.
  drain_cv_.wait_for(lock, std::chrono::seconds(10),
                     [this]() { return active_.empty(); });
  if (!active_.empty()) {
    LLMMS_LOGS(Warning) << "http: " << active_.size()
                        << " connection(s) did not unwind within the drain "
                           "deadline";
  }
}

void HttpServer::RegisterConnection(int fd,
                                    std::shared_ptr<RequestContext> ctx) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  active_[fd] = std::move(ctx);
}

void HttpServer::UnregisterConnection(int fd) {
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    active_.erase(fd);
  }
  drain_cv_.notify_all();
}

void HttpServer::AcceptLoop() {
  bool in_error_burst = false;
  while (running_.load()) {
    const int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) break;
      // Transient accept failures (EMFILE/ENFILE under fd pressure, ECONNABORTED,
      // EINTR) must not busy-spin the accept thread at 100% CPU: back off
      // briefly, and log once per burst rather than once per failure.
      stats_->accept_errors.fetch_add(1);
      if (!in_error_burst) {
        in_error_burst = true;
        LLMMS_LOGS(Warning) << "http: accept() failed (errno " << errno
                            << ": " << std::strerror(errno)
                            << "); backing off";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    in_error_burst = false;
    stats_->accepted.fetch_add(1);

    // Admission control: a connection beyond the pending-queue cap is shed
    // with 503 + Retry-After instead of joining a queue whose wait already
    // exceeds anything a client would tolerate. The response itself is sent
    // by the shed thread — it must linger to drain the client's unread
    // request bytes, which would stall this loop.
    if (stats_->queued.load() >= options_.max_queue) {
      stats_->shed.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(shed_mu_);
        shed_fds_.push_back(fd);
      }
      shed_cv_.notify_one();
      continue;
    }

    SetSocketTimeouts(fd, options_.socket_timeout_seconds);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    // The request's wall-clock budget starts at admission, so time spent
    // waiting for a worker counts against it.
    auto ctx = options_.request_timeout_seconds > 0.0
                   ? RequestContext::WithTimeout(
                         options_.request_timeout_seconds)
                   : RequestContext::Unbounded();
    RegisterConnection(fd, ctx);
    stats_->queued.fetch_add(1);
    workers_.Submit([this, fd, ctx]() {
      stats_->queued.fetch_sub(1);
      stats_->in_flight.fetch_add(1);
      HandleConnection(fd, ctx);
      stats_->in_flight.fetch_sub(1);
      stats_->completed.fetch_add(1);
      UnregisterConnection(fd);
      ::close(fd);
    });
  }
}

void HttpServer::ShedLoop() {
  HttpResponse response;
  response.status = 503;
  response.headers["content-type"] = "application/json";
  response.headers["retry-after"] = std::to_string(static_cast<long>(
      std::ceil(std::max(0.0, options_.retry_after_seconds))));
  Json error = Json::MakeObject();
  error.Set("ok", false);
  error.Set("message", "server overloaded; retry later");
  response.body = error.Dump();
  const std::string wire = SerializeHttpResponse(response);

  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(shed_mu_);
      shed_cv_.wait(lock,
                    [this]() { return shed_stop_ || !shed_fds_.empty(); });
      if (shed_fds_.empty()) return;  // stopped and queue empty
      fd = shed_fds_.front();
      shed_fds_.pop_front();
      // On shutdown, just close the backlog — the clients are being
      // refused at the listener anyway.
      if (shed_stop_) {
        ::close(fd);
        continue;
      }
    }
    // The drain is bounded: a peer that neither finishes its request nor
    // closes holds this (one) thread for at most the timeout, and the worst
    // it can do is delay other shed *responses* — admission decisions and
    // real traffic are unaffected.
    SetSocketTimeouts(fd, std::min(std::max(options_.socket_timeout_seconds,
                                            0.1),
                                   1.0));
    if (SendAll(fd, wire)) HalfCloseAndDrain(fd);
    ::close(fd);
  }
}

void HttpServer::HandleConnection(int fd,
                                  const std::shared_ptr<RequestContext>& ctx) {
  auto fail = [fd](int status, const std::string& message,
                   const std::string& extra_header = "") {
    HttpResponse response;
    response.status = status;
    response.headers["content-type"] = "application/json";
    if (!extra_header.empty()) {
      const size_t colon = extra_header.find(':');
      response.headers[extra_header.substr(0, colon)] =
          extra_header.substr(colon + 1);
    }
    Json error = Json::MakeObject();
    error.Set("ok", false);
    error.Set("message", message);
    response.body = error.Dump();
    SendAll(fd, SerializeHttpResponse(response));
  };

  // The connection may have aged out (or been drain-cancelled) while it sat
  // in the admission queue; answer without touching the service. The
  // request was never read, so linger-drain before the caller closes.
  if (const Status admitted = ctx->Check(); !admitted.ok()) {
    if (admitted.IsDeadlineExceeded()) {
      stats_->timeouts.fetch_add(1);
      fail(504, admitted.message());
    } else {
      fail(503, admitted.message());
    }
    HalfCloseAndDrain(fd);
    return;
  }

  auto request =
      ReadRequest(fd, options_.max_head_bytes, options_.max_body_bytes);
  if (!request.ok()) {
    const Status& status = request.status();
    if (status.IsResourceExhausted()) {
      stats_->rejected_oversize.fetch_add(1);
      fail(413, status.message());
    } else if (status.IsDeadlineExceeded()) {
      // Slow-loris: the peer held a worker without delivering a request
      // within the socket deadline.
      stats_->timeouts.fetch_add(1);
      fail(408, status.message());
    } else if (status.IsInvalidArgument()) {
      fail(400, status.message());
    } else {
      return;  // IOError: the peer vanished before sending anything
    }
    // Rejected before the body was consumed: linger-drain so the reset
    // from closing on unread bytes cannot destroy the answer in flight.
    HalfCloseAndDrain(fd);
    return;
  }
  if (request->method != "GET" && request->method != "POST") {
    fail(405, "method not allowed");
    return;
  }

  Json payload = Json::MakeObject();
  if (!request->body.empty()) {
    auto parsed = Json::Parse(request->body);
    if (!parsed.ok()) {
      fail(400, "invalid JSON body: " + parsed.status().message());
      return;
    }
    payload = std::move(parsed).value();
  }

  if (WantsStream(*request)) {
    if (request->path == "/api/query") {
      ServeEventStream(fd, ctx, "orchestration", "result", "result",
                       [&](const StreamCallback& emit) {
                         return service_->HandleQuery(payload, emit, ctx);
                       });
      return;
    }
    // A node with streaming_generate disabled falls through to the
    // one-shot JSON path below, exactly like a pre-streaming peer ignoring
    // the stream parameter.
    if (request->path == "/api/generate" && service_->streaming_generate()) {
      ServeEventStream(fd, ctx, "chunk", "done", "error",
                       [&](const StreamCallback& emit) {
                         return service_->HandleGenerateStream(payload, emit,
                                                               ctx);
                       });
      return;
    }
  }

  const Json result =
      service_->Handle(request->path, payload, StreamCallback(), ctx);
  HttpResponse response;
  response.status = result["ok"].AsBool() ? 200 : HttpStatusForError(result);
  if (response.status == 504) stats_->timeouts.fetch_add(1);
  response.headers["content-type"] = "application/json";
  response.body = result.Dump();
  SendAll(fd, SerializeHttpResponse(response));
}

void HttpServer::ServeEventStream(
    int fd, const std::shared_ptr<RequestContext>& ctx,
    const char* frame_event, const char* done_event, const char* error_event,
    const std::function<Json(const StreamCallback&)>& run) {
  if (!SendAll(fd, kSseHead)) return;
  size_t frame_id = 0;
  const Json result = run([&](const Json& event) {
    if (ctx->cancelled()) return;
    SseEvent sse;
    sse.event = frame_event;
    sse.id = std::to_string(frame_id++);
    sse.data = event.Dump();
    if (!SendAll(fd, ChunkEncode(EncodeSse(sse)))) {
      // The client went away (or stopped reading past the send deadline);
      // cancel so the generation unwinds at the next chunk boundary
      // instead of generating for nobody.
      stats_->cancelled.fetch_add(1);
      ctx->Cancel("client disconnected mid-stream");
      return;
    }
    // Real pacing: a frame's simulated latency rides it as `extra_seconds`
    // (only generate chunks carry one); with pace_scale > 0 the flushed
    // frame is followed by a scaled real-time delay, so a consumer sees the
    // producer's congestion on the wire instead of one terminal burst.
    // SleepFor is cancellable — a disconnect or drain cuts the pacing short
    // along with the generation.
    if (options_.pace_scale > 0.0 && event.Contains("extra_seconds")) {
      (void)ctx->SleepFor(event["extra_seconds"].AsDouble() *
                          options_.pace_scale);
    }
  });
  const bool ok = result["ok"].AsBool();
  if (!ok && result["error"]["code"].AsString() == "DeadlineExceeded") {
    stats_->timeouts.fetch_add(1);
  }
  SseEvent terminal;
  terminal.event = ok ? done_event : error_event;
  terminal.data = result.Dump();
  SendAll(fd, ChunkEncode(EncodeSse(terminal)));
  SendAll(fd, "0\r\n\r\n");
}

StatusOr<HttpResponse> HttpFetch(const std::string& host, int port,
                                 const std::string& method,
                                 const std::string& target,
                                 const std::string& body,
                                 const std::string& content_type,
                                 double timeout_seconds) {
  LLMMS_ASSIGN_OR_RETURN(
      auto stream, HttpClientStream::Open(host, port, method, target, body,
                                          content_type, timeout_seconds));
  HttpResponse response = stream->head();
  LLMMS_ASSIGN_OR_RETURN(response.body, stream->ReadToEnd());
  return response;
}

StatusOr<std::unique_ptr<HttpClientStream>> HttpClientStream::Open(
    const std::string& host, int port, const std::string& method,
    const std::string& target, const std::string& body,
    const std::string& content_type, double timeout_seconds,
    bool accept_event_stream) {
  LLMMS_ASSIGN_OR_RETURN(const int fd,
                         ConnectSocket(host, port, timeout_seconds));
  auto stream = std::unique_ptr<HttpClientStream>(new HttpClientStream());
  stream->fd_ = fd;
  stream->timeout_seconds_ = timeout_seconds;
  const std::string request = SerializeHttpRequest(
      host, method, target, body, content_type, accept_event_stream);
  if (!SendAll(fd, request)) {
    return Status::IOError("send failed");  // destructor closes the socket
  }

  // Read until the head is complete; whatever body bytes arrive with it are
  // decoded into pending_ for the first Read.
  std::string raw;
  char buffer[4096];
  size_t head_end = std::string::npos;
  while (head_end == std::string::npos) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded(
            "response head not received within " +
            std::to_string(timeout_seconds) + "s");
      }
      return Status::IOError("recv failed reading response head");
    }
    if (n == 0) {
      return Status::IOError("connection closed before response head");
    }
    raw.append(buffer, static_cast<size_t>(n));
    head_end = raw.find("\r\n\r\n");
    if (raw.size() > (1u << 20)) {
      return Status::ResourceExhausted("response head too large");
    }
  }
  LLMMS_ASSIGN_OR_RETURN(stream->head_,
                         ParseHttpResponseHead(raw.substr(0, head_end)));
  auto te = stream->head_.headers.find("transfer-encoding");
  stream->chunked_ =
      te != stream->head_.headers.end() && ToLower(te->second) == "chunked";
  LLMMS_ASSIGN_OR_RETURN(const auto length,
                         ContentLength(stream->head_.headers));
  stream->has_content_length_ = length.has_value();
  stream->content_remaining_ = length.value_or(0);

  const std::string_view rest = std::string_view(raw).substr(head_end + 4);
  if (stream->chunked_) {
    LLMMS_RETURN_NOT_OK(stream->decoder_.Feed(rest, &stream->pending_));
    if (stream->decoder_.done()) stream->exhausted_ = true;
  } else if (stream->has_content_length_) {
    const size_t take = std::min(rest.size(), stream->content_remaining_);
    stream->pending_.append(rest.substr(0, take));
    stream->content_remaining_ -= take;
    if (stream->content_remaining_ == 0) stream->exhausted_ = true;
  } else {
    stream->pending_.append(rest);  // close-delimited
  }
  return stream;
}

HttpClientStream::~HttpClientStream() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::string> HttpClientStream::Read() {
  if (!pending_.empty()) {
    std::string out;
    out.swap(pending_);
    return out;
  }
  if (exhausted_) return std::string();

  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("no stream data within " +
                                        std::to_string(timeout_seconds_) +
                                        "s");
      }
      return Status::IOError("recv failed mid-stream");
    }
    if (n == 0) {
      // Peer closed. Clean only if the framing says the body is complete.
      if (chunked_ && !decoder_.done()) {
        return Status::IOError("connection closed mid-stream");
      }
      if (has_content_length_ && content_remaining_ > 0) {
        return Status::IOError("connection closed before content-length");
      }
      exhausted_ = true;
      return std::string();
    }
    const std::string_view bytes(buffer, static_cast<size_t>(n));
    std::string out;
    if (chunked_) {
      LLMMS_RETURN_NOT_OK(decoder_.Feed(bytes, &out));
      if (decoder_.done()) exhausted_ = true;
      // Framing-only bytes decode to nothing; keep reading until payload,
      // end of stream, or deadline.
      if (out.empty() && !exhausted_) continue;
      return out;
    }
    if (has_content_length_) {
      const size_t take = std::min(bytes.size(), content_remaining_);
      out.append(bytes.substr(0, take));
      content_remaining_ -= take;
      if (content_remaining_ == 0) exhausted_ = true;
      return out;
    }
    return std::string(bytes);  // close-delimited
  }
}

StatusOr<std::string> HttpClientStream::ReadToEnd() {
  std::string body;
  while (!exhausted()) {
    LLMMS_ASSIGN_OR_RETURN(std::string bytes, Read());
    body += bytes;
  }
  // Every response here is `connection: close`: wait for the peer's close
  // so the peer ends the connection and holds its TIME_WAIT. A client that
  // closed first would park one ephemeral port per request for a minute,
  // and a busy client runs out of them.
  char discard[512];
  while (::recv(fd_, discard, sizeof(discard), 0) > 0) {
  }
  return body;
}

}  // namespace llmms::app
