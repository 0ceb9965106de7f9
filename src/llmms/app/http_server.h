#ifndef LLMMS_APP_HTTP_SERVER_H_
#define LLMMS_APP_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "llmms/app/http.h"
#include "llmms/app/service.h"
#include "llmms/common/deadline.h"
#include "llmms/common/thread_pool.h"

namespace llmms::app {

// Serving-layer knobs: admission control, per-request deadlines, size caps,
// drain behaviour. Every timeout follows the repo's 0-disables idiom.
struct HttpServerOptions {
  // Connections are handled concurrently on this many pool workers.
  size_t num_workers = 4;

  // Admission control: connections accepted but not yet picked up by a
  // worker. Beyond the cap the accept loop sheds the connection immediately
  // with `503 Service Unavailable` + `Retry-After` instead of letting the
  // queue (and every queued client's latency) grow without bound.
  size_t max_queue = 64;
  double retry_after_seconds = 1.0;

  // Per-syscall socket deadlines (SO_RCVTIMEO / SO_SNDTIMEO) on accepted
  // connections. This is what kills a slow-loris client: a peer that
  // trickles its request head (or stops reading its response) costs a
  // worker at most this long per syscall, then gets 408 / the socket
  // closed. 0 = unbounded.
  double socket_timeout_seconds = 10.0;

  // End-to-end wall-clock budget per request. Threaded through the service
  // into the generation loops as a RequestContext; once expired the request
  // unwinds at the next chunk boundary and answers `504 Gateway Timeout`.
  // 0 = unbounded.
  double request_timeout_seconds = 30.0;

  // Stop(): grace period for in-flight and queued requests to finish after
  // the listener closes. Stragglers past it are cancelled through their
  // RequestContext and their sockets shut down.
  double drain_timeout_seconds = 5.0;

  // Request size caps; beyond either the request is rejected with
  // `413 Content Too Large` (before the body is read, when Content-Length
  // announces the overrun).
  size_t max_head_bytes = 64 * 1024;
  size_t max_body_bytes = 8 * 1024 * 1024;

  // Streamed-generation pacing: after flushing an SSE chunk that carries
  // simulated latency (`extra_seconds`, DESIGN.md §9), sleep
  // `pace_scale * extra_seconds` of real time before producing the next
  // chunk — so a remote consumer observes the primary's congestion on the
  // wire instead of receiving the whole response in one burst. The sleep is
  // cancellable (client disconnect / drain). 0 = no pacing (the default:
  // tests and benchmarks want wire speed).
  double pace_scale = 0.0;
};

// Monotonic serving counters plus the two live gauges, shared between the
// server and the /api/health "server" block (which holds them via
// shared_ptr, so a stopped server leaves the last values readable).
struct HttpServerStats {
  std::atomic<size_t> accepted{0};    // connections accept()ed
  std::atomic<size_t> completed{0};   // requests fully handled
  std::atomic<size_t> shed{0};        // 503s from admission control
  std::atomic<size_t> rejected_oversize{0};  // 413s from the size caps
  std::atomic<size_t> timeouts{0};    // 408 (head) + 504 (deadline)
  std::atomic<size_t> cancelled{0};   // client disconnects + drain kills
  std::atomic<size_t> accept_errors{0};  // accept() failures (EMFILE, ...)
  std::atomic<size_t> queued{0};      // gauge: waiting for a worker
  std::atomic<size_t> in_flight{0};   // gauge: being handled right now
  std::atomic<bool> draining{false};

  Json ToJson() const;
};

// The production front of the platform (the Flask + Apache/mod_wsgi layer of
// §7.1), as a small HTTP/1.1 server over POSIX sockets:
//
//   * POST/GET to any /api/* endpoint carries a JSON body and returns the
//     ApiService's JSON response.
//   * POST /api/query and POST /api/generate with `?stream=1` (or
//     `Accept: text/event-stream`) are served by one SSE responder:
//     `Content-Type: text/event-stream` over chunked transfer encoding, one
//     numbered frame per service event, then one terminal frame with the
//     response body. A query streams `event: orchestration` frames and ends
//     with `event: result` — the §7.2 step-7 streaming path, for real, over
//     a socket. A generation streams `event: chunk` frames and ends with
//     `event: done` (stop reason and token accounting) or `event: error`
//     after a failure — the federation streaming wire protocol (DESIGN.md
//     §9). With the service's streaming_generate flag off, a streamed
//     generate falls through to the one-shot JSON handler like on a
//     pre-streaming node.
//
// One request per connection (`Connection: close`); connections are served
// concurrently on a worker pool behind a bounded admission queue, each under
// a wall-clock deadline (DESIGN.md §12 has the full threading/locking and
// overload-protection story). Binds 127.0.0.1 only.
class HttpServer {
 public:
  // `service` must outlive the server.
  HttpServer(ApiService* service, const HttpServerOptions& options);
  explicit HttpServer(ApiService* service, size_t num_workers = 4);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds and starts accepting. `port` 0 picks an ephemeral port.
  Status Start(int port = 0);

  // Graceful drain: stops accepting, lets in-flight and queued requests
  // finish up to drain_timeout_seconds, then cancels stragglers via their
  // RequestContext (and shuts their sockets down to wake blocked syscalls)
  // before returning.
  void Stop();

  // The bound port (valid after Start succeeds).
  int port() const { return port_; }
  bool running() const { return running_.load(); }

  // Live serving counters (also exported into /api/health as "server").
  const HttpServerStats& stats() const { return *stats_; }
  const HttpServerOptions& options() const { return options_; }

 private:
  void AcceptLoop();
  // Answers shed connections (503 + Retry-After) off the accept thread: the
  // response must be followed by a half-close and a drain of the client's
  // unread request bytes — closing with unread data would RST the
  // connection and destroy the very response that tells the client to back
  // off. That drain blocks briefly, so it must not stall the accept loop.
  void ShedLoop();
  void HandleConnection(int fd, const std::shared_ptr<RequestContext>& ctx);
  // The one SSE responder of both streamed endpoints: sends the head, then
  // every event `run` emits as a `frame_event` frame with ids from 0, then
  // the payload `run` returns as a `done_event` (ok) or `error_event`
  // terminal frame.
  void ServeEventStream(int fd, const std::shared_ptr<RequestContext>& ctx,
                        const char* frame_event, const char* done_event,
                        const char* error_event,
                        const std::function<Json(const StreamCallback&)>& run);

  // Active-connection registry for drain: every accepted (not shed)
  // connection is tracked from accept to completion so Stop() can cancel
  // whatever outlives the grace period.
  void RegisterConnection(int fd, std::shared_ptr<RequestContext> ctx);
  void UnregisterConnection(int fd);

  ApiService* service_;
  HttpServerOptions options_;
  std::shared_ptr<HttpServerStats> stats_;  // shared with /api/health
  std::atomic<bool> running_{false};
  // Atomic: Stop() closes and clears it while the accept thread is still
  // blocked in accept() on it.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::thread accept_thread_;

  std::mutex conn_mu_;  // guards active_; drain_cv_ waits on it
  std::condition_variable drain_cv_;
  std::unordered_map<int, std::shared_ptr<RequestContext>> active_;

  std::thread shed_thread_;
  std::mutex shed_mu_;  // guards shed_fds_ / shed_stop_
  std::condition_variable shed_cv_;
  std::deque<int> shed_fds_;
  bool shed_stop_ = false;

  // Declared last so its destructor (which joins any straggler connection
  // task) runs before the members those tasks touch are destroyed.
  ThreadPool workers_;
};

// Minimal blocking client: one request, the whole response — an
// HttpClientStream opened and read to the end of its body. `timeout_seconds`
// > 0 bounds connect, send and every wire wait (SO_SNDTIMEO / SO_RCVTIMEO);
// an expired deadline surfaces as DeadlineExceeded, a response cut short
// as IOError. 0 blocks indefinitely.
StatusOr<HttpResponse> HttpFetch(const std::string& host, int port,
                                 const std::string& method,
                                 const std::string& target,
                                 const std::string& body = "",
                                 const std::string& content_type =
                                     "application/json",
                                 double timeout_seconds = 0.0);

// Incremental client for streaming endpoints: sends one request, parses the
// response head eagerly, then surfaces decoded body bytes as they arrive on
// the wire (dechunked when the server uses chunked transfer encoding). This
// is what gives the federation adapter true time-to-first-token — bytes are
// readable the moment the peer flushes them, not when the response ends.
//
// `timeout_seconds` > 0 bounds every individual network wait (connect, send,
// and each Read) — a per-chunk deadline rather than a whole-response one;
// an expired wait surfaces as DeadlineExceeded. A connection that closes
// before the chunked body's terminal frame surfaces as IOError, so a peer
// dying mid-stream is a typed failure, never a hang.
class HttpClientStream {
 public:
  static StatusOr<std::unique_ptr<HttpClientStream>> Open(
      const std::string& host, int port, const std::string& method,
      const std::string& target, const std::string& body,
      const std::string& content_type = "application/json",
      double timeout_seconds = 0.0, bool accept_event_stream = false);

  ~HttpClientStream();
  HttpClientStream(const HttpClientStream&) = delete;
  HttpClientStream& operator=(const HttpClientStream&) = delete;

  // Status line + headers; `head().body` is always empty — body bytes come
  // from Read.
  const HttpResponse& head() const { return head_; }

  // Returns the next decoded body bytes, blocking up to the deadline for
  // the wire. At a clean end of stream it returns an empty string (at most
  // once) and `exhausted()` is true from then on.
  StatusOr<std::string> Read();

  // True once every decoded body byte has been handed out — not merely
  // once the wire framing is complete, which can happen while bytes that
  // arrived alongside the head still wait in the buffer.
  bool exhausted() const { return exhausted_ && pending_.empty(); }

  // Reads until exhausted() and returns the rest of the body, then waits
  // (up to the deadline) for the peer to close the connection.
  StatusOr<std::string> ReadToEnd();

 private:
  HttpClientStream() = default;

  int fd_ = -1;
  HttpResponse head_;
  bool chunked_ = false;
  bool has_content_length_ = false;
  size_t content_remaining_ = 0;
  ChunkedDecoder decoder_;
  std::string pending_;  // decoded bytes that arrived alongside the head
  bool exhausted_ = false;
  double timeout_seconds_ = 0.0;
};

}  // namespace llmms::app

#endif  // LLMMS_APP_HTTP_SERVER_H_
