#include "llmms/app/remote_model.h"

#include <algorithm>
#include <vector>

#include "llmms/app/http_server.h"
#include "llmms/app/sse.h"
#include "llmms/common/json.h"
#include "llmms/common/stopwatch.h"
#include "llmms/common/string_util.h"

namespace llmms::app {
namespace {

// A transport failure is worth another attempt: the node may be restarting,
// the socket may have hit a transient reset, or a proxy returned 5xx.
// Protocol-level errors (NotFound, InvalidArgument, an explicit remote error
// payload) are permanent.
bool IsRetryableTransport(const Status& status) {
  return status.IsIOError() || status.IsDeadlineExceeded();
}

// Runs `call` up to 1 + max_retries times, returning the first success or
// the last error. Only transport-level failures are retried.
template <typename Fn>
auto WithTransportRetries(const RemoteModel::TransportOptions& transport,
                          Fn&& call) -> decltype(call()) {
  decltype(call()) result = call();
  for (size_t attempt = 0;
       attempt < transport.max_retries && !result.ok() &&
       IsRetryableTransport(result.status());
       ++attempt) {
    result = call();
  }
  return result;
}

Json GenerateRequestBody(const std::string& remote_name,
                         const llm::GenerationRequest& request) {
  Json body = Json::MakeObject();
  body.Set("model", remote_name);
  body.Set("prompt", request.prompt);
  if (request.max_tokens > 0) body.Set("max_tokens", request.max_tokens);
  body.Set("seed", request.seed);
  return body;
}

bool IsEventStream(const HttpResponse& head) {
  auto content_type = head.headers.find("content-type");
  return content_type != head.headers.end() &&
         content_type->second.find("text/event-stream") != std::string::npos;
}

llm::StopReason ParseStopReason(const Json& payload) {
  return payload["done_reason"].AsString() == "stop" ? llm::StopReason::kStop
                                                      : llm::StopReason::kLength;
}

// A federated generation. Every peer is asked for the streaming variant of
// /api/generate: chunks cross the wire as SSE events and surface here the
// moment they arrive. A peer that answers with plain JSON instead (a
// pre-streaming build, or streaming switched off) is caught by the
// content-type check and its one-shot payload is served from the buffer
// — identical text, tokens and stop reason, just no early delivery.
//
// Completions cross the wire as text, are split into whitespace tokens (the
// unit every local accounting path uses), and are served in
// max_tokens-sized bites. Every NextChunk charges the real seconds it spent
// waiting on the wire (connection setup + time-to-first-token for the first
// chunk, inter-chunk latency afterwards) to Chunk::extra_seconds, so the
// simulated-time accounting sees the true federation cost. Mid-stream
// failures — peer death, an error event, an expired per-chunk deadline —
// are sticky stream errors for the resilience layer to quarantine.
class RemoteStream final : public llm::GenerationStream {
 public:
  RemoteStream(std::string host, int port, std::string remote_name,
               llm::GenerationRequest request,
               RemoteModel::TransportOptions transport)
      : host_(std::move(host)),
        port_(port),
        remote_name_(std::move(remote_name)),
        request_(std::move(request)),
        transport_(transport) {}

  StatusOr<llm::Chunk> NextChunk(size_t max_tokens) override {
    if (max_tokens == 0) {
      return Status::InvalidArgument("NextChunk requires max_tokens > 0");
    }
    if (!error_.ok()) return error_;  // sticky, like every stream failure
    if (finished_) {
      llm::Chunk chunk;
      chunk.done = true;
      chunk.stop_reason = stop_reason_;
      return chunk;
    }
    Stopwatch wire_watch;
    if (auto status = FillBuffer(); !status.ok()) {
      error_ = status;
      return status;
    }
    const double wire_seconds = wire_watch.ElapsedSeconds();
    llm::Chunk chunk = ServeFromBuffer(max_tokens);
    // Real wire wait plus the *simulated* latency the peer reported for the
    // frames consumed so far — remote congestion (injected spikes, backoff)
    // lands in this chunk's cost, where the local hedging layer can see it.
    chunk.extra_seconds += wire_seconds + pending_remote_seconds_;
    pending_remote_seconds_ = 0.0;
    return chunk;
  }

  const std::string& text() const override { return text_; }
  size_t tokens_generated() const override { return emitted_; }
  bool finished() const override { return finished_; }
  llm::StopReason stop_reason() const override { return stop_reason_; }

 private:
  // Pumps the wire until at least one word is buffered or the stream's
  // terminal event has been seen.
  Status FillBuffer() {
    while (words_.size() == position_ && !wire_done_) {
      if (wire_ == nullptr) {
        LLMMS_RETURN_NOT_OK(OpenWire());
        continue;  // the head may have carried decoded bytes already
      }
      LLMMS_ASSIGN_OR_RETURN(std::string bytes, wire_->Read());
      if (bytes.empty() && wire_->exhausted()) {
        // The peer closed without the typed terminal event: a death
        // mid-stream, distinct from a clean end of generation.
        return Status::IOError(
            "remote stream from '" + remote_name_ +
            "' closed before its terminal event");
      }
      for (auto& event : decoder_.Feed(bytes)) {
        LLMMS_RETURN_NOT_OK(ConsumeEvent(event));
      }
    }
    return Status::OK();
  }

  // Opens the response, retrying transport failures. A reply that is not an
  // SSE stream — an error, or a one-shot JSON completion — is read whole
  // inside the retry, so a reset during its body is retried too.
  Status OpenWire() {
    const std::string body =
        GenerateRequestBody(remote_name_, request_).Dump();
    std::string payload;
    auto opened = WithTransportRetries(
        transport_, [&]() -> StatusOr<std::unique_ptr<HttpClientStream>> {
          LLMMS_ASSIGN_OR_RETURN(
              auto stream,
              HttpClientStream::Open(host_, port_, "POST",
                                     "/api/generate?stream=1", body,
                                     "application/json",
                                     transport_.timeout_seconds,
                                     /*accept_event_stream=*/true));
          const int status = stream->head().status;
          // A 5xx is a transport-class failure: the node answered but could
          // not serve; surface it retryably.
          if (status >= 500) {
            return Status::IOError("remote generate failed with HTTP " +
                                   std::to_string(status));
          }
          if (status != 200 || !IsEventStream(stream->head())) {
            LLMMS_ASSIGN_OR_RETURN(payload, stream->ReadToEnd());
          }
          return stream;
        });
    LLMMS_RETURN_NOT_OK(opened.status());
    wire_ = std::move(opened).value();

    if (wire_->head().status != 200) {
      return Status::Internal("remote generate failed with HTTP " +
                              std::to_string(wire_->head().status) + ": " +
                              payload);
    }
    if (!IsEventStream(wire_->head())) {
      LLMMS_ASSIGN_OR_RETURN(Json result, Json::Parse(payload));
      if (!result["ok"].AsBool()) {
        return Status::Internal("remote generate error: " +
                                result["error"]["message"].AsString());
      }
      words_ = SplitWhitespace(result["text"].AsString());
      remote_stop_reason_ = ParseStopReason(result);
      wire_done_ = true;
    }
    return Status::OK();
  }

  Status ConsumeEvent(const SseEvent& event) {
    if (wire_done_) return Status::OK();  // ignore frames after terminal
    if (event.event == "chunk") {
      LLMMS_ASSIGN_OR_RETURN(Json data, Json::Parse(event.data));
      for (auto& word : SplitWhitespace(data["text"].AsString())) {
        words_.push_back(std::move(word));
      }
      // Optional field; pre-latency-reporting peers simply omit it.
      pending_remote_seconds_ += data["extra_seconds"].AsDouble();
      return Status::OK();
    }
    if (event.event == "done") {
      LLMMS_ASSIGN_OR_RETURN(Json data, Json::Parse(event.data));
      remote_stop_reason_ = ParseStopReason(data);
      wire_done_ = true;
      return Status::OK();
    }
    if (event.event == "error") {
      auto data = Json::Parse(event.data);
      std::string message = "remote generate error";
      if (data.ok()) {
        message += ": " + (*data)["error"]["message"].AsString();
      }
      return Status::Internal(message);
    }
    return Status::OK();  // unknown frame types are ignored
  }

  // Serves up to max_tokens buffered words as one chunk; the stream
  // finishes once the wire has delivered everything and it is all served.
  llm::Chunk ServeFromBuffer(size_t max_tokens) {
    llm::Chunk chunk;
    const size_t n = std::min(max_tokens, words_.size() - position_);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) chunk.text += ' ';
      chunk.text += words_[position_ + i];
    }
    position_ += n;
    emitted_ += n;
    chunk.num_tokens = n;
    if (!chunk.text.empty()) {
      if (!text_.empty()) text_ += ' ';
      text_ += chunk.text;
    }
    if (wire_done_ && position_ >= words_.size()) {
      finished_ = true;
      stop_reason_ = remote_stop_reason_;
    }
    chunk.done = finished_;
    chunk.stop_reason = finished_ ? stop_reason_ : llm::StopReason::kLength;
    return chunk;
  }

  std::string host_;
  int port_;
  std::string remote_name_;
  llm::GenerationRequest request_;
  RemoteModel::TransportOptions transport_;

  std::unique_ptr<HttpClientStream> wire_;
  SseDecoder decoder_;
  bool wire_done_ = false;
  // Simulated seconds reported by the peer for not-yet-served frames.
  double pending_remote_seconds_ = 0.0;
  Status error_ = Status::OK();

  std::vector<std::string> words_;
  size_t position_ = 0;  // words_ served so far
  llm::StopReason remote_stop_reason_ = llm::StopReason::kStop;
  size_t emitted_ = 0;
  bool finished_ = false;
  llm::StopReason stop_reason_ = llm::StopReason::kLength;
  std::string text_;
};

}  // namespace

RemoteModel::RemoteModel(std::string host, int port, std::string remote_name,
                         std::string local_name, double tokens_per_second,
                         size_t context_window, TransportOptions transport)
    : host_(std::move(host)),
      port_(port),
      remote_name_(std::move(remote_name)),
      local_name_(std::move(local_name)),
      tokens_per_second_(tokens_per_second),
      context_window_(context_window),
      transport_(transport) {}

StatusOr<std::shared_ptr<RemoteModel>> RemoteModel::Connect(
    const std::string& host, int port, const std::string& remote_name,
    const std::string& local_name) {
  return Connect(host, port, remote_name, local_name, TransportOptions());
}

StatusOr<std::shared_ptr<RemoteModel>> RemoteModel::Connect(
    const std::string& host, int port, const std::string& remote_name,
    const std::string& local_name, const TransportOptions& transport) {
  Json body = Json::MakeObject();
  body.Set("model", remote_name);
  LLMMS_ASSIGN_OR_RETURN(
      auto response,
      WithTransportRetries(transport, [&]() {
        return HttpFetch(host, port, "POST", "/api/model_info", body.Dump(),
                         "application/json", transport.timeout_seconds);
      }));
  LLMMS_ASSIGN_OR_RETURN(Json info, Json::Parse(response.body));
  if (response.status != 200 || !info["ok"].AsBool()) {
    return Status::NotFound("remote node does not serve model '" +
                            remote_name + "'");
  }
  std::string name = local_name;
  if (name.empty()) {
    name = remote_name + "@" + host + ":" + std::to_string(port);
  }
  return std::shared_ptr<RemoteModel>(new RemoteModel(
      host, port, remote_name, std::move(name),
      info["tokens_per_second"].AsDouble(),
      static_cast<size_t>(info["context_window"].AsInt()), transport));
}

StatusOr<std::unique_ptr<llm::GenerationStream>> RemoteModel::StartGeneration(
    const llm::GenerationRequest& request) const {
  if (request.prompt.empty()) {
    return Status::InvalidArgument("prompt must not be empty");
  }
  return std::unique_ptr<llm::GenerationStream>(std::make_unique<RemoteStream>(
      host_, port_, remote_name_, request, transport_));
}

}  // namespace llmms::app
