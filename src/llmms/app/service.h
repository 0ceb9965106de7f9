#ifndef LLMMS_APP_SERVICE_H_
#define LLMMS_APP_SERVICE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "llmms/common/deadline.h"
#include "llmms/common/json.h"
#include "llmms/core/search_engine.h"

namespace llmms::llm {
class CircuitBreaker;
class StateStore;
}  // namespace llmms::llm

namespace llmms::app {

// Receives one JSON event per streamed token chunk / orchestration decision
// (the SSE payloads of §7.2 step 7).
using StreamCallback = std::function<void(const Json& event)>;

// The application layer's REST contract, process-local: JSON in, JSON out,
// endpoint strings matching the Flask blueprints (§7.1). Every response is
// an object with "ok": bool; failures carry {"error": {"code", "message"}}.
//
// Endpoints:
//   POST /api/query    {session, query, algorithm?, budget?, alpha?, beta?,
//                       models?[], single_model?, use_rag?, use_history?}
//   POST /api/upload   {session, document_id, text}
//   POST /api/generate {model, prompt, max_tokens?, seed?, chunk_tokens?}
//                       (federation: raw single-model completion, §9.5; with
//                       ?stream=1 the HTTP layer streams it as SSE chunks —
//                       DESIGN.md §9)
//   GET  /api/models   {}
//   POST /api/model_info {model}
//   GET  /api/sessions {}
//   POST /api/session/end {session}
//   GET  /api/health   {}  (per-model circuit state + failure counters;
//                       "status" is "degraded" while any circuit is open)
//   GET  /api/hardware {}
class ApiService {
 public:
  // `engine` must outlive the service.
  explicit ApiService(core::SearchEngine* engine);
  ~ApiService();

  // Dispatches by endpoint. Unknown endpoints return a NotFound error
  // payload. `stream` (optional) receives token/score/decision events during
  // /api/query. `context` (optional) carries the request's wall-clock
  // deadline and cancellation flag; the generation-driving endpoints thread
  // it into the engine so an expired or cancelled request unwinds with a
  // typed DeadlineExceeded / Cancelled error payload instead of running to
  // completion (DESIGN.md §12).
  Json Handle(const std::string& endpoint, const Json& request,
              const StreamCallback& stream = StreamCallback(),
              const std::shared_ptr<RequestContext>& context = nullptr);

  Json HandleQuery(const Json& request, const StreamCallback& stream,
                   const std::shared_ptr<RequestContext>& context = nullptr);
  Json HandleUpload(const Json& request);
  Json HandleGenerate(const Json& request,
                      const std::shared_ptr<RequestContext>& context = nullptr);
  // Streaming twin of HandleGenerate, on the same runtime generate loop:
  // emits one {"text", "tokens"} event per generated chunk through `stream`
  // and returns the terminal accounting ({"ok", "done_reason", "tokens",
  // "simulated_seconds"}) — or an error payload, possibly after chunks have
  // already been emitted (a backend dying mid-generation). The HTTP layer's
  // SSE responder maps the return value to the stream's terminal `done` /
  // `error` event.
  Json HandleGenerateStream(const Json& request, const StreamCallback& stream,
                            const std::shared_ptr<RequestContext>& context =
                                nullptr);
  Json HandleModelInfo(const Json& request);
  Json HandleModels();
  Json HandleSessions();
  Json HandleEndSession(const Json& request);
  Json HandleHealth();
  Json HandleHardware();

  // Whether this node offers the streaming /api/generate wire protocol
  // (also reported by /api/model_info as "streaming"). Disabled, the node
  // answers ?stream=1 with the one-shot JSON reply — it stands in for a
  // pre-streaming peer in tests and demos.
  void set_streaming_generate(bool enabled) { streaming_generate_ = enabled; }
  bool streaming_generate() const { return streaming_generate_; }

  // Durable node state (llm::StateStore): loads saved state from `path` (a
  // missing file is a clean first run; a corrupt one cold-starts — see
  // StateStore::Load), restores breaker snapshots into every currently
  // loaded model that has a breaker (unwrapping a HedgedModel to its
  // primary replica), latency sketches into every hedged group — so the
  // first post-restart request hedges with real percentiles — and the
  // engine's reward feed; then re-saves the file on every breaker
  // transition and at service shutdown. Call AFTER the models are loaded;
  // models loaded later are not attached.
  Status EnableStatePersistence(const std::string& path);
  llm::StateStore* state_store() const { return state_store_.get(); }

  // Serving-layer stats injected into /api/health as the "server" block
  // (queue depth, in-flight gauge, shed counters — see HttpServer). The
  // provider must either outlive the service or share ownership of the
  // state it reads (HttpServer hands a closure over a shared_ptr, so a
  // stopped/destroyed server leaves the last counters readable rather than
  // a dangling pointer). Thread-safe; pass nullptr to detach.
  using ServerStatsFn = std::function<Json()>;
  void SetServerStats(ServerStatsFn fn);

 private:
  // The breaker of `model`, unwrapping the hedging decorator, or nullptr.
  static llm::CircuitBreaker* BreakerOf(
      const std::shared_ptr<llm::LanguageModel>& model);

  core::SearchEngine* engine_;
  bool streaming_generate_ = true;
  std::unique_ptr<llm::StateStore> state_store_;
  mutable std::mutex stats_mu_;  // guards server_stats_ (set vs. health)
  ServerStatsFn server_stats_;
};

// Builds the error payload used by every endpoint.
Json ErrorResponse(const Status& status);

}  // namespace llmms::app

#endif  // LLMMS_APP_SERVICE_H_
