#ifndef LLMMS_APP_REMOTE_MODEL_H_
#define LLMMS_APP_REMOTE_MODEL_H_

#include <memory>
#include <string>

#include "llmms/llm/model.h"

namespace llmms::app {

// Federated model integration (§9.5): a LanguageModel adapter for a model
// hosted behind another LLM-MS node's HTTP API. The remote model stays on
// its own machine; this node registers the adapter like any local model and
// the orchestrators never know the difference — plug-and-play across trust
// boundaries.
//
// Every generation asks the peer for the streaming variant of
// /api/generate (DESIGN.md §9): chunks surface here the moment the peer
// emits them — true time-to-first-token — and the real wire latency of
// every chunk is charged to Chunk::extra_seconds. That latency feeds the
// simulated-time accounting the orchestrators use for budget reallocation,
// so a slow federation link changes orchestration decisions, exactly as
// §7.2's mid-generation scoring intends. A peer that answers with plain
// JSON instead (a pre-streaming build) is recognised by the content type
// and its one-shot completion is served from a local buffer. Token
// accounting and stop reasons are identical either way.
class RemoteModel final : public llm::LanguageModel {
 public:
  // Network-level resilience for the federation link. Transport errors
  // (connection refused/reset, timeouts, HTTP 5xx) are retried up to
  // `max_retries` additional attempts; protocol-level rejections (the node
  // answers but does not serve the model) are permanent and never retried.
  // Opening the generation — and reading a one-shot JSON reply whole — is
  // retried; a failure once SSE frames flow never is, since the stream's
  // position would be lost. It surfaces as a stream error for
  // llm::ResilientModel and the orchestrators to quarantine.
  struct TransportOptions {
    size_t max_retries = 2;
    // Socket deadline, real seconds, bounding every individual wire wait —
    // a per-chunk deadline. 0 = block indefinitely.
    double timeout_seconds = 5.0;
  };

  // Connects to `host:port`, fetches the remote model's metadata via
  // /api/model_info, and returns the adapter. Fails if the node is
  // unreachable (after retries) or does not serve `remote_name`.
  // `local_name` is how this node addresses the model; empty = use
  // "<remote_name>@<host>:<port>".
  static StatusOr<std::shared_ptr<RemoteModel>> Connect(
      const std::string& host, int port, const std::string& remote_name,
      const std::string& local_name, const TransportOptions& transport);
  static StatusOr<std::shared_ptr<RemoteModel>> Connect(
      const std::string& host, int port, const std::string& remote_name,
      const std::string& local_name = "");

  const std::string& name() const override { return local_name_; }
  uint64_t memory_mb() const override {
    // The weights live on the remote node; locally this adapter is free.
    return 0;
  }
  double tokens_per_second() const override { return tokens_per_second_; }
  size_t context_window() const override { return context_window_; }

  StatusOr<std::unique_ptr<llm::GenerationStream>> StartGeneration(
      const llm::GenerationRequest& request) const override;

  const std::string& remote_name() const { return remote_name_; }

  const TransportOptions& transport() const { return transport_; }

 private:
  RemoteModel(std::string host, int port, std::string remote_name,
              std::string local_name, double tokens_per_second,
              size_t context_window, TransportOptions transport);

  std::string host_;
  int port_;
  std::string remote_name_;
  std::string local_name_;
  double tokens_per_second_;
  size_t context_window_;
  TransportOptions transport_;
};

}  // namespace llmms::app

#endif  // LLMMS_APP_REMOTE_MODEL_H_
