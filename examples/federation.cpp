// Federation demo (§9.5 + DESIGN.md §9): two in-process LLM-MS nodes, one
// hosting the models behind the HTTP API, the other registering a
// RemoteModel adapter and orchestrating the federated model next to its
// local ones — over a real loopback socket.
//
//   ./build/examples/federation
//
// The demo drives both generation paths of the wire protocol:
//   1. streaming — chunks cross the wire as SSE frames the moment they are
//      produced. The printed TTFT and per-chunk wire latencies are real
//      wall-clock measurements recorded into Chunk::extra_seconds.
//   2. one-shot reply — the same peer with streaming_generate disabled
//      behaves like a pre-streaming build: it answers the stream request
//      with the whole completion as plain JSON, and the adapter serves it
//      locally — identical tokens and stop reason, but nothing is readable
//      before everything is.
//
// It closes with a chaos scenario (DESIGN.md §10): a latency-spiky local
// model hedged by a clean replica of itself rented from node B. Spikes on
// the local stream fire hedge races; the federated replica catches up over
// HTTP and is adopted, and the wasted loser work is printed as the
// documented hedge overhead.

#include <cstdio>
#include <iostream>

#include "example_common.h"
#include "llmms/app/http_server.h"
#include "llmms/app/remote_model.h"
#include "llmms/app/service.h"
#include "llmms/core/oua.h"
#include "llmms/llm/hedged_model.h"

int main() {
  using namespace llmms;

  // --- Node B: the remote host. Its three models serve over HTTP. ---
  auto node_b = examples::MakePlatform(12);
  app::ApiService service_b(node_b.engine.get());
  app::HttpServer server_b(&service_b);
  if (auto status = server_b.Start(0); !status.ok()) {
    std::cerr << "cannot start node B: " << status << "\n";
    return 1;
  }
  std::cout << "node B serving " << node_b.model_names.size()
            << " models on http://127.0.0.1:" << server_b.port() << "\n\n";

  // --- Node A: a local platform that federates one of node B's models. ---
  auto node_a = examples::MakePlatform(12);
  auto remote = app::RemoteModel::Connect("127.0.0.1", server_b.port(),
                                          "mistral:7b", "fed-mistral");
  if (!remote.ok()) {
    std::cerr << "connect failed: " << remote.status() << "\n";
    return 1;
  }
  std::cout << "connected: " << (*remote)->name() << "\n\n";

  // --- 1. Stream a generation chunk-for-chunk across the wire. ---
  const std::string prompt = node_b.dataset[0].question;
  std::cout << "prompt: " << prompt << "\n\nstreaming generation:\n";
  llm::GenerationRequest request;
  request.prompt = prompt;
  auto stream = (*remote)->StartGeneration(request);
  if (!stream.ok()) {
    std::cerr << "start failed: " << stream.status() << "\n";
    return 1;
  }
  size_t chunk_index = 0;
  while (!(*stream)->finished()) {
    auto chunk = (*stream)->NextChunk(8);
    if (!chunk.ok()) {
      std::cerr << "stream failed: " << chunk.status() << "\n";
      return 1;
    }
    if (chunk->num_tokens == 0) continue;
    // extra_seconds carries the real wire wait for this chunk; for the
    // first chunk that is the time-to-first-token, connection included.
    std::printf("  chunk %zu  %5zu tokens  wire %.3f ms%s\n", chunk_index,
                chunk->num_tokens, chunk->extra_seconds * 1e3,
                chunk_index == 0 ? "  <- time-to-first-token" : "");
    ++chunk_index;
  }
  std::cout << "  text: " << (*stream)->text() << "\n\n";

  // --- 2. The same request against a pre-streaming peer. ---
  service_b.set_streaming_generate(false);
  auto oneshot = (*remote)->Generate(request);
  if (!oneshot.ok()) {
    std::cerr << "one-shot generation failed: " << oneshot.status() << "\n";
    return 1;
  }
  std::cout << "peer downgraded to pre-streaming; one-shot JSON reply: "
            << oneshot->num_tokens << " tokens, same text: "
            << (oneshot->text == (*stream)->text() ? "yes" : "NO") << "\n\n";
  service_b.set_streaming_generate(true);

  // --- 3. The federated model joins node A's orchestration. ---
  if (auto status = node_a.registry->Register(*remote); !status.ok()) {
    std::cerr << "register failed: " << status << "\n";
    return 1;
  }
  if (auto status = node_a.runtime->LoadModel("fed-mistral"); !status.ok()) {
    std::cerr << "load failed: " << status << "\n";
    return 1;
  }
  core::OuaOrchestrator orchestrator(
      node_a.runtime.get(), {"llama3:8b", "qwen2:7b", "fed-mistral"},
      node_a.embedder, {});
  auto result = orchestrator.Run(prompt);
  if (!result.ok()) {
    std::cerr << "orchestration failed: " << result.status() << "\n";
    return 1;
  }
  std::cout << "orchestrated across 2 local + 1 federated model:\n";
  for (const auto& [name, outcome] : result->per_model) {
    std::printf("  %-12s %4zu tokens  score %.3f%s\n", name.c_str(),
                outcome.tokens, outcome.final_score,
                name == result->best_model ? "  <- selected" : "");
  }
  std::cout << "answer: " << result->answer << "\n\n";

  // --- 4. Hedged generation: spiky local primary, federated backup. ---
  // The local mistral clone suffers injected 5-second latency spikes; a
  // clean replica of the same model is rented from node B. Once the local
  // history is warm, a spike crossing its own median fires the race and
  // the peer's stream is adopted mid-generation — byte-identical text,
  // because both nodes share the synthetic world.
  llm::ModelProfile mistral_profile;
  for (const auto& profile : llm::DefaultProfiles()) {
    if (profile.name == "mistral:7b") mistral_profile = profile;
  }
  llm::FaultConfig spikes;
  spikes.seed = 0xCAFE;
  spikes.latency_spike_prob = 0.3;
  spikes.latency_spike_seconds = 5.0;
  auto spiky = std::make_shared<llm::ResilientModel>(
      std::make_shared<llm::FaultyModel>(
          std::make_shared<llm::SyntheticModel>(mistral_profile,
                                                node_a.knowledge),
          spikes),
      llm::ResilienceConfig{});
  auto rented = app::RemoteModel::Connect("127.0.0.1", server_b.port(),
                                          "mistral:7b");
  if (!rented.ok()) {
    std::cerr << "backup connect failed: " << rented.status() << "\n";
    return 1;
  }
  llm::HedgeConfig hedge;
  hedge.percentile = 0.5;
  hedge.min_samples = 4;
  llm::HedgedModel hedged(
      spiky, std::vector<std::shared_ptr<llm::LanguageModel>>{*rented}, hedge);

  std::cout << "hedged generation (spiky local primary, federated backup):\n";
  auto hedged_stream = hedged.StartGeneration(request);
  if (!hedged_stream.ok()) {
    std::cerr << "hedged start failed: " << hedged_stream.status() << "\n";
    return 1;
  }
  chunk_index = 0;
  while (!(*hedged_stream)->finished()) {
    auto chunk = (*hedged_stream)->NextChunk(8);
    if (!chunk.ok()) {
      std::cerr << "hedged stream failed: " << chunk.status() << "\n";
      return 1;
    }
    if (chunk->num_tokens == 0) continue;
    std::printf("  chunk %zu  %5zu tokens  wait %7.3f s  %s\n", chunk_index,
                chunk->num_tokens, chunk->extra_seconds,
                llm::HedgeOutcomeToString(chunk->hedge));
    ++chunk_index;
  }
  std::cout << "  text matches the peer's canonical answer: "
            << ((*hedged_stream)->text() == (*stream)->text() ? "yes" : "NO")
            << "\n";
  const auto hedge_stats = hedged.stats();
  std::printf(
      "  hedges: %zu launched, %zu won, %zu lost, %zu failovers\n"
      "  wasted by cancelled losers (never charged): %zu tokens, %.3f s\n",
      hedge_stats.hedges_launched, hedge_stats.hedges_won,
      hedge_stats.hedges_lost, hedge_stats.failovers,
      hedge_stats.wasted_tokens, hedge_stats.wasted_seconds);
  for (const auto& row : hedged.LatencySnapshot()) {
    std::printf("  %-28s %4zu samples  p50 %6.3f s  p95 %6.3f s\n",
                row.model.c_str(), row.samples, row.p50, row.p95);
  }

  server_b.Stop();
  return 0;
}
