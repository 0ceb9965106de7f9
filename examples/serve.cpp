// Runs LLM-MS as an HTTP daemon — the full production topology of §7.1:
// the platform behind a real socket, serving JSON endpoints and SSE streams.
//
//   ./build/examples/serve [port] [state.json]   # default port 8080
//
// With a state file, breaker state, hedge latency sketches and the reward
// feed survive restarts (llm::StateStore): kill the daemon, start it again
// with the same file, and the node resumes with warm hedge percentiles, its
// learned reward means and any tripped circuits still quarantined.
//
// Then, from another terminal:
//   curl -s localhost:8080/api/health
//   curl -s localhost:8080/api/models
//   Q='{"session":"s1","query":"<a question>","algorithm":"oua"}'
//   curl -s -X POST localhost:8080/api/query -d "$Q"
//   curl -sN -X POST 'localhost:8080/api/query?stream=1' -d "$Q"  # SSE
//
// The binary prints a few sample questions the synthetic models can answer.

#include <csignal>
#include <cstring>
#include <iostream>

#include "example_common.h"
#include "llmms/app/http_server.h"
#include "llmms/app/service.h"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  using namespace llmms;
  int port = 8080;
  if (argc > 1) port = std::atoi(argv[1]);

  auto platform = examples::MakePlatform(20);
  app::ApiService service(platform.engine.get());
  if (argc > 2) {
    if (auto status = service.EnableStatePersistence(argv[2]); !status.ok()) {
      std::cerr << "cannot enable state persistence: " << status << "\n";
      return 1;
    }
    std::cout << "durable node state: " << argv[2] << "\n";
  }
  app::HttpServer server(&service);
  if (auto status = server.Start(port); !status.ok()) {
    std::cerr << "cannot start server: " << status << "\n";
    return 1;
  }

  std::cout << "LLM-MS listening on http://127.0.0.1:" << server.port()
            << "\n\nTry asking (the synthetic world knows these):\n";
  for (size_t i = 0; i < 3; ++i) {
    std::cout << "  " << platform.dataset[i * 17].question << "\n";
  }
  std::cout << "\nEndpoints: /api/query /api/upload /api/generate "
               "/api/models /api/model_info /api/sessions /api/hardware "
               "/api/health\nCtrl-C to stop." << std::endl;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    struct timespec ts {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  std::cout << "\nshutting down...\n";
  server.Stop();
  return 0;
}
