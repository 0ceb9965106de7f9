// The repository benchmark: seeded workloads driven through the HTTP front
// door of a full in-process stack (dataset, KnowledgeBase, synthetic models,
// ModelRuntime, SearchEngine, ApiService, default-options HttpServer).
//
// Each workload runs in a fresh world, in a child process of its own. The
// untraced pass produces the end-to-end metrics. The traced pass rebuilds
// the same world with timing decorators (taps.h) around the public seams
// and produces per-layer metrics. Load comes from the same process as the
// server: at most four client threads and never more than four open
// connections.
//
//   bench_serving [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--out FILE] [--spec BENCHMARK.json]
//
// Without --trace both passes run: the untraced one for S seconds, the
// traced one for S/2. --trace 0 runs the untraced pass only; --trace 1 runs
// the traced pass plus an untraced reference pass of the same length for
// trace.qps_ratio. Every metric is printed as `workload metric value unit`;
// the last line of stdout is a JSON object {correct, attempted, failed,
// metrics} holding the metrics the spec file names for the passes that ran.
// Any failed output check makes the exit code 1.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "llmms/app/http_server.h"
#include "llmms/app/service.h"
#include "llmms/app/sse.h"
#include "llmms/common/json.h"
#include "llmms/common/rng.h"
#include "llmms/core/scoring.h"
#include "llmms/core/search_engine.h"
#include "llmms/embedding/embedding_cache.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/hardware/placement.h"
#include "llmms/llm/model_profile.h"
#include "llmms/llm/registry.h"
#include "llmms/llm/runtime.h"
#include "llmms/llm/synthetic_model.h"
#include "llmms/session/session_store.h"
#include "llmms/vectordb/database.h"
#include "taps.h"

namespace llmms::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kQuestionsPerDomain = 50;  // 300 questions
constexpr int64_t kTokenBudget = 64;
constexpr size_t kEmbeddingCacheEntries = 4096;
constexpr size_t kMaxClients = 4;
constexpr size_t kReplayAnswers = 16;
// Set-up is timed over at least this many builds and this long in all,
// half before the pass and half after it, and the median reported. A world
// without documents builds in under 2 ms, and a burst of host contention
// slows every part of a build about 1.5x for up to a few seconds; spreading
// the builds over the run keeps one burst from deciding the median.
constexpr size_t kSetupRepeats = 6;
constexpr double kSetupSeconds = 3.0;
constexpr size_t kSessionPool = 64;
constexpr double kHttpTimeoutSeconds = 60.0;
// Record slots per second of pass, per client: several times the rate any
// workload reaches on 4 cores. A client that runs out stops, and the run
// fails its checks.
constexpr double kQueriesPerClientSecond = 5000.0;
// Timing statistics are taken per group of this many consecutive queries
// and reported as the median over groups, so a few seconds of a slowed host
// move a run's figure less than a whole-window statistic would. 1000 keeps
// ten samples beyond each group's 99th percentile.
constexpr size_t kGroupSize = 1000;
// The open-loop generator counts as fallen behind when its 99th-percentile
// send delay exceeds this.
constexpr double kMaxLateP99Ms = 50.0;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

Clock::duration Duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// ---------------------------------------------------------------------------
// Workloads. BENCHMARK.json records why each exists; in short:
//   oua-saturate  the paper's default path at saturation, where every
//                 StartGeneration runs under the runtime's one lock;
//   stream-light  light open-loop load over all four orchestrators and the
//                 SSE writer: per-request cost and TTFT without contention;
//   mab-batched   scoring-heavy MAB/hybrid queries through the
//                 BatchScheduler, the only workload where it grants chunks;
//   rag-ingest    retrieval beside HNSW inserts into the same collections.

struct Workload {
  std::string name;
  size_t query_clients = 0;  // closed loop; 0 = open loop
  double open_rate = 0.0;    // open loop: arrivals per second
  bool stream = false;       // POST /api/query?stream=1
  std::vector<std::string> algorithms;  // rotated request by request
  bool history = true;
  bool rag = false;
  // Closed loop: a client starts a new session (conversation) after this
  // many queries; 0 keeps one session per client for the whole run.
  size_t turns_per_session = 0;
  size_t scheduler_replicas = 0;  // 0 = continuous batching off
  size_t docs_per_session = 0;    // RAG preload of each client's session
  // One more client uploads documents into the query clients' sessions, on
  // a seeded Poisson schedule at this rate (documents per second), so the
  // collections reach the same size in every run; 0 = no uploads.
  double upload_rate = 0.0;
};

const std::vector<Workload>& Workloads() {
  static const auto* kWorkloads = new std::vector<Workload>{
      {.name = "oua-saturate",
       .query_clients = 4,
       .algorithms = {"oua"},
       .turns_per_session = 32},
      {.name = "stream-light",
       .open_rate = 200.0,
       .stream = true,
       .algorithms = {"single", "oua", "mab", "hybrid"},
       .history = false},
      {.name = "mab-batched",
       .query_clients = 4,
       .algorithms = {"mab", "hybrid"},
       .turns_per_session = 32,
       .scheduler_replicas = 2},
      // Sessions own the uploaded documents, so they last the whole run.
      {.name = "rag-ingest",
       .query_clients = 3,
       .algorithms = {"oua"},
       .rag = true,
       .docs_per_session = 300,
       .upload_rate = 50.0},
  };
  return *kWorkloads;
}

std::string SessionName(const Workload& w, size_t client,
                        size_t conversation) {
  return w.name + "-c" + std::to_string(client) + "-" +
         std::to_string(conversation);
}

// Seeded "uploaded document" about `item`: a title naming the question,
// filler prose, and the golden answer at a seeded position.
std::string MakeDocument(const llm::QaItem& item, Rng* rng) {
  static const char* const kFiller[] = {
      "The committee reviewed the records collected over several seasons.",
      "Further background appears in the appendix of this report.",
      "Earlier drafts of this note circulated among the field teams.",
      "Observers compared the archival sources with recent measurements.",
      "Several of the original sources were later digitised for review.",
      "The summary below was prepared for a general audience.",
      "Budget and staffing questions are covered in a separate memo.",
      "Readers should consult the cited works for complete details.",
      "A second survey repeated the main observations a year later.",
      "Minor discrepancies between the sources are noted in the margins.",
  };
  constexpr int64_t kFillerCount = sizeof(kFiller) / sizeof(kFiller[0]);
  std::vector<std::string> sentences;
  const int64_t filler = rng->UniformInt(6, 10);
  for (int64_t i = 0; i < filler; ++i) {
    sentences.push_back(kFiller[rng->UniformInt(0, kFillerCount - 1)]);
  }
  const auto at = rng->UniformInt(0, static_cast<int64_t>(sentences.size()));
  sentences.insert(sentences.begin() + at, item.golden + ".");
  std::string text = "Briefing: " + item.question;
  for (const auto& s : sentences) text += " " + s;
  return text;
}

// A seeded Poisson schedule over [0, span), conditioned on its count:
// sorted uniform due times.
std::vector<double> PoissonSchedule(Rng* rng, double rate, double span) {
  std::vector<double> due(static_cast<size_t>(std::llround(rate * span)));
  for (auto& t : due) t = rng->Uniform(0.0, span);
  std::sort(due.begin(), due.end());
  return due;
}

uint32_t PickItem(Rng* rng, const std::vector<llm::QaItem>& dataset) {
  return static_cast<uint32_t>(
      rng->UniformInt(0, static_cast<int64_t>(dataset.size()) - 1));
}

// ---------------------------------------------------------------------------
// World

struct World {
  std::vector<llm::QaItem> dataset;
  std::shared_ptr<embedding::EmbeddingCache> cache;
  std::unique_ptr<llm::ModelRuntime> runtime;
  std::shared_ptr<vectordb::VectorDatabase> db;
  std::unique_ptr<core::SearchEngine> engine;
  std::unique_ptr<app::ApiService> service;
  std::set<std::string> loaded_models;
  size_t preloaded_chunks = 0;
  // Declared last: destroyed (and drained) before what it serves.
  std::unique_ptr<app::HttpServer> server;
};

// Builds the workload's world; with a recorder, every seam is tapped.
StatusOr<std::unique_ptr<World>> MakeWorld(const Workload& w, uint64_t seed,
                                           SpanRecorder* recorder) {
  auto world = std::make_unique<World>();
  eval::DatasetOptions dataset_options;
  dataset_options.questions_per_domain = kQuestionsPerDomain;
  world->dataset = eval::GenerateDataset(dataset_options);

  std::shared_ptr<const embedding::Embedder> compute =
      std::make_shared<embedding::HashEmbedder>();
  if (recorder != nullptr) {
    compute = std::make_shared<TimedEmbedder>(compute, recorder,
                                              Layer::kEmbedCompute);
  }
  world->cache = std::make_shared<embedding::EmbeddingCache>(
      compute, kEmbeddingCacheEntries);
  std::shared_ptr<const embedding::Embedder> engine_embedder = world->cache;
  std::shared_ptr<const embedding::Embedder> knowledge_embedder = world->cache;
  if (recorder != nullptr) {
    engine_embedder = std::make_shared<TimedEmbedder>(world->cache, recorder,
                                                      Layer::kEmbedEngine);
    knowledge_embedder = std::make_shared<TimedEmbedder>(
        world->cache, recorder, Layer::kEmbedKnowledge);
  }

  auto knowledge = std::make_shared<llm::KnowledgeBase>(knowledge_embedder);
  LLMMS_RETURN_NOT_OK(knowledge->AddAll(world->dataset));
  auto registry = std::make_shared<llm::ModelRegistry>();
  std::vector<std::string> names;
  for (const auto& profile : llm::DefaultProfiles()) {
    std::shared_ptr<llm::LanguageModel> model =
        std::make_shared<llm::SyntheticModel>(profile, knowledge);
    if (recorder != nullptr) {
      model = std::make_shared<TimedModel>(model, recorder);
    }
    names.push_back(profile.name);
    LLMMS_RETURN_NOT_OK(registry->Register(model));
  }
  hardware::DeviceSpec v100;
  v100.name = "tesla-v100-0";
  v100.kind = hardware::DeviceKind::kGpu;
  v100.memory_mb = 32 * 1024;
  auto hardware = std::make_shared<hardware::HardwareManager>(
      std::vector<hardware::DeviceSpec>{v100});
  world->runtime =
      std::make_unique<llm::ModelRuntime>(registry, hardware, /*threads=*/4);
  for (const auto& name : names) {
    LLMMS_RETURN_NOT_OK(world->runtime->LoadModel(name));
  }
  for (const auto& name : world->runtime->LoadedModels()) {
    world->loaded_models.insert(name);
  }
  if (w.scheduler_replicas > 0) {
    llm::SchedulerConfig scheduler;
    scheduler.replicas_per_model = w.scheduler_replicas;
    world->runtime->EnableScheduler(scheduler);
  }

  world->db = std::make_shared<vectordb::VectorDatabase>();
  world->engine = std::make_unique<core::SearchEngine>(
      world->runtime.get(), engine_embedder, world->db,
      std::make_shared<session::SessionStore>());
  world->service = std::make_unique<app::ApiService>(world->engine.get());
  world->server = std::make_unique<app::HttpServer>(world->service.get(),
                                                    app::HttpServerOptions());
  LLMMS_RETURN_NOT_OK(world->server->Start(0));

  // RAG preload through the service's upload endpoint, in process: each
  // client's session starts with one document per dataset item, in seeded
  // order.
  for (size_t c = 0; c < w.query_clients && w.docs_per_session > 0; ++c) {
    Rng rng(MixHash64(seed * 0x9e37u + 101 + c));
    std::vector<size_t> order(world->dataset.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(&order);
    for (size_t d = 0; d < w.docs_per_session; ++d) {
      const auto& item = world->dataset[order[d % order.size()]];
      Json body = Json::MakeObject();
      body.Set("session", SessionName(w, c, 0));
      body.Set("document_id", "preload-" + std::to_string(d));
      body.Set("text", MakeDocument(item, &rng));
      const Json reply = world->service->Handle("/api/upload", body);
      if (!reply["ok"].AsBool()) {
        return Status::Internal("preload upload failed: " + reply.Dump());
      }
      world->preloaded_chunks += static_cast<size_t>(reply["chunks"].AsInt());
    }
  }
  return world;
}

// Builds the untraced world until `repeats` builds and `seconds` in all are
// timed, appending each build's wall time to `times`; returns the last.
StatusOr<std::unique_ptr<World>> TimeSetups(const Workload& w, uint64_t seed,
                                            size_t repeats, double seconds,
                                            std::vector<double>* times) {
  std::unique_ptr<World> world;
  double total = 0.0;
  for (size_t n = 0; n == 0 || n < repeats || total < seconds; ++n) {
    world.reset();
    const auto begin = Clock::now();
    LLMMS_ASSIGN_OR_RETURN(world, MakeWorld(w, seed, nullptr));
    times->push_back(Seconds(Clock::now() - begin));
    total += times->back();
  }
  return world;
}

size_t StoredChunks(const World& world) {
  size_t stored = 0;
  for (const auto& name : world.db->ListCollections()) {
    if (auto c = world.db->GetCollection(name); c.ok()) stored += (*c)->size();
  }
  return stored;
}

// ---------------------------------------------------------------------------
// Client side
//
// The load generator keeps its own memory flat through the window, so that
// rss_mb measures the server: each request leaves one fixed-size record in
// a buffer allocated and touched before the pass, a response is folded into
// its client's Totals as it arrives, and only the answers the replay check
// compares are kept.

// One query as the client saw it.
struct QueryRecord {
  double start = 0.0;    // due (open loop) or send (closed loop) time, s
  double late = 0.0;     // open loop: send time minus due time, s
  double latency = 0.0;  // s, from `start` to the end of the response
  double ttft = 0.0;     // s, from `start` to the first answer text
  uint32_t item = 0;     // the question's dataset index
  uint16_t status = 0;   // HTTP status; 0 when none arrived
  uint8_t client = 0;
  bool ok = false;
};

struct UploadRecord {
  double start = 0.0;
  double latency = 0.0;
  uint32_t chunks = 0;
  bool ok = false;
};

// What a query's response carried beyond its QueryRecord.
struct Reply {
  std::string error;
  std::string answer;
  size_t tokens = 0;
  double sim_seconds = 0.0;
  size_t rounds = 0;
  bool early_stopped = false;
  size_t pruned = 0;
  size_t retrieved = 0;
  size_t req_bytes = 0;
  size_t resp_bytes = 0;
  size_t frames = 0;
};

// Sums over the window's successful queries.
struct Totals {
  double queries = 0.0;
  double f1 = 0.0;
  double tokens = 0.0;
  double sim_seconds = 0.0;
  double rounds = 0.0;
  double pruned = 0.0;
  double early_stopped = 0.0;
  double retrieved = 0.0;
  double req_bytes = 0.0;
  double resp_bytes = 0.0;
  double frames = 0.0;

  void Add(const Reply& r, double answer_f1) {
    queries += 1.0;
    f1 += answer_f1;
    tokens += static_cast<double>(r.tokens);
    sim_seconds += r.sim_seconds;
    rounds += static_cast<double>(r.rounds);
    pruned += static_cast<double>(r.pruned);
    early_stopped += r.early_stopped ? 1.0 : 0.0;
    retrieved += static_cast<double>(r.retrieved);
    req_bytes += static_cast<double>(r.req_bytes);
    resp_bytes += static_cast<double>(r.resp_bytes);
    frames += static_cast<double>(r.frames);
  }
  void Merge(const Totals& o) {
    queries += o.queries;
    f1 += o.f1;
    tokens += o.tokens;
    sim_seconds += o.sim_seconds;
    rounds += o.rounds;
    pruned += o.pruned;
    early_stopped += o.early_stopped;
    retrieved += o.retrieved;
    req_bytes += o.req_bytes;
    resp_bytes += o.resp_bytes;
    frames += o.frames;
  }
};

// A query whose answer the replay check compares.
struct ReplayedQuery {
  double start = 0.0;
  std::string session;
  uint32_t item = 0;
  std::string algorithm;
  std::string answer;
};

// One load-generating thread's output. Exactly one of the record buffers
// is sized, before the pass starts; `used` counts its filled slots.
struct ClientLog {
  std::vector<QueryRecord> queries;
  std::vector<UploadRecord> uploads;
  size_t used = 0;
  bool full = false;  // ran out of slots and stopped early
  Totals totals;
  std::vector<ReplayedQuery> replays;
  size_t failures = 0;              // failed requests, warmup included
  std::vector<std::string> errors;  // the first few

  void Fail(std::string error) {
    ++failures;
    if (errors.size() < 3) errors.push_back(std::move(error));
  }
  size_t buffer_bytes() const {
    return queries.size() * sizeof(QueryRecord) +
           uploads.size() * sizeof(UploadRecord);
  }
};

// Fills `reply` from a /api/query response body (or the final SSE `result`
// frame) and applies the per-response output checks; true when they pass.
bool ReadQueryResult(const std::string& body,
                     const std::set<std::string>& models, Reply* reply) {
  auto parsed = Json::Parse(body);
  if (!parsed.ok()) {
    reply->error = "unparseable response: " + parsed.status().message();
    return false;
  }
  const Json& result = *parsed;
  if (!result["ok"].AsBool()) {
    reply->error = "ok:false " + result["error"].Dump();
    return false;
  }
  reply->answer = result["answer"].AsString();
  const std::string& model = result["model"].AsString();
  if (reply->answer.empty()) {
    reply->error = "empty answer";
    return false;
  }
  if (models.count(model) == 0) {
    reply->error = "answer from a model that is not loaded: '" + model + "'";
    return false;
  }
  reply->tokens = static_cast<size_t>(result["total_tokens"].AsInt());
  reply->sim_seconds = result["simulated_seconds"].AsDouble();
  reply->rounds = static_cast<size_t>(result["rounds"].AsInt());
  reply->early_stopped = result["early_stopped"].AsBool();
  reply->retrieved = static_cast<size_t>(result["retrieved_chunks"].AsInt());
  for (const auto& [name, entry] : result["models"].AsObject()) {
    if (entry["pruned"].AsBool()) ++reply->pruned;
  }
  return true;
}

void SendQuery(int port, const Workload& w, const std::string& body,
               Clock::time_point origin, const std::set<std::string>& models,
               QueryRecord* r, Reply* reply) {
  reply->req_bytes = body.size();
  if (!w.stream) {
    auto response =
        app::HttpFetch("127.0.0.1", port, "POST", "/api/query", body,
                       "application/json", kHttpTimeoutSeconds);
    r->latency = Seconds(Clock::now() - origin);
    r->ttft = r->latency;  // a one-shot answer arrives in one piece
    if (!response.ok()) {
      reply->error = response.status().ToString();
      return;
    }
    r->status = static_cast<uint16_t>(response->status);
    reply->resp_bytes = response->body.size();
    if (r->status != 200) {
      reply->error = "HTTP " + std::to_string(r->status);
      return;
    }
    r->ok = ReadQueryResult(response->body, models, reply);
    return;
  }

  auto stream = app::HttpClientStream::Open(
      "127.0.0.1", port, "POST", "/api/query?stream=1", body,
      "application/json", kHttpTimeoutSeconds, /*accept_event_stream=*/true);
  if (!stream.ok()) {
    r->latency = Seconds(Clock::now() - origin);
    reply->error = stream.status().ToString();
    return;
  }
  r->status = static_cast<uint16_t>((*stream)->head().status);
  app::SseDecoder decoder;
  bool first_chunk = false;
  std::string result;
  bool have_result = false;
  while (!(*stream)->exhausted()) {
    auto bytes = (*stream)->Read();
    if (!bytes.ok()) {
      r->latency = Seconds(Clock::now() - origin);
      reply->error = bytes.status().ToString();
      return;
    }
    reply->resp_bytes += bytes->size();
    for (auto& event : decoder.Feed(*bytes)) {
      if (event.event == "orchestration") {
        ++reply->frames;
        if (!first_chunk) {
          auto data = Json::Parse(event.data);
          if (data.ok() && (*data)["type"].AsString() == "chunk") {
            first_chunk = true;
            r->ttft = Seconds(Clock::now() - origin);
          }
        }
      } else if (event.event == "result") {
        result = std::move(event.data);
        have_result = true;
      }
    }
  }
  r->latency = Seconds(Clock::now() - origin);
  if (r->status != 200) {
    reply->error = "HTTP " + std::to_string(r->status);
    return;
  }
  // The status line is 200 before generation starts; a streamed query's
  // outcome is its final `result` frame.
  if (!have_result) {
    reply->error = "stream ended without a result frame";
    return;
  }
  r->ok = ReadQueryResult(result, models, reply);
  if (r->ok && !first_chunk) {
    r->ok = false;
    reply->error = "stream carried no chunk frame";
  }
}

std::string QueryBody(const Workload& w, const std::string& session,
                      const std::string& question,
                      const std::string& algorithm) {
  Json body = Json::MakeObject();
  body.Set("session", session);
  body.Set("query", question);
  body.Set("algorithm", algorithm);
  body.Set("budget", kTokenBudget);
  body.Set("use_rag", w.rag);
  body.Set("use_history", w.history);
  return body.Dump();
}

// Uploads one document, timed from `due`, into `u`; returns the error,
// empty on success.
std::string Upload(int port, const std::string& session,
                   const std::string& document_id, const std::string& text,
                   Clock::time_point due, UploadRecord* u) {
  Json body = Json::MakeObject();
  body.Set("session", session);
  body.Set("document_id", document_id);
  body.Set("text", text);
  auto response =
      app::HttpFetch("127.0.0.1", port, "POST", "/api/upload", body.Dump(),
                     "application/json", kHttpTimeoutSeconds);
  u->latency = Seconds(Clock::now() - due);
  if (!response.ok()) return response.status().ToString();
  if (response->status != 200) {
    return "HTTP " + std::to_string(response->status);
  }
  auto reply = Json::Parse(response->body);
  if (!reply.ok() || !(*reply)["ok"].AsBool() ||
      (*reply)["chunks"].AsInt() < 1) {
    return "bad upload reply: " + response->body;
  }
  u->ok = true;
  u->chunks = static_cast<uint32_t>((*reply)["chunks"].AsInt());
  return "";
}

// ---------------------------------------------------------------------------
// One measured pass

struct PassResult {
  std::vector<QueryRecord> queries;  // every query, warmup included, by start
  std::vector<UploadRecord> uploads;
  Totals totals;                       // the window's successful queries
  std::vector<ReplayedQuery> replays;  // by start
  size_t failures = 0;                 // failed requests, warmup included
  std::vector<std::string> errors;
  bool buffers_full = false;
  double window_start = 0.0;  // s since the pass origin
  double window_end = 0.0;    // last completion of an in-window request
  uint64_t cache_hits = 0;    // EmbeddingCache deltas over the window
  uint64_t cache_misses = 0;
  Json health_before;  // /api/health at the window's edges
  Json health_after;
  int64_t origin_ns = 0;  // the pass origin on the NowNs() clock
  size_t client_503 = 0;
  size_t server_shed = 0;
  size_t session_end_failures = 0;
  // Resident set when the window closes, less the clients' record buffers.
  double rss_end_mb = 0.0;
};

double ResidentMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

PassResult RunPass(World* world, const Workload& w, uint64_t seed,
                   double warmup, double seconds) {
  PassResult pass;
  const int port = world->server->port();
  const auto& dataset = world->dataset;

  // Open loop: a seeded Poisson arrival schedule, conditioned on its count
  // (sorted uniform due times), served by kMaxClients senders. History is
  // off, so arrivals are independent users.
  struct Arrival {
    double due = 0.0;
    uint32_t item = 0;
    uint32_t session = 0;
  };
  std::vector<Arrival> arrivals;
  if (w.query_clients == 0) {
    Rng rng(MixHash64(seed * 0x9e37u + 7));
    for (double due : PoissonSchedule(&rng, w.open_rate, warmup + seconds)) {
      arrivals.push_back({.due = due});
    }
    for (auto& a : arrivals) {
      a.session = static_cast<uint32_t>(rng.UniformInt(0, kSessionPool - 1));
      a.item = PickItem(&rng, dataset);
    }
  }
  Rng upload_rng(MixHash64(seed * 0x9e37u + 3001));
  const std::vector<double> upload_due =
      PoissonSchedule(&upload_rng, w.upload_rate, warmup + seconds);

  // Record buffers, sized and touched (value-initialised) up front.
  const size_t clients = w.query_clients > 0 ? w.query_clients : kMaxClients;
  std::vector<ClientLog> logs(clients + (upload_due.empty() ? 0 : 1));
  for (size_t c = 0; c < clients; ++c) {
    logs[c].queries.resize(
        w.query_clients > 0
            ? static_cast<size_t>((warmup + seconds) * kQueriesPerClientSecond)
            : arrivals.size());
  }
  if (!upload_due.empty()) logs.back().uploads.resize(upload_due.size());
  size_t buffer_bytes = 0;
  for (const auto& log : logs) buffer_bytes += log.buffer_bytes();

  const auto origin = Clock::now();
  pass.origin_ns = NowNs();
  pass.window_start = warmup;
  const auto window_open = origin + Duration(warmup);
  const auto stop = origin + Duration(warmup + seconds);

  // Folds a finished query into its client's log.
  auto finish = [&](ClientLog* log, const QueryRecord& r, Reply* reply,
                    std::string session, const std::string& algorithm,
                    bool replay) {
    if (!r.ok) {
      log->Fail(std::move(reply->error));
      return;
    }
    if (r.start >= warmup) {
      const auto& item = dataset[r.item];
      log->totals.Add(*reply, core::BestTokenF1(reply->answer, item.golden,
                                                item.correct));
    }
    if (replay) {
      log->replays.push_back({r.start, std::move(session), r.item, algorithm,
                              std::move(reply->answer)});
    }
  };

  std::atomic<size_t> next_arrival{0};
  std::atomic<size_t> session_end_failures{0};
  std::vector<std::thread> threads;
  if (w.query_clients > 0) {
    for (size_t c = 0; c < w.query_clients; ++c) {
      threads.emplace_back([&, c]() {
        ClientLog& log = logs[c];
        Rng rng(MixHash64(seed * 0x9e37u + 1 + c));
        for (size_t n = 0; Clock::now() < stop; ++n) {
          if (log.used == log.queries.size()) {
            log.full = true;
            break;
          }
          QueryRecord& r = log.queries[log.used++];
          std::string session = SessionName(
              w, c, w.turns_per_session > 0 ? n / w.turns_per_session : 0);
          r.client = static_cast<uint8_t>(c);
          r.item = PickItem(&rng, dataset);
          const std::string& algorithm = w.algorithms[n % w.algorithms.size()];
          const auto sent = Clock::now();
          r.start = Seconds(sent - origin);
          Reply reply;
          SendQuery(port, w,
                    QueryBody(w, session, dataset[r.item].question, algorithm),
                    sent, world->loaded_models, &r, &reply);
          // A finished conversation ends its session, as the UI's "new
          // chat" does, so resident memory tracks live sessions only.
          if (w.turns_per_session > 0 && (n + 1) % w.turns_per_session == 0) {
            Json end = Json::MakeObject();
            end.Set("session", session);
            auto ended = app::HttpFetch("127.0.0.1", port, "POST",
                                        "/api/session/end", end.Dump(),
                                        "application/json",
                                        kHttpTimeoutSeconds);
            if (!ended.ok() || ended->status != 200) ++session_end_failures;
          }
          finish(&log, r, &reply, std::move(session), algorithm,
                 n < kReplayAnswers);
        }
      });
    }
  } else {
    for (size_t c = 0; c < kMaxClients; ++c) {
      threads.emplace_back([&, c]() {
        ClientLog& log = logs[c];
        for (size_t i = next_arrival.fetch_add(1); i < arrivals.size();
             i = next_arrival.fetch_add(1)) {
          const Arrival& a = arrivals[i];
          QueryRecord& r = log.queries[log.used++];
          r.client = static_cast<uint8_t>(c);
          r.item = a.item;
          r.start = a.due;
          const std::string session =
              w.name + "-u" + std::to_string(a.session);
          const std::string& algorithm = w.algorithms[i % w.algorithms.size()];
          const auto due_at = origin + Duration(a.due);
          std::this_thread::sleep_until(due_at);
          r.late = Seconds(Clock::now() - due_at);
          Reply reply;
          SendQuery(port, w,
                    QueryBody(w, session, dataset[a.item].question, algorithm),
                    due_at, world->loaded_models, &r, &reply);
          finish(&log, r, &reply, session, algorithm,
                 i < kReplayAnswers * kMaxClients);
        }
      });
    }
  }

  if (!upload_due.empty()) {
    threads.emplace_back([&]() {
      ClientLog& log = logs.back();
      for (size_t n = 0; n < upload_due.size(); ++n) {
        UploadRecord& u = log.uploads[log.used++];
        u.start = upload_due[n];
        const auto& item = dataset[PickItem(&upload_rng, dataset)];
        const std::string text = MakeDocument(item, &upload_rng);
        const auto due_at = origin + Duration(u.start);
        std::this_thread::sleep_until(due_at);
        std::string error =
            Upload(port, SessionName(w, n % w.query_clients, 0),
                   "upload-" + std::to_string(n), text, due_at, &u);
        if (!u.ok) log.Fail(std::move(error));
      }
    });
  }

  // Window edges: counters read in process, so the load keeps its four
  // connections.
  std::this_thread::sleep_until(window_open);
  const uint64_t hits0 = world->cache->hits();
  const uint64_t misses0 = world->cache->misses();
  pass.health_before = world->service->HandleHealth();
  std::this_thread::sleep_until(stop);
  pass.rss_end_mb =
      ResidentMb() - static_cast<double>(buffer_bytes) / (1024.0 * 1024.0);
  for (auto& t : threads) t.join();
  pass.cache_hits = world->cache->hits() - hits0;
  pass.cache_misses = world->cache->misses() - misses0;
  pass.health_after = world->service->HandleHealth();
  pass.server_shed = world->server->stats().shed.load();
  pass.session_end_failures = session_end_failures.load();

  for (auto& log : logs) {
    pass.queries.insert(pass.queries.end(), log.queries.begin(),
                        log.queries.begin() +
                            std::min(log.used, log.queries.size()));
    pass.uploads.insert(pass.uploads.end(), log.uploads.begin(),
                        log.uploads.begin() +
                            std::min(log.used, log.uploads.size()));
    pass.totals.Merge(log.totals);
    for (auto& r : log.replays) pass.replays.push_back(std::move(r));
    pass.failures += log.failures;
    for (auto& e : log.errors) pass.errors.push_back(std::move(e));
    pass.buffers_full |= log.full;
  }
  std::sort(pass.queries.begin(), pass.queries.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.start < b.start;
            });
  std::sort(pass.replays.begin(), pass.replays.end(),
            [](const ReplayedQuery& a, const ReplayedQuery& b) {
              return a.start < b.start;
            });
  pass.window_end = pass.window_start;
  for (const auto& r : pass.queries) {
    if (r.status == 503) ++pass.client_503;
    if (r.start >= pass.window_start) {
      pass.window_end = std::max(pass.window_end, r.start + r.latency);
    }
  }
  for (const auto& u : pass.uploads) {
    if (u.start >= pass.window_start) {
      pass.window_end = std::max(pass.window_end, u.start + u.latency);
    }
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  double value = 0.0;
  std::string unit;
  bool higher = false;  // whether a higher value is better
};
using Metrics = std::map<std::string, Metric>;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// The requests that started in [window start, until): by default the
// whole measured window.
struct Window {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<const QueryRecord*> ok;  // successful queries, by start
  std::vector<const UploadRecord*> uploads_ok;

  explicit Window(const PassResult& p,
                  double until = std::numeric_limits<double>::infinity()) {
    for (const auto& r : p.queries) {
      if (r.start < p.window_start || r.start >= until) continue;
      ++attempted;
      if (r.ok) ok.push_back(&r);
      failed += r.ok ? 0 : 1;
    }
    for (const auto& u : p.uploads) {
      if (u.start < p.window_start || u.start >= until) continue;
      ++attempted;
      if (u.ok) uploads_ok.push_back(&u);
      failed += u.ok ? 0 : 1;
    }
  }
};

// Median over groups of kGroupSize consecutive successful queries of
// `stat(first, last)`; a trailing short group is dropped unless it is the
// only one.
template <typename Stat>
double MedianOverGroups(const std::vector<const QueryRecord*>& ok, Stat stat) {
  std::vector<double> per_group;
  for (size_t begin = 0; begin < ok.size(); begin += kGroupSize) {
    const size_t end = std::min(ok.size(), begin + kGroupSize);
    if (end - begin < kGroupSize && !per_group.empty()) break;
    per_group.push_back(stat(ok.data() + begin, ok.data() + end));
  }
  return Median(per_group);
}

double GroupPercentile(const std::vector<const QueryRecord*>& ok,
                       double QueryRecord::*field, double p) {
  return MedianOverGroups(ok, [&](const QueryRecord* const* first,
                                  const QueryRecord* const* last) {
    std::vector<double> ms;
    for (auto it = first; it != last; ++it) ms.push_back((*it)->*field * 1e3);
    return Percentile(std::move(ms), p);
  });
}

// Completed queries per second, from the spacing of start times within
// each group: for a closed loop the service rate, for an open loop the
// arrival rate it kept up with.
double GroupQps(const std::vector<const QueryRecord*>& ok) {
  return MedianOverGroups(ok, [](const QueryRecord* const* first,
                                 const QueryRecord* const* last) {
    const double span = last[-1]->start - first[0]->start;
    return span > 0.0 ? static_cast<double>(last - first - 1) / span : 0.0;
  });
}

// How fast a pass served its queries, for trace.qps_ratio. A closed loop
// is measured by its throughput. An open loop's throughput is its arrival
// rate however slow each request is, so it is measured by the inverse of
// its median latency.
double ServiceRate(const Workload& w, const Window& win) {
  if (w.query_clients > 0) return GroupQps(win.ok);
  const double p50_ms = GroupPercentile(win.ok, &QueryRecord::latency, 0.50);
  return p50_ms > 0.0 ? 1e3 / p50_ms : 0.0;
}

Metrics EndToEnd(const Workload& w, const PassResult& p) {
  const Window win(p);
  const Totals& t = p.totals;
  const double n = std::max(1.0, t.queries);
  const double attempted =
      std::max<double>(1.0, static_cast<double>(win.attempted));
  Metrics m;
  m["qps"] = {GroupQps(win.ok), "1/s", true};
  m["latency_p50_ms"] = {GroupPercentile(win.ok, &QueryRecord::latency, 0.50),
                         "ms"};
  m["latency_p99_ms"] = {GroupPercentile(win.ok, &QueryRecord::latency, 0.99),
                         "ms"};
  m["ttft_p50_ms"] = {GroupPercentile(win.ok, &QueryRecord::ttft, 0.50), "ms"};
  m["ttft_p99_ms"] = {GroupPercentile(win.ok, &QueryRecord::ttft, 0.99), "ms"};
  m["error_rate"] = {static_cast<double>(win.failed) / attempted, "ratio"};
  m["answer_f1"] = {t.f1 / n, "ratio", true};
  m["tokens_per_query"] = {t.tokens / n, "tokens"};
  m["sim_seconds_per_query"] = {t.sim_seconds / n, "sim_s"};
  m["rss_mb"] = {p.rss_end_mb, "MB"};
  if (w.upload_rate > 0.0) {
    std::vector<double> upload_ms;
    for (const UploadRecord* u : win.uploads_ok) {
      upload_ms.push_back(u->latency * 1e3);
    }
    const double span = p.window_end - p.window_start;
    m["upload_docs_per_s"] = {
        span > 0.0 ? static_cast<double>(upload_ms.size()) / span : 0.0,
        "1/s", true};
    m["upload_p99_ms"] = {Percentile(std::move(upload_ms), 0.99), "ms"};
  }
  return m;
}

struct LayerTotals {
  size_t calls = 0;
  double busy_ns = 0.0;   // sum of span durations
  double union_ns = 0.0;  // length of the union of the spans
  double chars = 0.0;
};

LayerTotals SpanTotals(std::vector<Span> spans) {
  LayerTotals t;
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  int64_t open_start = 0, open_end = 0;
  for (const auto& s : spans) {
    t.busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    t.chars += s.size;
    if (t.calls++ == 0 || s.start_ns > open_end) {
      t.union_ns += static_cast<double>(open_end - open_start);
      open_start = s.start_ns;
      open_end = s.end_ns;
    } else {
      open_end = std::max(open_end, s.end_ns);
    }
  }
  t.union_ns += static_cast<double>(open_end - open_start);
  return t;
}

// `reference_rate` is ServiceRate of the untraced pass over a window as
// long as this one's, at the same distance from set-up.
Metrics PerLayer(const Workload& w, const World& world, const PassResult& p,
                 const SpanRecorder& recorder, double reference_rate) {
  const Window win(p);
  const Totals& totals = p.totals;
  const double q = std::max(1.0, totals.queries);
  const int64_t t0 = p.origin_ns + static_cast<int64_t>(p.window_start * 1e9);
  const int64_t t1 = p.origin_ns + static_cast<int64_t>(p.window_end * 1e9);
  const double wall_ns = static_cast<double>(std::max<int64_t>(1, t1 - t0));

  std::vector<std::vector<Span>> by_layer(kNumLayers);
  for (const auto& span : recorder.Collect()) {
    if (span.start_ns >= t0 && span.start_ns < t1) {
      by_layer[static_cast<size_t>(span.layer)].push_back(span);
    }
  }
  auto totals_of = [&](Layer layer) {
    return SpanTotals(std::move(by_layer[static_cast<size_t>(layer)]));
  };
  const LayerTotals start = totals_of(Layer::kStart);
  const LayerTotals chunk = totals_of(Layer::kChunk);
  const LayerTotals engine = totals_of(Layer::kEmbedEngine);
  const LayerTotals knowledge = totals_of(Layer::kEmbedKnowledge);
  const LayerTotals compute = totals_of(Layer::kEmbedCompute);
  // Sum of busy time over its union: 1.0 when calls never overlap.
  auto overlap = [](const LayerTotals& t) {
    return t.union_ns > 0.0 ? t.busy_ns / t.union_ns : 0.0;
  };

  Metrics m;
  m["llm.start_us_per_query"] = {start.busy_ns / 1e3 / q, "us"};
  m["llm.start_calls_per_query"] = {static_cast<double>(start.calls) / q,
                                    "count"};
  m["llm.start_overlap"] = {overlap(start), "ratio", true};
  m["llm.start_busy_share"] = {start.union_ns / wall_ns, "ratio"};
  m["llm.chunk_us_per_query"] = {chunk.busy_ns / 1e3 / q, "us"};
  m["llm.chunk_calls_per_query"] = {static_cast<double>(chunk.calls) / q,
                                    "count"};
  m["llm.chunk_overlap"] = {overlap(chunk), "ratio", true};

  // The scheduler block of /api/health; absent (all zero) without one.
  const Json& before = p.health_before["scheduler"];
  const Json& after = p.health_after["scheduler"];
  auto sched_delta = [&](const char* key) {
    return static_cast<double>(after[key].AsInt() - before[key].AsInt()) / q;
  };
  m["llm.sched.dispatches_per_query"] = {sched_delta("dispatches"), "count"};
  m["llm.sched.preempted_per_query"] = {sched_delta("preempted_total"),
                                        "count"};
  if (w.scheduler_replicas > 0) {
    m["llm.sched.fairness_index"] = {after["fairness_index"].AsDouble(),
                                     "ratio", true};
  }

  const std::pair<const char*, const LayerTotals*> taps[] = {
      {"engine", &engine}, {"knowledge", &knowledge}, {"compute", &compute}};
  for (const auto& [name, t] : taps) {
    const std::string prefix = std::string("embedding.") + name;
    m[prefix + ".calls_per_query"] = {static_cast<double>(t->calls) / q,
                                      "count"};
    m[prefix + ".us_per_query"] = {t->busy_ns / 1e3 / q, "us"};
  }
  m["embedding.compute.chars_per_query"] = {compute.chars / q, "chars"};
  const uint64_t lookups = p.cache_hits + p.cache_misses;
  m["embedding.cache_hit_ratio"] = {
      lookups > 0 ? static_cast<double>(p.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0,
      "ratio", true};

  m["core.rounds_per_query"] = {totals.rounds / q, "count"};
  m["core.pruned_per_query"] = {totals.pruned / q, "count", true};
  m["core.early_stop_rate"] = {totals.early_stopped / q, "ratio", true};
  m["app.req_bytes"] = {totals.req_bytes / q, "bytes"};
  m["app.resp_bytes"] = {totals.resp_bytes / q, "bytes"};
  m["app.sse_frames_per_query"] = {totals.frames / q, "count"};
  m["rag.retrieved_chunks_per_query"] = {totals.retrieved / q, "count", true};
  m["vectordb.collection_chunks_end"] = {
      static_cast<double>(StoredChunks(world)), "count", true};
  if (w.query_clients == 0) {
    std::vector<double> late_ms;
    for (const QueryRecord* r : win.ok) late_ms.push_back(r->late * 1e3);
    m["loadgen.late_p99_ms"] = {Percentile(std::move(late_ms), 0.99), "ms"};
  }
  if (w.upload_rate > 0.0) {
    double chunks = 0.0, upload_ms = 0.0;
    for (const UploadRecord* u : win.uploads_ok) {
      chunks += static_cast<double>(u->chunks);
      upload_ms += u->latency * 1e3;
    }
    m["rag.chunks_per_upload"] = {
        chunks / std::max<double>(1.0, win.uploads_ok.size()), "count"};
    m["rag.upload_ms_per_chunk"] = {upload_ms / std::max(1.0, chunks), "ms"};
  }
  if (w.rag) {
    // Replays the window's queries against their sessions' final
    // collections: the vector query cost at the end state, without HTTP.
    // A RAG client keeps one session for the whole run.
    embedding::HashEmbedder embedder;
    std::vector<double> query_us;
    for (const QueryRecord* r : win.ok) {
      auto c = world.db->GetCollection("session-" +
                                       SessionName(w, r->client, 0));
      if (!c.ok()) continue;
      const auto vector = embedder.Embed(world.dataset[r->item].question);
      const int64_t begin = NowNs();
      const bool found = (*c)->Query(vector, 3).ok();
      if (found) query_us.push_back((NowNs() - begin) / 1e3);
      if (query_us.size() == 2000) break;
    }
    m["vectordb.query_us"] = {Median(std::move(query_us)), "us"};
  }
  m["trace.qps_ratio"] = {
      reference_rate > 0.0 ? ServiceRate(w, win) / reference_rate : 0.0,
      "ratio", true};
  return m;
}

// ---------------------------------------------------------------------------
// Output checks

struct Checks {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    if (!ok && failures.size() < 32) failures.push_back(what);
  }
};

void CheckPass(const Workload& w, const World& world, const PassResult& p,
               Checks* checks) {
  checks->Expect(p.server_shed == p.client_503,
                 w.name + ": server shed " + std::to_string(p.server_shed) +
                     " != client 503s " + std::to_string(p.client_503));
  for (const auto& error : p.errors) checks->Expect(false, w.name + ": " + error);
  checks->Expect(p.failures == 0, w.name + ": " + std::to_string(p.failures) +
                                      " failed requests");
  checks->Expect(!p.buffers_full,
                 w.name + ": a client ran out of record slots");
  checks->Expect(p.session_end_failures == 0,
                 w.name + ": " + std::to_string(p.session_end_failures) +
                     " session ends failed");
  checks->Expect(!Window(p).ok.empty(),
                 w.name + ": no successful query in the window");
  if (w.query_clients == 0) {
    std::vector<double> late_ms;
    for (const auto& r : p.queries) late_ms.push_back(r.late * 1e3);
    const double late = Percentile(std::move(late_ms), 0.99);
    checks->Expect(late <= kMaxLateP99Ms,
                   w.name + ": load generator fell behind (late p99 " +
                       std::to_string(late) + " ms)");
  }
  if (w.rag) {
    size_t acked = world.preloaded_chunks;
    for (const auto& u : p.uploads) acked += u.ok ? u.chunks : 0;
    const size_t stored = StoredChunks(world);
    checks->Expect(acked == stored, w.name + ": " + std::to_string(acked) +
                                        " chunks acknowledged, " +
                                        std::to_string(stored) + " stored");
  }
}

// The kept answers (each closed-loop client's first kReplayAnswers, the
// open loop's first arrivals) must equal an in-process SearchEngine::Ask
// replay of the same sessions, in the same order, on `world`, a fresh one.
void CheckReplay(const Workload& w, const PassResult& p, const World& world,
                 Checks* checks) {
  size_t compared = 0;
  for (const auto& r : p.replays) {  // in start order
    ++compared;
    core::SearchEngine::QueryOptions options;
    options.algorithm = r.algorithm == "mab"      ? core::Algorithm::kMab
                        : r.algorithm == "hybrid" ? core::Algorithm::kHybrid
                        : r.algorithm == "single" ? core::Algorithm::kSingle
                                                  : core::Algorithm::kOua;
    options.token_budget = static_cast<size_t>(kTokenBudget);
    options.use_rag = w.rag;
    options.use_history = w.history;
    auto replay =
        world.engine->Ask(r.session, world.dataset[r.item].question, options);
    if (!replay.ok()) {
      checks->Expect(false, w.name + ": replay failed: " +
                                replay.status().ToString());
      return;
    }
    checks->Expect(replay->orchestration.answer == r.answer,
                   w.name + ": answer to query " + std::to_string(compared) +
                       " of session " + r.session +
                       " differs from its in-process replay");
  }
  checks->Expect(compared > 0, w.name + ": no answer was replayed");
}

// ---------------------------------------------------------------------------
// Driver

struct Options {
  std::vector<const Workload*> workloads;
  uint64_t seed = 1;
  double seconds = 20.0;
  double warmup = 2.0;
  size_t setup_repeats = kSetupRepeats;
  double setup_seconds = kSetupSeconds;
  bool untraced = true;
  bool traced = true;
  std::string out;
  std::string spec = "BENCHMARK.json";
};

Json MetricsJson(const Metrics& metrics) {
  Json out = Json::MakeObject();
  for (const auto& [name, m] : metrics) {
    Json metric = Json::MakeObject();
    metric.Set("value", m.value);
    metric.Set("unit", m.unit);
    metric.Set("better", m.higher ? "higher" : "lower");
    out.Set(name, std::move(metric));
  }
  return out;
}

// One workload's results: {attempted, failed, end_to_end?, per_layer?}.
StatusOr<Json> RunWorkload(const Workload& w, const Options& o,
                           Checks* checks) {
  Json entry = Json::MakeObject();
  size_t attempted = 0, failed = 0;
  // The untraced pass. With --trace 1 it is only the reference for
  // trace.qps_ratio and runs as long as the traced pass.
  const bool reference_only = !o.untraced;
  const double traced_seconds = o.seconds / 2;
  std::fprintf(stderr, "[%s] untraced %s\n", w.name.c_str(),
               reference_only ? "reference" : "pass");
  // Half the set-up timing; the other half follows the pass.
  std::vector<double> setups;
  const size_t setup_repeats = reference_only ? 1 : (o.setup_repeats + 1) / 2;
  const double setup_seconds = reference_only ? 0.0 : o.setup_seconds / 2;
  LLMMS_ASSIGN_OR_RETURN(
      auto world,
      TimeSetups(w, o.seed, setup_repeats, setup_seconds, &setups));
  const PassResult pass =
      RunPass(world.get(), w, o.seed, o.warmup,
              reference_only ? traced_seconds : o.seconds);
  world->server->Stop();
  CheckPass(w, *world, pass, checks);
  const double reference_rate =
      ServiceRate(w, Window(pass, pass.window_start + traced_seconds));
  world.reset();
  if (!reference_only) {
    LLMMS_ASSIGN_OR_RETURN(
        world, TimeSetups(w, o.seed, setup_repeats, setup_seconds, &setups));
    Metrics m = EndToEnd(w, pass);
    m["setup_s"] = {Median(setups), "s"};
    entry.Set("end_to_end", MetricsJson(m));
    const Window win(pass);
    attempted += win.attempted;
    failed += win.failed;
    // Uploads interleave with queries nondeterministically, so a RAG
    // session's answers have no replay to equal.
    if (w.upload_rate == 0.0) CheckReplay(w, pass, *world, checks);
    world.reset();
  }

  if (o.traced) {
    std::fprintf(stderr, "[%s] traced pass\n", w.name.c_str());
    auto recorder = std::make_unique<SpanRecorder>();
    LLMMS_ASSIGN_OR_RETURN(world, MakeWorld(w, o.seed, recorder.get()));
    const PassResult traced =
        RunPass(world.get(), w, o.seed, o.warmup, traced_seconds);
    world->server->Stop();
    CheckPass(w, *world, traced, checks);
    checks->Expect(recorder->dropped() == 0,
                   w.name + ": " + std::to_string(recorder->dropped()) +
                       " spans dropped (trace buffers full)");
    entry.Set("per_layer", MetricsJson(PerLayer(w, *world, traced, *recorder,
                                                reference_rate)));
    const Window traced_win(traced);
    attempted += traced_win.attempted;
    failed += traced_win.failed;
  }
  entry.Set("attempted", attempted);
  entry.Set("failed", failed);
  return entry;
}

// Runs RunWorkload in a child process, so every workload starts from a
// fresh allocator and thread-stack cache and its rss_mb is its own however
// many workloads one invocation runs. Returns {entry, failures}.
StatusOr<Json> RunIsolated(const Workload& w, const Options& o) {
  int fds[2];
  if (pipe(fds) != 0) return Status::IOError("pipe() failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::IOError("fork() failed");
  }
  if (pid == 0) {
    close(fds[0]);
    Checks checks;
    Json reply = Json::MakeObject();
    auto entry = RunWorkload(w, o, &checks);
    if (entry.ok()) {
      reply.Set("entry", std::move(entry).value());
    } else {
      reply.Set("error", entry.status().ToString());
    }
    Json failures = Json::MakeArray();
    for (const auto& f : checks.failures) failures.Append(f);
    reply.Set("failures", std::move(failures));
    const std::string text = reply.Dump();
    for (size_t done = 0; done < text.size();) {
      const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buffer[1 << 16];
  for (ssize_t n; (n = read(fds[0], buffer, sizeof(buffer))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    text.append(buffer, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("the workload's process failed");
  }
  LLMMS_ASSIGN_OR_RETURN(Json reply, Json::Parse(text));
  if (reply.Contains("error")) {
    return Status::Internal(reply["error"].AsString());
  }
  return reply;
}

struct SpecMetric {
  std::string name;
  std::string unit;
  std::string better;
};
struct Spec {
  std::vector<SpecMetric> end_to_end;
  std::vector<SpecMetric> per_layer;
};

StatusOr<Spec> ReadSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read spec " + path);
  std::stringstream text;
  text << in.rdbuf();
  LLMMS_ASSIGN_OR_RETURN(Json json, Json::Parse(text.str()));
  Spec spec;
  for (auto [key, out] : {std::pair{"end_to_end", &spec.end_to_end},
                          std::pair{"per_layer", &spec.per_layer}}) {
    for (const auto& m : json[key].AsArray()) {
      out->push_back({m["name"].AsString(), m["unit"].AsString(),
                      m["better"].AsString()});
    }
  }
  if (spec.end_to_end.empty() || spec.per_layer.empty()) {
    return Status::InvalidArgument(path + " names no metrics");
  }
  return spec;
}

// Copies the spec's metrics out of `computed` into `line` as {value, unit},
// checking that each is present with the unit and direction the spec gives.
void SelectSpec(const std::vector<SpecMetric>& wanted, const Json& computed,
                const std::string& workload, const std::string& prefix,
                Json* line, Checks* checks) {
  for (const auto& want : wanted) {
    const Json& m = computed[want.name];
    if (m.is_null()) {
      checks->Expect(false, workload + ": metric " + want.name +
                                " missing from the output");
      continue;
    }
    checks->Expect(m["unit"].AsString() == want.unit &&
                       m["better"].AsString() == want.better,
                   workload + ": metric " + want.name +
                       " differs from the spec in unit or direction");
    Json metric = Json::MakeObject();
    metric.Set("value", m["value"]);
    metric.Set("unit", m["unit"]);
    line->Set(prefix + want.name, std::move(metric));
  }
}

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_serving: %s\n"
               "usage: bench_serving [--workload NAME] [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--out FILE] "
               "[--spec BENCHMARK.json]\n",
               error.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  bool smoke = false;
  std::string trace;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 == argc) return Usage("missing value or unknown flag " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      auto it = std::find_if(Workloads().begin(), Workloads().end(),
                             [&](const Workload& w) { return w.name == v; });
      if (it == Workloads().end()) return Usage("unknown workload " + v);
      o.workloads.push_back(&*it);
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
      if (!(o.seconds > 0.0)) return Usage("--seconds must be > 0");
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      trace = v;
    } else if (arg == "--out") {
      o.out = v;
    } else if (arg == "--spec") {
      o.spec = v;
    } else {
      return Usage("unknown flag " + arg);
    }
  }
  if (o.workloads.empty()) {
    for (const auto& w : Workloads()) o.workloads.push_back(&w);
  }
  if (smoke) {
    o.seconds = 1.0;
    o.warmup = 0.5;
    o.setup_repeats = 1;
    o.setup_seconds = 0.0;
  }
  o.traced = trace != "0";
  o.untraced = trace != "1";

  auto spec = ReadSpec(o.spec);
  if (!spec.ok()) return Usage(spec.status().ToString());

  Checks checks;
  Json line_metrics = Json::MakeObject();
  Json out_workloads = Json::MakeObject();
  size_t attempted = 0, failed = 0;
  for (const Workload* w : o.workloads) {
    auto reply = RunIsolated(*w, o);
    if (!reply.ok()) {
      std::fprintf(stderr, "bench_serving: %s: %s\n", w->name.c_str(),
                   reply.status().ToString().c_str());
      return 1;
    }
    for (const auto& failure : (*reply)["failures"].AsArray()) {
      checks.Expect(false, failure.AsString());
    }
    const Json& entry = (*reply)["entry"];
    attempted += static_cast<size_t>(entry["attempted"].AsInt());
    failed += static_cast<size_t>(entry["failed"].AsInt());
    for (const char* section : {"end_to_end", "per_layer"}) {
      for (const auto& [name, m] : entry[section].AsObject()) {
        std::printf("%s %s %.6g %s\n", w->name.c_str(), name.c_str(),
                    m["value"].AsDouble(), m["unit"].AsString().c_str());
      }
    }
    std::fflush(stdout);
    // One workload: the metrics under their own names, as BENCHMARK.json
    // gives them; several: prefixed with the workload.
    const std::string prefix =
        o.workloads.size() > 1 ? w->name + "." : std::string();
    if (o.untraced) {
      SelectSpec(spec->end_to_end, entry["end_to_end"], w->name, prefix,
                 &line_metrics, &checks);
    }
    if (o.traced) {
      SelectSpec(spec->per_layer, entry["per_layer"], w->name, prefix,
                 &line_metrics, &checks);
    }
    out_workloads.Set(w->name, entry);
  }
  for (const auto& failure : checks.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = checks.failures.empty();

  if (!o.out.empty()) {
    Json out = Json::MakeObject();
    out.Set("seed", static_cast<int64_t>(o.seed));
    out.Set("seconds", o.seconds);
    out.Set("hardware_threads",
            static_cast<size_t>(std::thread::hardware_concurrency()));
    out.Set("correct", correct);
    Json failures = Json::MakeArray();
    for (const auto& f : checks.failures) failures.Append(f);
    out.Set("check_failures", std::move(failures));
    out.Set("workloads", std::move(out_workloads));
    std::ofstream file(o.out);
    file << out.Dump(2) << "\n";
    if (!file) {
      std::fprintf(stderr, "bench_serving: cannot write %s\n", o.out.c_str());
      return 1;
    }
  }

  Json line = Json::MakeObject();
  line.Set("correct", correct);
  line.Set("attempted", attempted);
  line.Set("failed", failed);
  line.Set("metrics", std::move(line_metrics));
  std::printf("%s\n", line.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace llmms::perfbench

int main(int argc, char** argv) { return llmms::perfbench::Main(argc, argv); }
