// Deterministic suite for llm::BatchScheduler (DESIGN.md §13): exact
// round-robin and weighted shares under virtual-time fair queueing,
// chunk-boundary preemption, hedge dispatch priority, typed deadline
// unwinding, property sweeps across seeds, a golden decision trace, and the
// continuous-batching acceptance bar (fairness + strictly higher aggregate
// throughput than a run-to-completion serving emulation).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "llmms/common/deadline.h"
#include "llmms/common/string_util.h"
#include "llmms/llm/batch_scheduler.h"
#include "testutil.h"

namespace llmms::llm {
namespace {

// A scripted chunk source: `chunks_total` chunks of `tokens_per_chunk`
// tokens each, text "<tag><index>", done on the last. The produced text is
// accumulated so tests can assert partial output byte-for-byte.
struct Scripted {
  Scripted() = default;
  Scripted(std::string t, size_t chunks)
      : tag(std::move(t)), chunks_total(chunks) {}

  std::string tag;
  size_t chunks_total = 1;
  size_t tokens_per_chunk = 8;
  size_t chunks_served = 0;
  std::string text;
};

BatchScheduler::ChunkFn SourceOf(Scripted* script) {
  return [script](size_t max_tokens) -> StatusOr<Chunk> {
    (void)max_tokens;
    Chunk chunk;
    chunk.text = script->tag + std::to_string(script->chunks_served);
    chunk.num_tokens = script->tokens_per_chunk;
    ++script->chunks_served;
    chunk.done = script->chunks_served >= script->chunks_total;
    script->text += chunk.text;
    return chunk;
  };
}

BatchScheduler::AdmitOptions Options(const std::string& model, double weight,
                                     bool hedge = false) {
  BatchScheduler::AdmitOptions options;
  options.model = model;
  options.weight = weight;
  options.hedge = hedge;
  options.tokens_per_second = 8.0;  // 8-token chunks cost exactly 1s
  return options;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

// ---------------------------------------------------------------------------
// Weight derivation.

TEST(BatchSchedulerTest, WeightDerivedFromBudgetAndDeadlineSlack) {
  SchedulerConfig config;
  BatchScheduler scheduler(config);
  const double inf = std::numeric_limits<double>::infinity();
  // Budget relative to the 2048-token reference.
  EXPECT_DOUBLE_EQ(scheduler.WeightFor(2048, inf), 1.0);
  EXPECT_DOUBLE_EQ(scheduler.WeightFor(4096, inf), 2.0);
  EXPECT_DOUBLE_EQ(scheduler.WeightFor(1024, inf), 0.5);
  // No budget hint falls back to weight 1.
  EXPECT_DOUBLE_EQ(scheduler.WeightFor(0, inf), 1.0);
  // Clamped at both ends.
  EXPECT_DOUBLE_EQ(scheduler.WeightFor(1, inf), config.min_weight);
  EXPECT_DOUBLE_EQ(scheduler.WeightFor(1 << 20, inf), config.max_weight);
  // A stream with 3s of slack gets the urgency boost, capped at 4x.
  EXPECT_DOUBLE_EQ(scheduler.WeightFor(2048, 3.0), 4.0);
  // Slack beyond the urgency window adds nothing.
  EXPECT_DOUBLE_EQ(scheduler.WeightFor(2048, 300.0), 1.0);
}

// ---------------------------------------------------------------------------
// Virtual-time dispatch order.

TEST(BatchSchedulerTest, EqualWeightsDispatchExactRoundRobin) {
  SchedulerConfig config;
  config.replicas_per_model = 1;
  BatchScheduler scheduler(config);
  Scripted a{"a", 100}, b{"b", 100}, c{"c", 100};
  const auto ia = scheduler.AdmitSource(Options("m", 1.0), SourceOf(&a));
  const auto ib = scheduler.AdmitSource(Options("m", 1.0), SourceOf(&b));
  const auto ic = scheduler.AdmitSource(Options("m", 1.0), SourceOf(&c));

  std::vector<BatchScheduler::StreamId> order;
  for (int round = 0; round < 9; ++round) {
    auto result = scheduler.RunRound(8);
    ASSERT_EQ(result.executed.size(), 1u) << "round " << round;
    order.push_back(result.executed[0].stream);
  }
  const std::vector<BatchScheduler::StreamId> expected = {ia, ib, ic, ia, ib,
                                                          ic, ia, ib, ic};
  EXPECT_EQ(order, expected);
  scheduler.Finish(ia);
  scheduler.Finish(ib);
  scheduler.Finish(ic);
  EXPECT_EQ(scheduler.stats().runnable, 0u);
}

TEST(BatchSchedulerTest, WeightedSharesConvergeToWeightRatios) {
  SchedulerConfig config;
  config.replicas_per_model = 1;
  BatchScheduler scheduler(config);
  Scripted a{"a", 1000}, b{"b", 1000}, c{"c", 1000};
  const auto ia = scheduler.AdmitSource(Options("m", 1.0), SourceOf(&a));
  const auto ib = scheduler.AdmitSource(Options("m", 2.0), SourceOf(&b));
  const auto ic = scheduler.AdmitSource(Options("m", 4.0), SourceOf(&c));

  for (int round = 0; round < 140; ++round) scheduler.RunRound(8);

  const auto stats = scheduler.stats();
  ASSERT_EQ(stats.streams.size(), 3u);
  double min_normalized = std::numeric_limits<double>::infinity();
  double max_normalized = 0.0;
  size_t tokens_a = 0, tokens_b = 0, tokens_c = 0;
  for (const auto& s : stats.streams) {
    const double normalized = static_cast<double>(s.service_tokens) / s.weight;
    min_normalized = std::min(min_normalized, normalized);
    max_normalized = std::max(max_normalized, normalized);
    if (s.id == ia) tokens_a = s.service_tokens;
    if (s.id == ib) tokens_b = s.service_tokens;
    if (s.id == ic) tokens_c = s.service_tokens;
  }
  // Weight-normalized service is near-equal (fair), so raw service follows
  // the 1:2:4 weight ratio within discretization error.
  EXPECT_LE(max_normalized / min_normalized, 1.15);
  EXPECT_NEAR(static_cast<double>(tokens_b) / tokens_a, 2.0, 0.25);
  EXPECT_NEAR(static_cast<double>(tokens_c) / tokens_a, 4.0, 0.40);
  EXPECT_GE(stats.fairness_index, 0.95);
}

// ---------------------------------------------------------------------------
// Preemption at chunk boundaries.

TEST(BatchSchedulerTest, PreemptionPreservesPartialOutputByteForByte) {
  SchedulerConfig config;
  config.replicas_per_model = 1;
  BatchScheduler scheduler(config);
  Scripted a{"a", 6};
  const auto ia = scheduler.AdmitSource(Options("m", 1.0), SourceOf(&a));

  // A owns the replica for two chunks...
  for (int round = 0; round < 2; ++round) {
    auto result = scheduler.RunRound(8);
    ASSERT_EQ(result.executed.size(), 1u);
    EXPECT_EQ(result.executed[0].stream, ia);
  }
  EXPECT_EQ(a.text, "a0a1");

  // ...then a hedge admission takes the slot at the next chunk boundary.
  Scripted h{"h", 2};
  const auto ih =
      scheduler.AdmitSource(Options("m", 1.0, /*hedge=*/true), SourceOf(&h));
  auto preempting = scheduler.RunRound(8);
  ASSERT_EQ(preempting.executed.size(), 1u);
  EXPECT_EQ(preempting.executed[0].stream, ih);
  EXPECT_EQ(scheduler.stats().preempted_total, 1u);

  // The preempted stream kept its partial output and resumes where it left
  // off once the hedge finishes; the final text is the uninterrupted
  // concatenation, byte for byte.
  for (int round = 0; round < 8 && scheduler.HasRunnable(); ++round) {
    scheduler.RunRound(8);
  }
  EXPECT_EQ(a.chunks_served, 6u);
  EXPECT_EQ(a.text, "a0a1a2a3a4a5");
  EXPECT_EQ(h.text, "h0h1");
  EXPECT_FALSE(scheduler.HasRunnable());
  (void)ih;
}

TEST(BatchSchedulerTest, HedgeAdmissionsDispatchFirst) {
  SchedulerConfig config;
  config.replicas_per_model = 1;
  BatchScheduler scheduler(config);
  Scripted a{"a", 4}, b{"b", 4}, h{"h", 1};
  scheduler.AdmitSource(Options("m", 1.0), SourceOf(&a));
  scheduler.AdmitSource(Options("m", 1.0), SourceOf(&b));
  // Admitted last, equal virtual time: without the hedge flag it would
  // dispatch last by admission order; with it, it goes first.
  const auto ih =
      scheduler.AdmitSource(Options("m", 1.0, /*hedge=*/true), SourceOf(&h));
  auto result = scheduler.RunRound(8);
  ASSERT_EQ(result.executed.size(), 1u);
  EXPECT_EQ(result.executed[0].stream, ih);
  EXPECT_EQ(scheduler.stats().hedge_admitted_total, 1u);
}

// ---------------------------------------------------------------------------
// Typed deadline unwinding.

TEST(BatchSchedulerTest, DeadlineExpiredStreamUnwindsWithTypedStatus) {
  SchedulerConfig config;
  config.replicas_per_model = 1;
  BatchScheduler scheduler(config);
  Scripted a{"a", 4};
  auto options = Options("m", 1.0);
  options.context = RequestContext::WithTimeout(1e-6);
  const auto ia = scheduler.AdmitSource(options, SourceOf(&a));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  auto result = scheduler.RunRound(8);
  EXPECT_TRUE(result.executed.empty());
  ASSERT_EQ(result.unwound.size(), 1u);
  EXPECT_EQ(result.unwound[0].first, ia);
  EXPECT_TRUE(result.unwound[0].second.IsDeadlineExceeded())
      << result.unwound[0].second.ToString();
  // Never dispatched: no tokens were burned for a caller that is gone.
  EXPECT_EQ(a.chunks_served, 0u);
  EXPECT_EQ(scheduler.stats().expired_total, 1u);
  EXPECT_FALSE(scheduler.HasRunnable());
}

TEST(BatchSchedulerTest, CancelledStreamUnwindsWithTypedStatus) {
  SchedulerConfig config;
  BatchScheduler scheduler(config);
  Scripted a{"a", 4};
  auto options = Options("m", 1.0);
  options.context = RequestContext::Unbounded();
  scheduler.AdmitSource(options, SourceOf(&a));
  options.context->Cancel("client disconnected");

  auto result = scheduler.RunRound(8);
  ASSERT_EQ(result.unwound.size(), 1u);
  EXPECT_TRUE(result.unwound[0].second.IsCancelled());
  EXPECT_EQ(a.chunks_served, 0u);
}

TEST(BatchSchedulerTest, ThreadedExpiredStreamReturnsTypedStatus) {
  SchedulerConfig config;
  BatchScheduler scheduler(config);
  auto options = Options("m", 1.0);
  options.context = RequestContext::WithTimeout(1e-6);
  const auto id = scheduler.Admit(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto chunk = scheduler.ExecuteChunk(id, 8, [](size_t) -> StatusOr<Chunk> {
    ADD_FAILURE() << "an expired stream must never reach its chunk fn";
    return Chunk{};
  });
  EXPECT_TRUE(chunk.status().IsDeadlineExceeded());
  EXPECT_EQ(scheduler.stats().expired_total, 1u);
}

// ---------------------------------------------------------------------------
// Round accounting: only dispatched streams are charged.

TEST(BatchSchedulerTest, RoundCostChargesOnlyDispatchedStreams) {
  SchedulerConfig config;
  config.replicas_per_model = 4;  // more replicas than runnable streams
  BatchScheduler scheduler(config);
  Scripted a{"a", 3};
  scheduler.AdmitSource(Options("m", 1.0), SourceOf(&a));

  auto result = scheduler.RunRound(8);
  // One stream dispatched, three replicas idle: the round costs one chunk
  // (1s at 8 tokens / 8 tps), not four.
  ASSERT_EQ(result.executed.size(), 1u);
  EXPECT_DOUBLE_EQ(result.max_cost_seconds, 1.0);
  EXPECT_DOUBLE_EQ(result.total_cost_seconds, 1.0);

  const auto stats = scheduler.stats();
  ASSERT_EQ(stats.models.size(), 1u);
  double busy_total = 0.0;
  for (double b : stats.models[0].slot_busy_seconds) busy_total += b;
  EXPECT_DOUBLE_EQ(busy_total, 1.0);
}

// ---------------------------------------------------------------------------
// Property sweep: random seeds x stream counts.

TEST(BatchSchedulerTest, PropertySweepNoStarvationAndTokenConservation) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    for (size_t streams : {2u, 5u, 9u}) {
      std::mt19937_64 rng(seed * 1000 + streams);
      SchedulerConfig config;
      config.replicas_per_model = 2;
      BatchScheduler scheduler(config);

      const double weight_choices[] = {0.5, 1.0, 2.0, 4.0};
      std::vector<Scripted> scripts(streams);
      std::vector<std::string> expected_text(streams);
      size_t total_chunks = 0;
      for (size_t i = 0; i < streams; ++i) {
        scripts[i].tag =
            std::string("s").append(std::to_string(i)).append("-");
        scripts[i].chunks_total = 1 + rng() % 6;
        total_chunks += scripts[i].chunks_total;
        for (size_t c = 0; c < scripts[i].chunks_total; ++c) {
          expected_text[i] += scripts[i].tag + std::to_string(c);
        }
        scheduler.AdmitSource(Options("m", weight_choices[rng() % 4]),
                              SourceOf(&scripts[i]));
      }

      // No starvation: with 2 replicas every stream completes within a
      // bounded number of rounds regardless of weights.
      size_t rounds = 0;
      const size_t bound = 8 * total_chunks + 16;
      while (scheduler.HasRunnable() && rounds < bound) {
        scheduler.RunRound(8);
        ++rounds;
      }
      EXPECT_FALSE(scheduler.HasRunnable())
          << "seed=" << seed << " streams=" << streams
          << ": streams starved beyond " << bound << " rounds";

      // Conservation: every admitted token was served exactly once, and
      // each stream's output is its uninterrupted chunk sequence.
      const auto stats = scheduler.stats();
      EXPECT_EQ(stats.total_service_tokens, total_chunks * 8)
          << "seed=" << seed << " streams=" << streams;
      EXPECT_EQ(stats.finished_total, streams);
      for (size_t i = 0; i < streams; ++i) {
        EXPECT_EQ(scripts[i].chunks_served, scripts[i].chunks_total);
        EXPECT_EQ(scripts[i].text, expected_text[i])
            << "seed=" << seed << " stream " << i;
      }
    }
  }
}

// Scheduling only reorders execution across streams; it never changes what
// any single stream produces. Run the same three-model generation through a
// scheduler-enabled runtime and a plain one: per-model text and simulated
// time must match exactly.
TEST(BatchSchedulerTest, SchedulerOnMatchesSchedulerOffOutputs) {
  auto plain = testutil::MakeWorld();
  auto batched = testutil::MakeWorld();
  SchedulerConfig config;
  config.replicas_per_model = 2;
  batched.runtime->EnableScheduler(config);

  for (size_t q = 0; q < 3; ++q) {
    GenerationRequest request;
    request.prompt = plain.dataset[q].question;
    request.token_budget = 256;
    auto gen_plain =
        plain.runtime->StartGeneration(plain.model_names, request);
    auto gen_batched =
        batched.runtime->StartGeneration(batched.model_names, request);
    ASSERT_TRUE(gen_plain.ok());
    ASSERT_TRUE(gen_batched.ok());

    const auto drive = [&](ParallelGeneration* generation) {
      for (int round = 0; round < 64; ++round) {
        std::vector<std::pair<std::string, size_t>> asks;
        for (const auto& m : plain.model_names) {
          auto stats = generation->StatsOf(m);
          ASSERT_TRUE(stats.ok());
          if (!stats->finished) asks.emplace_back(m, 8);
        }
        if (asks.empty()) return;
        auto batch = generation->NextChunks(asks);
        ASSERT_TRUE(batch.ok());
      }
      FAIL() << "generation did not finish";
    };
    drive(gen_plain->get());
    drive(gen_batched->get());

    for (const auto& m : plain.model_names) {
      auto text_plain = (*gen_plain)->TextOf(m);
      auto text_batched = (*gen_batched)->TextOf(m);
      ASSERT_TRUE(text_plain.ok());
      ASSERT_TRUE(text_batched.ok());
      EXPECT_EQ(*text_plain, *text_batched) << m << " query " << q;
      auto stats_plain = (*gen_plain)->StatsOf(m);
      auto stats_batched = (*gen_batched)->StatsOf(m);
      ASSERT_TRUE(stats_plain.ok());
      ASSERT_TRUE(stats_batched.ok());
      EXPECT_EQ(stats_plain->tokens, stats_batched->tokens) << m;
      EXPECT_DOUBLE_EQ(stats_plain->simulated_seconds,
                       stats_batched->simulated_seconds)
          << m;
    }
  }
  const auto stats = batched.runtime->scheduler()->stats();
  EXPECT_EQ(stats.runnable, 0u);
  EXPECT_EQ(stats.finished_total, stats.admitted_total);
}

// ---------------------------------------------------------------------------
// Golden decision trace.

// The golden scenario's decision log with the log sized at
// `trace_capacity` and every stream on `model`.
std::vector<std::string> GoldenScenarioTrace(size_t trace_capacity,
                                             const std::string& model) {
  SchedulerConfig config;
  config.replicas_per_model = 2;
  config.trace_capacity = trace_capacity;
  BatchScheduler scheduler(config);

  Scripted a{"a", 3}, b{"b", 2}, c{"c", 4}, h{"h", 1}, dead{"d", 2};
  scheduler.AdmitSource(Options(model, 1.0), SourceOf(&a));
  scheduler.AdmitSource(Options(model, 2.0), SourceOf(&b));
  scheduler.AdmitSource(Options(model, 1.0), SourceOf(&c));
  scheduler.RunRound(8);
  scheduler.RunRound(8);
  // A hedge admission mid-run and a stream whose caller is already gone.
  scheduler.AdmitSource(Options(model, 1.0, /*hedge=*/true), SourceOf(&h));
  auto cancelled = Options(model, 1.0);
  cancelled.context = RequestContext::Unbounded();
  scheduler.AdmitSource(cancelled, SourceOf(&dead));
  cancelled.context->Cancel("golden: caller gone");
  for (int round = 0; round < 6 && scheduler.HasRunnable(); ++round) {
    scheduler.RunRound(8);
  }
  EXPECT_FALSE(scheduler.HasRunnable());
  return scheduler.Trace();
}

TEST(BatchSchedulerTest, GoldenTraceIsDeterministic) {
  std::string serialized;
  for (const auto& line : GoldenScenarioTrace(4096, "m")) {
    serialized += line;
    serialized += '\n';
  }
  const std::string golden_path =
      std::string(LLMMS_TESTS_DIR) + "/golden/scheduler_trace.golden";
  if (std::getenv("LLMMS_UPDATE_GOLDEN") != nullptr) {
    WriteFile(golden_path, serialized);
    GTEST_SKIP() << "golden file regenerated at " << golden_path;
  }
  ASSERT_TRUE(FileExists(golden_path))
      << "missing golden file; regenerate with LLMMS_UPDATE_GOLDEN=1 "
      << golden_path;
  EXPECT_EQ(serialized, ReadFile(golden_path))
      << "scheduler decision sequence diverged from the committed golden "
         "trace; if the change is intentional, regenerate with "
         "LLMMS_UPDATE_GOLDEN=1";

  // The same scenario, read through the log's other settings: off, a ring
  // small enough to evict, and a model name longer than any fixed-size
  // line buffer, which must come back whole in its admit and grant lines.
  const std::vector<std::string> golden =
      Split(ReadFile(golden_path), '\n', /*skip_empty=*/true);
  const std::string long_model(300, 'x');
  std::vector<std::string> renamed = golden;
  for (auto& line : renamed) {
    const size_t at = line.find(" model=m ");
    if (at != std::string::npos) line.replace(at + 7, 1, long_model);
  }
  struct Case {
    const char* name;
    size_t capacity;
    std::string model;
    std::vector<std::string> expected;
  };
  const Case cases[] = {
      {"off", 0, "m", {}},
      {"last five", 5, "m", {golden.end() - 5, golden.end()}},
      {"300-character model", 4096, long_model, renamed},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(GoldenScenarioTrace(c.capacity, c.model), c.expected);
  }
}

// ---------------------------------------------------------------------------
// Acceptance: 8 concurrent queries over 2 shared replicas.

// Run-to-completion serving emulation (what a non-batching server does):
// each query holds a replica exclusively until it finishes, admitted in
// arrival order onto whichever replica frees first. Returns the makespan.
double FifoMakespan(const std::vector<size_t>& durations, size_t replicas) {
  std::vector<double> free_at(replicas, 0.0);
  double makespan = 0.0;
  for (size_t duration : durations) {
    auto earliest = std::min_element(free_at.begin(), free_at.end());
    *earliest += static_cast<double>(duration);
    makespan = std::max(makespan, *earliest);
  }
  return makespan;
}

TEST(BatchSchedulerTest, EightQueriesTwoReplicasFairAndFasterThanUnbatched) {
  // Six short queries arrive first, then a medium and a long one — the
  // classic convoy: run-to-completion strands the long query behind the
  // shorts and one replica idles while it drains alone.
  const std::vector<size_t> durations = {2, 2, 2, 2, 2, 2, 6, 12};

  SchedulerConfig config;
  config.replicas_per_model = 2;
  // One 8-token chunk of budget = weight 1: budget-derived weights make a
  // stream's replica share proportional to its remaining work, which is
  // what lets the batched path finish the whole convoy sooner.
  config.reference_budget_tokens = 8.0;
  BatchScheduler scheduler(config);

  std::vector<Scripted> scripts(durations.size());
  for (size_t i = 0; i < durations.size(); ++i) {
    scripts[i].tag = "q" + std::to_string(i) + "-";
    scripts[i].chunks_total = durations[i];
    BatchScheduler::AdmitOptions options;
    options.model = "m";
    options.token_budget = durations[i] * 8;  // derive weight from budget
    options.tokens_per_second = 8.0;
    scheduler.AdmitSource(options, SourceOf(&scripts[i]));
  }

  size_t rounds = 0;
  while (scheduler.HasRunnable() && rounds < 200) {
    scheduler.RunRound(8);
    ++rounds;
  }
  ASSERT_FALSE(scheduler.HasRunnable());

  const auto stats = scheduler.stats();
  ASSERT_EQ(stats.models.size(), 1u);
  double batched_makespan = 0.0;
  for (double busy : stats.models[0].slot_busy_seconds) {
    batched_makespan = std::max(batched_makespan, busy);
  }
  const double unbatched_makespan = FifoMakespan(durations, 2);
  EXPECT_DOUBLE_EQ(unbatched_makespan, 18.0);

  // Strictly higher aggregate served QPS than the unbatched path.
  const double batched_qps = durations.size() / batched_makespan;
  const double unbatched_qps = durations.size() / unbatched_makespan;
  EXPECT_LT(batched_makespan, unbatched_makespan);
  EXPECT_GT(batched_qps, unbatched_qps);

  // Jain fairness over weight-normalized service tokens: every query's
  // service is proportional to its weight, so the index is ~1.
  EXPECT_GE(stats.fairness_index, 0.9);
  EXPECT_EQ(stats.finished_total, durations.size());
  EXPECT_EQ(stats.total_service_tokens, 30u * 8u);
}

}  // namespace
}  // namespace llmms::llm
