#ifndef LLMMS_EVAL_SCENARIO_MATRIX_H_
#define LLMMS_EVAL_SCENARIO_MATRIX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "llmms/common/json.h"
#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/core/reward_feed.h"
#include "llmms/core/scoring.h"
#include "llmms/llm/model.h"

namespace llmms::eval {

// The cost/accuracy frontier harness (DESIGN.md §16): one deterministic
// driver that runs a scenario matrix over the full Synthetic → Faulty →
// Resilient → Hedged stack and reports every cell under one accounting —
// reward, F1, reward/token, wasted hedge work, shed rate, wall-clock.
// bench/bench_frontier.cc emits the committed BENCH_frontier.json from the
// default matrix; tests/scenario_matrix_test.cc replays the pinned matrix
// against committed reference points and fails on dominated regressions.
//
// Every cell builds its own world (dataset, knowledge base, registry,
// runtime) from the matrix seed, so cells are independent and a cell's
// metrics depend only on (spec, config) — the property the determinism and
// golden tests lock down.

// --- Matrix axes. ---

enum class MatrixOrchestrator { kSingle, kOua, kMab, kHybrid };
enum class MatrixPool { kDuo, kTrio };        // first 2 / all 3 paper models
enum class MatrixFaults { kNone, kFlaky, kStorm };
enum class MatrixMode {
  kPlain,     // bare synthetic models (plus resilience when faults are on)
  kAdaptive,  // hedged replicas + RewardFeed: adaptive percentiles and
              // feed-prior arm seeding (Config::feed_prior_weight)
  kBatched,   // kPlain stack multiplexed through the continuous-batching
              // scheduler (DESIGN.md §13)
};

const char* ToString(MatrixOrchestrator orchestrator);
const char* ToString(MatrixPool pool);
const char* ToString(MatrixFaults faults);
const char* ToString(MatrixMode mode);

// One point of the matrix.
struct CellSpec {
  MatrixOrchestrator orchestrator = MatrixOrchestrator::kMab;
  size_t token_budget = 384;
  MatrixPool pool = MatrixPool::kTrio;
  MatrixFaults faults = MatrixFaults::kNone;
  MatrixMode mode = MatrixMode::kPlain;
};

// Stable cell identifier, e.g. "mab/b384/trio/flaky/adaptive" — the join
// key between fresh runs and committed reference points.
std::string CellKey(const CellSpec& spec);

struct MatrixConfig {
  std::vector<MatrixOrchestrator> orchestrators;
  std::vector<size_t> token_budgets;
  std::vector<MatrixPool> pools;
  std::vector<MatrixFaults> faults;
  std::vector<MatrixMode> modes;

  // Dataset size per cell: questions_per_domain x the 6 canonical domains.
  size_t questions_per_domain = 2;
  uint64_t seed = 0x7A9E11ULL;

  core::ScoringWeights weights;        // alpha/beta (Eq. 6.1)
  core::RewardWeights reward_weights;  // Eq. 8.1

  // The estimator adaptive cells give their per-cell RewardFeed, and the
  // virtual-pull weight their MAB/hybrid arms are seeded with.
  core::RewardFeedConfig feed{/*warmup=*/4, /*window=*/48, /*half_life=*/0.0};
  double feed_prior_weight = 4.0;
};

// The committed-bench matrix (BENCH_frontier.json): every orchestrator x
// {96, 384} tokens x {duo, trio} x {none, flaky, storm} x
// {plain, adaptive, batched}. 96 starves the pool; 384 lets every model
// finish naturally — the two budget regimes of the frontier.
MatrixConfig DefaultMatrix();
// The small matrix CI replays against tests/golden/frontier_reference.json:
// {oua, mab} x {384} x {trio} x {none, storm} x {plain, adaptive}.
MatrixConfig PinnedMatrix();

// One cell's metrics under the harness's single accounting.
struct CellResult {
  CellSpec spec;

  size_t queries = 0;
  size_t failed_queries = 0;  // typed errors (e.g. the whole pool refused)
  double shed_rate = 0.0;     // failed_queries / queries

  // Quality over the successful queries (a fully shed cell scores 0).
  double mean_reward = 0.0;  // Eq. 8.1 on the final answer
  double mean_f1 = 0.0;
  double accuracy = 0.0;

  // The frontier's cost axis. Token conservation — locked down by the
  // scenario-matrix test across every cell — guarantees
  //   generated_tokens == charged_tokens + wasted_tokens:
  // every token the synthetic substrate produced was either charged to a
  // query's budget or honestly booked as hedge-race waste.
  size_t charged_tokens = 0;    // budget-accounted tokens across queries
  size_t wasted_tokens = 0;     // cancelled hedge losers' work
  size_t generated_tokens = 0;  // ground truth, metered at the substrate
  double reward_per_token = 0.0;  // total reward / charged_tokens

  size_t hedges_launched = 0;
  size_t hedges_won = 0;
  size_t failovers = 0;
  double wasted_seconds = 0.0;

  double simulated_seconds = 0.0;  // deterministic simulated wall clock
  double wall_seconds = 0.0;       // host wall clock; NEVER compared by
                                   // goldens or the regression gate
};

// Serialization of one cell, deterministic fields first (wall_seconds is
// included for the bench report but excluded from golden comparisons).
Json CellToJson(const CellResult& result);
// One deterministic line per cell — the unit of the committed golden row
// trace (tests/golden/frontier_row.golden).
std::string CellTraceLine(const CellResult& result);

// Per-query hook for tests that pin a cell event by event: receives one
// query's events in emission order, then its outcome (an error status for a
// shed query).
using QueryObserver =
    std::function<void(const std::vector<core::OrchestratorEvent>& events,
                       const StatusOr<core::OrchestrationResult>& outcome)>;

class ScenarioMatrix {
 public:
  explicit ScenarioMatrix(const MatrixConfig& config);

  // The config's full cross product, in axis order (orchestrator outermost,
  // mode innermost).
  std::vector<CellSpec> Cells() const;

  // Runs one cell in a fresh world. Deterministic in (spec, config) except
  // for CellResult::wall_seconds. `observer` (optional) sees every query.
  StatusOr<CellResult> RunCell(const CellSpec& spec,
                               const QueryObserver& observer = nullptr) const;

  // Runs every cell; `progress` (optional) is called after each.
  StatusOr<std::vector<CellResult>> Run(
      const std::function<void(const CellResult&, size_t done, size_t total)>&
          progress = nullptr) const;

  const MatrixConfig& config() const { return config_; }

 private:
  MatrixConfig config_;
};

// --- Drifting-competence acceptance scenario (DESIGN.md §16). ---
//
// Two DriftSwitchModel pools whose domain competence swaps mid-session:
// "drift:alpha" answers well until the switch and badly after,
// "drift:beta" the reverse. The same query sequence is run twice through a
// MAB session with feed-prior arm seeding — once with a lifetime-mean
// RewardFeed (the baseline) and once with the configured decayed/windowed
// feed. The decayed feed forgets alpha's stale reputation and re-ranks the
// pool within a window of the switch; the lifetime feed keeps recommending
// the has-been. Acceptance: the decayed feed's reward/token is strictly
// above the baseline's.
struct DriftConfig {
  size_t questions_per_domain = 4;  // 24 queries over the 6 domains
  size_t switch_after_queries = 12;
  uint64_t seed = 0x7A9E11ULL;
  size_t token_budget = 256;
  size_t chunk_tokens = 16;
  double feed_prior_weight = 6.0;
  // The adaptive run's estimator (the baseline run always uses lifetime
  // means with the same warmup).
  core::RewardFeedConfig adaptive_feed{/*warmup=*/4, /*window=*/32,
                                       /*half_life=*/0.0};
  core::ScoringWeights weights;
  core::RewardWeights reward_weights;
};

struct DriftOutcome {
  size_t queries = 0;
  double total_reward = 0.0;
  size_t charged_tokens = 0;
  double reward_per_token = 0.0;
};

struct DriftComparison {
  DriftOutcome lifetime;  // lifetime-mean RewardFeed (the baseline)
  DriftOutcome adaptive;  // DriftConfig::adaptive_feed
};

StatusOr<DriftComparison> RunDriftComparison(const DriftConfig& config);

// A model whose behaviour switches mid-session: generations delegate to
// `before` for the first `switch_after_starts` StartGeneration calls and to
// `after` from then on. Both inners must share a name (the drift is a
// quality change inside one deployed model, not a pool change). Exposed for
// tests.
class DriftSwitchModel final : public llm::LanguageModel {
 public:
  DriftSwitchModel(std::shared_ptr<llm::LanguageModel> before,
                   std::shared_ptr<llm::LanguageModel> after,
                   size_t switch_after_starts);

  const std::string& name() const override { return before_->name(); }
  uint64_t memory_mb() const override { return before_->memory_mb(); }
  double tokens_per_second() const override {
    return before_->tokens_per_second();
  }
  size_t context_window() const override { return before_->context_window(); }

  StatusOr<std::unique_ptr<llm::GenerationStream>> StartGeneration(
      const llm::GenerationRequest& request) const override;

  // Starts observed so far (the drift clock), for tests.
  size_t starts() const { return starts_.load(); }

 private:
  std::shared_ptr<llm::LanguageModel> before_;
  std::shared_ptr<llm::LanguageModel> after_;
  const size_t switch_after_starts_;
  mutable std::atomic<size_t> starts_{0};
};

}  // namespace llmms::eval

#endif  // LLMMS_EVAL_SCENARIO_MATRIX_H_
