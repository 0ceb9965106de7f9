#ifndef LLMMS_CORE_FEEDBACK_H_
#define LLMMS_CORE_FEEDBACK_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace llmms::core {

// Self-improving orchestration (§9.5 "Self-Improving Orchestration"):
// a running record of how well each model has performed per task domain.
// Orchestration outcomes feed it; the cognitive router reads it to send new
// queries to the models that historically handled that kind of task best.
// Thread-safe and in memory only: it lives as long as its SearchEngine,
// and ToJson is a read-only dump for display.
class FeedbackStore {
 public:
  struct Stats {
    double reward_sum = 0.0;
    size_t count = 0;
    size_t wins = 0;
    double MeanReward() const {
      return count > 0 ? reward_sum / static_cast<double>(count) : 0.0;
    }
    double WinRate() const {
      return count > 0 ? static_cast<double>(wins) / static_cast<double>(count)
                       : 0.0;
    }
  };

  FeedbackStore() = default;
  FeedbackStore(const FeedbackStore&) = delete;
  FeedbackStore& operator=(const FeedbackStore&) = delete;

  // Records one observation of `model` on a query of `domain`.
  void Record(const std::string& model, const std::string& domain,
              double reward, bool won);

  Stats GetStats(const std::string& model, const std::string& domain) const;

  // Total observations for a domain across models.
  size_t DomainObservations(const std::string& domain) const;

  // Models ranked by mean reward on `domain` (best first); models with no
  // observations rank last with prior 0. Only `known_models` are returned.
  std::vector<std::string> RankModels(
      const std::string& domain,
      const std::vector<std::string>& known_models) const;

  // Every (model, domain) record as JSON, for display.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  // (model, domain) -> stats; std::map for deterministic serialization.
  std::map<std::pair<std::string, std::string>, Stats> stats_;
};

// Game-theoretic model coordination (§9.5): each model is a player earning
// rating from per-query outcomes. Standard Elo: after a query, the winning
// model "beats" every other participant. Ratings act as a cheap global
// quality prior (e.g. a routing tie-breaker). Thread-safe.
class EloRatings {
 public:
  explicit EloRatings(double k_factor = 16.0, double initial = 1000.0)
      : k_factor_(k_factor), initial_(initial) {}

  EloRatings(const EloRatings&) = delete;
  EloRatings& operator=(const EloRatings&) = delete;

  // Applies one query outcome: `winner` beats each model in `losers`.
  void RecordOutcome(const std::string& winner,
                     const std::vector<std::string>& losers);

  double Rating(const std::string& model) const;

  // (model, rating) pairs sorted best-first.
  std::vector<std::pair<std::string, double>> Ranking() const;

 private:
  double ExpectedScore(double a, double b) const;

  double k_factor_;
  double initial_;
  mutable std::mutex mu_;
  std::map<std::string, double> ratings_;
};

}  // namespace llmms::core

#endif  // LLMMS_CORE_FEEDBACK_H_
