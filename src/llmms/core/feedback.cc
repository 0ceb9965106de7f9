#include "llmms/core/feedback.h"

#include <algorithm>
#include <cmath>

#include "llmms/common/json.h"

namespace llmms::core {

void FeedbackStore::Record(const std::string& model, const std::string& domain,
                           double reward, bool won) {
  std::lock_guard<std::mutex> lock(mu_);
  Stats& stats = stats_[{model, domain}];
  stats.reward_sum += reward;
  ++stats.count;
  if (won) ++stats.wins;
}

FeedbackStore::Stats FeedbackStore::GetStats(const std::string& model,
                                             const std::string& domain) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find({model, domain});
  return it != stats_.end() ? it->second : Stats{};
}

size_t FeedbackStore::DomainObservations(const std::string& domain) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [key, stats] : stats_) {
    if (key.second == domain) total += stats.count;
  }
  return total;
}

std::vector<std::string> FeedbackStore::RankModels(
    const std::string& domain,
    const std::vector<std::string>& known_models) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<double, std::string>> scored;
  scored.reserve(known_models.size());
  for (const auto& model : known_models) {
    auto it = stats_.find({model, domain});
    const double mean =
        it != stats_.end() ? it->second.MeanReward() : 0.0;
    scored.emplace_back(mean, model);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> out;
  out.reserve(scored.size());
  for (const auto& [mean, model] : scored) out.push_back(model);
  return out;
}

std::string FeedbackStore::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json entries = Json::MakeArray();
  for (const auto& [key, stats] : stats_) {
    Json entry = Json::MakeObject();
    entry.Set("model", key.first);
    entry.Set("domain", key.second);
    entry.Set("reward_sum", stats.reward_sum);
    entry.Set("count", stats.count);
    entry.Set("wins", stats.wins);
    entries.Append(std::move(entry));
  }
  Json root = Json::MakeObject();
  root.Set("version", 1);
  root.Set("entries", std::move(entries));
  return root.Dump();
}

double EloRatings::ExpectedScore(double a, double b) const {
  return 1.0 / (1.0 + std::pow(10.0, (b - a) / 400.0));
}

void EloRatings::RecordOutcome(const std::string& winner,
                               const std::vector<std::string>& losers) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ratings_.find(winner) == ratings_.end()) ratings_[winner] = initial_;
  for (const auto& loser : losers) {
    if (loser == winner) continue;
    if (ratings_.find(loser) == ratings_.end()) ratings_[loser] = initial_;
    const double expected = ExpectedScore(ratings_[winner], ratings_[loser]);
    const double delta = k_factor_ * (1.0 - expected);
    ratings_[winner] += delta;
    ratings_[loser] -= delta;
  }
}

double EloRatings::Rating(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ratings_.find(model);
  return it != ratings_.end() ? it->second : initial_;
}

std::vector<std::pair<std::string, double>> EloRatings::Ranking() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out(ratings_.begin(),
                                                  ratings_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace llmms::core
