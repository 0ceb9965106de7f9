#include <cmath>
#include <gtest/gtest.h>
#include <unordered_set>

#include "llmms/eval/metrics.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/eval/report.h"
#include "testutil.h"

namespace llmms::eval {
namespace {

TEST(QaDatasetTest, GeneratesRequestedCounts) {
  DatasetOptions options;
  options.questions_per_domain = 5;
  const auto items = GenerateDataset(options);
  EXPECT_EQ(items.size(), 5u * llm::CanonicalDomains().size());
}

TEST(QaDatasetTest, DomainFilterRestricts) {
  DatasetOptions options;
  options.questions_per_domain = 3;
  options.domains = {"math", "logic"};
  const auto items = GenerateDataset(options);
  EXPECT_EQ(items.size(), 6u);
  for (const auto& item : items) {
    EXPECT_TRUE(item.domain == "math" || item.domain == "logic");
  }
}

TEST(QaDatasetTest, ItemsWellFormed) {
  DatasetOptions options;
  options.questions_per_domain = 10;
  for (const auto& item : GenerateDataset(options)) {
    EXPECT_FALSE(item.id.empty());
    EXPECT_FALSE(item.question.empty());
    EXPECT_FALSE(item.golden.empty());
    EXPECT_GE(item.correct.size(), 2u) << item.id;
    EXPECT_GE(item.incorrect.size(), 3u) << item.id;
    for (const auto& wrong : item.incorrect) {
      EXPECT_NE(wrong, item.golden) << item.id;
    }
  }
}

TEST(QaDatasetTest, QuestionsAreUnique) {
  DatasetOptions options;
  options.questions_per_domain = 30;
  const auto items = GenerateDataset(options);
  std::unordered_set<std::string> questions;
  for (const auto& item : items) questions.insert(item.question);
  // Allow a tiny number of collisions from the pseudo-word generator.
  EXPECT_GE(questions.size(), items.size() - 2);
}

TEST(QaDatasetTest, DeterministicForSeed) {
  DatasetOptions options;
  options.questions_per_domain = 5;
  const auto a = GenerateDataset(options);
  const auto b = GenerateDataset(options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].question, b[i].question);
    EXPECT_EQ(a[i].golden, b[i].golden);
  }
  options.seed = 999;
  const auto c = GenerateDataset(options);
  EXPECT_NE(a[0].question, c[0].question);
}

TEST(MetricsTest, ScoreResponseRewardsTruthfulAnswer) {
  auto world = testutil::MakeWorld(2);
  const auto& item = world.dataset[0];
  const auto good = ScoreResponse(*world.embedder, item, item.golden);
  const auto bad = ScoreResponse(*world.embedder, item, item.incorrect[0]);
  EXPECT_GT(good.reward, bad.reward);
  EXPECT_GT(good.f1, bad.f1);
  EXPECT_TRUE(good.correct);
  EXPECT_FALSE(bad.correct);
  EXPECT_EQ(good.question_id, item.id);
  EXPECT_EQ(good.domain, item.domain);
}

TEST(MetricsTest, IsCorrectComparesAgainstBothSets) {
  auto world = testutil::MakeWorld(2);
  const auto& item = world.dataset[0];
  EXPECT_TRUE(IsCorrect(item, item.correct[0]));
  EXPECT_FALSE(IsCorrect(item, item.incorrect[1]));
  EXPECT_FALSE(IsCorrect(item, ""));
}

TEST(MetricsTest, AggregateAveragesPerQuestionValues) {
  std::vector<QuestionMetrics> metrics(2);
  metrics[0].reward = 1.0;
  metrics[0].f1 = 0.5;
  metrics[0].correct = true;
  metrics[0].total_tokens = 100;
  metrics[0].answer_tokens = 40;
  metrics[1].reward = 0.0;
  metrics[1].f1 = 0.1;
  metrics[1].correct = false;
  metrics[1].total_tokens = 300;
  metrics[1].answer_tokens = 80;
  const auto agg = Aggregate("test", metrics);
  EXPECT_EQ(agg.num_questions, 2u);
  EXPECT_DOUBLE_EQ(agg.mean_reward, 0.5);
  EXPECT_DOUBLE_EQ(agg.mean_f1, 0.3);
  EXPECT_DOUBLE_EQ(agg.accuracy, 0.5);
  EXPECT_DOUBLE_EQ(agg.mean_total_tokens, 200.0);
  EXPECT_DOUBLE_EQ(agg.mean_answer_tokens, 60.0);
  EXPECT_DOUBLE_EQ(agg.mean_reward_per_total_token, (1.0 / 100.0 + 0.0) / 2.0);
  EXPECT_DOUBLE_EQ(agg.mean_reward_per_answer_token, (1.0 / 40.0 + 0.0) / 2.0);
}

TEST(MetricsTest, AggregateComputesDispersion) {
  std::vector<QuestionMetrics> metrics(4);
  metrics[0].reward = 1.0;
  metrics[1].reward = 3.0;
  metrics[2].reward = 5.0;
  metrics[3].reward = 7.0;
  const auto agg = Aggregate("disp", metrics);
  EXPECT_DOUBLE_EQ(agg.mean_reward, 4.0);
  // Sample stddev of {1,3,5,7} = sqrt(20/3).
  EXPECT_NEAR(agg.reward_stddev, std::sqrt(20.0 / 3.0), 1e-12);
  EXPECT_NEAR(agg.reward_sem, agg.reward_stddev / 2.0, 1e-12);
  // Single observation: no dispersion defined.
  const auto one = Aggregate("one", {metrics[0]});
  EXPECT_DOUBLE_EQ(one.reward_stddev, 0.0);
  EXPECT_DOUBLE_EQ(one.reward_sem, 0.0);
}

TEST(MetricsTest, AggregateEmptyIsZeroes) {
  const auto agg = Aggregate("empty", {});
  EXPECT_EQ(agg.num_questions, 0u);
  EXPECT_DOUBLE_EQ(agg.mean_reward, 0.0);
}

TEST(MetricsTest, AggregateByDomainSplits) {
  std::vector<QuestionMetrics> metrics(3);
  metrics[0].domain = "math";
  metrics[0].reward = 1.0;
  metrics[1].domain = "math";
  metrics[1].reward = 0.0;
  metrics[2].domain = "logic";
  metrics[2].reward = 0.8;
  const auto by_domain = AggregateByDomain("s", metrics);
  ASSERT_EQ(by_domain.size(), 2u);
  EXPECT_EQ(by_domain[0].first, "logic");
  EXPECT_DOUBLE_EQ(by_domain[0].second.mean_reward, 0.8);
  EXPECT_EQ(by_domain[1].first, "math");
  EXPECT_DOUBLE_EQ(by_domain[1].second.mean_reward, 0.5);
}

TEST(ReportTest, TablesContainEveryStrategy) {
  StrategyAggregate row;
  row.strategy = "llm-ms-oua";
  row.num_questions = 10;
  row.mean_reward = 0.42;
  row.mean_f1 = 0.31;
  std::ostringstream text;
  PrintAggregateTable(text, {row});
  EXPECT_NE(text.str().find("llm-ms-oua"), std::string::npos);
  EXPECT_NE(text.str().find("0.42"), std::string::npos);

  std::ostringstream series;
  PrintMetricSeries(series, "Figure 8.1", "reward", {row});
  EXPECT_NE(series.str().find("Figure 8.1"), std::string::npos);
  EXPECT_NE(series.str().find("0.4200"), std::string::npos);

  std::ostringstream markdown;
  PrintMarkdownTable(markdown, {row});
  EXPECT_NE(markdown.str().find("| llm-ms-oua |"), std::string::npos);
}

}  // namespace
}  // namespace llmms::eval
