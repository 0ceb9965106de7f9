#include "llmms/core/router.h"

#include <gtest/gtest.h>

#include "llmms/common/json.h"
#include "llmms/core/feedback.h"
#include "testutil.h"

namespace llmms::core {
namespace {

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = testutil::MakeWorld(10);
    classifier_ = std::make_unique<IntentClassifier>(world_.embedder);
    // Train the intent detector with the benchmark questions themselves
    // (labels = domains) — the "semantic task index" bootstrap.
    for (const auto& item : world_.dataset) {
      ASSERT_TRUE(classifier_->AddExample(item.question, item.domain).ok());
    }
  }

  testutil::World world_;
  std::unique_ptr<IntentClassifier> classifier_;
  FeedbackStore feedback_;
  EloRatings ratings_;
};

TEST_F(RouterTest, ClassifierRecognizesDomains) {
  size_t correct = 0;
  for (const auto& item : world_.dataset) {
    auto prediction = classifier_->Classify(item.question);
    ASSERT_TRUE(prediction.ok());
    correct += prediction->label == item.domain ? 1 : 0;
  }
  // Training items themselves must classify almost perfectly.
  EXPECT_GT(static_cast<double>(correct) / world_.dataset.size(), 0.9);
}

TEST_F(RouterTest, ClassifierValidatesInput) {
  IntentClassifier fresh(world_.embedder);
  EXPECT_TRUE(fresh.Classify("anything").status().IsFailedPrecondition());
  EXPECT_TRUE(fresh.AddExample("", "label").IsInvalidArgument());
  EXPECT_TRUE(fresh.AddExample("text", "").IsInvalidArgument());
}

TEST_F(RouterTest, ClassifierLabelsSorted) {
  const auto labels = classifier_->Labels();
  EXPECT_EQ(labels.size(), llm::CanonicalDomains().size());
  EXPECT_TRUE(std::is_sorted(labels.begin(), labels.end()));
  EXPECT_EQ(classifier_->example_count(), world_.dataset.size());
}

TEST_F(RouterTest, FeedbackStoreAccumulates) {
  feedback_.Record("m1", "math", 0.8, true);
  feedback_.Record("m1", "math", 0.6, false);
  feedback_.Record("m2", "math", 0.2, false);
  const auto stats = feedback_.GetStats("m1", "math");
  EXPECT_EQ(stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.MeanReward(), 0.7);
  EXPECT_DOUBLE_EQ(stats.WinRate(), 0.5);
  EXPECT_EQ(feedback_.DomainObservations("math"), 3u);
  EXPECT_EQ(feedback_.DomainObservations("logic"), 0u);
  EXPECT_EQ(feedback_.GetStats("m9", "math").count, 0u);
}

TEST_F(RouterTest, FeedbackRankingOrdersByMeanReward) {
  feedback_.Record("a", "math", 0.9, true);
  feedback_.Record("b", "math", 0.3, false);
  feedback_.Record("c", "math", 0.6, false);
  const auto ranked = feedback_.RankModels("math", {"a", "b", "c", "d"});
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0], "a");
  EXPECT_EQ(ranked[1], "c");
  EXPECT_EQ(ranked[2], "b");
  EXPECT_EQ(ranked[3], "d");  // never observed -> last
}

TEST_F(RouterTest, FeedbackToJsonListsEveryRecord) {
  feedback_.Record("m1", "math", 0.8, true);
  feedback_.Record("m2", "logic", 0.4, false);
  auto json = Json::Parse(feedback_.ToJson());
  ASSERT_TRUE(json.ok());
  EXPECT_EQ((*json)["version"].AsInt(), 1);
  const auto& entries = (*json)["entries"].AsArray();
  ASSERT_EQ(entries.size(), 2u);
  // (model, domain) order.
  EXPECT_EQ(entries[0]["model"].AsString(), "m1");
  EXPECT_EQ(entries[0]["domain"].AsString(), "math");
  EXPECT_DOUBLE_EQ(entries[0]["reward_sum"].AsDouble(), 0.8);
  EXPECT_EQ(entries[0]["count"].AsInt(), 1);
  EXPECT_EQ(entries[0]["wins"].AsInt(), 1);
  EXPECT_EQ(entries[1]["model"].AsString(), "m2");
  EXPECT_EQ(entries[1]["domain"].AsString(), "logic");
  EXPECT_EQ(entries[1]["wins"].AsInt(), 0);
}

TEST_F(RouterTest, EloRatingsRewardWinners) {
  EloRatings elo;
  EXPECT_DOUBLE_EQ(elo.Rating("fresh"), 1000.0);
  for (int i = 0; i < 10; ++i) {
    elo.RecordOutcome("strong", {"weak1", "weak2"});
  }
  EXPECT_GT(elo.Rating("strong"), 1000.0);
  EXPECT_LT(elo.Rating("weak1"), 1000.0);
  const auto ranking = elo.Ranking();
  ASSERT_EQ(ranking.size(), 3u);
  EXPECT_EQ(ranking[0].first, "strong");
}

TEST_F(RouterTest, EloSelfWinIsNoop) {
  EloRatings elo;
  elo.RecordOutcome("solo", {"solo"});
  EXPECT_DOUBLE_EQ(elo.Rating("solo"), 1000.0);
}

TEST_F(RouterTest, RoutesToFullPoolBeforeWarmup) {
  RoutedOrchestrator::Config config;
  config.min_observations = 10;
  RoutedOrchestrator router(world_.runtime.get(), world_.model_names,
                            world_.embedder, classifier_.get(), &feedback_,
                            &ratings_, config);
  auto route = router.RouteFor(world_.dataset[0].question);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->size(), 3u);
}

TEST_F(RouterTest, RoutesToSpecialistsAfterWarmup) {
  RoutedOrchestrator::Config config;
  config.min_observations = 5;
  config.route_to = 1;
  RoutedOrchestrator router(world_.runtime.get(), world_.model_names,
                            world_.embedder, classifier_.get(), &feedback_,
                            &ratings_, config);

  // Warm up: run every math question through the router; it records
  // feedback under the predicted label each time.
  std::vector<const llm::QaItem*> math_items;
  for (const auto& item : world_.dataset) {
    if (item.domain == "math") math_items.push_back(&item);
  }
  ASSERT_GE(math_items.size(), 6u);
  for (const auto* item : math_items) {
    ASSERT_TRUE(router.Run(item->question).ok());
  }

  // After warmup the route for a math question is a single model, and it is
  // the feedback store's top math model.
  auto route = router.RouteFor(math_items[0]->question);
  ASSERT_TRUE(route.ok());
  ASSERT_EQ(route->size(), 1u);
  const auto ranked = feedback_.RankModels("math", world_.model_names);
  EXPECT_EQ(route->front(), ranked.front());

  // Routing saves tokens: the routed run touches one model only.
  auto result = router.Run(math_items[1]->question);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->per_model.size(), 1u);
}

TEST_F(RouterTest, SelfImprovementLoopUpdatesEloAndFeedback) {
  RoutedOrchestrator::Config config;
  RoutedOrchestrator router(world_.runtime.get(), world_.model_names,
                            world_.embedder, classifier_.get(), &feedback_,
                            &ratings_, config);
  ASSERT_TRUE(router.Run(world_.dataset[0].question).ok());
  const std::string domain = world_.dataset[0].domain;
  EXPECT_EQ(feedback_.DomainObservations(domain), 3u);  // all participants
  EXPECT_FALSE(ratings_.Ranking().empty());
}

TEST_F(RouterTest, EmptyPoolRejected) {
  RoutedOrchestrator router(world_.runtime.get(), {}, world_.embedder,
                            classifier_.get(), &feedback_, &ratings_, {});
  EXPECT_TRUE(router.Run("q").status().IsFailedPrecondition());
}

}  // namespace
}  // namespace llmms::core
