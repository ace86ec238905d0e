// ForestFlowClassifier: the serve engine's per-flow vote must be exactly
// RandomForest::predict for the same row, at any class count.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "serve/classifier.h"

namespace sugar::serve {
namespace {

TEST(ForestFlowClassifier, ClassifyEqualsForestPredictRowByRow) {
  std::mt19937_64 rng(81);
  std::normal_distribution<float> noise(0.0f, 1.5f);
  constexpr int kClasses = 6;
  ml::Matrix x(kClasses * 40, 8);
  std::vector<int> y;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const int c = static_cast<int>(r % kClasses);
    for (std::size_t d = 0; d < x.cols(); ++d)
      x(r, d) = static_cast<float>(c * (d % 2 + 1)) + noise(rng);
    y.push_back(c);
  }
  ml::ForestConfig cfg;
  cfg.num_trees = 24;
  const auto clf = fit_forest_classifier(x, y, kClasses, cfg);
  EXPECT_EQ(clf->feature_dim(), x.cols());
  EXPECT_EQ(clf->num_classes(), kClasses);
  const std::vector<int> pred = clf->forest().predict(x);
  for (std::size_t r = 0; r < x.rows(); ++r)
    EXPECT_EQ(clf->classify(x.row(r)), pred[r]) << "row " << r;
}

TEST(ForestFlowClassifier, VotesLabelsAbove255) {
  // 300 classes, separable on one feature: rows of classes >= 256 must get
  // their own labels, as RandomForest::predict gives them.
  constexpr int kClasses = 300;
  ml::Matrix x(kClasses * 3, 2);
  std::vector<int> y;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const int c = static_cast<int>(r / 3);
    x(r, 0) = static_cast<float>(c);
    x(r, 1) = static_cast<float>(r % 3);
    y.push_back(c);
  }
  ml::ForestConfig cfg;
  cfg.num_trees = 5;
  const auto clf = fit_forest_classifier(x, y, kClasses, cfg);
  const std::vector<int> pred = clf->forest().predict(x);
  int high = 0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(clf->classify(x.row(r)), pred[r]) << "row " << r;
    high += pred[r] >= 256;
  }
  EXPECT_GT(high, 100);
}

}  // namespace
}  // namespace sugar::serve
