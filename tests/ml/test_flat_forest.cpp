// Compiled ≡ node-walk: every prediction the compiled ml::FlatForest makes
// — RandomForest votes from fit() and fit_binned(), GBDT margin scores —
// must equal the per-tree DecisionTree walk bit for bit, on rows holding
// NaN and ±inf, for single-leaf trees (which must never read the row), for
// tree counts off the lockstep block size, and at pool widths 1/2/7.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/threadpool.h"
#include "ml/binned.h"
#include "ml/flat_forest.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/tree.h"

namespace sugar::ml {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { core::set_global_threads(n); }
  ~ScopedThreads() { core::set_global_threads(0); }
};

const std::size_t kWidths[] = {1, 2, 7};

/// Noisy overlapping blobs on a 0.5 grid: deep, uneven trees whose exact
/// thresholds (midpoints) sit on the 0.25 grid and whose histogram cuts
/// are grid values.
std::pair<Matrix, std::vector<int>> make_blobs(int classes, std::size_t per_class,
                                               std::size_t dims, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> noise(0.0f, 2.0f);
  Matrix x(static_cast<std::size_t>(classes) * per_class, dims);
  std::vector<int> y;
  for (std::size_t row = 0; row < x.rows(); ++row) {
    const int c = static_cast<int>(row / per_class);
    for (std::size_t d = 0; d < dims; ++d)
      x(row, d) = std::round(2.0f * (static_cast<float>(c * (d % 3 + 1)) + noise(rng))) / 2.0f;
    y.push_back(c);
  }
  return {std::move(x), std::move(y)};
}

/// Query rows on the 0.25 grid spanning the training range, so many values
/// land exactly on a threshold, with NaN and ±inf planted in every feature
/// column.
Matrix make_queries(std::size_t rows, std::size_t dims, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-6.0f, 30.0f);
  Matrix q(rows, dims);
  for (auto& v : q.data()) v = std::round(4.0f * dist(rng)) / 4.0f;
  const float special[] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity()};
  for (std::size_t d = 0; d < dims; ++d)
    for (std::size_t s = 0; s < 3; ++s) q((d * 3 + s) % rows, d) = special[s];
  for (std::size_t d = 0; d < dims; ++d)  // one all-NaN row
    q(rows - 1, d) = special[0];
  return q;
}

/// The node walk: one vote per tree, std::max_element over the counts.
int node_walk_vote(const std::vector<DecisionTree>& trees, const float* row) {
  std::vector<int> votes;
  for (const auto& tree : trees) {
    const auto c = static_cast<std::size_t>(tree.predict_class(row));
    if (c >= votes.size()) votes.resize(c + 1, 0);
    ++votes[c];
  }
  if (votes.empty()) return 0;
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                          votes.begin());
}

/// The node-walk margin: trees outer, rows inner, as decision_function
/// accumulated before it was compiled.
Matrix node_walk_scores(const std::vector<DecisionTree>& trees, std::size_t outputs,
                        float learning_rate, const Matrix& x) {
  Matrix scores(x.rows(), outputs);
  for (std::size_t t = 0; t < trees.size(); ++t)
    for (std::size_t i = 0; i < x.rows(); ++i)
      scores(i, t % outputs) += learning_rate * trees[t].predict_value(x.row(i));
  return scores;
}

bool bit_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(float)) == 0;
}

void expect_votes_match(const RandomForest& rf, const Matrix& q) {
  const std::vector<int> pred = rf.predict(q);
  ASSERT_EQ(pred.size(), q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const int ref = node_walk_vote(rf.trees(), q.row(i));
    ASSERT_EQ(pred[i], ref) << "row " << i;
    ASSERT_EQ(rf.predict_row(q.row(i)), ref) << "row " << i;
  }
}

TEST(FlatForest, ForestFitVotesMatchNodeWalkAllWidths) {
  auto [x, y] = make_blobs(7, 60, 9, 51);
  const Matrix q = make_queries(200, 9, 52);
  // Tree counts below, at, just past and well past the block size.
  for (const std::size_t trees :
       {std::size_t{1}, FlatForest::kBlock - 1, FlatForest::kBlock,
        FlatForest::kBlock + 1, 2 * FlatForest::kBlock + 5}) {
    for (std::size_t w : kWidths) {
      ScopedThreads threads(w);
      ForestConfig cfg;
      cfg.num_trees = static_cast<int>(trees);
      cfg.tree.features_per_split = 3;
      RandomForest rf(cfg);
      rf.fit(x, y, 7);
      SCOPED_TRACE(testing::Message() << "trees " << trees << " width " << w);
      expect_votes_match(rf, q);
    }
  }
}

TEST(FlatForest, ForestFitBinnedVotesMatchNodeWalkAllWidths) {
  auto [x, y] = make_blobs(5, 80, 6, 53);
  const Matrix q = make_queries(150, 6, 54);
  for (std::size_t w : kWidths) {
    ScopedThreads threads(w);
    const BinnedMatrix bm(x, 32);
    ForestConfig cfg;
    cfg.num_trees = static_cast<int>(FlatForest::kBlock + 3);
    RandomForest rf(cfg);
    rf.fit_binned(bm, y, 5);
    SCOPED_TRACE(testing::Message() << "width " << w);
    expect_votes_match(rf, q);
  }
}

TEST(FlatForest, GbdtScoresBitIdenticalToNodeWalkAllWidths) {
  auto [x3, y3] = make_blobs(3, 70, 5, 55);
  auto [x2, y2] = make_blobs(2, 90, 5, 56);
  const Matrix q = make_queries(120, 5, 57);
  struct Case {
    GbdtConfig cfg;
    const Matrix* x;
    const std::vector<int>* y;
    int classes;
  };
  GbdtConfig small = GbdtConfig::xgboost_style();
  small.rounds = 11;  // 33 trees: a partial final block
  const Case cases[] = {{GbdtConfig::xgboost_style(), &x3, &y3, 3},
                        {GbdtConfig::lightgbm_style(), &x3, &y3, 3},
                        {small, &x3, &y3, 3},
                        {GbdtConfig::xgboost_style(), &x2, &y2, 2}};
  for (const Case& c : cases) {
    for (std::size_t w : kWidths) {
      ScopedThreads threads(w);
      GradientBoosting gb(c.cfg);
      gb.fit(*c.x, *c.y, c.classes);
      const std::size_t outputs = c.classes <= 2 ? 1 : static_cast<std::size_t>(c.classes);
      SCOPED_TRACE(testing::Message() << "classes " << c.classes << " trees "
                                      << gb.trees().size() << " width " << w);
      EXPECT_TRUE(bit_equal(gb.decision_function(q),
                            node_walk_scores(gb.trees(), outputs, c.cfg.learning_rate, q)));
      EXPECT_TRUE(bit_equal(gb.decision_function(*c.x),
                            node_walk_scores(gb.trees(), outputs, c.cfg.learning_rate, *c.x)));
    }
  }
}

TEST(FlatForest, SingleLeafForestsNeverReadTheRow) {
  // Zero-row fits and pure labels both grow single-leaf trees: the walk
  // takes no step, so a null row is never dereferenced.
  const Matrix empty(0, 4);
  RandomForest zero;
  zero.fit(empty, {}, 3);
  EXPECT_EQ(zero.predict_row(nullptr), 0);

  Matrix x(20, 4, 1.0f);
  const std::vector<int> pure(20, 2);
  RandomForest rf;
  rf.fit(x, pure, 3);
  EXPECT_EQ(rf.predict_row(nullptr), 2);

  GradientBoosting gb;
  gb.fit(empty, {}, 3);
  const FlatForest flat(gb.trees());
  std::vector<float> leaf(flat.num_trees(), 1.0f);
  flat.leaf_values(nullptr, leaf.data());
  for (std::size_t t = 0; t < leaf.size(); ++t)
    EXPECT_EQ(leaf[t], gb.trees()[t].predict_value(x.row(0))) << "tree " << t;
}

TEST(FlatForest, MixedDepthBlocksAndTiesMatchNodeWalk) {
  // Single-leaf trees of chosen classes interleaved with deep fitted trees,
  // so blocks mix finished and walking lanes, and votes tie.
  auto [x, y] = make_blobs(4, 50, 5, 58);
  const Matrix q = make_queries(80, 5, 59);
  const BinnedMatrix bm(x, 32);
  std::vector<DecisionTree> trees;
  std::mt19937_64 rng(60);
  TreeConfig cfg;
  cfg.features_per_split = 2;
  for (std::size_t t = 0; t < 2 * FlatForest::kBlock + 7; ++t) {
    DecisionTree tree;
    if (t % 3 == 0) {
      const std::vector<int> pure(x.rows(), static_cast<int>(t % 4));
      tree.fit_classifier(x, bm, pure, 4, cfg, rng);
    } else {
      tree.fit_classifier(x, bm, y, 4, cfg, rng);
    }
    trees.push_back(std::move(tree));
  }
  for (std::size_t count = 0; count <= trees.size(); ++count) {
    const std::vector<DecisionTree> prefix(trees.begin(),
                                           trees.begin() + static_cast<std::ptrdiff_t>(count));
    const FlatForest flat(prefix);
    ASSERT_EQ(flat.num_trees(), count);
    for (std::size_t i = 0; i < q.rows(); ++i)
      ASSERT_EQ(flat.vote(q.row(i)), node_walk_vote(prefix, q.row(i)))
          << "trees " << count << " row " << i;
  }

  // A 1-1 tie between classes 3 and 1 goes to the lower class.
  const FlatForest tie({trees[3], trees[9]});  // pure classes 3 and 1
  EXPECT_EQ(tie.vote(q.row(0)), 1);
}

TEST(FlatForest, VotesBeyond256Classes) {
  // Pure trees of classes 299, 299 and 7: the vote array grows past 256.
  Matrix x(4, 2, 0.5f);
  const BinnedMatrix bm(x, 8);
  std::mt19937_64 rng(61);
  std::vector<DecisionTree> trees(3);
  const int labels[] = {299, 299, 7};
  for (std::size_t t = 0; t < 3; ++t)
    trees[t].fit_classifier(x, bm, std::vector<int>(4, labels[t]), 300, {}, rng);
  EXPECT_EQ(FlatForest(trees).vote(x.row(0)), 299);
}

}  // namespace
}  // namespace sugar::ml
