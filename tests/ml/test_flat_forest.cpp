// Compiled ≡ node-walk: every prediction the compiled ml::FlatForest makes
// — majority votes of classification trees, leaf values of regression trees
// — must equal the per-tree DecisionTree walk bit for bit, on rows holding
// NaN and ±inf, for single-leaf trees (which must never read the row), for
// tree counts off the lockstep block size, and at pool widths 1/2/7. The
// ensembles keep only their compiled forest, so the live oracle runs on
// trees fitted here through DecisionTree, and the ensembles' own outputs
// (RandomForest::predict / predict_row, GBDT decision_function) are pinned
// to digests recorded while they still kept their trees and were checked
// against this same node walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact.h"
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
/// Tree counts below, at, just past and well past the block size.
const std::size_t kTreeCounts[] = {1, FlatForest::kBlock - 1, FlatForest::kBlock,
                                   FlatForest::kBlock + 1, 2 * FlatForest::kBlock + 5};

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

/// A bootstrap bag of n rows, as the forest draws one per tree.
std::vector<std::uint32_t> bag(std::mt19937_64& rng, std::size_t n) {
  std::uniform_int_distribution<std::uint32_t> pick(0, static_cast<std::uint32_t>(n - 1));
  std::vector<std::uint32_t> rows(n);
  for (auto& r : rows) r = pick(rng);
  return rows;
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

/// Compiles every prefix size in kTreeCounts and checks its vote on every
/// query row against the node walk.
void expect_prefix_votes_match(const std::vector<DecisionTree>& trees, const Matrix& q) {
  for (const std::size_t count : kTreeCounts) {
    const std::vector<DecisionTree> prefix(trees.begin(),
                                           trees.begin() + static_cast<std::ptrdiff_t>(count));
    const FlatForest flat(prefix);
    ASSERT_EQ(flat.num_trees(), count);
    for (std::size_t i = 0; i < q.rows(); ++i)
      ASSERT_EQ(flat.vote(q.row(i)), node_walk_vote(prefix, q.row(i)))
          << "trees " << count << " row " << i;
  }
}

/// FNV-1a digest of a vector's raw bytes, as 16 hex digits.
template <typename V>
std::string digest(const V& v) {
  return core::hex64(core::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(v.data()),
      v.size() * sizeof(typename V::value_type))));
}

/// RandomForest::predict over the queries; predict_row must agree row by row.
std::string forest_digest(const RandomForest& rf, const Matrix& q) {
  const std::vector<int> pred = rf.predict(q);
  EXPECT_EQ(pred.size(), q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i)
    EXPECT_EQ(rf.predict_row(q.row(i)), pred[i]) << "row " << i;
  return digest(pred);
}

struct GbdtCase {
  GbdtConfig cfg;
  int classes;
};

/// The GBDT ensembles pinned below: xgboost, lightgbm, a 33-tree forest
/// (a partial final block) and a binary task.
std::vector<GbdtCase> gbdt_cases() {
  GbdtConfig small = GbdtConfig::xgboost_style();
  small.rounds = 11;
  return {{GbdtConfig::xgboost_style(), 3},
          {GbdtConfig::lightgbm_style(), 3},
          {small, 3},
          {GbdtConfig::xgboost_style(), 2}};
}

TEST(FlatForest, ForestFitVotesMatchNodeWalkAllWidths) {
  auto [x, y] = make_blobs(7, 60, 9, 51);
  const Matrix q = make_queries(200, 9, 52);
  TreeConfig cfg = ForestConfig().tree;
  cfg.features_per_split = 3;
  // Recorded from RandomForest::fit at each tree count, each equal row by
  // row to the node walk over the forest's own trees.
  const char* const pinned[] = {"d377a7714e2f0547", "922e82ae496de990",
                                "dc849df1d8dde297", "6cdd4485b1eb5c51",
                                "42fb09010cb8e972"};
  for (std::size_t w : kWidths) {
    ScopedThreads threads(w);
    SCOPED_TRACE(testing::Message() << "width " << w);
    const BinnedMatrix bm(x, cfg.histogram_bins);
    std::vector<DecisionTree> trees(kTreeCounts[4]);
    for (std::size_t t = 0; t < trees.size(); ++t) {
      std::mt19937_64 rng(100 + t);
      const auto rows = bag(rng, x.rows());
      trees[t].fit_classifier(x, bm, y, 7, cfg, rng, &rows);
    }
    expect_prefix_votes_match(trees, q);

    for (std::size_t c = 0; c < std::size(kTreeCounts); ++c) {
      ForestConfig fc;
      fc.num_trees = static_cast<int>(kTreeCounts[c]);
      fc.tree.features_per_split = 3;
      RandomForest rf(fc);
      rf.fit(x, y, 7);
      EXPECT_EQ(forest_digest(rf, q), pinned[c]) << "trees " << kTreeCounts[c];
    }
  }
}

TEST(FlatForest, ForestFitBinnedVotesMatchNodeWalkAllWidths) {
  auto [x, y] = make_blobs(5, 80, 6, 53);
  const Matrix q = make_queries(150, 6, 54);
  const TreeConfig cfg = ForestConfig().tree;
  for (std::size_t w : kWidths) {
    ScopedThreads threads(w);
    SCOPED_TRACE(testing::Message() << "width " << w);
    const BinnedMatrix bm(x, 32);
    std::vector<DecisionTree> trees(kTreeCounts[4]);
    for (std::size_t t = 0; t < trees.size(); ++t) {
      std::mt19937_64 rng(200 + t);
      auto rows = bag(rng, x.rows());
      std::sort(rows.begin(), rows.end());
      trees[t].fit_classifier_binned(bm, y, 5, cfg, rng, &rows);
    }
    expect_prefix_votes_match(trees, q);

    // Recorded from RandomForest::fit_binned, equal row by row to the node
    // walk over the forest's own trees.
    ForestConfig fc;
    fc.num_trees = static_cast<int>(FlatForest::kBlock + 3);
    RandomForest rf(fc);
    rf.fit_binned(bm, y, 5);
    EXPECT_EQ(forest_digest(rf, q), "143cd54779692cf3");
  }
}

TEST(FlatForest, GbdtScoresBitIdenticalToNodeWalkAllWidths) {
  auto [x3, y3] = make_blobs(3, 70, 5, 55);
  auto [x2, y2] = make_blobs(2, 90, 5, 56);
  const Matrix q = make_queries(120, 5, 57);
  const TreeConfig depth_wise = GbdtConfig::xgboost_style().tree;
  const TreeConfig leaf_wise = GbdtConfig::lightgbm_style().tree;
  for (std::size_t w : kWidths) {
    ScopedThreads threads(w);
    SCOPED_TRACE(testing::Message() << "width " << w);
    // Regression trees on random gradients, alternating growth mode and
    // resident / code-only fits: each compiled leaf value must be the
    // tree's own predict_value.
    const BinnedMatrix bm(x3, depth_wise.histogram_bins);
    std::vector<DecisionTree> trees(kTreeCounts[4]);
    std::vector<float> grad(x3.rows()), hess(x3.rows()), leaf;
    for (std::size_t t = 0; t < trees.size(); ++t) {
      std::mt19937_64 rng(300 + t);
      std::uniform_real_distribution<float> unit(0.02f, 0.98f);
      for (std::size_t i = 0; i < x3.rows(); ++i) {
        const float p = unit(rng);
        grad[i] = p - (y3[i] == static_cast<int>(t % 3) ? 1.0f : 0.0f);
        hess[i] = p * (1.0f - p);
      }
      const TreeConfig& cfg = t % 2 ? leaf_wise : depth_wise;
      if (t % 4 < 2)
        trees[t].fit_regression(x3, bm, grad, hess, cfg, rng, leaf);
      else
        trees[t].fit_regression_binned(bm, grad, hess, cfg, rng, leaf);
    }
    for (const std::size_t count : kTreeCounts) {
      const std::vector<DecisionTree> prefix(
          trees.begin(), trees.begin() + static_cast<std::ptrdiff_t>(count));
      const FlatForest flat(prefix);
      std::vector<float> values(count);
      for (std::size_t i = 0; i < q.rows(); ++i) {
        flat.leaf_values(q.row(i), values.data());
        for (std::size_t t = 0; t < count; ++t) {
          const float ref = prefix[t].predict_value(q.row(i));
          ASSERT_EQ(std::memcmp(&values[t], &ref, sizeof ref), 0)
              << "trees " << count << " tree " << t << " row " << i;
        }
      }
    }

    // Recorded from GradientBoosting::decision_function on the queries and
    // on the training rows, each bit-identical to the node-walk sum over
    // the model's own trees (trees outer, rows inner).
    const char* const pinned[][2] = {{"9388f81098c805db", "16ac207987467ad8"},
                                     {"dec7b77932ce8005", "4ea12b5fa05d9bea"},
                                     {"7ada320910903c8c", "c42483a8bda7056f"},
                                     {"0ca5846808b65292", "ddeb41f9061349e8"}};
    const auto cases = gbdt_cases();
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const Matrix& x = cases[c].classes == 2 ? x2 : x3;
      GradientBoosting gb(cases[c].cfg);
      gb.fit(x, cases[c].classes == 2 ? y2 : y3, cases[c].classes);
      EXPECT_EQ(digest(gb.decision_function(q).data()), pinned[c][0]) << "case " << c;
      EXPECT_EQ(digest(gb.decision_function(x).data()), pinned[c][1]) << "case " << c;
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

  const BinnedMatrix bm(empty, 64);
  std::vector<DecisionTree> trees(3);
  std::vector<float> leaf;
  for (auto& tree : trees) {
    std::mt19937_64 rng(62);
    tree.fit_regression(empty, bm, {}, {}, GbdtConfig().tree, rng, leaf);
    EXPECT_TRUE(leaf.empty());
  }
  const FlatForest flat(trees);
  std::vector<float> values(flat.num_trees(), 1.0f);
  flat.leaf_values(nullptr, values.data());
  for (std::size_t t = 0; t < values.size(); ++t)
    EXPECT_EQ(values[t], trees[t].predict_value(x.row(0))) << "tree " << t;

  // A zero-row GBDT fit scores every row with its trees' -0/(0+lambda)
  // leaves: all zero.
  GradientBoosting gb;
  gb.fit(empty, {}, 3);
  const Matrix scores = gb.decision_function(x);
  for (float s : scores.data()) EXPECT_EQ(s, 0.0f);
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
