#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <random>
#include <string>

#include "core/threadpool.h"
#include "dataset/store.h"
#include "ml/binned.h"
#include "ml/exact_sort.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"
#include "ml/tree.h"

namespace sugar::ml {
namespace {

/// Gaussian blobs: one cluster per class.
std::pair<Matrix, std::vector<int>> make_blobs(int classes, std::size_t per_class,
                                               std::size_t dims, double spread,
                                               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> noise(0.0f, static_cast<float>(spread));
  Matrix x(static_cast<std::size_t>(classes) * per_class, dims);
  std::vector<int> y;
  std::size_t row = 0;
  for (int c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i, ++row) {
      for (std::size_t d = 0; d < dims; ++d)
        x(row, d) = static_cast<float>(c * 3 + (d % 2 ? 1 : -1)) + noise(rng);
      y.push_back(c);
    }
  }
  return {std::move(x), std::move(y)};
}

TEST(DecisionTree, SeparatesCleanBlobs) {
  auto [x, y] = make_blobs(3, 60, 4, 0.3, 1);
  DecisionTree tree;
  TreeConfig cfg;
  const BinnedMatrix bm(x, cfg.histogram_bins);
  std::mt19937_64 rng(2);
  tree.fit_classifier(x, bm, y, 3, cfg, rng);
  std::vector<int> pred;
  for (std::size_t i = 0; i < x.rows(); ++i) pred.push_back(tree.predict_class(x.row(i)));
  EXPECT_GT(evaluate(y, pred, 3).accuracy, 0.98);
  EXPECT_GT(tree.node_count(), 1u);
}

TEST(DecisionTree, MaxDepthBoundsTree) {
  auto [x, y] = make_blobs(4, 80, 3, 1.5, 3);
  DecisionTree tree;
  TreeConfig cfg;
  cfg.max_depth = 2;
  const BinnedMatrix bm(x, cfg.histogram_bins);
  std::mt19937_64 rng(4);
  tree.fit_classifier(x, bm, y, 4, cfg, rng);
  EXPECT_LE(tree.depth(), 3);  // depth counts nodes; 2 split levels -> <= 3
}

TEST(DecisionTree, PureNodeBecomesLeaf) {
  Matrix x(10, 2, 1.0f);
  std::vector<int> y(10, 0);
  DecisionTree tree;
  TreeConfig cfg;
  const BinnedMatrix bm(x, cfg.histogram_bins);
  std::mt19937_64 rng(5);
  tree.fit_classifier(x, bm, y, 2, cfg, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict_class(x.row(0)), 0);
}

TEST(DecisionTree, ImportanceIdentifiesInformativeFeature) {
  // Feature 0 carries all the signal, features 1-3 are noise.
  std::mt19937_64 data_rng(6);
  std::uniform_real_distribution<float> unif(0, 1);
  Matrix x(400, 4);
  std::vector<int> y;
  for (std::size_t i = 0; i < 400; ++i) {
    int cls = static_cast<int>(i % 2);
    x(i, 0) = static_cast<float>(cls) + 0.2f * unif(data_rng);
    for (std::size_t d = 1; d < 4; ++d) x(i, d) = unif(data_rng);
    y.push_back(cls);
  }
  DecisionTree tree;
  TreeConfig cfg;
  const BinnedMatrix bm(x, cfg.histogram_bins);
  std::mt19937_64 rng(7);
  tree.fit_classifier(x, bm, y, 2, cfg, rng);
  const auto& imp = tree.feature_importance();
  EXPECT_GT(imp[0], imp[1] + imp[2] + imp[3]);
}

TEST(DecisionTree, RegressionFitsResiduals) {
  // Gradients of a step function of feature 0; the tree's leaf values must
  // approach -g/h on each side.
  Matrix x(100, 1);
  std::vector<float> grad(100), hess(100, 1.0f);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = static_cast<float>(i);
    grad[i] = i < 50 ? -2.0f : 4.0f;
  }
  DecisionTree tree;
  TreeConfig cfg;
  cfg.max_depth = 2;
  cfg.lambda = 0.0f;
  const BinnedMatrix bm(x, cfg.histogram_bins);
  std::mt19937_64 rng(8);
  std::vector<float> leaf;
  tree.fit_regression(x, bm, grad, hess, cfg, rng, leaf);
  EXPECT_NEAR(tree.predict_value(x.row(10)), 2.0f, 0.2f);
  EXPECT_NEAR(tree.predict_value(x.row(90)), -4.0f, 0.2f);
}

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { core::set_global_threads(n); }
  ~ScopedThreads() { core::set_global_threads(0); }
};

/// Row i's emitted leaf value must be predict_value(x.row(i)), bit for bit.
void expect_leaf_values_match_walk(const DecisionTree& tree, const Matrix& x,
                                   const std::vector<float>& leaf) {
  ASSERT_EQ(leaf.size(), x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(leaf[i]),
              std::bit_cast<std::uint32_t>(tree.predict_value(x.row(i))))
        << "row " << i << ": " << leaf[i] << " vs " << tree.predict_value(x.row(i));
}

TEST(DecisionTree, TrainingLeafValuesMatchNodeWalk) {
  // The regression fits read each training row's leaf value off the final
  // row partition instead of walking the tree; that must be exactly the
  // reference walk on the raw rows, for every growth mode and split path.
  constexpr std::size_t kRows = 600, kDims = 5;
  std::mt19937_64 gen(31);
  std::normal_distribution<float> noise(0.0f, 1.5f);
  std::uniform_real_distribution<float> unit(0.02f, 0.98f);
  Matrix x(kRows, kDims);
  std::vector<float> grad(kRows), hess(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    const int c = static_cast<int>(i % 3);
    for (std::size_t d = 0; d < kDims; ++d)  // 0.5 grid: many ties
      x(i, d) = std::round(2.0f * (static_cast<float>(c * (d % 2 + 1)) + noise(gen))) / 2.0f;
    const float p = unit(gen);
    grad[i] = p - (c == 0 ? 1.0f : 0.0f);
    hess[i] = p * (1.0f - p);
  }

  TreeConfig depth_wise;  // histogram at every node (partition still on x)
  depth_wise.max_depth = 6;
  depth_wise.min_samples_leaf = 4;
  depth_wise.exact_split_max = 0;
  TreeConfig mixed = depth_wise;  // large nodes histogram, small ones exact
  mixed.exact_split_max = 64;
  TreeConfig exact = depth_wise;
  exact.exact_split_max = kRows;
  // The boosting loop's leaf-wise preset: 31 leaves are used up long before
  // the heap runs dry, so fitted candidates are left unsplit.
  TreeConfig leaf_wise = GbdtConfig::lightgbm_style().tree;
  leaf_wise.exact_split_max = 64;

  const BinnedMatrix bm(x, 32);
  const std::filesystem::path store =
      std::filesystem::path(::testing::TempDir()) / "sugar_leaf_values.sugc";
  {
    std::vector<dataset::ColumnSpec> schema;
    for (std::size_t d = 0; d < kDims; ++d)
      schema.push_back({"f" + std::to_string(d), dataset::ColumnType::U8, bm.cuts(d)});
    dataset::StoreWriter::Options opts;
    opts.group_rows = 64;  // many pages per column
    opts.bins = bm.bins();
    dataset::StoreWriter w(store.string(), schema, opts);
    dataset::StoreError err;
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t d = 0; d < kDims; ++d) w.add_u8(d, bm.codes(d)[i]);
      ASSERT_TRUE(w.end_row(&err)) << err.message;
    }
    ASSERT_TRUE(w.finalize(&err)) << err.message;
  }
  dataset::StoreError err;
  auto reader = dataset::StoreReader::open(store.string(), &err);
  ASSERT_TRUE(reader) << err.message;
  const dataset::PagedCodeSource paged(*reader, {0, 1, 2, 3, 4});

  // Degenerate split: feature 0 holds two adjacent floats whose midpoint
  // rounds down to the lower one, so the exact sweep's split sends every
  // row right (mid == begin) and the node stays a leaf. Feature 1 splits
  // the root first, so both children take that path. With 1.5 in place of
  // the upper float the same data splits all four ways.
  const auto degenerate_data = [](float hi) {
    Matrix xd(40, 2);
    for (std::size_t i = 0; i < 40; ++i) {
      xd(i, 0) = i % 2 ? hi : 1.0f;
      xd(i, 1) = i < 20 ? 0.0f : 10.0f;
    }
    return xd;
  };
  const float hi = std::nextafter(1.0f, 2.0f);
  ASSERT_EQ(0.5f * (1.0f + hi), 1.0f);
  const Matrix xd = degenerate_data(hi), xs = degenerate_data(1.5f);
  std::vector<float> gd(40), hd(40, 1.0f);
  for (std::size_t i = 0; i < 40; ++i)
    gd[i] = (i < 20 ? -5.0f : 5.0f) + (i % 2 ? 3.0f : -3.0f);
  const BinnedMatrix bmd(xd, 32), bms(xs, 32);
  TreeConfig degenerate;
  degenerate.exact_split_max = 40;
  TreeConfig degenerate_leaf_wise = degenerate;
  degenerate_leaf_wise.max_leaves = 8;

  for (const std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ScopedThreads threads(w);
    std::vector<float> leaf;
    for (const TreeConfig* cfg : {&depth_wise, &mixed, &exact, &leaf_wise}) {
      SCOPED_TRACE(testing::Message() << "resident, width " << w << ", max_leaves "
                                      << cfg->max_leaves << ", exact_split_max "
                                      << cfg->exact_split_max);
      DecisionTree tree;
      std::mt19937_64 rng(32);
      tree.fit_regression(x, bm, grad, hess, *cfg, rng, leaf);
      EXPECT_GT(tree.node_count(), 15u);
      expect_leaf_values_match_walk(tree, x, leaf);
    }
    {
      DecisionTree tree;
      std::mt19937_64 rng(33);
      tree.fit_regression(x, bm, grad, hess, leaf_wise, rng, leaf);
      EXPECT_EQ(tree.node_count(), 2u * 31 - 1) << "leaf budget not reached";
    }
    for (const TreeConfig* cfg : {&degenerate, &degenerate_leaf_wise}) {
      SCOPED_TRACE(testing::Message() << "degenerate, width " << w << ", max_leaves "
                                      << cfg->max_leaves);
      DecisionTree tree, control;
      std::mt19937_64 rng(34);
      control.fit_regression(xs, bms, gd, hd, *cfg, rng, leaf);
      EXPECT_EQ(control.node_count(), 7u);
      tree.fit_regression(xd, bmd, gd, hd, *cfg, rng, leaf);
      EXPECT_EQ(tree.node_count(), 3u);  // the root split only
      expect_leaf_values_match_walk(tree, xd, leaf);
    }
    for (const TreeConfig* cfg : {&depth_wise, &leaf_wise}) {
      for (const BinnedColumnSource* src :
           {static_cast<const BinnedColumnSource*>(&bm),
            static_cast<const BinnedColumnSource*>(&paged)}) {
        SCOPED_TRACE(testing::Message() << (src == &bm ? "BinnedMatrix" : "paged")
                                        << ", width " << w << ", max_leaves "
                                        << cfg->max_leaves);
        DecisionTree tree;
        std::mt19937_64 rng(35);
        tree.fit_regression_binned(*src, grad, hess, *cfg, rng, leaf);
        EXPECT_GT(tree.node_count(), 15u);
        expect_leaf_values_match_walk(tree, x, leaf);
      }
    }
  }
  std::filesystem::remove(store);
}

TEST(DecisionTree, LeafWiseGrowthRespectsLeafBudget) {
  auto [x, y] = make_blobs(6, 60, 4, 1.0, 9);
  DecisionTree tree;
  TreeConfig cfg;
  cfg.max_leaves = 4;
  cfg.max_depth = 20;
  const BinnedMatrix bm(x, cfg.histogram_bins);
  std::mt19937_64 rng(10);
  tree.fit_classifier(x, bm, y, 6, cfg, rng);
  // max_leaves=4 -> at most 3 internal splits -> 7 nodes.
  EXPECT_LE(tree.node_count(), 7u);
}

TEST(DecisionTree, ExactAndHistogramSplitsAgreeOnEasyData) {
  // Exact sorted sweep on raw floats at every node vs histogram splits on
  // BinnedMatrix codes at every node.
  auto [x, y] = make_blobs(2, 200, 3, 0.2, 11);
  std::mt19937_64 rng(12);
  DecisionTree exact, histo;
  TreeConfig ce;
  ce.exact_split_max = 100000;
  TreeConfig ch;
  ch.exact_split_max = 0;
  const BinnedMatrix bm(x, ch.histogram_bins);
  exact.fit_classifier(x, bm, y, 2, ce, rng);
  histo.fit_classifier(x, bm, y, 2, ch, rng);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < x.rows(); ++i)
    if (exact.predict_class(x.row(i)) == histo.predict_class(x.row(i))) ++agree;
  EXPECT_GT(agree, x.rows() * 95 / 100);
}

TEST(ExactSplitSort, KeyCachedSortMatchesRowComparatorSort) {
  // Tie-heavy random nodes: n = 1..1100 rows (repeats allowed, as in a
  // bootstrap bag), 1-64 distinct values per feature, one all-equal
  // feature. Each feature's order must equal std::sort with the row
  // comparator, applied to the previous feature's order.
  std::mt19937_64 rng(71);
  constexpr std::size_t kRows = 1200, kFeatures = 5;
  detail::ExactSortScratch scratch;
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 40; ++n) sizes.push_back(n);
  std::uniform_int_distribution<std::size_t> size_dist(41, 1100);
  for (int i = 0; i < 60; ++i) sizes.push_back(size_dist(rng));
  sizes.push_back(1100);
  for (const std::size_t n : sizes) {
    Matrix x(kRows, kFeatures);
    for (std::size_t f = 0; f < kFeatures; ++f) {
      const int distinct = f == 2 ? 1 : std::uniform_int_distribution<int>(1, 64)(rng);
      std::uniform_int_distribution<int> value(0, distinct - 1);
      for (std::size_t r = 0; r < kRows; ++r)
        x(r, f) = 0.25f * static_cast<float>(value(rng));
    }
    std::uniform_int_distribution<std::uint32_t> pick(0, kRows - 1);
    std::vector<std::uint32_t> rows(n);
    for (auto& r : rows) r = pick(rng);

    scratch.load(rows.data(), rows.data() + n);
    for (const std::size_t f : {0, 1, 2, 3, 4, 2, 0}) {
      std::sort(rows.begin(), rows.end(), [&](std::uint32_t a, std::uint32_t b) {
        return x(a, f) < x(b, f);
      });
      bool all_tie = true;
      for (const auto r : rows) all_tie = all_tie && x(r, f) == x(rows[0], f);
      EXPECT_EQ(scratch.sort_by(x, f), !all_tie) << "n " << n << " feature " << f;
      const auto& keyed = scratch.keyed();
      ASSERT_EQ(keyed.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(keyed[i].row, rows[i]) << "n " << n << " feature " << f << " pos " << i;
        ASSERT_EQ(keyed[i].key, x(rows[i], f));
      }
    }
  }
}

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  auto [x, y] = make_blobs(5, 100, 6, 2.5, 13);
  auto [xt, yt] = make_blobs(5, 40, 6, 2.5, 14);

  std::mt19937_64 rng(15);
  DecisionTree tree;
  TreeConfig cfg;
  cfg.features_per_split = 2;
  const BinnedMatrix bm(x, cfg.histogram_bins);
  tree.fit_classifier(x, bm, y, 5, cfg, rng);
  std::vector<int> tree_pred;
  for (std::size_t i = 0; i < xt.rows(); ++i)
    tree_pred.push_back(tree.predict_class(xt.row(i)));

  ForestConfig fc;
  fc.num_trees = 25;
  RandomForest rf(fc);
  rf.fit(x, y, 5);
  auto rf_pred = rf.predict(xt);

  double tree_acc = evaluate(yt, tree_pred, 5).accuracy;
  double rf_acc = evaluate(yt, rf_pred, 5).accuracy;
  EXPECT_GE(rf_acc, tree_acc - 0.02);
  EXPECT_GT(rf_acc, 0.8);
}

TEST(RandomForest, ZeroRowFitPredictsClassZero) {
  // An empty training set still quantizes (zero cuts per feature) and
  // grows single-leaf trees; every prediction falls back to class 0.
  const Matrix x(0, 3);
  RandomForest rf;
  rf.fit(x, {}, 3);
  Matrix probe(2, 3);
  probe(1, 0) = 5.0f;
  EXPECT_EQ(rf.predict(probe), (std::vector<int>{0, 0}));
}

TEST(RandomForest, ImportanceNormalized) {
  auto [x, y] = make_blobs(3, 50, 5, 1.0, 16);
  RandomForest rf;
  rf.fit(x, y, 3);
  auto imp = rf.feature_importance();
  ASSERT_EQ(imp.size(), 5u);
  double sum = 0;
  for (double v : imp) {
    EXPECT_GE(v, 0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);

  auto ranked = ranked_importance(imp, {"a", "b", "c", "d", "e"});
  EXPECT_GE(ranked.front().second, ranked.back().second);
}

TEST(Gbdt, BinaryClassification) {
  auto [x, y] = make_blobs(2, 150, 4, 1.2, 17);
  GradientBoosting gb(GbdtConfig::xgboost_style());
  gb.fit(x, y, 2);
  auto pred = gb.predict(x);
  EXPECT_GT(evaluate(y, pred, 2).accuracy, 0.95);
}

TEST(Gbdt, MulticlassSoftmax) {
  auto [x, y] = make_blobs(4, 100, 4, 1.0, 18);
  GradientBoosting gb(GbdtConfig::lightgbm_style());
  gb.fit(x, y, 4);
  auto pred = gb.predict(x);
  EXPECT_GT(evaluate(y, pred, 4).accuracy, 0.95);
  EXPECT_GT(gb.rounds_used(), 0);
}

TEST(Gbdt, TreeBudgetCapsRounds) {
  auto [x, y] = make_blobs(10, 30, 3, 1.0, 19);
  GbdtConfig cfg;
  cfg.rounds = 100;
  cfg.max_total_trees = 50;
  GradientBoosting gb(cfg);
  gb.fit(x, y, 10);
  EXPECT_LE(gb.rounds_used() * 10, 50);
  EXPECT_GE(gb.rounds_used(), 3);
}

TEST(Gbdt, ZeroRowFitPredictsClassZero) {
  const Matrix x(0, 3);
  GradientBoosting gb;
  gb.fit(x, {}, 3);
  Matrix probe(2, 3);
  probe(1, 0) = 5.0f;
  EXPECT_EQ(gb.predict(probe), (std::vector<int>{0, 0}));
}

TEST(Gbdt, DecisionFunctionShape) {
  auto [x, y] = make_blobs(3, 40, 3, 1.0, 20);
  GradientBoosting gb;
  gb.fit(x, y, 3);
  auto scores = gb.decision_function(x);
  EXPECT_EQ(scores.rows(), x.rows());
  EXPECT_EQ(scores.cols(), 3u);
}

}  // namespace
}  // namespace sugar::ml
