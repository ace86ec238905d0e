// Gradient-boosted decision trees with second-order (Newton) boosting and
// softmax multi-class output. Two presets mirror the paper's Table 8
// baselines: XGBoost-style depth-wise trees and LightGBM-style leaf-wise
// trees. Binary tasks use a single logistic tree per round. Each round's
// tree fit hands back every training row's leaf value for the margin
// update, so the fit never walks a tree. Fitting ends by compiling the
// trees into an ml::FlatForest (the fitted DecisionTrees are then dropped);
// decision_function() walks that, adding each tree's leaf value in tree
// order.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/flat_forest.h"
#include "ml/guard.h"
#include "ml/tree.h"

namespace sugar::ml {

enum class GbdtGrowth { DepthWise, LeafWise };

struct GbdtConfig {
  int rounds = 40;
  float learning_rate = 0.2f;
  GbdtGrowth growth = GbdtGrowth::DepthWise;
  TreeConfig tree;
  std::uint64_t seed = 23;
  /// Cap on rounds*classes to keep many-class tasks tractable; rounds is
  /// reduced when classes are many (0 = no cap).
  int max_total_trees = 2000;
  /// Polled once per boosting round; fit() throws CancelledError when set.
  const CancelToken* cancel = nullptr;

  GbdtConfig() {
    tree.max_depth = 6;
    tree.min_samples_leaf = 4;
    tree.features_per_split = 0;  // all features
    tree.histogram_bins = 64;
  }

  static GbdtConfig xgboost_style() {
    GbdtConfig c;
    c.growth = GbdtGrowth::DepthWise;
    return c;
  }
  static GbdtConfig lightgbm_style() {
    GbdtConfig c;
    c.growth = GbdtGrowth::LeafWise;
    c.tree.max_depth = 12;
    c.tree.max_leaves = 31;
    return c;
  }
};

class BinnedColumnSource;

class GradientBoosting {
 public:
  explicit GradientBoosting(GbdtConfig cfg = {}) : cfg_(cfg) {}

  /// Quantizes `x` once (ml::BinnedMatrix) and reuses the codes for every
  /// round's trees.
  void fit(const Matrix& x, const std::vector<int>& y, int num_classes);

  /// Out-of-core fit: the same boosting loop driven entirely by pre-binned
  /// codes — fit_regression_binned per round, whose code partition also
  /// yields the margin update — so the raw float matrix never
  /// materializes. Histogram-only splits
  /// (exact_split_max forced to 0) make this a different estimator from
  /// fit(); it is bit-identical to itself at any cache budget, page size,
  /// or thread count.
  void fit_binned(const BinnedColumnSource& src, const std::vector<int>& y,
                  int num_classes);
  [[nodiscard]] std::vector<int> predict(const Matrix& x) const;
  /// Raw margin scores [n×classes] (rows in parallel on the pool). Each
  /// score adds learning_rate × leaf value tree by tree in fit order, so it
  /// is bit-identical to summing the trees' predict_value one at a time.
  [[nodiscard]] Matrix decision_function(const Matrix& x) const;

  /// Normalized (sums to 1) split-gain importance per feature.
  [[nodiscard]] const std::vector<double>& feature_importance() const {
    return importance_;
  }
  [[nodiscard]] int rounds_used() const { return rounds_used_; }

 private:
  /// The boosting loop shared by fit() and fit_binned(). Per round and
  /// output, `fit_round(tree, grad, hess, tree_cfg, rng, values)` fits the
  /// tree and writes its leaf value for each of the `n` training rows into
  /// `values`; the margin update and gradients are computed here.
  template <typename FitRound>
  void boost(std::size_t n, const std::vector<int>& y, int num_classes,
             const char* where, FitRound&& fit_round);

  GbdtConfig cfg_;
  int num_classes_ = 0;
  int rounds_used_ = 0;
  /// Tree round * num_outputs_ + k adds to margin column k.
  FlatForest flat_;
  std::vector<double> importance_;
  int num_outputs_ = 0;  // 1 for binary, K for multi-class
};

}  // namespace sugar::ml
