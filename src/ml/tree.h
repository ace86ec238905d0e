// Histogram-based CART decision trees, the building block for the Random
// Forest and gradient-boosting baselines of Table 8. One implementation
// supports both Gini classification splits and second-order (XGBoost-style)
// regression splits, plus depth-wise and leaf-wise (LightGBM-style) growth.
//
// One large-node split engine: a BinnedMatrix (or any BinnedColumnSource)
// quantized once per dataset supplies uint8 bin codes, per-node histograms
// are accumulated feature-parallel on the thread pool, and siblings reuse
// the parent's histogram via subtraction. Resident fits also take the raw
// Matrix: nodes at or below `exact_split_max` rows use the exact
// sorted-sweep search on raw floats. Nodes store raw-float thresholds
// (histogram splits record the cut value), so prediction never needs codes.
//
// The Node array here is the fit-time representation and lives only until
// an ensemble compiles it into ml::FlatForest (flat_forest.h), which walks
// all trees in lockstep. predict_class / predict_value below are the
// single-tree reference walk the compiled forest must match. A regression
// fit also hands back every training row's leaf value, read off the final
// row partition, so the GBDT margin update never walks the new tree.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "ml/matrix.h"

namespace sugar::ml {

class BinnedMatrix;
class BinnedColumnSource;

struct TreeConfig {
  int max_depth = 12;
  std::size_t min_samples_leaf = 2;
  /// 0 = depth-wise growth bounded by max_depth only; > 0 = best-first
  /// leaf-wise growth bounded by this leaf count (LightGBM style).
  int max_leaves = 0;
  /// Number of candidate features per split; 0 = all features.
  int features_per_split = 0;
  /// Histogram resolution for split finding.
  int histogram_bins = 32;
  /// L2 regularization on leaf values (regression mode).
  float lambda = 1.0f;
  /// Minimum gain to accept a split.
  float min_gain = 1e-7f;
  /// Nodes with at most this many samples use exact (sorted-sweep) split
  /// search instead of the shared histogram grid — crucial for composing
  /// fine-grained thresholds (IP octets, sequence ranges) deep in the tree.
  std::size_t exact_split_max = 1024;
  /// Derive the larger child's histogram from the parent's by subtracting
  /// the smaller child's (halves accumulation work per level). Only a test
  /// hook — the subtracted counts are exact for classification, so leaving
  /// it on is always correct.
  bool hist_subtraction = true;
};

class DecisionTree {
 public:
  /// Gini-impurity classification fit. `binned` must be quantized from
  /// this same `x` (the caller quantizes once and shares it across trees);
  /// large nodes accumulate histograms from its codes, small nodes sweep
  /// the raw floats. `subset` optionally restricts to a bag of row indices
  /// (with repetition allowed, for bootstrap).
  void fit_classifier(const Matrix& x, const BinnedMatrix& binned,
                      const std::vector<int>& y, int num_classes,
                      const TreeConfig& cfg, std::mt19937_64& rng,
                      const std::vector<std::uint32_t>* subset = nullptr);

  /// Second-order regression fit on per-sample gradient/hessian (gradient
  /// boosting) over every row. Leaf value = -G/(H+lambda). `binned` as in
  /// fit_classifier. `row_values` is resized to x.rows() and receives each
  /// training row's leaf value — bit-identical to predict_value(x.row(i)),
  /// since the build partitions rows with the walk's own `x < threshold`.
  void fit_regression(const Matrix& x, const BinnedMatrix& binned,
                      const std::vector<float>& grad,
                      const std::vector<float>& hess, const TreeConfig& cfg,
                      std::mt19937_64& rng, std::vector<float>& row_values);

  /// Out-of-core fits: codes come from a BinnedColumnSource (resident or
  /// paged), the raw float matrix is never touched. Every split is a
  /// histogram split (exact_split_max is forced to 0), the partition runs
  /// on bin codes (`code <= split bin` ≡ `value < cuts[bin]`), and it is
  /// STABLE — so a sorted row set stays sorted in every node and paged
  /// column access is monotone down the whole tree. Thresholds are still
  /// the raw-float cut values, so the walks work unchanged. `row_values`
  /// as in fit_regression, resized to src.rows(): it equals predict_value
  /// on the float rows the codes were quantized from.
  void fit_classifier_binned(const BinnedColumnSource& src,
                             const std::vector<int>& y, int num_classes,
                             const TreeConfig& cfg, std::mt19937_64& rng,
                             const std::vector<std::uint32_t>* subset = nullptr);
  void fit_regression_binned(const BinnedColumnSource& src,
                             const std::vector<float>& grad,
                             const std::vector<float>& hess,
                             const TreeConfig& cfg, std::mt19937_64& rng,
                             std::vector<float>& row_values);

  /// The single-tree reference walk (`row[f] < threshold` goes left).
  [[nodiscard]] int predict_class(const float* row) const;
  [[nodiscard]] float predict_value(const float* row) const;

  /// Total split gain attributed to each feature (unnormalized).
  [[nodiscard]] const std::vector<double>& feature_importance() const {
    return importance_;
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] int depth() const;

 private:
  friend class FlatForest;  // compiles nodes_ into its flat layout

  struct Node {
    int feature = -1;  // -1 => leaf
    float threshold = 0;
    int left = -1, right = -1;
    float value = 0;  // regression output
    int cls = 0;      // classification output
  };

  struct BuildContext;
  /// Shared by every fit entry point: fills ctx.rows from `subset` (or all
  /// rows of ctx.src), grows the tree and, for regression, writes each
  /// row's leaf value to ctx.row_values.
  void build(BuildContext ctx, const std::vector<std::uint32_t>* subset);
  int leaf_index(const float* row) const;

  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

/// Split gain per feature summed over `trees` in order, normalized to sum
/// to 1 (left all zero when no split gained); empty for no trees. The one
/// importance an ensemble keeps after compiling its trees.
std::vector<double> normalized_importance(const std::vector<DecisionTree>& trees);

}  // namespace sugar::ml
