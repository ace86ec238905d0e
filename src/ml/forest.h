// Random Forest classifier with Gini feature importances — the shallow
// baseline that, per the paper's Table 8 and Figure 5, beats every
// representation-learning model on hand-crafted header features while being
// orders of magnitude cheaper. Trees are fitted in parallel on the shared
// core::ThreadPool; each tree draws from its own seeded RNG stream, so the
// forest is bit-identical at any SUGAR_THREADS value. Every fit ends by
// compiling the trees into an ml::FlatForest and summing their importances;
// the fitted DecisionTrees are then dropped. Every prediction — batch
// predict(), the serve classifier, the out-of-core evaluation — is the
// compiled forest's majority vote.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ml/flat_forest.h"
#include "ml/guard.h"
#include "ml/tree.h"

namespace sugar::ml {

struct ForestConfig {
  int num_trees = 40;
  TreeConfig tree;
  std::uint64_t seed = 17;
  /// Polled once per tree (on whichever pool thread fits it); fit()
  /// rethrows the resulting CancelledError on the calling thread.
  const CancelToken* cancel = nullptr;

  ForestConfig() {
    tree.max_depth = 20;
    tree.min_samples_leaf = 1;
    tree.features_per_split = 10;
    // High-resolution histograms at large nodes; exact sorted-sweep splits
    // below 4096 samples (IP octets and sequence ranges need fine
    // thresholds).
    tree.histogram_bins = 128;
    tree.exact_split_max = 4096;
  }
};

class BinnedColumnSource;

class RandomForest {
 public:
  explicit RandomForest(ForestConfig cfg = {}) : cfg_(cfg) {}

  void fit(const Matrix& x, const std::vector<int>& y, int num_classes);

  /// Out-of-core fit from pre-binned codes (a dataset::PagedCodeSource or
  /// any BinnedColumnSource). Trees are fitted SERIALLY — parallelism moves
  /// inside each tree's feature-wise histogram accumulation — so the paged
  /// working set stays one tree's pages at a time. Each tree draws the
  /// same index-derived bootstrap as fit(), then SORTS its bag: class
  /// counts are integer-valued doubles, so the reordered accumulation is
  /// exact, and sorted bags keep paged column access monotone (each page
  /// pulled once per node sweep). exact_split_max is forced to 0, so fit()
  /// and
  /// fit_binned() are different estimators — fit_binned at any cache
  /// budget / page size / thread count is bit-identical to ITSELF.
  void fit_binned(const BinnedColumnSource& src, const std::vector<int>& y,
                  int num_classes);

  /// Majority vote per row (rows in parallel on the pool).
  [[nodiscard]] std::vector<int> predict(const Matrix& x) const;
  /// Majority vote for one feature row: the compiled model's vote, inline
  /// on the calling thread with no allocation below 257 classes. A tie
  /// goes to the lowest class.
  [[nodiscard]] int predict_row(const float* row) const { return flat_.vote(row); }

  /// Normalized (sums to 1) mean split-gain importance per feature.
  [[nodiscard]] const std::vector<double>& feature_importance() const {
    return importance_;
  }

 private:
  ForestConfig cfg_;
  FlatForest flat_;
  std::vector<double> importance_;
};

/// Pairs feature importances with names and sorts descending (Figure 5).
std::vector<std::pair<std::string, double>> ranked_importance(
    const std::vector<double>& importance, const std::vector<std::string>& names);

}  // namespace sugar::ml
