#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "core/threadpool.h"
#include "ml/binned.h"

namespace sugar::ml {

template <typename FitRound>
void GradientBoosting::boost(std::size_t n, const std::vector<int>& y,
                             int num_classes, const char* where,
                             FitRound&& fit_round) {
  num_classes_ = num_classes;
  num_outputs_ = num_classes <= 2 ? 1 : num_classes;
  std::mt19937_64 rng(cfg_.seed);

  TreeConfig tree_cfg = cfg_.tree;
  if (cfg_.growth == GbdtGrowth::LeafWise && tree_cfg.max_leaves == 0)
    tree_cfg.max_leaves = 31;

  int rounds = cfg_.rounds;
  if (cfg_.max_total_trees > 0 && rounds * num_outputs_ > cfg_.max_total_trees)
    rounds = std::max(3, cfg_.max_total_trees / num_outputs_);
  rounds_used_ = rounds;

  // Current margins F [n×outputs].
  Matrix margins(n, static_cast<std::size_t>(num_outputs_));
  Matrix probs;  // softmax scratch, reused every round
  std::vector<float> grad(n), hess(n), values;
  std::vector<DecisionTree> trees;
  trees.reserve(static_cast<std::size_t>(rounds * num_outputs_));

  // Fits one tree on the current (grad, hess) and adds its training rows'
  // leaf values to margin column k.
  auto add_tree = [&](std::size_t k) {
    DecisionTree tree;
    fit_round(tree, grad, hess, tree_cfg, rng, values);
    for (std::size_t i = 0; i < n; ++i)
      margins(i, k) += cfg_.learning_rate * values[i];
    trees.push_back(std::move(tree));
  };

  for (int r = 0; r < rounds; ++r) {
    throw_if_cancelled(cfg_.cancel, where);
    if (num_outputs_ == 1) {
      // Binary logistic: y in {0,1}, p = sigmoid(F).
      for (std::size_t i = 0; i < n; ++i) {
        float p = 1.0f / (1.0f + std::exp(-margins(i, 0)));
        grad[i] = p - static_cast<float>(y[i]);
        hess[i] = std::max(p * (1.0f - p), 1e-6f);
      }
      add_tree(0);
    } else {
      // Softmax multi-class: one tree per class per round.
      probs.copy_from(margins);
      softmax_rows(probs);
      for (int k = 0; k < num_outputs_; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
          float p = probs(i, static_cast<std::size_t>(k));
          grad[i] = p - (y[i] == k ? 1.0f : 0.0f);
          hess[i] = std::max(p * (1.0f - p), 1e-6f);
        }
        add_tree(static_cast<std::size_t>(k));
      }
    }
  }
  flat_ = FlatForest(trees);
  importance_ = normalized_importance(trees);
}

void GradientBoosting::fit(const Matrix& x, const std::vector<int>& y,
                           int num_classes) {
  // Quantize once: all rounds × classes share the bin codes. GBDT splits
  // consider every feature, so trees also get sibling-subtraction
  // histograms over the whole-feature slot layout.
  const BinnedMatrix binned(x, cfg_.tree.histogram_bins);
  boost(x.rows(), y, num_classes, "GradientBoosting::fit",
        [&](DecisionTree& tree, const std::vector<float>& grad,
            const std::vector<float>& hess, const TreeConfig& tree_cfg,
            std::mt19937_64& rng, std::vector<float>& values) {
          tree.fit_regression(x, binned, grad, hess, tree_cfg, rng, values);
        });
}

void GradientBoosting::fit_binned(const BinnedColumnSource& src,
                                  const std::vector<int>& y, int num_classes) {
  boost(src.rows(), y, num_classes, "GradientBoosting::fit_binned",
        [&](DecisionTree& tree, const std::vector<float>& grad,
            const std::vector<float>& hess, const TreeConfig& tree_cfg,
            std::mt19937_64& rng, std::vector<float>& values) {
          tree.fit_regression_binned(src, grad, hess, tree_cfg, rng, values);
        });
}

Matrix GradientBoosting::decision_function(const Matrix& x) const {
  Matrix scores(x.rows(), static_cast<std::size_t>(std::max(num_outputs_, 1)));
  const std::size_t outputs = scores.cols();
  core::global_pool().parallel_for(
      0, x.rows(), 64, [&](std::size_t r0, std::size_t r1) {
        std::vector<float> leaf(flat_.num_trees());
        for (std::size_t i = r0; i < r1; ++i) {
          flat_.leaf_values(x.row(i), leaf.data());
          float* s = scores.row(i);
          for (std::size_t t = 0; t < leaf.size(); ++t)
            s[t % outputs] += cfg_.learning_rate * leaf[t];
        }
      });
  return scores;
}

std::vector<int> GradientBoosting::predict(const Matrix& x) const {
  Matrix scores = decision_function(x);
  std::vector<int> out(x.rows(), 0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (num_outputs_ == 1) {
      out[i] = scores(i, 0) > 0 ? 1 : 0;
    } else {
      const float* r = scores.row(i);
      out[i] = static_cast<int>(std::max_element(r, r + scores.cols()) - r);
    }
  }
  return out;
}

}  // namespace sugar::ml
