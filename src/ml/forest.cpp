#include "ml/forest.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "core/threadpool.h"
#include "core/trace.h"
#include "ml/binned.h"

namespace sugar::ml {
namespace {

// splitmix64 finalizer over (forest seed, tree index): every tree owns an
// independent, index-derived RNG stream, so the forest is bit-identical no
// matter which thread fits which tree — the parallel fit is exactly the
// sequential fit, reordered.
std::uint64_t tree_seed(std::uint64_t seed, std::uint64_t tree) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tree + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// A bootstrap bag of n row indices drawn uniformly from [0, n); `rng` then
/// continues into the tree fit itself.
std::vector<std::uint32_t> bootstrap(std::mt19937_64& rng, std::size_t n) {
  std::uniform_int_distribution<std::size_t> pick(0, n == 0 ? 0 : n - 1);
  std::vector<std::uint32_t> rows(n);
  for (auto& r : rows) r = static_cast<std::uint32_t>(pick(rng));
  return rows;
}

}  // namespace

void RandomForest::fit(const Matrix& x, const std::vector<int>& y, int num_classes) {
  SUGAR_TRACE_SPAN("ml.forest.fit");
  std::vector<DecisionTree> trees(static_cast<std::size_t>(cfg_.num_trees));
  SUGAR_TRACE_COUNT("ml.trees_fit", trees.size());

  TreeConfig tree_cfg = cfg_.tree;
  if (tree_cfg.features_per_split == 0)
    tree_cfg.features_per_split =
        std::max(1, static_cast<int>(std::sqrt(static_cast<double>(x.cols()))));

  const std::size_t n = x.rows();

  // Quantize once per fit: every tree shares the same bin codes and cut
  // points. Built before the per-tree loop so quantization itself
  // parallelizes.
  const BinnedMatrix binned(x, tree_cfg.histogram_bins);

  core::global_pool().parallel_for(
      0, trees.size(), 1, [&](std::size_t t0, std::size_t t1) {
        for (std::size_t t = t0; t < t1; ++t) {
          throw_if_cancelled(cfg_.cancel, "RandomForest::fit");
          std::mt19937_64 rng(tree_seed(cfg_.seed, t));
          const auto rows = bootstrap(rng, n);
          trees[t].fit_classifier(x, binned, y, num_classes, tree_cfg, rng,
                                  &rows);
        }
      });
  flat_ = FlatForest(trees);
  importance_ = normalized_importance(trees);
}

void RandomForest::fit_binned(const BinnedColumnSource& src,
                              const std::vector<int>& y, int num_classes) {
  SUGAR_TRACE_SPAN("ml.forest.fit_binned");
  std::vector<DecisionTree> trees(static_cast<std::size_t>(cfg_.num_trees));
  SUGAR_TRACE_COUNT("ml.trees_fit", trees.size());

  TreeConfig tree_cfg = cfg_.tree;
  if (tree_cfg.features_per_split == 0)
    tree_cfg.features_per_split = std::max(
        1, static_cast<int>(std::sqrt(static_cast<double>(src.cols()))));

  const std::size_t n = src.rows();

  // Serial over trees: the pool parallelizes INSIDE each tree (feature-wise
  // histogram accumulation), so the page cache only ever holds one tree's
  // working set. Bags draw the exact fit() sequence, then sort — the
  // bootstrap multiset is unchanged, paged access becomes monotone.
  for (std::size_t t = 0; t < trees.size(); ++t) {
    throw_if_cancelled(cfg_.cancel, "RandomForest::fit_binned");
    std::mt19937_64 rng(tree_seed(cfg_.seed, t));
    auto rows = bootstrap(rng, n);
    std::sort(rows.begin(), rows.end());
    trees[t].fit_classifier_binned(src, y, num_classes, tree_cfg, rng, &rows);
  }
  flat_ = FlatForest(trees);
  importance_ = normalized_importance(trees);
}

std::vector<int> RandomForest::predict(const Matrix& x) const {
  SUGAR_TRACE_SPAN("ml.forest.predict");
  std::vector<int> out(x.rows(), 0);
  core::global_pool().parallel_for(
      0, x.rows(), 64, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0; i < r1; ++i) out[i] = flat_.vote(x.row(i));
      });
  return out;
}

std::vector<std::pair<std::string, double>> ranked_importance(
    const std::vector<double>& importance, const std::vector<std::string>& names) {
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < importance.size(); ++i)
    out.emplace_back(i < names.size() ? names[i] : "f" + std::to_string(i),
                     importance[i]);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

}  // namespace sugar::ml
