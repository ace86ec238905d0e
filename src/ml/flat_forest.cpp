#include "ml/flat_forest.h"

#include <algorithm>

namespace sugar::ml {

FlatForest::FlatForest(const std::vector<DecisionTree>& trees) {
  std::size_t total = 0;
  for (const auto& tree : trees) total += tree.nodes_.size();
  nodes_.reserve(total);
  cls_.reserve(total);
  value_.reserve(total);
  roots_.reserve(trees.size());
  block_depth_.assign((trees.size() + kBlock - 1) / kBlock, 0);

  for (std::size_t t = 0; t < trees.size(); ++t) {
    const auto base = static_cast<std::uint32_t>(nodes_.size());
    roots_.push_back(base);
    for (const auto& n : trees[t].nodes_) {
      const auto self = static_cast<std::uint32_t>(nodes_.size());
      if (n.feature < 0) {
        nodes_.push_back({0.0f, 0, {self, self}});
        num_classes_ = std::max(num_classes_, n.cls + 1);
      } else {
        nodes_.push_back({n.threshold, static_cast<std::uint32_t>(n.feature),
                          {base + static_cast<std::uint32_t>(n.left),
                           base + static_cast<std::uint32_t>(n.right)}});
      }
      cls_.push_back(n.cls);
      value_.push_back(n.value);
    }
    // depth() counts nodes on the longest path; the walk takes one step
    // per edge.
    int& steps = block_depth_[t / kBlock];
    steps = std::max(steps, trees[t].depth() - 1);
  }
}

template <typename Leaf>
void FlatForest::walk(const float* row, Leaf&& leaf) const {
  const Node* nodes = nodes_.data();
  const std::size_t n = roots_.size();
  for (std::size_t t0 = 0; t0 < n; t0 += kBlock) {
    const std::size_t m = std::min(kBlock, n - t0);
    std::uint32_t idx[kBlock] = {};
    std::copy_n(roots_.data() + t0, m, idx);
    for (int s = block_depth_[t0 / kBlock]; s > 0; --s)
      for (std::size_t j = 0; j < m; ++j) {
        const Node& nd = nodes[idx[j]];
        idx[j] = nd.child[!(row[nd.feature] < nd.threshold)];
      }
    for (std::size_t j = 0; j < m; ++j) leaf(t0 + j, idx[j]);
  }
}

int FlatForest::vote(const float* row) const {
  const auto k = static_cast<std::size_t>(num_classes_);
  int small[256] = {};
  std::vector<int> large(k > std::size(small) ? k : 0);
  int* votes = large.empty() ? small : large.data();
  // Running argmax: a class takes the lead on a higher count, or on an
  // equal count when it is lower — the lowest-class tie-break of
  // std::max_element over the final counts.
  int best = 0, best_votes = 0;
  walk(row, [&](std::size_t, std::uint32_t leaf) {
    const int c = cls_[leaf];
    const int v = ++votes[c];
    if (v > best_votes || (v == best_votes && c < best)) {
      best = c;
      best_votes = v;
    }
  });
  return best;
}

void FlatForest::leaf_values(const float* row, float* out) const {
  walk(row, [&](std::size_t t, std::uint32_t leaf) { out[t] = value_[leaf]; });
}

}  // namespace sugar::ml
