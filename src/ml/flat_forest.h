// Compiled tree ensemble: the one prediction path for RandomForest, the
// GBDT margin scores and the serve engine's ForestFlowClassifier, and the
// only shape in which a fitted ensemble keeps its trees. Fitted
// DecisionTrees are copied once into a single contiguous array of 16-byte
// nodes and then dropped; the model is immutable afterwards, so any number
// of threads may predict from it concurrently.
//
// Layout: node = {float threshold; u32 feature; u32 child[2]}. Each tree is
// a root offset into the shared array. A leaf points both children at
// itself, so a walk that has reached a leaf stays there whatever the row
// holds (NaN included). Leaf payloads (RF class, GBDT value) sit in side
// arrays indexed by node, off the walk's cache lines.
//
// Walk: trees go in fixed blocks of kBlock. Each step moves every tree of
// the block one level with `idx = child[!(row[f] < threshold)]` — the same
// comparison as DecisionTree::predict_class / predict_value, the reference
// walk, so every tree lands on the same leaf and predictions are
// bit-identical to it. The block
// stops after its deepest tree's depth; the independent per-tree load
// chains overlap instead of running one after another. A block whose trees
// are all single leaves takes no step and never reads the row.
//
// Thresholds stay raw floats rather than uint8 bin codes: most forest nodes
// come from the exact small-node sweep (no bin), and floats let serving
// skip quantizing the row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/tree.h"

namespace sugar::ml {

class FlatForest {
 public:
  /// Trees per lockstep block.
  static constexpr std::size_t kBlock = 32;

  FlatForest() = default;
  /// Compiles fitted trees (every fit grows at least a root leaf).
  explicit FlatForest(const std::vector<DecisionTree>& trees);

  [[nodiscard]] std::size_t num_trees() const { return roots_.size(); }

  /// Majority vote of the trees' leaf classes; a tied vote goes to the
  /// lowest class, and an empty forest votes 0. Allocation-free for up to
  /// 256 classes, unbounded above.
  [[nodiscard]] int vote(const float* row) const;

  /// Leaf value of every tree for `row`, written to out[0, num_trees()) in
  /// tree order.
  void leaf_values(const float* row, float* out) const;

 private:
  struct Node {
    float threshold;
    std::uint32_t feature;
    std::uint32_t child[2];  // [0] row[feature] < threshold, [1] otherwise
  };
  static_assert(sizeof(Node) == 16);

  /// Walks every tree to its leaf and calls leaf(tree, node) in tree order.
  template <typename Leaf>
  void walk(const float* row, Leaf&& leaf) const;

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> roots_;
  /// Steps each block of kBlock trees takes: its deepest tree's depth.
  std::vector<int> block_depth_;
  std::vector<int> cls_;      // leaf class by node
  std::vector<float> value_;  // leaf value by node
  int num_classes_ = 0;       // 1 + the largest leaf class
};

}  // namespace sugar::ml
