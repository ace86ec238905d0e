// The exact small-node split search's per-feature sort (tree.cpp), in its
// own header so its differential test can drive it directly.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/matrix.h"

namespace sugar::ml::detail {

/// load() takes a node's rows; each sort_by(x, f) then reorders them by
/// x(row, f) exactly as std::sort with the comparator `x(a, f) < x(b, f)`
/// reorders a row vector, ties included, and carries that order into the
/// next feature. It gathers {key, row} pairs once and
/// sorts them comparing keys only: std::sort moves elements by comparison
/// outcomes alone, so the permutation is the same, without re-reading
/// strided matrix rows in every comparison. When every key ties, no
/// comparison is true and the permutation depends on the row count alone;
/// it is computed once per count and applied without sorting.
class ExactSortScratch {
 public:
  struct Keyed {
    float key;
    std::uint32_t row;
  };

  void load(const std::uint32_t* begin, const std::uint32_t* end);
  /// Sorts by feature f. Returns false when every key ties (the rows are
  /// still permuted; there is no boundary to sweep).
  bool sort_by(const Matrix& x, std::size_t f);
  /// The rows in current order with their feature-f keys.
  [[nodiscard]] const std::vector<Keyed>& keyed() const { return keyed_; }

 private:
  std::vector<Keyed> keyed_, moved_;
  std::vector<std::uint32_t> tie_perm_;  // std::sort's all-tie permutation
};

}  // namespace sugar::ml::detail
