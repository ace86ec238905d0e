// Tests for the quantize-once binned training substrate (ml/binned.h):
// bin-code semantics pinned against the strict '<' partition convention,
// sketch determinism across pool widths, sibling-subtraction histogram
// identity vs direct accumulation, and forest/GBDT fits pinned against the
// digests and accuracies recorded for the retired per-tree binning engine.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact.h"
#include "core/threadpool.h"
#include "ml/binned.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"
#include "ml/tree.h"

namespace sugar::ml {
namespace {

/// Rebuilds the global pool at a given width for the test body, then
/// restores the env-derived width so later tests see the default substrate.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { core::set_global_threads(n); }
  ~ScopedThreads() { core::set_global_threads(0); }
};

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  for (auto& v : m.data()) v = dist(rng);
  return m;
}

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

TEST(QuantizeBin, StrictLessConventionValueOnCutGoesRight) {
  const std::vector<float> cuts{1.0f, 2.0f, 3.0f};
  EXPECT_EQ(quantize_bin(cuts, 0.5f), 0);
  EXPECT_EQ(quantize_bin(cuts, 0.999f), 0);
  // A value equal to a cut belongs to the bin on the cut's RIGHT: the
  // partition predicate is strict '<', so v == threshold goes right.
  EXPECT_EQ(quantize_bin(cuts, 1.0f), 1);
  EXPECT_EQ(quantize_bin(cuts, 1.5f), 1);
  EXPECT_EQ(quantize_bin(cuts, 2.0f), 2);
  EXPECT_EQ(quantize_bin(cuts, 3.0f), 3);
  EXPECT_EQ(quantize_bin(cuts, 99.0f), 3);
}

TEST(BinnedMatrix, CodesMatchStrictPartitionConvention) {
  const Matrix x = random_matrix(400, 7, 101);
  const BinnedMatrix bm(x, 16);
  ASSERT_EQ(bm.rows(), x.rows());
  ASSERT_EQ(bm.cols(), x.cols());
  for (std::size_t f = 0; f < x.cols(); ++f) {
    const auto& cuts = bm.cuts(f);
    ASSERT_LT(static_cast<int>(cuts.size()), bm.bins());
    for (std::size_t i = 1; i < cuts.size(); ++i)
      ASSERT_LT(cuts[i - 1], cuts[i]) << "cuts not strictly ascending";
    const std::uint8_t* code = bm.codes(f);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const float v = x(r, f);
      const int b = code[r];
      ASSERT_EQ(b, quantize_bin(cuts, v));
      // Bin b holds [cuts[b-1], cuts[b]): splitting after bin b with
      // threshold cuts[b] must send exactly codes <= b to the left.
      if (b > 0) ASSERT_GE(v, cuts[static_cast<std::size_t>(b - 1)]);
      if (b < static_cast<int>(cuts.size()))
        ASSERT_LT(v, cuts[static_cast<std::size_t>(b)]);
    }
  }
}

TEST(BinnedMatrix, FewDistinctValuesGetDistinctCodes) {
  // A 4-valued column with plenty of bins must keep the values separable:
  // every distinct value maps to its own code.
  Matrix x(256, 1);
  for (std::size_t r = 0; r < x.rows(); ++r)
    x(r, 0) = static_cast<float>(r % 4);
  const BinnedMatrix bm(x, 8);
  const std::uint8_t* code = bm.codes(0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t s = 0; s < x.rows(); ++s) {
      if (x(r, 0) == x(s, 0))
        ASSERT_EQ(code[r], code[s]);
      else if (x(r, 0) < x(s, 0))
        ASSERT_LT(code[r], code[s]);
    }
    if (r >= 8) break;  // all residues seen twice; the rest repeats
  }
}

TEST(BinnedMatrix, ConstantColumnHasOneBin) {
  Matrix x(64, 2, 1.5f);
  const BinnedMatrix bm(x, 32);
  EXPECT_EQ(bm.bin_count(0), 1);
  EXPECT_TRUE(bm.cuts(0).empty());
  const std::uint8_t* code = bm.codes(0);
  for (std::size_t r = 0; r < x.rows(); ++r) EXPECT_EQ(code[r], 0);
}

TEST(BinnedMatrix, DeterministicAcrossPoolWidths) {
  const Matrix x = random_matrix(3000, 9, 77);
  std::vector<std::vector<float>> ref_cuts;
  std::vector<std::uint8_t> ref_codes;
  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ScopedThreads threads(w);
    const BinnedMatrix bm(x, 64);
    std::vector<std::vector<float>> cuts;
    for (std::size_t f = 0; f < bm.cols(); ++f) cuts.push_back(bm.cuts(f));
    std::vector<std::uint8_t> codes;
    for (std::size_t f = 0; f < bm.cols(); ++f)
      codes.insert(codes.end(), bm.codes(f), bm.codes(f) + bm.rows());
    if (ref_cuts.empty()) {
      ref_cuts = std::move(cuts);
      ref_codes = std::move(codes);
      continue;
    }
    EXPECT_EQ(cuts, ref_cuts) << "threads " << w;
    EXPECT_EQ(codes, ref_codes) << "threads " << w;
  }
}

TEST(HistogramTree, SiblingSubtractionIdenticalToDirectAccumulation) {
  // Classification histograms hold integer counts in doubles, so the
  // subtracted sibling histogram is exact — the trees must be identical,
  // not merely close. All features per split => subtract mode engages;
  // tiny exact_split_max keeps nodes on the histogram path deep down.
  auto [x, y] = make_blobs(4, 300, 6, 1.2, 5);
  const BinnedMatrix bm(x, 32);
  TreeConfig cfg;
  cfg.max_depth = 9;
  cfg.histogram_bins = 32;
  cfg.exact_split_max = 16;
  cfg.features_per_split = 0;  // all features: subtraction eligible

  DecisionTree direct, subtracted;
  {
    TreeConfig c = cfg;
    c.hist_subtraction = false;
    std::mt19937_64 rng(9);
    direct.fit_classifier(x, bm, y, 4, c, rng);
  }
  {
    TreeConfig c = cfg;
    c.hist_subtraction = true;
    std::mt19937_64 rng(9);
    subtracted.fit_classifier(x, bm, y, 4, c, rng);
  }
  ASSERT_EQ(direct.node_count(), subtracted.node_count());
  ASSERT_GT(direct.node_count(), 16u) << "histogram path not exercised";
  for (std::size_t i = 0; i < x.rows(); ++i)
    ASSERT_EQ(direct.predict_class(x.row(i)), subtracted.predict_class(x.row(i)))
        << "row " << i;
  const auto& ia = direct.feature_importance();
  const auto& ib = subtracted.feature_importance();
  ASSERT_EQ(ia.size(), ib.size());
  for (std::size_t f = 0; f < ia.size(); ++f)
    EXPECT_EQ(ia[f], ib[f]) << "feature " << f;
}

/// FNV-1a digest of a vector's raw bytes, as 16 hex digits.
template <typename V>
std::string digest(const V& v) {
  return core::hex64(core::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(v.data()),
      v.size() * sizeof(typename V::value_type))));
}

TEST(HistogramTree, FitsPinnedToRetiredLegacyEngineRecord) {
  // The histogram-path-dominated smoke set the legacy per-tree binning
  // engine was last compared on: gaussian blobs around scrambled lattice
  // centers, every 5th row held out, 64 bins, exact sweep only at <= 64
  // rows. The digests were captured before that engine was deleted, so
  // they prove the deletion left the BinnedMatrix fit bit-identical; the
  // accuracies recorded for the legacy engine are the quality gate.
  constexpr int kClasses = 6;
  constexpr std::size_t kPerClass = 2000, kDims = 24;
  std::mt19937_64 gen(71);
  std::normal_distribution<float> noise(0.0f, 2.2f);
  Matrix xtr(kPerClass * kClasses * 4 / 5, kDims);
  Matrix xte(kPerClass * kClasses / 5, kDims);
  std::vector<int> ytr, yte;
  for (std::size_t row = 0; row < kPerClass * kClasses; ++row) {
    const int c = static_cast<int>(row / kPerClass);
    const bool test = row % 5 == 0;
    float* out = test ? xte.row(yte.size()) : xtr.row(ytr.size());
    for (std::size_t f = 0; f < kDims; ++f) {
      const int center = (c * 31 + static_cast<int>(f) * 17) % 7 - 3;
      out[f] = static_cast<float>(center) + noise(gen);
    }
    (test ? yte : ytr).push_back(c);
  }

  ForestConfig fc;
  fc.num_trees = 10;
  fc.seed = 17;
  fc.tree.histogram_bins = 64;
  fc.tree.exact_split_max = 64;
  GbdtConfig gc = GbdtConfig::xgboost_style();
  gc.rounds = 6;
  gc.tree.histogram_bins = 64;
  gc.tree.exact_split_max = 64;

  // Legacy engine, same data and configs: forest 0.97375, GBDT 0.9770833.
  constexpr double kLegacyForestAcc = 0.97375, kLegacyGbdtAcc = 0.9770833;
  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ScopedThreads threads(w);
    RandomForest rf(fc);
    rf.fit(xtr, ytr, kClasses);
    const auto rf_pred = rf.predict(xte);
    EXPECT_EQ(digest(rf_pred) + "/" + digest(rf.feature_importance()),
              "60b19c2636f4e3c3/0885ee716b3dfd67")
        << "threads " << w;
    EXPECT_NEAR(evaluate(yte, rf_pred, kClasses).accuracy, kLegacyForestAcc,
                0.005);

    GradientBoosting gb(gc);
    gb.fit(xtr, ytr, kClasses);
    const auto gb_pred = gb.predict(xte);
    EXPECT_EQ(digest(gb_pred) + "/" + digest(gb.decision_function(xte).data()),
              "2c75c6d90df02c25/a3311ac20870c926")
        << "threads " << w;
    EXPECT_NEAR(evaluate(yte, gb_pred, kClasses).accuracy, kLegacyGbdtAcc,
                0.005);
  }
}

TEST(HistogramTree, GbdtSubtractionPreservesQuality) {
  // Regression histograms accumulate float g/h into doubles, so the
  // subtracted sibling can differ in the last ulp from direct
  // accumulation — we require quality parity rather than bit identity.
  auto [x, y] = make_blobs(3, 200, 5, 1.0, 21);
  GbdtConfig cfg = GbdtConfig::lightgbm_style();
  cfg.rounds = 10;
  cfg.tree.exact_split_max = 16;

  cfg.tree.hist_subtraction = true;
  GradientBoosting with_sub(cfg);
  with_sub.fit(x, y, 3);
  cfg.tree.hist_subtraction = false;
  GradientBoosting without_sub(cfg);
  without_sub.fit(x, y, 3);

  const double acc_sub = evaluate(y, with_sub.predict(x), 3).accuracy;
  const double acc_direct = evaluate(y, without_sub.predict(x), 3).accuracy;
  EXPECT_GT(acc_sub, 0.95);
  EXPECT_GT(acc_direct, 0.95);
  EXPECT_NEAR(acc_sub, acc_direct, 0.03);
}

TEST(HistogramTree, ForestFitDigestIdenticalAcrossPoolWidths) {
  // The shared-BinnedMatrix forest fit must be bit-identical at any
  // SUGAR_THREADS: quantization is per-feature deterministic, per-node
  // accumulation writes disjoint feature slots, and trees own seeded RNG
  // streams.
  auto [x, y] = make_blobs(4, 200, 6, 1.3, 31);
  ForestConfig cfg;
  cfg.num_trees = 9;
  cfg.seed = 55;
  cfg.tree.exact_split_max = 32;

  std::vector<int> ref_pred;
  std::vector<double> ref_imp;
  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ScopedThreads threads(w);
    RandomForest rf(cfg);
    rf.fit(x, y, 4);
    auto pred = rf.predict(x);
    auto imp = rf.feature_importance();
    if (ref_pred.empty()) {
      ref_pred = std::move(pred);
      ref_imp = std::move(imp);
      continue;
    }
    EXPECT_EQ(pred, ref_pred) << "threads " << w;
    ASSERT_EQ(imp.size(), ref_imp.size());
    for (std::size_t f = 0; f < imp.size(); ++f)
      EXPECT_EQ(imp[f], ref_imp[f]) << "feature " << f << " threads " << w;
  }
}

TEST(HistogramTree, GbdtFitDigestIdenticalAcrossPoolWidths) {
  // GBDT is where feature-parallel accumulation really runs concurrently
  // (single-tree fits dispatch from the top level, not from inside a
  // per-tree parallel_for), so margins must still be bitwise stable.
  auto [x, y] = make_blobs(3, 180, 6, 1.2, 41);
  for (bool leafwise : {false, true}) {
    GbdtConfig cfg =
        leafwise ? GbdtConfig::lightgbm_style() : GbdtConfig::xgboost_style();
    cfg.rounds = 6;
    cfg.tree.exact_split_max = 16;

    Matrix ref_scores;
    for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
      ScopedThreads threads(w);
      GradientBoosting gbdt(cfg);
      gbdt.fit(x, y, 3);
      Matrix scores = gbdt.decision_function(x);
      if (ref_scores.size() == 0) {
        ref_scores = std::move(scores);
        continue;
      }
      ASSERT_EQ(scores.rows(), ref_scores.rows());
      ASSERT_EQ(scores.cols(), ref_scores.cols());
      EXPECT_EQ(std::memcmp(scores.data().data(), ref_scores.data().data(),
                            scores.size() * sizeof(float)),
                0)
          << "leafwise " << leafwise << " threads " << w;
    }
  }
}

}  // namespace
}  // namespace sugar::ml
