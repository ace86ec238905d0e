// Zero-interference gate of the observability substrate: SUGAR_TRACE
// changes what is recorded, never what is computed. Each instrumented
// kernel (the ml.gemm_flops counter in matmul, the ml.forest.* spans, the
// k-NN purity pass, the pcap.* ingest counters) runs once with tracing off
// and once at the maximal `spans` mode, and the raw output bytes must
// digest identically. The pool width is pinned so both runs share one
// deterministic block structure and only the trace mode differs.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact.h"
#include "core/threadpool.h"
#include "core/trace.h"
#include "ml/forest.h"
#include "ml/knn.h"
#include "ml/matrix.h"
#include "net/pcap.h"
#include "trafficgen/datasets.h"

namespace sugar {
namespace {

namespace trace = core::trace;

/// Runs `kernel` off and then under `spans` at pool width 2, returning
/// both digests; asserts the spans run really recorded something, so the
/// comparison covers the traced code path and not two untraced runs.
class TraceIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    core::set_global_threads(2);
    trace::set_mode(trace::Mode::kOff);
    trace::reset();
  }
  void TearDown() override {
    trace::set_mode(trace::Mode::kOff);
    trace::reset();
    core::set_global_threads(0);
  }

  static void expect_identical(const std::function<std::string()>& kernel) {
    const std::string off = kernel();
    trace::set_mode(trace::Mode::kSpans);
    const std::string spans = kernel();
    trace::set_mode(trace::Mode::kOff);
    bool recorded = !trace::phase_stats().empty();
    for (const auto& c : trace::counters_snapshot())
      recorded = recorded || c.value > 0;
    EXPECT_TRUE(recorded) << "spans mode recorded nothing";
    EXPECT_EQ(off, spans) << "traced output differs from untraced";
  }
};

std::string digest_bytes(const void* data, std::size_t bytes) {
  return core::hex64(core::fnv1a64(
      std::string_view(static_cast<const char*>(data), bytes)));
}

template <typename T, typename Alloc>
std::string digest(const std::vector<T, Alloc>& v) {
  return digest_bytes(v.data(), v.size() * sizeof(T));
}

ml::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  ml::Matrix m(rows, cols);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : m.data()) v = dist(rng);
  return m;
}

std::vector<int> cyclic_labels(std::size_t n, int classes) {
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = static_cast<int>(i % classes);
  return y;
}

TEST_F(TraceIdentity, Matmul) {
  const ml::Matrix a = random_matrix(224, 192, 301);
  const ml::Matrix b = random_matrix(192, 160, 302);
  expect_identical([&] { return digest(ml::matmul(a, b).data()); });
}

TEST_F(TraceIdentity, ForestFitPredictAndImportance) {
  const ml::Matrix x = random_matrix(420, 20, 303);
  const std::vector<int> y = cyclic_labels(x.rows(), 5);
  expect_identical([&] {
    ml::ForestConfig fc;
    fc.num_trees = 24;
    ml::RandomForest rf(fc);
    rf.fit(x, y, 5);
    return digest(rf.predict(x)) + "/" + digest(rf.feature_importance());
  });
}

TEST_F(TraceIdentity, KnnPurity) {
  const ml::Matrix emb = random_matrix(360, 24, 304);
  const std::vector<int> labels = cyclic_labels(emb.rows(), 6);
  expect_identical([&] {
    const auto p = ml::knn_purity(emb, labels, 5);
    std::vector<double> h = p.histogram;
    h.push_back(p.mean_purity);
    return digest(h);
  });
}

TEST_F(TraceIdentity, PcapWriteReadRoundTrip) {
  trafficgen::GenOptions opts;
  opts.seed = 42;
  opts.flows_per_class = 4;
  const auto packets = trafficgen::generate_iscx_vpn(opts).packets;
  expect_identical([&] {
    std::stringstream ss;
    {
      net::PcapWriter writer(ss);
      writer.write_all(packets);
    }
    net::PcapReader reader(ss);
    std::string out;
    for (const auto& p : reader.read_all())
      out += digest(p.data) + std::to_string(p.ts_usec) + ";";
    return digest_bytes(out.data(), out.size());
  });
}

}  // namespace
}  // namespace sugar
