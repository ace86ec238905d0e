// Resident ≡ out-of-core differential test. run_ooc_scale streams the
// pipeline through SUGC stores; the resident arm runs the same chunks
// through the in-memory stages (clean_trace → make_task_dataset →
// split_dataset → header_feature_matrix → BinnedMatrix → fit_binned →
// predict). Both must produce the same partition sizes and bit-identical
// test-set predictions at every pool width and store page size.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "core/ooc.h"
#include "core/threadpool.h"
#include "dataset/clean.h"
#include "dataset/split.h"
#include "ml/binned.h"
#include "ml/forest.h"
#include "ml/metrics.h"
#include "replearn/featurize.h"

namespace sugar::core {
namespace {

namespace fs = std::filesystem;

// Two generated chunks, so the cross-chunk flow-id offset is exercised.
constexpr std::uint64_t kTargetPackets = 20000;
constexpr std::uint64_t kSeed = 5;

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { set_global_threads(n); }
  ~ScopedThreads() { set_global_threads(0); }
};

struct ResidentRun {
  int chunks = 0;
  std::size_t rows = 0, train_rows = 0, test_rows = 0;
  double accuracy = 0;
  std::uint64_t digest = 0;
};

/// The resident pipeline over the chunks run_ooc_scale generates: each
/// chunk cleaned into a task dataset, appended with its flow ids offset
/// past the flows of the chunks before it.
ResidentRun run_resident(std::uint64_t target, std::uint64_t seed) {
  ResidentRun run;
  dataset::PacketDataset all;
  int flow_offset = 0;
  while (all.size() < target) {
    trafficgen::GeneratedTrace trace =
        trafficgen::generate_iscx_vpn(ooc_chunk_options(seed, run.chunks++));
    dataset::clean_trace(trace, dataset::CleaningOptions{});
    const dataset::PacketDataset ds =
        dataset::make_task_dataset(trace, dataset::TaskId::VpnApp);
    for (std::size_t i = 0; i < ds.size(); ++i) {
      all.packets.push_back(ds.packets[i]);
      all.parsed.push_back(ds.parsed[i]);
      all.label.push_back(ds.label[i]);
      all.flow_id.push_back(flow_offset + ds.flow_id[i]);
    }
    flow_offset += static_cast<int>(ds.flows().size());
    all.num_classes = ds.num_classes;
  }
  run.rows = all.size();

  const dataset::SplitIndices split = dataset::split_dataset(all, {.seed = seed});
  run.train_rows = split.train.size();
  run.test_rows = split.test.size();
  const auto labels = [&](const std::vector<std::size_t>& idx) {
    std::vector<int> y;
    for (std::size_t i : idx) y.push_back(all.label[i]);
    return y;
  };
  const ml::ForestConfig cfg = ooc_forest_config(seed);
  const ml::Matrix x_train = replearn::header_feature_matrix(all, split.train);
  ml::RandomForest forest(cfg);
  forest.fit_binned(ml::BinnedMatrix(x_train, cfg.tree.histogram_bins),
                    labels(split.train), all.num_classes);
  const std::vector<int> pred =
      forest.predict(replearn::header_feature_matrix(all, split.test));
  run.accuracy =
      ml::evaluate(labels(split.test), pred, all.num_classes).accuracy;
  run.digest = fnv1a64(std::string(reinterpret_cast<const char*>(pred.data()),
                                   pred.size() * sizeof(int)));
  return run;
}

double num(const Json& json, const char* key) {
  const Json* v = json.find(key);
  return v ? v->number_or(-1) : -1;
}

TEST(OocPipeline, DigestMatchesResidentStages) {
  const ResidentRun resident = run_resident(kTargetPackets, kSeed);
  ASSERT_GE(resident.chunks, 2);
  ASSERT_GT(resident.test_rows, 0u);

  const fs::path dir = fs::temp_directory_path() /
                       ("sugar_ooc_pipeline_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  for (std::size_t threads : {1u, 2u, 7u}) {
    for (std::size_t group_rows : {1000u, 65536u}) {
      ScopedThreads scoped(threads);
      const OocResult res = run_ooc_scale({.dir = dir.string(),
                                           .target_packets = kTargetPackets,
                                           .seed = kSeed,
                                           .group_rows = group_rows});
      const std::string where = "threads " + std::to_string(threads) +
                                ", group_rows " + std::to_string(group_rows);
      EXPECT_EQ(num(res.json, "rows_kept"), static_cast<double>(resident.rows))
          << where;
      EXPECT_EQ(num(res.json, "train_rows"),
                static_cast<double>(resident.train_rows))
          << where;
      EXPECT_EQ(num(res.json, "test_rows"),
                static_cast<double>(resident.test_rows))
          << where;
      EXPECT_EQ(num(res.json, "accuracy"), resident.accuracy) << where;
      EXPECT_EQ(res.digest, resident.digest) << where;
      EXPECT_TRUE(fs::is_empty(dir)) << where << ": stores left behind";
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sugar::core
