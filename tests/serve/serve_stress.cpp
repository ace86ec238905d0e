// Concurrency stress for the serve engine, intended for a TSan build
// (-DSUGAR_SANITIZE=thread; `ctest -L tsan`) but also correct — and run —
// under plain builds. Exercises the race-prone seams: many producer
// threads hammering offer() against the pump loop, stats() snapshotters
// reading mid-round, an external evictor sweeping idle flows, and verdict
// harvesting — all while the shard workers run on the shared pool — and
// a fitted forest's compiled model read by every shard worker at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/threadpool.h"
#include "serve/classifier.h"
#include "serve/engine.h"
#include "serve/flow_features.h"
#include "trafficgen/datasets.h"

namespace sugar::serve {
namespace {

trafficgen::GeneratedTrace sample_trace() {
  trafficgen::GenOptions opts;
  opts.seed = 404;
  opts.flows_per_class = 3;
  opts.spurious_fraction = 0.05;
  return trafficgen::generate_iscx_vpn(opts);
}

std::vector<net::Packet> sample_stream() { return sample_trace().packets; }

std::shared_ptr<const FlowClassifier> zero_classifier() {
  FlowFeatureConfig fcfg;
  return std::make_shared<HeuristicClassifier>(
      flow_feature_dim(fcfg), 2, [](const float*) { return 0; });
}

ServeConfig stress_config() {
  ServeConfig cfg;
  cfg.table.shards = 4;
  cfg.table.max_flows = 64;  // tight: eviction paths run concurrently
  cfg.queue_capacity = 256;
  cfg.batch_size = 64;
  cfg.record_verdicts = true;
  cfg.max_recorded_verdicts = 1 << 12;
  cfg.watchdog_timeout_s = 30;  // watchdog thread active but quiet
  return cfg;
}

// Producers offering packets vs the pump loop vs stats snapshotters vs an
// idle evictor vs a verdict harvester: the full concurrent surface of the
// engine, checked for data races (TSan) and for the accounting identity
// packets_offered == packets_rejected + packets_processed at quiesce.
TEST(ServeStress, ProducersPumpSnapshotsAndEvictor) {
  core::set_global_threads(4);
  const auto stream = sample_stream();
  ServeEngine engine(stress_config(), zero_classifier());

  constexpr int kProducers = 4;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> offered{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int round = 0; round < 6; ++round) {
        for (std::size_t i = p; i < stream.size(); i += kProducers) {
          engine.offer(stream[i]);
          offered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread pumper([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (engine.pump() == 0) std::this_thread::yield();
    }
    engine.drain();
  });

  std::thread snapshotter([&] {
    ServeCounters prev;
    while (!done.load(std::memory_order_acquire)) {
      const ServeStats stats = engine.stats();
      ASSERT_TRUE(prev.monotone_le(stats.counters));
      prev = stats.counters;
      ASSERT_LE(stats.gauges.table_bytes, stats.gauges.table_bytes_cap);
      std::this_thread::yield();
    }
  });

  std::thread evictor([&] {
    std::uint64_t now = 0;
    while (!done.load(std::memory_order_acquire)) {
      now += 500'000;
      engine.evict_idle_now(now);
      std::this_thread::yield();
    }
  });

  std::thread harvester([&] {
    std::size_t harvested = 0;
    while (!done.load(std::memory_order_acquire)) {
      harvested += engine.take_verdicts().size();
      std::this_thread::yield();
    }
  });

  for (auto& t : producers) t.join();
  // Producers finished: let the pump drain the residue, then quiesce.
  done.store(true, std::memory_order_release);
  pumper.join();
  snapshotter.join();
  evictor.join();
  harvester.join();
  engine.flush();

  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.counters.packets_offered, offered.load());
  EXPECT_EQ(stats.counters.packets_offered,
            stats.counters.packets_rejected + stats.counters.packets_processed);
  EXPECT_EQ(stats.gauges.current_flows, 0u);
  EXPECT_EQ(stats.counters.watchdog_stalls, 0u);
  core::set_global_threads(0);
}

// The serving model under concurrency: a RandomForest fitted on the
// trace's own flows (fit_forest_classifier, so every vote walks the shared
// compiled ml::FlatForest) classifies on all four shard workers while a
// reader thread votes on the training rows beside the rounds. Each reader
// vote must equal the batch RandomForest::predict, and every verdict must
// carry a real class.
TEST(ServeStress, ForestClassifierOnShardWorkers) {
  core::set_global_threads(4);
  const auto trace = sample_trace();
  std::vector<int> packet_labels(trace.packets.size());
  for (std::size_t i = 0; i < packet_labels.size(); ++i)
    packet_labels[i] = trace.labels[i].cls;
  const auto flows =
      batch_flow_features(trace.packets, &packet_labels, FlowFeatureConfig{});
  std::vector<std::size_t> labelled;
  int classes = 0;
  for (std::size_t i = 0; i < flows.labels.size(); ++i) {
    if (flows.labels[i] < 0) continue;
    labelled.push_back(i);
    classes = std::max(classes, flows.labels[i] + 1);
  }
  ASSERT_FALSE(labelled.empty());
  ml::Matrix x(labelled.size(), flows.x.cols());
  std::vector<int> y(labelled.size());
  for (std::size_t r = 0; r < labelled.size(); ++r) {
    std::copy_n(flows.x.row(labelled[r]), flows.x.cols(), x.row(r));
    y[r] = flows.labels[labelled[r]];
  }
  ml::ForestConfig forest_cfg;
  forest_cfg.num_trees = 12;
  std::shared_ptr<const ForestFlowClassifier> clf =
      fit_forest_classifier(x, y, classes, forest_cfg);
  const std::vector<int> expected = clf->forest().predict(x);

  ServeEngine engine(stress_config(), clf);
  constexpr int kProducers = 2;
  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int round = 0; round < 4; ++round)
        for (std::size_t i = p; i < trace.packets.size(); i += kProducers)
          engine.offer(trace.packets[i]);
    });
  }
  std::thread pumper([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (engine.pump() == 0) std::this_thread::yield();
    }
    engine.drain();
  });
  std::thread reader([&] {
    do {
      for (std::size_t r = 0; r < x.rows(); ++r)
        ASSERT_EQ(clf->classify(x.row(r)), expected[r]) << "row " << r;
    } while (!done.load(std::memory_order_acquire));
  });
  std::vector<Verdict> verdicts;
  std::thread harvester([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto batch = engine.take_verdicts();
      verdicts.insert(verdicts.end(), batch.begin(), batch.end());
      std::this_thread::yield();
    }
  });

  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  pumper.join();
  reader.join();
  harvester.join();
  engine.flush();
  const auto rest = engine.take_verdicts();
  verdicts.insert(verdicts.end(), rest.begin(), rest.end());

  EXPECT_FALSE(verdicts.empty());
  for (const Verdict& v : verdicts) {
    EXPECT_GE(v.label, 0);
    EXPECT_LT(v.label, classes);
  }
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.counters.packets_offered,
            stats.counters.packets_rejected + stats.counters.packets_processed);
  core::set_global_threads(0);
}

// Concurrent offer() against destruction-adjacent teardown: engines built
// and torn down repeatedly while a watchdog thread is live must not race
// in the dtor path.
TEST(ServeStress, RepeatedEngineLifecycleWithWatchdog) {
  core::set_global_threads(2);
  const auto stream = sample_stream();
  for (int round = 0; round < 8; ++round) {
    ServeConfig cfg = stress_config();
    cfg.watchdog_timeout_s = 0.05;  // fast watchdog ticks during teardown
    ServeEngine engine(cfg, zero_classifier());
    for (std::size_t i = 0; i < stream.size() && i < 512; ++i)
      engine.offer(stream[i]);
    engine.pump();
  }  // dtor joins the watchdog with work still queued
  core::set_global_threads(0);
}

}  // namespace
}  // namespace sugar::serve
