// Crash tolerance contract: a snapshot taken between pump() rounds, restored
// into a fresh engine, must make the replayed run bit-identical to an
// uninterrupted one — verdicts and every monotone counter, at any
// SUGAR_THREADS, under a pure-function classifier and a fitted forest
// alike. Under a mixed disk-fault storm every save attempt is a counted
// failure or a saved snapshot, and a clean save afterwards restores. The
// corruption corpus (truncations and single-bit flips at
// positions spread across the file) must always be rejected with a
// structured SnapshotError and degrade to a counted cold start; it must
// never crash, misparse silently, or leave a half-restored engine. These
// tests also run under the sanitizer configurations via scripts/check.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/chaos.h"
#include "core/crc32.h"
#include "core/threadpool.h"
#include "serve/classifier.h"
#include "serve/engine.h"
#include "serve/flow_features.h"
#include "serve/snapshot.h"
#include "net/serializer.h"
#include "trafficgen/datasets.h"

namespace sugar::serve {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { core::set_global_threads(n); }
  ~ScopedThreads() { core::set_global_threads(0); }
};

const std::size_t kWidths[] = {1, 2, 7};

std::vector<net::Packet> sample_stream() {
  trafficgen::GenOptions opts;
  opts.seed = 2027;
  opts.flows_per_class = 3;
  opts.spurious_fraction = 0.05;
  return trafficgen::generate_iscx_vpn(opts).packets;
}

std::shared_ptr<const FlowClassifier> parity_classifier() {
  FlowFeatureConfig fcfg;
  const std::size_t dim = flow_feature_dim(fcfg);
  return std::make_shared<HeuristicClassifier>(dim, 4, [dim](const float* f) {
    float acc = 0.0f;
    for (std::size_t d = 0; d < dim; ++d) acc += f[d];
    return static_cast<int>(static_cast<std::uint64_t>(acc) % 4);
  });
}

ServeConfig small_config() {
  ServeConfig cfg;
  cfg.table.shards = 4;
  cfg.table.max_flows = 256;
  cfg.queue_capacity = 512;
  cfg.batch_size = 64;
  cfg.record_verdicts = true;
  return cfg;
}

std::string describe(const Verdict& v) {
  std::ostringstream os;
  os << std::string(reinterpret_cast<const char*>(&v.key), sizeof v.key)
     << '|' << v.label << '|' << v.packets << '|' << v.feature_packets << '|'
     << to_string(v.reason) << '|' << v.first_ts_usec << '|' << v.last_ts_usec;
  return os.str();
}

/// Offers 96 packets per round (above batch_size, so the queue carries state
/// across rounds and into snapshots), pumps once, using the engine's own
/// stream_pos() as the replay cursor — exactly what a restored run resumes
/// from.
void drive_rounds(ServeEngine& engine, const std::vector<net::Packet>& stream,
                  std::size_t rounds) {
  for (std::size_t r = 0; r < rounds && engine.stream_pos() < stream.size();
       ++r) {
    std::size_t pos = engine.stream_pos();
    for (std::size_t k = 0; k < 96 && pos < stream.size(); ++k, ++pos)
      engine.offer(stream[pos]);
    engine.set_stream_pos(pos);
    engine.pump();
  }
}

struct RunResult {
  std::vector<std::string> verdicts;
  std::vector<std::uint64_t> counters;
};

RunResult finish(ServeEngine& engine, const std::vector<net::Packet>& stream) {
  drive_rounds(engine, stream, ~std::size_t{0});
  engine.drain();
  engine.flush();
  RunResult out;
  for (const auto& v : engine.take_verdicts()) out.verdicts.push_back(describe(v));
  out.counters = engine.stats().counters.to_values();
  return out;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/sugar_" + name + ".snap";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A RandomForest fitted on sample_stream()'s own labelled flows, frozen
/// behind the serve interface: the model a deployment actually restores
/// next to, so the kill/restore identity is checked on real forest votes
/// and not only on a pure function of the features.
std::shared_ptr<const FlowClassifier> forest_classifier() {
  trafficgen::GenOptions opts;
  opts.seed = 2027;
  opts.flows_per_class = 3;
  opts.spurious_fraction = 0.05;
  const auto trace = trafficgen::generate_iscx_vpn(opts);
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
  ml::Matrix x(labelled.size(), flows.x.cols());
  std::vector<int> y(labelled.size());
  for (std::size_t r = 0; r < labelled.size(); ++r) {
    std::copy_n(flows.x.row(labelled[r]), flows.x.cols(), x.row(r));
    y[r] = flows.labels[labelled[r]];
  }
  ml::ForestConfig cfg;
  cfg.num_trees = 8;
  return fit_forest_classifier(x, y, classes, cfg);
}

TEST(SnapshotDeterminism, KillRestoreReplayIsBitIdenticalAtAllWidths) {
  const auto stream = sample_stream();
  const std::pair<const char*, std::shared_ptr<const FlowClassifier>>
      models[] = {{"parity", parity_classifier()},
                  {"forest", forest_classifier()}};
  for (const auto& [model, clf] : models) {
    for (const std::size_t width : kWidths) {
      ScopedThreads threads(width);
      const std::string where = std::string(model) + " width " +
                                std::to_string(width) + " kill ";
      // Uninterrupted baseline at this width.
      ServeEngine baseline(small_config(), clf);
      const RunResult want = finish(baseline, stream);
      ASSERT_FALSE(want.verdicts.empty()) << where;

      for (const std::size_t kill_round : {std::size_t{2}, std::size_t{6}}) {
        const std::string path = temp_path("kill");
        ServeCounters at_kill;
        {
          ServeEngine engine(small_config(), clf);
          drive_rounds(engine, stream, kill_round);
          ASSERT_TRUE(engine.save_snapshot(path).ok());
          at_kill = engine.stats().counters;
          // Engine destroyed: the crash. Verdicts were never taken — the
          // snapshot must carry them.
        }
        ServeEngine restored(small_config(), clf);
        ASSERT_TRUE(restored.restore_snapshot(path).ok());
        const RunResult got = finish(restored, stream);
        EXPECT_EQ(want.counters, got.counters) << where << kill_round;
        // Restore never rewinds accounting: every counter at the kill
        // point is <= its final value.
        EXPECT_TRUE(at_kill.monotone_le(restored.stats().counters))
            << where << kill_round;
        const auto diff =
            std::mismatch(want.verdicts.begin(), want.verdicts.end(),
                          got.verdicts.begin(), got.verdicts.end());
        EXPECT_TRUE(diff.first == want.verdicts.end() &&
                    diff.second == got.verdicts.end())
            << "verdicts diverge at " << (diff.first - want.verdicts.begin())
            << " of " << want.verdicts.size() << " vs " << got.verdicts.size()
            << ", " << where << kill_round;
        EXPECT_EQ(restored.recovery().snapshots_restored, 1u);
        core::real_io().remove_file(path);
      }
    }
  }
}

/// sample_stream() with a truncated frame (malformed: shorter than an
/// Ethernet header) and an ARP frame (keyless) spliced in near the front.
std::vector<net::Packet> stream_with_malformed_and_keyless() {
  auto stream = sample_stream();
  net::Packet truncated = stream[2];
  truncated.data.resize(10);
  net::FrameSpec arp;
  arp.arp = net::ArpHeader{};
  const net::Packet arp_pkt = net::build_packet(arp, stream[5].ts_usec);
  stream.insert(stream.begin() + 5, arp_pkt);
  stream.insert(stream.begin() + 3, truncated);
  return stream;
}

/// Offers the first `count` packets without pumping, so they all sit in
/// the ingest queue as prepared records.
void offer_prefix(ServeEngine& engine, const std::vector<net::Packet>& stream,
                  std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) ASSERT_TRUE(engine.offer(stream[i]));
  engine.set_stream_pos(count);
}

/// Byte offset of section `id`'s payload in a snapshot file (0 if absent).
std::size_t section_payload(const std::string& file, std::uint32_t id,
                            std::uint64_t* len) {
  auto le = [&](std::size_t at, int bytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(file[at + i]))
           << (8 * i);
    return v;
  };
  std::size_t pos = 8;  // magic + version
  while (pos + 12 <= file.size()) {
    const auto sec = static_cast<std::uint32_t>(le(pos, 4));
    *len = le(pos + 4, 8);
    if (sec == id) return pos + 12;
    pos += 12 + *len + 4;
  }
  return 0;
}

TEST(SnapshotDeterminism, QueuedMalformedAndKeylessRecordsSurviveKillRestore) {
  const auto stream = stream_with_malformed_and_keyless();
  const auto clf = parity_classifier();
  constexpr std::size_t kQueued = 96;  // > batch_size: two rounds' worth
  for (const std::size_t width : kWidths) {
    ScopedThreads threads(width);
    ServeEngine baseline(small_config(), clf);
    offer_prefix(baseline, stream, kQueued);
    const RunResult want = finish(baseline, stream);
    const ServeCounters base = baseline.stats().counters;
    ASSERT_GE(base.packets_malformed, 1u);
    ASSERT_GE(base.packets_keyless, 1u);

    const std::string path = temp_path("queued_kinds");
    {
      ServeEngine engine(small_config(), clf);
      offer_prefix(engine, stream, kQueued);
      ASSERT_EQ(engine.queue_depth(), kQueued);
      ASSERT_TRUE(engine.save_snapshot(path).ok());  // before any pump()
    }
    ServeEngine restored(small_config(), clf);
    ASSERT_TRUE(restored.restore_snapshot(path).ok());
    EXPECT_EQ(restored.queue_depth(), kQueued);
    const RunResult got = finish(restored, stream);
    const ServeCounters after = restored.stats().counters;
    EXPECT_EQ(base.packets_malformed, after.packets_malformed) << "width " << width;
    EXPECT_EQ(base.packets_keyless, after.packets_keyless) << "width " << width;
    EXPECT_EQ(want.counters, got.counters) << "width " << width;
    EXPECT_EQ(want.verdicts, got.verdicts) << "width " << width;
    core::real_io().remove_file(path);
  }
}

TEST(SnapshotCorruption, QueueRecordKindOutOfRangeIsBadSection) {
  const auto stream = stream_with_malformed_and_keyless();
  const auto clf = parity_classifier();
  const std::string path = temp_path("queue_kind");
  {
    ServeEngine engine(small_config(), clf);
    offer_prefix(engine, stream, 16);
    ASSERT_TRUE(engine.save_snapshot(path).ok());
  }
  const std::string clean = read_file(path);
  std::uint64_t len = 0;
  const std::size_t payload = section_payload(clean, 6, &len);
  ASSERT_GT(payload, 0u);
  ASSERT_GT(len, 17u);

  // First record's kind byte (after the u64 count and its u64 ts) set to 3,
  // with the section CRC re-sealed so only the range check can catch it.
  std::string bad = clean;
  bad[payload + 16] = 3;
  const std::uint32_t crc = core::crc32(
      {reinterpret_cast<const std::uint8_t*>(bad.data()) + payload, len});
  for (int i = 0; i < 4; ++i)
    bad[payload + len + i] = static_cast<char>(crc >> (8 * i));
  write_file(path, bad);
  ServeEngine victim(small_config(), clf);
  const SnapshotOutcome out = victim.restore_snapshot(path);
  EXPECT_EQ(out.error, SnapshotError::kBadSection) << out.message;
  EXPECT_EQ(victim.recovery().cold_starts, 1u);
  const ServeStats stats = victim.stats();
  EXPECT_EQ(stats.counters.packets_offered, 0u);
  EXPECT_EQ(stats.gauges.queue_depth, 0u);
  EXPECT_EQ(stats.gauges.current_flows, 0u);

  // A version-1 file (raw frames in section 6) is refused outright.
  bad = clean;
  bad[4] = 1;
  write_file(path, bad);
  ServeEngine v1(small_config(), clf);
  EXPECT_EQ(v1.restore_snapshot(path).error, SnapshotError::kBadVersion);
  core::real_io().remove_file(path);
}

TEST(SnapshotRoundTrip, RestoredEngineMatchesSavedState) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("roundtrip");

  ServeEngine engine(small_config(), clf);
  drive_rounds(engine, stream, 4);
  ASSERT_TRUE(engine.save_snapshot(path).ok());
  EXPECT_EQ(engine.recovery().snapshots_saved, 1u);

  ServeEngine restored(small_config(), clf);
  ASSERT_TRUE(restored.restore_snapshot(path).ok());

  const ServeStats a = engine.stats();
  const ServeStats b = restored.stats();
  EXPECT_EQ(a.counters.to_values(), b.counters.to_values());
  EXPECT_EQ(a.gauges.current_flows, b.gauges.current_flows);
  EXPECT_EQ(a.gauges.peak_flows, b.gauges.peak_flows);
  EXPECT_EQ(a.gauges.queue_depth, b.gauges.queue_depth);
  EXPECT_EQ(a.gauges.shed_stage, b.gauges.shed_stage);
  EXPECT_EQ(a.gauges.virtual_now_usec, b.gauges.virtual_now_usec);
  EXPECT_EQ(a.latency.buckets(), b.latency.buckets());
  EXPECT_EQ(engine.stream_pos(), restored.stream_pos());

  const auto va = engine.take_verdicts();
  const auto vb = restored.take_verdicts();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i)
    EXPECT_EQ(describe(va[i]), describe(vb[i]));
  core::real_io().remove_file(path);
}

TEST(SnapshotRoundTrip, ConfigMismatchRejectedAndEngineUntouched) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("mismatch");

  ServeEngine engine(small_config(), clf);
  drive_rounds(engine, stream, 3);
  ASSERT_TRUE(engine.save_snapshot(path).ok());

  ServeConfig other = small_config();
  other.table.shards = 8;  // different shard map: flows would land wrong
  ServeEngine victim(other, clf);
  const SnapshotOutcome out = victim.restore_snapshot(path);
  EXPECT_EQ(out.error, SnapshotError::kConfigMismatch);
  EXPECT_EQ(victim.recovery().restore_failures, 1u);
  EXPECT_EQ(victim.recovery().cold_starts, 1u);
  EXPECT_EQ(victim.recovery().last_error, SnapshotError::kConfigMismatch);
  // The failed restore must leave the engine a clean cold start.
  const ServeStats stats = victim.stats();
  EXPECT_EQ(stats.counters.packets_offered, 0u);
  EXPECT_EQ(stats.gauges.current_flows, 0u);
  const RunResult still_works = finish(victim, stream);
  EXPECT_FALSE(still_works.verdicts.empty());
  core::real_io().remove_file(path);
}

TEST(SnapshotCorruption, MissingFileIsIoError) {
  ServeEngine engine(small_config(), parity_classifier());
  const SnapshotOutcome out =
      engine.restore_snapshot(temp_path("does_not_exist"));
  EXPECT_EQ(out.error, SnapshotError::kIo);
  EXPECT_EQ(engine.recovery().cold_starts, 1u);
}

TEST(SnapshotCorruption, BadMagicAndVersionDetected) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("header");
  ServeEngine engine(small_config(), clf);
  drive_rounds(engine, stream, 2);
  ASSERT_TRUE(engine.save_snapshot(path).ok());
  const std::string clean = read_file(path);
  ASSERT_GE(clean.size(), 8u);

  std::string bad = clean;
  bad[0] = 'X';
  write_file(path, bad);
  ServeEngine v1(small_config(), clf);
  EXPECT_EQ(v1.restore_snapshot(path).error, SnapshotError::kBadMagic);

  bad = clean;
  bad[4] = static_cast<char>(0x7F);  // version little-endian low byte
  write_file(path, bad);
  ServeEngine v2(small_config(), clf);
  EXPECT_EQ(v2.restore_snapshot(path).error, SnapshotError::kBadVersion);
  core::real_io().remove_file(path);
}

TEST(SnapshotCorruption, EveryTruncationRejectedStructured) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("truncate");
  {
    ServeEngine engine(small_config(), clf);
    drive_rounds(engine, stream, 3);
    ASSERT_TRUE(engine.save_snapshot(path).ok());
  }
  const std::string clean = read_file(path);
  ASSERT_GT(clean.size(), 64u);

  std::vector<std::size_t> cuts = {0, 1, 3, 4, 7, 8, 11, 15,
                                   clean.size() / 4, clean.size() / 2,
                                   clean.size() - 5, clean.size() - 1};
  for (std::size_t cut : cuts) {
    write_file(path, clean.substr(0, cut));
    ServeEngine victim(small_config(), clf);
    const SnapshotOutcome out = victim.restore_snapshot(path);
    EXPECT_NE(out.error, SnapshotError::kNone) << "cut at " << cut;
    EXPECT_EQ(victim.recovery().cold_starts, 1u) << "cut at " << cut;
    // Still a functional engine after the rejected restore.
    victim.offer(stream[0]);
    victim.pump();
  }

  // Trailing garbage after a fully valid snapshot is its own error.
  write_file(path, clean + "extra");
  ServeEngine victim(small_config(), clf);
  EXPECT_EQ(victim.restore_snapshot(path).error,
            SnapshotError::kTrailingGarbage);
  core::real_io().remove_file(path);
}

TEST(SnapshotCorruption, EveryBitFlipRejected) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("bitflip");
  {
    ServeEngine engine(small_config(), clf);
    drive_rounds(engine, stream, 3);
    ASSERT_TRUE(engine.save_snapshot(path).ok());
  }
  const std::string clean = read_file(path);
  ASSERT_GT(clean.size(), 64u);

  // Deterministic corpus: positions strided across the whole file (headers,
  // payloads and CRC trailers all get hit), three bit positions each.
  const std::size_t stride = std::max<std::size_t>(1, clean.size() / 41);
  for (std::size_t pos = 0; pos < clean.size(); pos += stride) {
    for (int bit : {0, 3, 7}) {
      std::string bad = clean;
      bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
      write_file(path, bad);
      ServeEngine victim(small_config(), clf);
      const SnapshotOutcome out = victim.restore_snapshot(path);
      EXPECT_NE(out.error, SnapshotError::kNone)
          << "flip at byte " << pos << " bit " << bit;
      // A rejected restore is a counted cold start with a usable engine.
      EXPECT_EQ(victim.recovery().cold_starts, 1u);
      victim.offer(stream[0]);
      victim.pump();
    }
  }
  core::real_io().remove_file(path);
}

TEST(SnapshotIo, InjectedWriteFaultsAreCountedSaveFailures) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("io_fault");

  for (core::ChaosSite site : {core::ChaosSite::kIoWriteFail,
                               core::ChaosSite::kIoShortWrite,
                               core::ChaosSite::kIoRenameFail}) {
    core::ChaosConfig ccfg;
    ccfg.enabled = true;
    ccfg.seed = 99;
    ccfg.with(site, 1.0);
    core::ChaosInjector chaos(ccfg);
    core::ChaosIo io(chaos);

    ServeEngine engine(small_config(), clf);
    drive_rounds(engine, stream, 2);
    const SnapshotOutcome out = engine.save_snapshot(path, &io);
    EXPECT_EQ(out.error, SnapshotError::kIo) << to_string(site);
    EXPECT_EQ(engine.recovery().save_failures, 1u) << to_string(site);
    EXPECT_EQ(engine.recovery().snapshots_saved, 0u) << to_string(site);

    // The failed (possibly short) write must not have produced a file a
    // later restore would accept.
    ServeEngine victim(small_config(), clf);
    EXPECT_NE(victim.restore_snapshot(path).error, SnapshotError::kNone)
        << to_string(site);
    core::real_io().remove_file(path);
  }
}

TEST(SnapshotIo, MixedFaultStormCountsEveryAttemptAndCleanSaveRestores) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("io_storm");

  // A mixed disk-fault storm on a save cadence: every attempt is either a
  // counted failure or a saved snapshot, never lost and never fatal.
  core::ChaosConfig ccfg;
  ccfg.enabled = true;
  ccfg.seed = 3;
  ccfg.with(core::ChaosSite::kIoWriteFail, 0.30)
      .with(core::ChaosSite::kIoShortWrite, 0.30)
      .with(core::ChaosSite::kIoRenameFail, 0.20);
  core::ChaosInjector chaos(ccfg);
  core::ChaosIo io(chaos);

  ServeEngine engine(small_config(), clf);
  std::uint64_t attempts = 0;
  for (std::size_t round = 1; engine.stream_pos() < stream.size(); ++round) {
    drive_rounds(engine, stream, 1);
    if (round % 2 == 0) {
      engine.save_snapshot(path, &io);
      ++attempts;
    }
  }
  engine.drain();
  engine.flush();
  const RecoveryStats storm = engine.recovery();
  EXPECT_EQ(storm.save_failures + storm.snapshots_saved, attempts);
  EXPECT_GT(storm.save_failures, 0u);
  EXPECT_GT(storm.snapshots_saved, 0u);

  // After the storm, one clean save restores into a fresh engine, and the
  // restored state is the engine's current one, not an older storm save.
  ASSERT_TRUE(engine.save_snapshot(path).ok());
  EXPECT_EQ(engine.recovery().snapshots_saved, storm.snapshots_saved + 1);
  ServeEngine fresh(small_config(), clf);
  ASSERT_TRUE(fresh.restore_snapshot(path).ok());
  EXPECT_EQ(fresh.stream_pos(), engine.stream_pos());
  EXPECT_EQ(fresh.stats().counters.to_values(),
            engine.stats().counters.to_values());
  core::real_io().remove_file(path);
}

}  // namespace
}  // namespace sugar::serve
