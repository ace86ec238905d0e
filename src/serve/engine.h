// ServeEngine: the online classification pipeline. Packets enter through a
// bounded ingest queue (offer(), thread-safe, explicit backpressure). offer()
// does the per-packet work once, on the producer's thread and outside the
// queue lock: parse, flow key, FlowKeyHash and the header features. The
// queue holds those fixed-size prepared records, never the frame bytes.
// pump() drains one batch, partitions it by hash % shards and runs a
// deterministic round on the shared core::ThreadPool — one fork-join, one
// worker per shard folding its packets into the ShardedFlowTable in arrival
// order, classifying flows at first-N packets and on eviction.
//
// Overload control is a three-stage shed ladder evaluated (with hysteresis)
// at every round boundary from queue depth and table occupancy:
//
//   stage 0  accept everything; a full queue still drops at offer()
//            (bounded-memory backpressure, counted packets_rejected)
//   stage 1  drop-newest-flows: packets that would create a new flow are
//            shed; resident flows keep progressing toward first-N
//   stage 2  early-classify: shard workers sweep the LRU tail and evict
//            (classifying) flows that already carry enough packets,
//            pulling occupancy back under the high watermark
//   stage 3  sample-evict: a new flow arriving at a full shard replaces
//            the LRU tail (classified if eligible, dropped otherwise)
//
// Every transition and every shed decision is counted in ServeStats — the
// engine degrades observably, never silently, and its memory is bounded by
// the queue's records (queue_capacity × (sizeof(PacketRecord) +
// 4·feature_dim) bytes, plus the at most batch_size records an aborted round
// puts back) + the flow table's slabs + one batch of round scratch.
//
// Determinism: given the same packet sequence and the same offer()/pump()
// schedule, verdicts and every eviction/shed counter are identical at any
// SUGAR_THREADS value — shard assignment and round partitioning depend
// only on the stream, and eviction time is the stream's own virtual clock
// (max packet timestamp seen), never the wall. Only the latency histogram
// and wall-time gauges are non-deterministic.
//
// Supervision: with watchdog_timeout_s > 0 a RunSupervisor-style watchdog
// thread checks that an in-flight round makes progress (per-shard
// heartbeat) and escalates through a ladder instead of hanging silently:
//
//   1x timeout  flag: counters.watchdog_stalls++ and a stderr diagnostic
//   2x timeout  quarantine: every shard still mid-round is marked; its
//               classifications route to cfg.fallback (when present) until
//               the shard completes two clean rounds
//   4x timeout  abort: round_abort_ asks shard workers to bail; their
//               unprocessed records are re-queued at the front of the
//               ingest queue in arrival order and re-drained next round
//
// Crash tolerance: save_snapshot()/restore_snapshot() (see snapshot.h)
// checkpoint the full engine state between rounds, so a restored engine
// replaying from the recorded stream position is bit-identical to one that
// never crashed. cfg.chaos (core::ChaosInjector) injects deterministic
// worker stalls, classifier faults and flow-table allocation failures for
// exercising all of the above.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/packet.h"
#include "serve/classifier.h"
#include "serve/flow_features.h"
#include "serve/flow_table.h"
#include "serve/snapshot.h"
#include "serve/stats.h"

namespace sugar::core {
class ChaosInjector;
class Io;
}  // namespace sugar::core

namespace sugar::serve {

enum class ShedStage : std::uint8_t {
  kNone = 0,
  kDropNewFlows = 1,
  kEarlyClassify = 2,
  kSampleEvict = 3,
};
const char* to_string(ShedStage s);

enum class VerdictReason : std::uint8_t {
  kFirstN,        // reached classify_at while resident
  kEvictIdle,     // idle timeout
  kEvictEarly,    // shed ladder stage 2
  kEvictSampled,  // shed ladder stage 3 replacement
  kFlush,         // engine flush()
};
const char* to_string(VerdictReason r);

/// One classified flow.
struct Verdict {
  net::FlowKey key;
  int label = -1;
  std::uint32_t packets = 0;
  std::uint32_t feature_packets = 0;
  VerdictReason reason = VerdictReason::kFirstN;
  std::uint64_t first_ts_usec = 0;
  std::uint64_t last_ts_usec = 0;
};

struct ServeConfig {
  FlowTableConfig table;  // feature_dim is overwritten from the featurizer
  FlowFeatureConfig features;
  /// Bounded ingest queue (packets). Full queue => offer() returns false.
  std::size_t queue_capacity = 8192;
  /// Max packets drained per pump() round.
  std::size_t batch_size = 1024;
  /// Flows evicted with fewer feature packets than this go unclassified.
  std::size_t min_classify_packets = 2;
  /// Flows idle longer than this (stream virtual time) are evicted.
  std::uint64_t idle_timeout_usec = 2'000'000;
  // Shed ladder watermarks (fractions; *_lo gives hysteresis on exit).
  double queue_hi = 0.75;
  double queue_lo = 0.50;
  double table_hi = 0.90;
  double table_lo = 0.75;
  /// LRU entries scanned per shard per round by the stage-2 sweep.
  std::size_t early_evict_scan = 64;
  /// Watchdog deadline for one round; 0 disables the watchdog thread.
  double watchdog_timeout_s = 0;
  /// Record per-flow verdicts for retrieval via take_verdicts(). Off by
  /// default so an unattended engine cannot grow without bound.
  bool record_verdicts = false;
  /// Cap on buffered verdicts (overflow counted verdicts_dropped).
  std::size_t max_recorded_verdicts = 1 << 20;
  /// Test hook invoked inside each shard worker (stall injection).
  std::function<void(std::size_t shard)> shard_hook;
  /// Degradation target: quarantined shards classify through this instead
  /// of the primary (counted fallback_classified). Null disables routing.
  std::shared_ptr<const FlowClassifier> fallback;
  /// Deterministic fault injection (worker stalls, flow-table allocation
  /// failures). Not owned; must outlive the engine. Null injects nothing.
  core::ChaosInjector* chaos = nullptr;
};

class ServeEngine {
 public:
  ServeEngine(ServeConfig cfg, std::shared_ptr<const FlowClassifier> classifier);
  ~ServeEngine();
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Prepares one packet (parse, key, hash, features) and enqueues the
  /// record. False (with packets_rejected++) when the bounded queue is
  /// full — the explicit backpressure signal. Thread-safe; concurrent
  /// producers prepare in parallel. The frame is not retained.
  bool offer(const net::Packet& pkt);

  /// Drains and processes one batch. Returns packets drained (0 when the
  /// queue was empty). Concurrent pump() calls serialize. Thread-safe
  /// against offer(), stats(), evict_idle_now() and flush().
  std::size_t pump();

  /// pump() until the queue is empty.
  void drain();

  /// Evicts flows idle at `now_usec` (stream time) across all shards —
  /// the maintenance path a background evictor thread drives. Returns the
  /// number evicted.
  std::size_t evict_idle_now(std::uint64_t now_usec);

  /// Evicts and classifies everything still resident.
  void flush();

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] ShedStage stage() const {
    return static_cast<ShedStage>(stage_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] const ServeConfig& config() const { return cfg_; }
  [[nodiscard]] const ShardedFlowTable& table() const { return table_; }

  /// Moves out the recorded verdicts (record_verdicts mode).
  std::vector<Verdict> take_verdicts();

  /// Checkpoints the full engine state (flows + LRU order, accumulators,
  /// counters, queue, verdict buffer, stream position) to `path` via
  /// atomic temp-then-rename. `io` defaults to the real filesystem —
  /// inject core::ChaosIo to exercise disk faults. Quiesces rounds
  /// (takes the pump lock); call it between pumps. Defined in snapshot.cpp.
  SnapshotOutcome save_snapshot(const std::string& path,
                                core::Io* io = nullptr);

  /// Restores a checkpoint into this engine (whose config must match the
  /// snapshot's fingerprint). All-or-nothing: the file is parsed and
  /// validated in full before any state is touched, so a failed restore
  /// leaves the engine exactly as it was (a counted cold start).
  SnapshotOutcome restore_snapshot(const std::string& path,
                                   core::Io* io = nullptr);

  /// Recovery-path bookkeeping (separate from ServeCounters by design).
  [[nodiscard]] RecoveryStats recovery() const;

  /// Opaque replay cursor persisted in snapshots: the harness records how
  /// far into its input stream it has offered packets, and resumes from
  /// here after a restore. The engine itself never interprets it.
  void set_stream_pos(std::uint64_t pos) {
    stream_pos_.store(pos, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stream_pos() const {
    return stream_pos_.load(std::memory_order_relaxed);
  }

  /// True while shard `s` routes classifications to cfg.fallback.
  [[nodiscard]] bool quarantined(std::size_t s) const {
    return quarantined_[s].load(std::memory_order_relaxed) != 0;
  }

 private:
  enum class RecordKind : std::uint8_t { kOk = 0, kKeyless = 1, kMalformed = 2 };

  /// One packet as offer() prepared it: everything a round reads, nothing
  /// of the frame. A pure function of the frame (plus the enqueue time).
  /// Its feature_dim header features live in the queue's parallel slab.
  struct PacketRecord {
    net::FlowKey key;      // zero unless kind == kOk
    std::size_t hash = 0;  // net::FlowKeyHash{}(key); shard = hash % shards
    std::uint64_t ts_usec = 0;
    std::uint64_t enq_ns = 0;
    RecordKind kind = RecordKind::kMalformed;
  };

  /// FIFO ring of records plus a parallel feature slab. Grows by doubling
  /// on demand (never allocated up front) up to `limit` records; push_front
  /// lets an aborted round put its records back in arrival order.
  class RecordQueue {
   public:
    RecordQueue(std::size_t dim, std::size_t limit) : dim_(dim), limit_(limit) {}
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] const PacketRecord& record(std::size_t i) const {
      return recs_[slot(i)];
    }
    [[nodiscard]] const float* features(std::size_t i) const {
      return feats_.data() + slot(i) * dim_;
    }
    void push_back(const PacketRecord& r, const float* f);
    void push_front(const PacketRecord& r, const float* f);
    /// Copies the first n records/features to out/out_f and drops them.
    void pop_front(std::size_t n, PacketRecord* out, float* out_f);

   private:
    [[nodiscard]] std::size_t slot(std::size_t i) const {
      const std::size_t j = head_ + i;
      return j < recs_.size() ? j : j - recs_.size();
    }
    void put(std::size_t at, const PacketRecord& r, const float* f);
    void grow();

    std::size_t dim_;
    std::size_t limit_;
    std::vector<PacketRecord> recs_;
    std::vector<float> feats_;  // recs_.size() x dim_
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// Per-shard, per-round accumulation merged serially in shard order.
  struct RoundDelta {
    ServeCounters counters;
    LatencyHistogram latency;
    std::vector<Verdict> verdicts;
    std::vector<std::uint32_t> requeued;  // batch indices an abort skipped
  };

  void process_shard(std::size_t shard, const std::vector<std::uint32_t>& order,
                     std::uint64_t round_now, ShedStage stage,
                     RoundDelta& delta);
  void classify_into(std::size_t shard, const FlowView& v,
                     VerdictReason reason, RoundDelta& delta);
  ShedStage evaluate_stage(std::size_t queued, std::size_t live);
  void merge_deltas(std::vector<RoundDelta>& deltas);
  void watchdog_loop();

  ServeConfig cfg_;
  std::shared_ptr<const FlowClassifier> classifier_;
  ShardedFlowTable table_;
  std::size_t feature_dim_ = 0;

  // Ingest queue (queue_mu_ guards queue_ and peak_queue_depth_).
  mutable std::mutex queue_mu_;
  RecordQueue queue_;
  std::uint64_t peak_queue_depth_ = 0;

  // Round scratch, reused every round (pump_mu_ guards it).
  std::vector<PacketRecord> batch_;
  std::vector<float> batch_features_;            // batch_.size() x feature_dim_
  std::vector<std::vector<std::uint32_t>> order_;  // batch indices per shard
  std::vector<RoundDelta> deltas_;               // one per shard

  // offer()-side counters (atomic: hot path, no round context).
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> rejected_{0};

  // Round-side state (stats_mu_ guards stats_ and verdicts_).
  mutable std::mutex stats_mu_;
  ServeStats stats_;
  std::vector<Verdict> verdicts_;

  std::mutex pump_mu_;  // serializes pump()/flush() rounds
  std::atomic<std::uint64_t> virtual_now_usec_{0};
  std::atomic<std::uint32_t> stage_{0};
  std::uint64_t peak_flows_ = 0;  // under stats_mu_

  // Watchdog + escalation ladder.
  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> round_active_{false};
  std::atomic<bool> stop_watchdog_{false};
  std::condition_variable watchdog_cv_;
  std::mutex watchdog_mu_;
  std::thread watchdog_;
  std::vector<std::atomic<std::uint8_t>> shard_active_;   // mid-round markers
  std::vector<std::atomic<std::uint8_t>> quarantined_;    // fallback routing
  std::vector<std::atomic<std::uint32_t>> clean_rounds_;  // toward recovery
  std::atomic<bool> round_abort_{false};  // cooperative round restart

  // Crash tolerance (snapshot.cpp).
  std::atomic<std::uint64_t> stream_pos_{0};
  mutable std::mutex recovery_mu_;
  RecoveryStats recovery_;
};

}  // namespace sugar::serve
