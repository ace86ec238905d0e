// Serve workloads: a generated trace, looped to a 1M-packet stream,
// replayed from memory through serve::ServeEngine.
//
// Set-up (timed as setup_s, repeated, median reported) generates the trace
// and fits the serve classifier. The timed region then only replays
// packets: a loop of the trace is the same packets re-stamped on a fixed
// stream clock, with a gap past the idle timeout between loops, so every
// loop re-creates its flows from scratch.
//
// Untraced runs repeat closed-loop passes until --seconds have elapsed:
// offer one batch, pump(), repeat; then drain() + flush(). The fixed
// schedule makes verdicts deterministic, so their digest is checked.
//
// The traced run adds a stage-timed engine pass, width-1 and width-4
// passes, a single-threaded layer-by-layer replica of pump() built from the
// public net / replearn / serve calls (whose first-N labels must match the
// engine's), and an open-loop pass: packets are due at a fixed absolute
// rate, the benchmark offers what is due and pumps whenever the queue is
// non-empty, and a packet's latency runs from its due time to the return of
// the pump() that consumed it — known from outside because the queue is
// FIFO and pump() returns its count.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/threadpool.h"
#include "ml/forest.h"
#include "net/flow.h"
#include "net/parser.h"
#include "replearn/featurize.h"
#include "serve/classifier.h"
#include "serve/engine.h"
#include "serve/flow_features.h"
#include "serve/flow_table.h"
#include "trafficgen/datasets.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sugar;

enum class Source { IscxVpn, Tls120 };

struct ServeSpec {
  const char* name;
  Source source;
  /// Replay rate in stream time (the engine's virtual clock), packets/s.
  double stream_pps;
};

constexpr std::size_t kStreamPackets = 1'000'000;
constexpr std::size_t kBatch = 256;
constexpr std::size_t kShards = 8;
/// Flow-table hard bound, well above either workload's live flow count
/// (chosen from seed measurements, README.md).
constexpr std::size_t kMaxFlows = 4096;
/// Engine idle timeout, stream time.
constexpr std::uint64_t kIdleTimeoutUsec = 2'000'000;
/// Fixed absolute offered rate of the open-loop pass, packets/s.
constexpr double kOpenLoopPps = 100'000;
constexpr int kSetupReps = 5;
/// Open-loop latency percentiles are taken per window of this many
/// consecutive packets; the traced run reports the median window.
constexpr std::size_t kLatencyWindow = 20'000;
/// Packets in the traced run's open-loop pass.
constexpr std::size_t kOpenPackets = 400'000;

struct Fixture {
  std::vector<net::Packet> packets;  // one loop of the trace
  /// Stream time: packet `pos` is stamped pos / stream_pps seconds, and
  /// every loop starts a further loop_gap_usec later so the previous
  /// loop's flows have all gone idle.
  double usec_per_pkt = 0;
  std::uint64_t loop_gap_usec = 0;
  std::size_t total = 0;  // stream length: kStreamPackets, the last loop cut short
  std::shared_ptr<const serve::FlowClassifier> clf;
  std::unordered_map<net::FlowKey, int, net::FlowKeyHash> truth;
  serve::ServeConfig cfg;

  /// Stream packet `pos`: a packet of the trace, re-stamped in place.
  const net::Packet& at(std::size_t pos) {
    const std::size_t n = packets.size();
    net::Packet& p = packets[pos % n];
    p.ts_usec = static_cast<std::uint64_t>(
                    std::llround(static_cast<double>(pos) * usec_per_pkt)) +
                (pos / n) * loop_gap_usec;
    return p;
  }
};

/// Set-up layer times (reported by the traced run).
struct SetupTimes {
  double generate_s = 0;
  double featurize_s = 0;
  double forest_fit_s = 0;
};

Fixture build_fixture(const ServeSpec& spec, std::uint64_t seed, SetupTimes& times) {
  Fixture fx;
  trafficgen::GenOptions gen;
  gen.seed = seed;
  double t0 = now_s();
  trafficgen::GeneratedTrace trace;
  if (spec.source == Source::IscxVpn) {
    gen.flows_per_class = 30;
    gen.spurious_fraction = 0.05;
    trace = trafficgen::generate_iscx_vpn(gen);
  } else {
    gen.flows_per_class = 14;
    gen.strip_tls_handshake = true;
    trace = trafficgen::generate_cstn_tls120(gen);
  }
  times.generate_s = now_s() - t0;

  t0 = now_s();
  std::vector<int> packet_labels(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) packet_labels[i] = trace.labels[i].cls;
  serve::FlowFeatureConfig fcfg;
  const auto flows = serve::batch_flow_features(trace.packets, &packet_labels, fcfg);
  times.featurize_s = now_s() - t0;

  std::vector<std::size_t> labelled;
  int num_classes = 0;
  for (std::size_t i = 0; i < flows.labels.size(); ++i) {
    fx.truth.emplace(flows.keys[i], flows.labels[i]);
    if (flows.labels[i] < 0) continue;
    labelled.push_back(i);
    num_classes = std::max(num_classes, flows.labels[i] + 1);
  }
  ml::Matrix train_x(labelled.size(), flows.x.cols());
  std::vector<int> train_y(labelled.size());
  for (std::size_t r = 0; r < labelled.size(); ++r) {
    std::copy_n(flows.x.row(labelled[r]), flows.x.cols(), train_x.row(r));
    train_y[r] = flows.labels[labelled[r]];
  }
  ml::ForestConfig forest_cfg;
  forest_cfg.num_trees = 24;
  t0 = now_s();
  fx.clf = serve::fit_forest_classifier(train_x, train_y, num_classes, forest_cfg);
  times.forest_fit_s = now_s() - t0;

  fx.packets = std::move(trace.packets);
  fx.usec_per_pkt = 1e6 / spec.stream_pps;
  fx.loop_gap_usec = kIdleTimeoutUsec + 1'000'000;
  fx.total = kStreamPackets;

  fx.cfg.table.shards = kShards;
  fx.cfg.table.max_flows = kMaxFlows;
  fx.cfg.queue_capacity = 1 << 16;
  fx.cfg.batch_size = kBatch;
  fx.cfg.idle_timeout_usec = kIdleTimeoutUsec;
  fx.cfg.record_verdicts = true;
  fx.cfg.max_recorded_verdicts = 1 << 24;
  return fx;
}

struct PassOutcome {
  double wall_s = 0;
  double cpu_s = 0;
  serve::ServeStats stats;
  std::vector<serve::Verdict> verdicts;
  bool bytes_within_cap = true;
  Fingerprint fp;
  // Open loop only.
  std::vector<double> latency_us, queue_wait_us, lag_us;
  std::uint64_t pumps = 0;
};

/// Order-independent digest of the verdicts plus accuracy against the
/// generator's per-flow truth.
Fingerprint fingerprint(std::vector<serve::Verdict> verdicts, const Fixture& fx) {
  std::sort(verdicts.begin(), verdicts.end(),
            [](const serve::Verdict& a, const serve::Verdict& b) {
              if (a.first_ts_usec != b.first_ts_usec) return a.first_ts_usec < b.first_ts_usec;
              if (a.key != b.key) return a.key < b.key;
              return a.last_ts_usec < b.last_ts_usec;
            });
  Digest d;
  std::size_t labelled = 0, right = 0;
  for (const serve::Verdict& v : verdicts) {
    const std::string key = v.key.to_string();
    d.add_bytes(key.data(), key.size());
    d.add(v.label);
    d.add(static_cast<std::uint8_t>(v.reason));
    d.add(v.packets);
    d.add(v.feature_packets);
    d.add(v.first_ts_usec);
    d.add(v.last_ts_usec);
    auto it = fx.truth.find(v.key);
    if (it == fx.truth.end() || it->second < 0) continue;
    ++labelled;
    right += v.label == it->second ? 1 : 0;
  }
  return {d.value(), labelled ? static_cast<double>(right) / static_cast<double>(labelled) : 0};
}

void finish_pass(serve::ServeEngine& engine, Fixture& fx, PassOutcome& out) {
  out.stats = engine.stats();
  out.verdicts = engine.take_verdicts();
  out.fp = fingerprint(out.verdicts, fx);
}

/// Saturated closed loop. With `spans`, each offer batch and each pump is
/// a span (the stage-timed pass).
PassOutcome closed_pass(Fixture& fx, SpanRecorder* spans) {
  PassOutcome out;
  serve::ServeEngine engine(fx.cfg, fx.clf);
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  std::int64_t round = 0;
  for (std::size_t pos = 0; pos < fx.total; ++round) {
    const std::size_t end = std::min(fx.total, pos + kBatch);
    if (round % 128 == 0) {
      // Sample the memory bound every 128 rounds.
      const auto g = engine.stats().gauges;
      out.bytes_within_cap &= g.table_bytes <= g.table_bytes_cap;
    }
    if (spans) {
      {
        SpanRecorder::Scope s(*spans, "serve.offer", round);
        for (; pos < end; ++pos) engine.offer(fx.at(pos));
      }
      SpanRecorder::Scope s(*spans, "serve.pump", round);
      engine.pump();
    } else {
      for (; pos < end; ++pos) engine.offer(fx.at(pos));
      engine.pump();
    }
  }
  engine.drain();
  const auto g = engine.stats().gauges;
  out.bytes_within_cap &= g.table_bytes <= g.table_bytes_cap;
  engine.flush();
  out.wall_s = now_s() - t0;
  out.cpu_s = process_cpu_s() - cpu0;
  finish_pass(engine, fx, out);
  return out;
}

/// Open loop at a fixed absolute rate over the first `count` packets of
/// the stream.
PassOutcome open_pass(Fixture& fx, double pps, std::size_t count) {
  PassOutcome out;
  serve::ServeEngine engine(fx.cfg, fx.clf);
  out.latency_us.reserve(count);
  out.queue_wait_us.reserve(count);
  out.lag_us.reserve(count);
  std::vector<std::uint32_t> queued;  // FIFO of stream positions accepted
  queued.reserve(count);
  std::size_t head = 0;
  const double ns_per_pkt = 1e9 / pps;
  const std::uint64_t start = now_ns() + 1'000'000;
  auto due = [&](std::size_t i) {
    return start + static_cast<std::uint64_t>(static_cast<double>(i) * ns_per_pkt);
  };
  const double cpu0 = process_cpu_s();
  std::size_t next = 0;
  while (next < count || head < queued.size()) {
    const std::uint64_t now = now_ns();
    for (std::size_t k = 0; next < count && due(next) <= now && k < 4 * kBatch;
         ++k, ++next) {
      out.lag_us.push_back(static_cast<double>(now - due(next)) * 1e-3);
      if (engine.offer(fx.at(next))) queued.push_back(static_cast<std::uint32_t>(next));
    }
    if (head == queued.size()) continue;  // idle: spin until the next due time
    const std::uint64_t ts = now_ns();
    const std::size_t got = engine.pump();
    const std::uint64_t te = now_ns();
    ++out.pumps;
    for (std::size_t j = 0; j < got; ++j, ++head) {
      const std::uint64_t d = due(queued[head]);
      out.latency_us.push_back(static_cast<double>(te - d) * 1e-3);
      out.queue_wait_us.push_back(static_cast<double>(ts > d ? ts - d : 0) * 1e-3);
    }
  }
  const auto g = engine.stats().gauges;
  out.bytes_within_cap &= g.table_bytes <= g.table_bytes_cap;
  engine.flush();
  out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  out.cpu_s = process_cpu_s() - cpu0;
  finish_pass(engine, fx, out);
  return out;
}

/// The q-quantile of every full window of kLatencyWindow consecutive
/// samples, medianed over the windows: one host stall spoils one window's
/// p99, not the run's.
double median_window_quantile(const std::vector<double>& samples, double q) {
  std::vector<double> per_window;
  for (std::size_t w0 = 0; w0 + kLatencyWindow <= samples.size(); w0 += kLatencyWindow) {
    std::vector<double> win(samples.begin() + static_cast<std::ptrdiff_t>(w0),
                            samples.begin() + static_cast<std::ptrdiff_t>(w0 + kLatencyWindow));
    per_window.push_back(quantile_inplace(win, q));
  }
  return median(per_window);
}

/// Output checks every pass gets; returns the packets that failed (never
/// processed into the flow table).
std::uint64_t check_pass(Result& r, const PassOutcome& p, const std::string& what) {
  const serve::ServeCounters& c = p.stats.counters;
  r.check(c.packets_offered == c.packets_rejected + c.packets_processed,
          what + ": packets_offered != packets_rejected + packets_processed");
  r.check(p.stats.gauges.queue_depth == 0, what + ": queue not drained");
  r.check(p.bytes_within_cap, what + ": table_bytes exceeded table_bytes_cap");
  r.attempted += c.packets_offered;
  return c.packets_rejected + c.packets_shed_new_flow + c.flows_rejected_full;
}

using LabelList = std::vector<std::pair<net::FlowKey, int>>;

LabelList first_n_labels(const std::vector<serve::Verdict>& verdicts) {
  LabelList out;
  for (const serve::Verdict& v : verdicts)
    if (v.reason == serve::VerdictReason::kFirstN) out.emplace_back(v.key, v.label);
  std::sort(out.begin(), out.end());
  return out;
}

struct LayeredOutcome {
  LabelList first_n;
  std::uint64_t packets = 0, touches = 0, creates = 0, evicted = 0,
                classify_calls = 0;
};

/// Layer-by-layer replica of ServeEngine::pump() over the whole stream on
/// the calling thread: the same rounds of kBatch packets, each stage a
/// span. Returns the first-N labels it produced and the call counts.
LayeredOutcome layered_pass(Fixture& fx, SpanRecorder& spans) {
  LayeredOutcome out;
  const serve::ServeConfig& cfg = fx.cfg;
  serve::FlowTableConfig tcfg = cfg.table;
  tcfg.feature_dim = serve::flow_feature_dim(cfg.features);
  tcfg.classify_at = cfg.features.first_n;
  serve::ShardedFlowTable table(tcfg);
  const std::size_t dim = tcfg.feature_dim;
  std::vector<float> mean(dim);

  auto classify = [&](const serve::FlowView& v, bool first_n, std::int64_t round) {
    if (v.classified) return;
    if (v.feature_packets < (first_n ? 1u : cfg.min_classify_packets)) return;
    SpanRecorder::Scope s(spans, "serve.classifier.classify", round);
    const float inv = 1.0f / static_cast<float>(v.feature_packets);
    for (std::size_t d = 0; d < dim; ++d) mean[d] = v.feature_sum[d] * inv;
    const int label = fx.clf->classify(mean.data());
    ++out.classify_calls;
    if (first_n) out.first_n.emplace_back(v.key, label);
  };

  std::vector<const net::Packet*> batch(kBatch);
  std::vector<net::ParseOutcome> parsed(kBatch);
  std::vector<net::FlowKey> keys(kBatch);
  std::vector<std::uint8_t> ok(kBatch);
  std::vector<float> features(kBatch * dim);
  std::vector<std::vector<std::uint32_t>> order(table.shard_count());
  std::uint64_t virtual_now = 0;

  std::int64_t round = 0;
  for (std::size_t pos = 0; pos < fx.total; ++round) {
    SpanRecorder::Scope round_span(spans, "serve.round", round);
    const std::size_t n = std::min(kBatch, fx.total - pos);
    for (std::size_t j = 0; j < n; ++j) batch[j] = &fx.at(pos + j);
    pos += n;
    out.packets += n;
    {
      SpanRecorder::Scope s(spans, "net.parse_packet", round);
      for (std::size_t j = 0; j < n; ++j) parsed[j] = net::parse_packet(*batch[j]);
    }
    {
      SpanRecorder::Scope s(spans, "net.flow_key", round);
      for (std::size_t j = 0; j < n; ++j) {
        bool forward = false;
        ok[j] = parsed[j].ok() &&
                net::FlowKey::from_parsed(*parsed[j].parsed, keys[j], forward);
      }
    }
    {
      SpanRecorder::Scope s(spans, "replearn.header_features", round);
      for (std::size_t j = 0; j < n; ++j)
        if (ok[j])
          replearn::extract_header_features(*batch[j], *parsed[j].parsed,
                                            cfg.features.spec,
                                            features.data() + j * dim);
    }
    for (auto& o : order) o.clear();
    for (std::size_t j = 0; j < n; ++j) {
      virtual_now = std::max(virtual_now, batch[j]->ts_usec);
      if (ok[j]) order[table.shard_of(keys[j])].push_back(static_cast<std::uint32_t>(j));
    }
    for (std::size_t s = 0; s < table.shard_count(); ++s) {
      {
        SpanRecorder::Scope e(spans, "serve.flow_table.evict_idle", round);
        out.evicted += table.evict_idle(
            s, virtual_now, cfg.idle_timeout_usec,
            [&](const serve::FlowView& v) { classify(v, false, round); });
      }
      SpanRecorder::Scope f(spans, "serve.flow_table.touch", round);
      for (std::uint32_t j : order[s]) {
        const auto res = table.touch(s, keys[j], batch[j]->ts_usec,
                                     features.data() + std::size_t{j} * dim, true);
        ++out.touches;
        if (res.status == serve::ShardedFlowTable::TouchStatus::kCreated) ++out.creates;
        if (res.ready) {
          classify(table.view(s, res.slot), true, round);
          table.mark_classified(s, res.slot);
        }
      }
    }
  }
  for (std::size_t s = 0; s < table.shard_count(); ++s) {
    SpanRecorder::Scope e(spans, "serve.flow_table.evict_all", round);
    out.evicted += table.evict_all(
        s, [&](const serve::FlowView& v) { classify(v, false, round); });
  }
  std::sort(out.first_n.begin(), out.first_n.end());
  return out;
}

void log_pass(const char* what, const PassOutcome& p) {
  const double pkts = static_cast<double>(p.stats.counters.packets_offered);
  std::string latency;
  if (!p.latency_us.empty()) {
    std::vector<double> l = p.latency_us;
    char buf[96];
    std::snprintf(buf, sizeof buf, " | p50 %.1f us p99 %.1f us", quantile_inplace(l, 0.5),
                  quantile_inplace(l, 0.99));
    latency = buf;
  }
  const auto& c = p.stats.counters;
  std::fprintf(stderr,
               "perfbench: %-8s %.3f s %.3f Mpps cpu %.2f s | created %llu "
               "evicted idle %llu early %llu sampled %llu | shed %llu full %llu "
               "rejected %llu stage_enters %llu peak_flows %llu verdicts %zu acc %.4f%s\n",
               what, p.wall_s, pkts / p.wall_s * 1e-6, p.cpu_s,
               static_cast<unsigned long long>(c.flows_created),
               static_cast<unsigned long long>(c.evicted_idle),
               static_cast<unsigned long long>(c.evicted_early),
               static_cast<unsigned long long>(c.evicted_sampled),
               static_cast<unsigned long long>(c.packets_shed_new_flow),
               static_cast<unsigned long long>(c.flows_rejected_full),
               static_cast<unsigned long long>(c.packets_rejected),
               static_cast<unsigned long long>(c.shed_stage_enters),
               static_cast<unsigned long long>(p.stats.gauges.peak_flows),
               p.verdicts.size(), p.fp.accuracy, p.latency_us.empty() ? "" : latency.c_str());
}

Result run_serve(const ServeSpec& spec, const RunArgs& args, const Expected& expected,
                 Fingerprint& fp) {
  Result r;
  const std::size_t threads = core::global_thread_count();

  // Set-up: generate + fit, several times; the last fixture is used.
  std::vector<double> setup_s;
  SetupTimes times;
  Fixture fx;
  const int setup_reps = args.trace || args.record ? 1 : kSetupReps;
  for (int i = 0; i < setup_reps; ++i) {
    fx = Fixture{};  // free the previous trace first: one trace resident
    const double t0 = now_s();
    fx = build_fixture(spec, args.seed, times);
    setup_s.push_back(now_s() - t0);
  }
  std::fprintf(stderr, "perfbench: %s trace %zu packets, stream %zu packets\n", spec.name,
               fx.packets.size(), fx.total);

  const PassOutcome first = closed_pass(fx, nullptr);
  log_pass("closed", first);
  fp = first.fp;
  r.failed += check_pass(r, first, "closed pass");
  r.check(first.stats.counters.shed_stage_enters == 0,
          "closed pass: the shed ladder engaged");
  check_fingerprint(r, expected, first.fp, first.fp, "closed pass");
  if (args.record) return r;

  if (!args.trace) {
    // The first closed pass is the warm-up; it only contributes the
    // fingerprint the timed passes are checked against.
    std::vector<double> wall, cpu;
    const double t_run0 = now_s();
    do {
      PassOutcome closed = closed_pass(fx, nullptr);
      log_pass("closed", closed);
      r.failed += check_pass(r, closed, "closed pass");
      check_fingerprint(r, expected, closed.fp, first.fp, "closed pass");
      wall.push_back(closed.wall_s);
      cpu.push_back(closed.cpu_s);
    } while (now_s() - t_run0 < args.seconds);
    const double wall_s = median(wall);
    r.set("setup_s", median(setup_s), "s");
    r.set("wall_s", wall_s, "s");
    r.set("mpps", static_cast<double>(fx.total) / wall_s * 1e-6, "Mpkt/s");
    r.set("cpu_s", median(cpu), "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }

  // Traced run.
  set_all_layer_metrics_zero(r);
  SpanRecorder spans;
  const double total = static_cast<double>(fx.total);

  const PassOutcome plain = closed_pass(fx, nullptr);
  log_pass("closed", plain);
  r.failed += check_pass(r, plain, "closed pass");
  check_fingerprint(r, expected, plain.fp, first.fp, "closed pass");

  PassOutcome staged;
  {
    SpanRecorder::Scope s(spans, "pass.closed_staged");
    staged = closed_pass(fx, &spans);
  }
  log_pass("staged", staged);
  r.failed += check_pass(r, staged, "staged pass");
  check_fingerprint(r, expected, staged.fp, first.fp, "staged pass");

  // Width probes: the same closed pass at width 1 and at kProbeWidth, for
  // the engine's thread scaling whatever the workload's own width is.
  auto at_width = [&](std::size_t width, const char* what) {
    core::set_global_threads(width);
    warm_pool();
    PassOutcome p = closed_pass(fx, nullptr);
    log_pass(what, p);
    r.failed += check_pass(r, p, what);
    check_fingerprint(r, expected, p.fp, first.fp, what);
    return p;
  };
  const PassOutcome single = at_width(1, "width-1");
  const PassOutcome wide = at_width(kProbeWidth, "width-4");
  const double fork_join = fork_join_ns();  // at kProbeWidth
  core::set_global_threads(threads);

  LayeredOutcome layered;
  {
    SpanRecorder::Scope s(spans, "pass.layered");
    layered = layered_pass(fx, spans);
  }
  r.check(layered.first_n == first_n_labels(first.verdicts),
          "layered pass: first-N labels per flow key differ from the engine's");

  PassOutcome open = open_pass(fx, kOpenLoopPps, kOpenPackets);
  log_pass("open", open);
  r.failed += check_pass(r, open, "open pass");

  const auto agg = spans.aggregate();
  auto total_s = [&](const char* name) {
    auto it = agg.find(name);
    return it == agg.end() ? 0.0 : it->second.total_s;
  };
  auto self_s = [&](const char* name) {
    auto it = agg.find(name);
    return it == agg.end() ? 0.0 : it->second.self_s;
  };
  const double pkts = static_cast<double>(layered.packets);
  const double parse = total_s("net.parse_packet"), key = total_s("net.flow_key"),
               feat = total_s("replearn.header_features"),
               touch = self_s("serve.flow_table.touch"),
               evict = self_s("serve.flow_table.evict_idle") +
                       self_s("serve.flow_table.evict_all"),
               classify = total_s("serve.classifier.classify");
  // Layer cost per packet: offer() (timed in the staged pass) plus the
  // stages pump() runs (timed in the layered replica), against the width-1
  // engine's ns/packet — both single-threaded, so they are comparable.
  const double offer_ns = total_s("serve.offer") / total * 1e9;
  const double layer_ns =
      offer_ns + (parse + key + feat + touch + evict + classify) / pkts * 1e9;
  const double engine_ns_w1 = single.wall_s / total * 1e9;

  r.set("serve.offer_ns", offer_ns, "ns");
  r.set("serve.pump_ns",
        total_s("serve.pump") /
            static_cast<double>(staged.stats.counters.packets_processed) * 1e9,
        "ns");
  r.set("serve.round_pkts",
        static_cast<double>(open.stats.counters.packets_processed) /
            static_cast<double>(std::max<std::uint64_t>(1, open.pumps)),
        "count");
  r.set("serve.p50_us", median_window_quantile(open.latency_us, 0.50), "us");
  r.set("serve.p99_us", median_window_quantile(open.latency_us, 0.99), "us");
  r.set("serve.queue_wait_us_p99", median_window_quantile(open.queue_wait_us, 0.99), "us");
  r.set("serve.generator_lag_us_p99", median_window_quantile(open.lag_us, 0.99), "us");
  r.set("serve.verdict_yield",
        static_cast<double>(first.verdicts.size()) /
            static_cast<double>(std::max<std::uint64_t>(1, first.stats.counters.flows_created)),
        "fraction");
  r.set("serve.engine_overhead_ns", engine_ns_w1 - layer_ns, "ns");
  r.set("core.fork_join_ns", fork_join, "ns");
  r.set("core.scaling_eff",
        single.wall_s / (wide.wall_s * static_cast<double>(kProbeWidth)), "fraction");
  r.set("net.parse_ns", parse / pkts * 1e9, "ns");
  r.set("net.flow_key_ns", key / pkts * 1e9, "ns");
  r.set("replearn.header_features_ns", feat / pkts * 1e9, "ns");
  const double touches = static_cast<double>(std::max<std::uint64_t>(1, layered.touches));
  r.set("serve.flow_table.touch_ns", touch / touches * 1e9, "ns");
  r.set("serve.flow_table.create_share", static_cast<double>(layered.creates) / touches,
        "fraction");
  r.set("serve.flow_table.evict_ns",
        evict / static_cast<double>(std::max<std::uint64_t>(1, layered.evicted)) * 1e9, "ns");
  r.set("serve.classifier.classify_ns",
        classify / static_cast<double>(std::max<std::uint64_t>(1, layered.classify_calls)) * 1e9,
        "ns");
  r.set("serve.classifier.calls_per_kpkt",
        static_cast<double>(layered.classify_calls) / pkts * 1e3, "count");
  r.set("trafficgen.generate_s", times.generate_s, "s");
  r.set("replearn.featurize_s", times.featurize_s, "s");
  r.set("ml.forest_fit_s", times.forest_fit_s, "s");
  r.set("accuracy", first.fp.accuracy, "fraction");
  r.set("trace.overhead_pct", (staged.wall_s - plain.wall_s) / plain.wall_s * 100, "%");
  r.set("trace.layer_coverage", layer_ns / engine_ns_w1, "fraction");
  r.set("trace.spans", static_cast<double>(spans.size()), "count");
  if (!args.trace_out.empty() && !spans.write_chrome(args.trace_out))
    std::fprintf(stderr, "perfbench: could not write %s\n", args.trace_out.c_str());
  return r;
}

}  // namespace

Result run_serve_steady(const RunArgs& args, const Expected& expected,
                        Fingerprint& fp) {
  static constexpr ServeSpec kSpec{"serve_steady", Source::IscxVpn, 3'000};
  return run_serve(kSpec, args, expected, fp);
}

Result run_serve_churn(const RunArgs& args, const Expected& expected, Fingerprint& fp) {
  static constexpr ServeSpec kSpec{"serve_churn", Source::Tls120, 300};
  return run_serve(kSpec, args, expected, fp);
}

double fork_join_ns() {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    constexpr int kCalls = 2000;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kCalls; ++i)
      core::global_pool().parallel_for(0, kBatch, 64, [](std::size_t, std::size_t) {});
    reps.push_back(static_cast<double>(now_ns() - t0) / kCalls);
  }
  return median(reps);
}

void warm_pool() {
  const std::size_t width = core::global_thread_count();
  if (width <= 1) return;
  const double deadline = now_s() + 3;
  while (now_s() < deadline) {
    CpuWallTimer t;
    core::global_pool().parallel_for(0, 4 * width, 1, [](std::size_t, std::size_t) {
      volatile double x = 0;
      for (int j = 0; j < 1'000'000; ++j) x = x + j * 1e-9;
    });
    const CpuWall c = t.elapsed();
    if (c.cpu_s >= 0.75 * c.wall_s * static_cast<double>(width)) return;
  }
}

}  // namespace perfbench
