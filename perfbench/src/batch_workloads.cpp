// Batch workloads: the paper's result-table chain, trafficgen -> clean ->
// split -> featurize -> fit/pretrain -> evaluate.
//
// Untraced runs call the core pipeline entry points (core::BenchmarkEnv +
// core::run_*_scenario) exactly as the bench binaries do, one fresh env per
// iteration, until --seconds have elapsed. The traced run rebuilds the same
// chain from the dataset / replearn / ml public calls, one span per call,
// and checks that it reproduces the pipeline's accuracy and confusion
// matrices exactly. Side probes outside the chain time the quantize step
// and re-run the fits / pretraining on a width-4 pool with getrusage around
// them, which counts pool-worker CPU, for the pool's busy share.
#include <numeric>
#include <string>
#include <vector>

#include "core/env.h"
#include "core/pipeline.h"
#include "core/threadpool.h"
#include "core/trace.h"
#include "dataset/audit.h"
#include "dataset/clean.h"
#include "dataset/split.h"
#include "dataset/transforms.h"
#include "ml/binned.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"
#include "replearn/featurize.h"
#include "replearn/head.h"
#include "replearn/model_zoo.h"
#include "replearn/pretrain.h"
#include "trafficgen/datasets.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sugar;
using dataset::TaskId;

/// Set-ups per run; the run reports the median.
constexpr int kSetupReps = 5;

/// One (task, model) result cell.
struct Cell {
  double accuracy = 0;
  std::size_t classified = 0;  // test packets
  ml::ConfusionMatrix confusion;
};

struct Iteration {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<Cell> cells;
  Fingerprint fp;
};

Fingerprint fingerprint(const std::vector<Cell>& cells) {
  Digest d;
  double acc = 0;
  for (const Cell& c : cells) {
    d.add(c.accuracy);
    const int k = c.confusion.num_classes();
    for (int t = 0; t < k; ++t)
      for (int p = 0; p < k; ++p) d.add(c.confusion.at(t, p));
    acc += c.accuracy;
  }
  return {d.value(), cells.empty() ? 0 : acc / static_cast<double>(cells.size())};
}

Cell make_cell(const ml::Metrics& m) {
  return {m.accuracy, m.confusion.total(), m.confusion};
}

std::vector<std::size_t> iota_indices(std::size_t n) {
  std::vector<std::size_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// ---------------------------------------------------------------------------
// Workload definitions.

core::EnvConfig shallow_env(std::uint64_t seed) {
  core::EnvConfig cfg;
  cfg.seed = seed;
  // Full-size VPN-app / TLS-120 traces; the training and test partitions
  // are capped so every seed fits the same amount of data.
  cfg.max_train_packets = 2500;
  cfg.max_test_packets = 2500;
  return cfg;
}

core::EnvConfig deep_env(std::uint64_t seed) {
  core::EnvConfig cfg;
  cfg.seed = seed;
  cfg.max_train_packets_deep = 1500;
  cfg.max_test_packets_deep = 1000;
  cfg.pretrain_epochs = 2;
  cfg.pretrain_max_samples = 3000;
  cfg.downstream_epochs = 4;
  return cfg;
}

constexpr TaskId kShallowTasks[] = {TaskId::VpnApp, TaskId::Tls120};
constexpr core::ShallowKind kShallowKinds[] = {core::ShallowKind::RandomForest,
                                               core::ShallowKind::XgboostStyle};
constexpr replearn::ModelKind kDeepModels[] = {replearn::ModelKind::YaTC,
                                               replearn::ModelKind::PcapEncoder};

// Set-up: a ready env. The env builds lazily, so set-up makes it generate
// and clean the datasets the workload's cells read; constructing it alone
// is ~0.1 us, too little to time steadily.

void set_up_shallow(std::uint64_t seed) {
  core::BenchmarkEnv env(shallow_env(seed));
  for (TaskId task : kShallowTasks) env.task_dataset(task);
}

void set_up_deep(std::uint64_t seed) {
  core::BenchmarkEnv env(deep_env(seed));
  env.backbone();
  env.task_dataset(TaskId::VpnApp);
}

// ---------------------------------------------------------------------------
// Untraced: the core pipeline entry points.

Iteration pipeline_shallow(std::uint64_t seed) {
  Iteration it;
  CpuWallTimer timer;
  core::BenchmarkEnv env(shallow_env(seed));
  core::ScenarioOptions opts;
  for (TaskId task : kShallowTasks)
    for (core::ShallowKind kind : kShallowKinds)
      it.cells.push_back(
          make_cell(core::run_shallow_scenario(env, task, kind, false, opts).metrics));
  const CpuWall cw = timer.elapsed();
  it.wall_s = cw.wall_s;
  it.cpu_s = cw.cpu_s;
  it.fp = fingerprint(it.cells);
  return it;
}

Iteration pipeline_deep(std::uint64_t seed) {
  Iteration it;
  CpuWallTimer timer;
  core::BenchmarkEnv env(deep_env(seed));
  core::ScenarioOptions opts;
  opts.frozen = true;
  for (replearn::ModelKind model : kDeepModels)
    it.cells.push_back(
        make_cell(core::run_packet_scenario(env, TaskId::VpnApp, model, opts).metrics));
  const CpuWall cw = timer.elapsed();
  it.wall_s = cw.wall_s;
  it.cpu_s = cw.cpu_s;
  it.fp = fingerprint(it.cells);
  return it;
}

// ---------------------------------------------------------------------------
// Traced: the same chain rebuilt from the layers' public calls.

/// Per-layer wall + CPU totals of the rebuilt chain.
struct LayerTimes {
  double forest_fit_s = 0, gbdt_fit_s = 0, pretrain_s = 0;
  double pretrain_flops = 0;
  std::vector<std::pair<std::string, double>> pretrain_by_encoder;
  // Side probes, outside the chain.
  double quantize_s = 0;
  // Refits / re-pretraining on a kProbeWidth pool.
  CpuWall forest_fit_wide, gbdt_fit_wide, pretrain_wide;
};

/// Generation exactly as core::BenchmarkEnv does it.
trafficgen::GeneratedTrace generate_source(const core::EnvConfig& cfg, TaskId task) {
  trafficgen::GenOptions g;
  g.seed = cfg.seed;
  switch (dataset::source_of(task)) {
    case dataset::SourceDataset::IscxVpn:
      g.flows_per_class = cfg.flows_per_class_iscx;
      g.spurious_fraction = cfg.iscx_spurious;
      return trafficgen::generate_iscx_vpn(g);
    case dataset::SourceDataset::UstcTfc:
      g.flows_per_class = cfg.flows_per_class_ustc;
      g.spurious_fraction = cfg.ustc_spurious;
      return trafficgen::generate_ustc_tfc(g);
    case dataset::SourceDataset::CstnTls:
      g.flows_per_class = cfg.flows_per_class_tls;
      g.strip_tls_handshake = true;
      return trafficgen::generate_cstn_tls120(g);
  }
  return {};
}

dataset::PacketDataset generate_and_clean(SpanRecorder& spans, const core::EnvConfig& cfg,
                                          TaskId task, std::int64_t req) {
  trafficgen::GeneratedTrace trace;
  {
    SpanRecorder::Scope s(spans, "trafficgen.generate", req);
    trace = generate_source(cfg, task);
  }
  SpanRecorder::Scope s(spans, "dataset.clean", req);
  dataset::clean_trace(trace, dataset::CleaningOptions{});
  return dataset::make_task_dataset(trace, task);
}

struct Partitions {
  dataset::PacketDataset train, test;
};

/// The split / balance / cap / sample sequence of the pipeline's
/// partitioning step, from the dataset layer's public calls.
Partitions make_partitions(const dataset::PacketDataset& ds, std::size_t max_train,
                           std::size_t max_test, const core::ScenarioOptions& opts) {
  dataset::SplitOptions sopts;
  sopts.policy = opts.split;
  sopts.seed = opts.seed;
  const auto split = dataset::split_dataset(ds, sopts);
  auto train_idx = dataset::cap_flow_length(ds, split.train, 1000, opts.seed ^ 1);
  train_idx = dataset::balance_train(ds, train_idx, opts.seed ^ 2);
  if (train_idx.size() > max_train)
    train_idx = dataset::stratified_sample(
        ds, train_idx,
        static_cast<double>(max_train) / static_cast<double>(train_idx.size()),
        opts.seed ^ 3);
  auto test_idx = split.test;
  if (test_idx.size() > max_test)
    test_idx = dataset::stratified_sample(
        ds, test_idx, static_cast<double>(max_test) / static_cast<double>(test_idx.size()),
        opts.seed ^ 4);
  dataset::audit_split(ds, {.train = train_idx, .test = test_idx});
  Partitions p{ds.subset(train_idx), ds.subset(test_idx)};
  dataset::apply_ablation(p.train, opts.train_ablation, opts.seed ^ 5);
  dataset::apply_ablation(p.test, opts.test_ablation, opts.seed ^ 6);
  dataset::apply_perturbation(p.test, opts.perturb, opts.seed ^ 0xAD7);
  return p;
}

Iteration layered_shallow(std::uint64_t seed, SpanRecorder& spans, LayerTimes& lt) {
  Iteration it;
  const core::EnvConfig cfg = shallow_env(seed);
  const core::ScenarioOptions opts;
  const replearn::HeaderFeatureSpec spec{.include_ip_addresses = false};
  struct ProbeInput {
    ml::Matrix x;
    std::vector<int> y;
    int classes = 0;
    bool forest = false;
  };
  std::vector<ProbeInput> probes;
  CpuWallTimer timer;
  {
    SpanRecorder::Scope root(spans, "batch_shallow");
    std::int64_t req = 0;
    for (TaskId task : kShallowTasks) {
      SpanRecorder::Scope task_span(spans, "cell." + dataset::to_string(task), req);
      const auto ds = generate_and_clean(spans, cfg, task, req);
      for (core::ShallowKind kind : kShallowKinds) {
        SpanRecorder::Scope cell(spans, "cell." + core::to_string(kind), req);
        Partitions parts;
        {
          SpanRecorder::Scope s(spans, "dataset.split", req);
          parts = make_partitions(ds, cfg.max_train_packets, cfg.max_test_packets, opts);
        }
        ml::Matrix x_train, x_test;
        {
          SpanRecorder::Scope s(spans, "replearn.featurize", req);
          x_train = replearn::header_feature_matrix(parts.train,
                                                    iota_indices(parts.train.size()), spec);
          x_test = replearn::header_feature_matrix(parts.test,
                                                   iota_indices(parts.test.size()), spec);
        }
        std::vector<int> pred;
        if (kind == core::ShallowKind::RandomForest) {
          ml::RandomForest rf{ml::ForestConfig{}};
          {
            SpanRecorder::Scope s(spans, "ml.forest_fit", req);
            const double t0 = now_s();
            rf.fit(x_train, parts.train.label, ds.num_classes);
            lt.forest_fit_s += now_s() - t0;
          }
          SpanRecorder::Scope s(spans, "ml.predict", req);
          pred = rf.predict(x_test);
        } else {
          ml::GradientBoosting gb(ml::GbdtConfig::xgboost_style());
          {
            SpanRecorder::Scope s(spans, "ml.gbdt_fit", req);
            const double t0 = now_s();
            gb.fit(x_train, parts.train.label, ds.num_classes);
            lt.gbdt_fit_s += now_s() - t0;
          }
          SpanRecorder::Scope s(spans, "ml.predict", req);
          pred = gb.predict(x_test);
        }
        const auto m = ml::evaluate(parts.test.label, pred, ds.num_classes);
        it.cells.push_back(make_cell(m));
        probes.push_back({std::move(x_train), parts.train.label, ds.num_classes,
                          kind == core::ShallowKind::RandomForest});
        ++req;
      }
    }
  }
  const CpuWall cw = timer.elapsed();
  it.wall_s = cw.wall_s;
  it.cpu_s = cw.cpu_s;
  it.fp = fingerprint(it.cells);

  // Side probes outside the chain. (1) The quantize-once BinnedMatrix build
  // each fit performs internally, at the estimator's bin count.
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const int bins = probes[i].forest ? ml::ForestConfig{}.tree.histogram_bins
                                      : ml::GbdtConfig::xgboost_style().tree.histogram_bins;
    SpanRecorder::Scope s(spans, "probe.ml.quantize", static_cast<std::int64_t>(i));
    const double t0 = now_s();
    const ml::BinnedMatrix bm(probes[i].x, bins);
    lt.quantize_s += now_s() - t0;
  }
  // (2) The TLS-120 fits again on a kProbeWidth pool: how busy the pool
  // stays when a fit may use that many workers, whatever the workload's
  // own width.
  const std::size_t width = core::global_thread_count();
  core::set_global_threads(kProbeWidth);
  warm_pool();
  for (std::size_t i = 2; i < probes.size(); ++i) {
    const ProbeInput& p = probes[i];
    SpanRecorder::Scope s(spans, "probe.ml.fit_wide", static_cast<std::int64_t>(i));
    CpuWallTimer t;
    if (p.forest) {
      ml::RandomForest{ml::ForestConfig{}}.fit(p.x, p.y, p.classes);
      lt.forest_fit_wide += t.elapsed();
    } else {
      ml::GradientBoosting{ml::GbdtConfig::xgboost_style()}.fit(p.x, p.y, p.classes);
      lt.gbdt_fit_wide += t.elapsed();
    }
  }
  core::set_global_threads(width);
  return it;
}

replearn::DownstreamConfig downstream_config(const core::EnvConfig& env_cfg,
                                             const core::ScenarioOptions& opts) {
  replearn::DownstreamConfig cfg;
  cfg.frozen = opts.frozen;
  cfg.epochs = opts.frozen ? env_cfg.downstream_epochs * 3 : env_cfg.downstream_epochs * 3 / 2;
  cfg.flow_holdout_validation = opts.split == dataset::SplitPolicy::PerFlow;
  cfg.seed = opts.seed ^ 0xD0;
  cfg.lr_head *= static_cast<float>(opts.lr_scale);
  cfg.lr_encoder *= static_cast<float>(opts.lr_scale);
  return cfg;
}

Iteration layered_deep(std::uint64_t seed, SpanRecorder& spans, LayerTimes& lt) {
  Iteration it;
  const core::EnvConfig cfg = deep_env(seed);
  core::ScenarioOptions opts;
  opts.frozen = true;
  auto& flops = core::trace::counter("ml.gemm_flops");
  replearn::BackbonePretrainOptions popts;
  popts.pretrain.epochs = cfg.pretrain_epochs;
  popts.max_samples = cfg.pretrain_max_samples;
  popts.seed = cfg.seed ^ 0x11E;
  dataset::PacketDataset backbone;
  CpuWallTimer timer;
  {
    SpanRecorder::Scope root(spans, "batch_deep");
    {
      trafficgen::GeneratedTrace trace;
      {
        SpanRecorder::Scope s(spans, "trafficgen.generate", 0);
        trace = trafficgen::generate_backbone(cfg.seed ^ 0xBACB, cfg.backbone_flows);
      }
      SpanRecorder::Scope s(spans, "dataset.clean", 0);
      backbone = dataset::make_unlabeled_dataset(trace);
    }
    const auto ds = generate_and_clean(spans, cfg, TaskId::VpnApp, 0);
    std::int64_t req = 0;
    for (replearn::ModelKind model : kDeepModels) {
      const std::string name = replearn::to_string(model);
      SpanRecorder::Scope cell(spans, "cell." + name, req);
      replearn::ModelBundle bundle = replearn::make_model(model, replearn::TaskMode::Packet);
      {
        SpanRecorder::Scope s(spans, "replearn.pretrain", req);
        // The GEMM flop counter only counts while the program's own
        // tracing is on; it is switched on for this call alone.
        core::trace::set_mode(core::trace::Mode::kSummary);
        const std::uint64_t f0 = flops.value();
        CpuWallTimer pt;
        replearn::pretrain_on_backbone(bundle, backbone, popts);
        const double wall = pt.elapsed().wall_s;
        lt.pretrain_flops += static_cast<double>(flops.value() - f0);
        core::trace::set_mode(core::trace::Mode::kOff);
        lt.pretrain_s += wall;
        lt.pretrain_by_encoder.emplace_back(name, wall);
      }
      // The pipeline hands each scenario a clone of the cached bundle.
      std::unique_ptr<replearn::Encoder> encoder = bundle.encoder->clone();
      Partitions parts;
      {
        SpanRecorder::Scope s(spans, "dataset.split", req);
        parts = make_partitions(ds, cfg.max_train_packets_deep, cfg.max_test_packets_deep,
                                opts);
      }
      ml::Matrix x_train, x_test;
      {
        SpanRecorder::Scope s(spans, "replearn.featurize", req);
        x_train = bundle.featurize_packets(parts.train, iota_indices(parts.train.size()));
        x_test = bundle.featurize_packets(parts.test, iota_indices(parts.test.size()));
      }
      replearn::DownstreamModel dm(std::move(encoder), ds.num_classes,
                                   downstream_config(cfg, opts));
      {
        SpanRecorder::Scope s(spans, "replearn.head_fit", req);
        dm.fit(x_train, parts.train.label, parts.train.flow_id);
      }
      std::vector<int> pred;
      {
        SpanRecorder::Scope s(spans, "replearn.head_predict", req);
        pred = dm.predict(x_test);
      }
      const auto m = ml::evaluate(parts.test.label, pred, ds.num_classes);
      it.cells.push_back(make_cell(m));
      ++req;
    }
  }
  const CpuWall cw = timer.elapsed();
  it.wall_s = cw.wall_s;
  it.cpu_s = cw.cpu_s;
  it.fp = fingerprint(it.cells);

  // Side probe outside the chain: both pretrainings again on a warmed
  // kProbeWidth pool, for how busy the pool stays during pretraining.
  const std::size_t width = core::global_thread_count();
  core::set_global_threads(kProbeWidth);
  warm_pool();
  for (replearn::ModelKind model : kDeepModels) {
    SpanRecorder::Scope s(spans, "probe.replearn.pretrain_wide");
    replearn::ModelBundle bundle = replearn::make_model(model, replearn::TaskMode::Packet);
    CpuWallTimer t;
    replearn::pretrain_on_backbone(bundle, backbone, popts);
    lt.pretrain_wide += t.elapsed();
  }
  core::set_global_threads(width);
  return it;
}

// ---------------------------------------------------------------------------

double classified(const Iteration& it) {
  double n = 0;
  for (const Cell& c : it.cells) n += static_cast<double>(c.classified);
  return n;
}

Result run_batch(const RunArgs& args, const Expected& expected, Fingerprint& fp,
                 Iteration (*pipeline)(std::uint64_t),
                 Iteration (*layered)(std::uint64_t, SpanRecorder&, LayerTimes&),
                 void (*set_up)(std::uint64_t)) {
  Result r;
  const std::size_t threads = core::global_thread_count();

  // Set-up: the pool at the workload's width plus a ready env, built
  // several times. Every timed iteration builds a fresh env and pays the
  // same generation and cleaning again, as users do on every run.
  std::vector<double> setup_s;
  for (int i = 0; i < (args.record ? 1 : kSetupReps); ++i) {
    const double t0 = now_s();
    core::set_global_threads(threads);
    set_up(args.seed);
    setup_s.push_back(now_s() - t0);
    std::fprintf(stderr, "perfbench: set-up %.3f s\n", setup_s.back());
  }

  const Iteration first = pipeline(args.seed);
  fp = first.fp;
  std::fprintf(stderr, "perfbench: pipeline iteration %.3f s cpu %.3f s acc %.4f\n",
               first.wall_s, first.cpu_s, first.fp.accuracy);
  check_fingerprint(r, expected, first.fp, first.fp, "pipeline iteration");
  r.attempted += first.cells.size();
  if (args.record) return r;

  if (!args.trace) {
    std::vector<double> wall{first.wall_s}, cpu{first.cpu_s},
        rate{classified(first) / first.wall_s * 1e-6};
    const double t_run0 = now_s() - first.wall_s;
    while (now_s() - t_run0 < args.seconds) {
      const Iteration it = pipeline(args.seed);
      std::fprintf(stderr, "perfbench: pipeline iteration %.3f s cpu %.3f s\n", it.wall_s,
                   it.cpu_s);
      check_fingerprint(r, expected, it.fp, first.fp, "pipeline iteration");
      r.attempted += it.cells.size();
      wall.push_back(it.wall_s);
      cpu.push_back(it.cpu_s);
      rate.push_back(classified(it) / it.wall_s * 1e-6);
    }
    r.set("setup_s", median(setup_s), "s");
    r.set("wall_s", median(wall), "s");
    r.set("mpps", median(rate), "Mpkt/s");
    r.set("cpu_s", median(cpu), "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }

  // Traced run: rebuilt chain, then the differential check against the
  // pipeline iteration above.
  set_all_layer_metrics_zero(r);
  SpanRecorder spans;
  LayerTimes lt;
  const Iteration rebuilt = layered(args.seed, spans, lt);
  std::fprintf(stderr, "perfbench: layered iteration %.3f s cpu %.3f s acc %.4f\n",
               rebuilt.wall_s, rebuilt.cpu_s, rebuilt.fp.accuracy);
  r.check(rebuilt.fp.digest == first.fp.digest && rebuilt.fp.accuracy == first.fp.accuracy,
          "layered chain: accuracy / confusion matrices differ from the core pipeline's");

  const auto agg = spans.aggregate();
  auto total_s = [&](const std::string& name) {
    auto it = agg.find(name);
    return it == agg.end() ? 0.0 : it->second.total_s;
  };
  double layer_self = 0;
  for (const auto& [name, a] : agg) {
    const bool is_layer = name.rfind("trafficgen.", 0) == 0 ||
                          name.rfind("dataset.", 0) == 0 ||
                          name.rfind("replearn.", 0) == 0 || name.rfind("ml.", 0) == 0;
    if (is_layer) layer_self += a.self_s;
  }
  const double chain_s = total_s(args.workload);  // the rebuilt chain's root span
  core::set_global_threads(kProbeWidth);
  warm_pool();
  r.set("core.fork_join_ns", fork_join_ns(), "ns");
  core::set_global_threads(threads);
  r.set("trafficgen.generate_s", total_s("trafficgen.generate"), "s");
  r.set("dataset.clean_s", total_s("dataset.clean"), "s");
  r.set("dataset.split_s", total_s("dataset.split"), "s");
  r.set("replearn.featurize_s", total_s("replearn.featurize"), "s");
  r.set("ml.quantize_s", lt.quantize_s, "s");
  r.set("ml.forest_fit_s", lt.forest_fit_s, "s");
  r.set("ml.forest_cpu_util", lt.forest_fit_wide.util(kProbeWidth), "fraction");
  r.set("ml.gbdt_fit_s", lt.gbdt_fit_s, "s");
  r.set("ml.gbdt_cpu_util", lt.gbdt_fit_wide.util(kProbeWidth), "fraction");
  r.set("ml.predict_s", total_s("ml.predict"), "s");
  for (const auto& [name, s] : lt.pretrain_by_encoder)
    r.set("replearn.pretrain_s." + name, s, "s");
  r.set("replearn.pretrain_cpu_util", lt.pretrain_wide.util(kProbeWidth), "fraction");
  r.set("ml.gemm_gflops", lt.pretrain_s > 0 ? lt.pretrain_flops / lt.pretrain_s * 1e-9 : 0,
        "GFLOP/s");
  r.set("replearn.head_fit_s", total_s("replearn.head_fit"), "s");
  r.set("replearn.head_predict_s", total_s("replearn.head_predict"), "s");
  r.set("accuracy", first.fp.accuracy, "fraction");
  r.set("trace.overhead_pct", (rebuilt.wall_s - first.wall_s) / first.wall_s * 100, "%");
  r.set("trace.layer_coverage", chain_s > 0 ? layer_self / chain_s : 0, "fraction");
  r.set("trace.spans", static_cast<double>(spans.size()), "count");
  if (!args.trace_out.empty() && !spans.write_chrome(args.trace_out))
    std::fprintf(stderr, "perfbench: could not write %s\n", args.trace_out.c_str());
  return r;
}

}  // namespace

Result run_batch_shallow(const RunArgs& args, const Expected& expected, Fingerprint& fp) {
  return run_batch(args, expected, fp, pipeline_shallow, layered_shallow, set_up_shallow);
}

Result run_batch_deep(const RunArgs& args, const Expected& expected, Fingerprint& fp) {
  return run_batch(args, expected, fp, pipeline_deep, layered_deep, set_up_deep);
}

}  // namespace perfbench
