// perfbench_bin: runs one named workload and prints one JSON result as
// the last line of stdout. perfbench/run.py builds and invokes it; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench_bin --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file>] [--expected <tsv>] [--record]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/threadpool.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr LayerMetric kLayerMetrics[] = {
    {"serve.offer_ns", "ns"},
    {"serve.pump_ns", "ns"},
    {"serve.p50_us", "us"},
    {"serve.p99_us", "us"},
    {"serve.round_pkts", "count"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.generator_lag_us_p99", "us"},
    {"serve.verdict_yield", "fraction"},
    {"serve.engine_overhead_ns", "ns"},
    {"core.fork_join_ns", "ns"},
    {"core.scaling_eff", "fraction"},
    {"net.parse_ns", "ns"},
    {"net.flow_key_ns", "ns"},
    {"replearn.header_features_ns", "ns"},
    {"serve.flow_table.touch_ns", "ns"},
    {"serve.flow_table.create_share", "fraction"},
    {"serve.flow_table.evict_ns", "ns"},
    {"serve.classifier.classify_ns", "ns"},
    {"serve.classifier.calls_per_kpkt", "count"},
    {"trafficgen.generate_s", "s"},
    {"dataset.clean_s", "s"},
    {"dataset.split_s", "s"},
    {"replearn.featurize_s", "s"},
    {"ml.quantize_s", "s"},
    {"ml.forest_fit_s", "s"},
    {"ml.forest_cpu_util", "fraction"},
    {"ml.gbdt_fit_s", "s"},
    {"ml.gbdt_cpu_util", "fraction"},
    {"ml.predict_s", "s"},
    {"replearn.pretrain_s.YaTC", "s"},
    {"replearn.pretrain_s.Pcap-Encoder", "s"},
    {"replearn.pretrain_cpu_util", "fraction"},
    {"ml.gemm_gflops", "GFLOP/s"},
    {"replearn.head_fit_s", "s"},
    {"replearn.head_predict_s", "s"},
    {"accuracy", "fraction"},
    {"trace.overhead_pct", "%"},
    {"trace.layer_coverage", "fraction"},
    {"trace.spans", "count"},
};

struct WorkloadEntry {
  const char* name;
  std::size_t threads;  // engine / ml pool width (SUGAR_THREADS)
  Result (*fn)(const RunArgs&, const Expected&, Fingerprint&);
};

// Width 1 throughout: on a VM that lends idle vCPUs to other tenants,
// anything waiting on a second vCPU is timed on the host's schedule
// (README.md, "Width 1 for every workload"). The traced runs probe width 4.
constexpr WorkloadEntry kWorkloads[] = {
    {"serve_steady", 1, run_serve_steady},
    {"serve_churn", 1, run_serve_churn},
    {"batch_shallow", 1, run_batch_shallow},
    {"batch_deep", 1, run_batch_deep},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_bin: %s\n"
               "usage: perfbench_bin --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--expected <tsv>] [--record]\n",
               msg);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != nullptr && *end == '\0';
}

/// expected.tsv: "<workload> <seed> <digest-hex> <accuracy>" per line.
Expected lookup_expected(const std::string& path, const std::string& workload,
                         std::uint64_t seed) {
  Expected e;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, hex;
    std::uint64_t s = 0;
    double acc = 0;
    if (!(ls >> w >> s >> hex >> acc)) continue;
    if (w != workload || s != seed) continue;
    e.known = true;
    e.fp.digest = std::strtoull(hex.c_str(), nullptr, 16);
    e.fp.accuracy = acc;
  }
  return e;
}

}  // namespace

void set_all_layer_metrics_zero(Result& r) {
  for (const LayerMetric& m : kLayerMetrics) r.set(m.name, 0.0, m.unit);
}

void check_fingerprint(Result& r, const Expected& expected,
                       const Fingerprint& got, const Fingerprint& first,
                       const std::string& what) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: digest %016llx accuracy %.17g", what.c_str(),
                static_cast<unsigned long long>(got.digest), got.accuracy);
  r.check(got.digest == first.digest && got.accuracy == first.accuracy,
          std::string(buf) + " differs from the run's first timed unit");
  if (expected.known)
    r.check(got.digest == expected.fp.digest &&
                got.accuracy == expected.fp.accuracy,
            std::string(buf) + " differs from the recorded fingerprint");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  std::string expected_path;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (a == "--record") {
      args.record = true;
      continue;
    }
    if (v == nullptr) return usage(("missing value for " + a).c_str());
    ++i;
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, args.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, n) || n == 0) return usage("bad --seconds");
      args.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace") {
      if (!parse_u64(v, n) || n > 1) return usage("bad --trace");
      args.trace = n == 1;
      have_trace = true;
    } else if (a == "--trace-out") {
      args.trace_out = v;
    } else if (a == "--expected") {
      expected_path = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");

  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads)
    if (args.workload == w.name) entry = &w;
  if (entry == nullptr) return usage(("unknown workload '" + args.workload + "'").c_str());

  sugar::core::set_global_threads(entry->threads);
  const Expected expected =
      expected_path.empty() ? Expected{}
                            : lookup_expected(expected_path, args.workload, args.seed);
  if (!expected_path.empty() && !expected.known && !args.record)
    std::fprintf(stderr,
                 "perfbench: WARNING: %s seed %llu has no recorded fingerprint in %s; "
                 "outputs are only checked against the run's first timed unit "
                 "(record it with: python3 perfbench/run.py --record %s %llu %llu)\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                 expected_path.c_str(), args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 static_cast<unsigned long long>(args.seed));
  Fingerprint fp;
  Result result;
  try {
    result = entry->fn(args, expected, fp);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  // A run whose output check fails counts as failed in full.
  if (!result.correct) result.failed = result.attempted;
  for (const std::string& p : result.problems)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  if (args.record) {
    if (!result.correct) return 1;
    std::printf("%s %llu %016llx %.17g\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(fp.digest), fp.accuracy);
    return 0;
  }
  std::cout << result.json() << std::endl;
  return 0;
}
