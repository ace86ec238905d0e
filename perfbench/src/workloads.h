// The four perfbench workloads and what main() hands them.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Chrome trace_event file the traced run writes its spans to.
  std::string trace_out;
  /// Record mode: one minimal timed unit, then print the output
  /// fingerprint for perfbench/expected.tsv instead of measuring.
  bool record = false;
};

/// Deterministic output fingerprint of one seed: a digest of the outputs
/// (serve verdicts, batch confusion matrices) and the accuracy.
struct Fingerprint {
  std::uint64_t digest = 0;
  double accuracy = 0;
};

/// What perfbench/expected.tsv recorded for (workload, seed), if anything.
struct Expected {
  bool known = false;
  Fingerprint fp;
};

/// Compares a run's fingerprint against the recorded one (when present)
/// and against the fingerprint of every other timed unit of the same run.
void check_fingerprint(Result& r, const Expected& expected,
                       const Fingerprint& got, const Fingerprint& first,
                       const std::string& what);

Result run_serve_steady(const RunArgs& args, const Expected& expected,
                        Fingerprint& fp);
Result run_serve_churn(const RunArgs& args, const Expected& expected,
                       Fingerprint& fp);
Result run_batch_shallow(const RunArgs& args, const Expected& expected,
                         Fingerprint& fp);
Result run_batch_deep(const RunArgs& args, const Expected& expected,
                      Fingerprint& fp);

/// Pool width of the traced runs' scaling, fork-join and utilisation
/// probes (the 4 cores of the machine the benchmark was defined on).
constexpr std::size_t kProbeWidth = 4;

/// Mean ns of an empty core::ThreadPool::parallel_for over one engine
/// round (256 packets) at the engine's prepare-stage grain (64), on the
/// global pool as currently sized; median of 5 repetitions of 2000 calls.
double fork_join_ns();

/// Keeps the global pool busy until a parallel_for really runs on every
/// worker (CPU >= 0.75 x wall x width), at most 3 s. On the VM the
/// benchmark was defined on, a process's idle vCPUs come back only after
/// about a second of demand, and a probe timed before that reads a serial
/// pool.
void warm_pool();

/// Per-layer metrics every traced run reports; a workload overwrites the
/// ones whose layer it calls, the rest stay 0 ("no direct calls").
void set_all_layer_metrics_zero(Result& r);

}  // namespace perfbench
