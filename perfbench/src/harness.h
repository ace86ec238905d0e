// Measurement substrate shared by every perfbench workload: clocks, process
// CPU and peak RSS from getrusage, order statistics, the result line the
// benchmark prints, and an in-memory span recorder. All timing happens
// here, in the benchmark's own files — the program under test carries no
// benchmark-specific instrumentation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds / seconds.
std::uint64_t now_ns();
double now_s();

/// Process CPU seconds (user + system, every thread) from getrusage.
double process_cpu_s();

/// Peak resident set of the process so far, MiB.
double peak_rss_mb();

/// Median of a sample (0 when empty). Copies; the input stays unsorted.
double median(std::vector<double> v);

/// Nearest-rank quantile q in [0, 1] of a sample, sorting it in place.
double quantile_inplace(std::vector<double>& v, double q);

/// Wall + process CPU around one call (the batch layers' attribution).
struct CpuWall {
  double wall_s = 0;
  double cpu_s = 0;
  /// CPU busy share of the pool: cpu / (wall x threads).
  [[nodiscard]] double util(std::size_t threads) const {
    return wall_s > 0 ? cpu_s / (wall_s * static_cast<double>(threads)) : 0;
  }
  CpuWall& operator+=(const CpuWall& o) {
    wall_s += o.wall_s;
    cpu_s += o.cpu_s;
    return *this;
  }
};

class CpuWallTimer {
 public:
  CpuWallTimer() : wall0_(now_s()), cpu0_(process_cpu_s()) {}
  [[nodiscard]] CpuWall elapsed() const {
    return {now_s() - wall0_, process_cpu_s() - cpu0_};
  }

 private:
  double wall0_;
  double cpu0_;
};

/// FNV-1a 64-bit running digest.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n);
  template <typename T>
  void add(const T& v) {
    add_bytes(&v, sizeof v);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The result a run prints as its last stdout line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  // failed output checks, for stderr

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a failed output check; the run reports correct=false.
  void check(bool ok, const std::string& what);
  [[nodiscard]] std::string json() const;
};

/// In-memory span timeline: name, start, end, parent and a request id (the
/// round, packet chunk or cell the span worked on). Spans nest strictly on
/// the single thread that records them, so a span's self time is its
/// duration minus the durations of its direct children.
class SpanRecorder {
 public:
  struct Span {
    std::uint32_t name = 0;  // index into names_
    std::int32_t parent = -1;
    std::int64_t request = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  struct Aggregate {
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };

  /// Opens a span under the innermost open span; returns its index.
  std::int32_t open(const std::string& name, std::int64_t request = -1);
  void close(std::int32_t index);

  /// RAII helper.
  class Scope {
   public:
    Scope(SpanRecorder& r, const std::string& name, std::int64_t request = -1)
        : r_(r), index_(r.open(name, request)) {}
    ~Scope() { r_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& r_;
    std::int32_t index_;
  };

  /// Per-name totals and self times over every closed span.
  [[nodiscard]] std::map<std::string, Aggregate> aggregate() const;

  /// Writes the timeline in the chrome://tracing "JSON Object Format" the
  /// program's core::chrome_trace_json() also emits: one "X" event per
  /// span (ts/dur in microseconds, pid 1, tid 1) with the request id and
  /// parent index under "args". Returns false when the file can't be
  /// written.
  bool write_chrome(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  std::uint32_t intern(const std::string& name);

  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_ids_;
};

}  // namespace perfbench
