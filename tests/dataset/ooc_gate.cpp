// Out-of-core streaming gate: a synthetic code store larger than the page
// cache budget is fit fully resident (ResidentCodeSource, in this process)
// and paged (PagedCodeSource, in a child process with SUGAR_PAGE_CACHE_MB
// pinned small) at SUGAR_THREADS = 1, 2 and 7. Hard gates: every paged
// model digest equals the resident one, and every paged child's peak RSS
// stays below the store's payload size — the fit must stream, not
// materialize. The paged arm runs in a fresh process because ru_maxrss
// only ever grows within one: the parent, which just held the whole
// dataset, cannot measure a paged peak.
//
// Built as its own binary (sugar_ooc_gate) with its own main():
// `sugar_ooc_gate --ooc-fit <store.sugc>` is the child mode (open the
// store, fit paged, print one JSON line of evidence); any other command
// line runs the gtests.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact.h"
#include "core/pager.h"
#include "core/threadpool.h"
#include "dataset/store.h"
#include "ml/binned.h"
#include "ml/forest.h"

namespace sugar {
namespace {

// Dataset geometry: 3M rows x 32 code columns = 96 MB of codes on disk,
// fit by the paged children under a 4 MB cache budget (24x smaller). The
// child's fixed overhead (binary, labels, row index, partition scratch)
// sits well under the payload size, so "peak RSS < payload bytes" is a
// real streaming gate, not slack.
constexpr std::size_t kGateRows = 3000000;
constexpr std::size_t kCols = 32;
constexpr int kBins = 64;
constexpr int kClasses = 6;
constexpr std::size_t kGroupRows = 65536;
constexpr std::size_t kBudgetMb = 4;
constexpr std::size_t kProbeRows = 4096;

std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int label_of(std::uint64_t r) {
  return static_cast<int>(mix(r * 2 + 1) % kClasses);
}

/// Deterministic synthetic feature value: a hash-noise base plus a
/// class-dependent shift so the forest has real splits to find (all-leaf
/// trees would make the digest gate vacuous).
float value_of(std::uint64_t r, std::size_t c) {
  const int y = label_of(r);
  const std::uint64_t h = mix((r << 8) ^ (c * 0x9E37u + 3));
  const float base =
      static_cast<float>(h & 0xFFFFFu) / static_cast<float>(1u << 20);
  return base + 0.35f * static_cast<float>(
                            (static_cast<std::size_t>(y) * 7 + c) % 5);
}

ml::ForestConfig forest_cfg() {
  ml::ForestConfig cfg;
  cfg.num_trees = 2;
  cfg.seed = 29;
  cfg.tree.max_depth = 8;
  cfg.tree.features_per_split = 6;
  cfg.tree.histogram_bins = kBins;
  return cfg;
}

template <typename T>
std::string digest(const std::vector<T>& v) {
  return core::hex64(core::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T))));
}

/// Model fingerprint: predictions on a fixed probe block (the rows just
/// past a `rows`-row training range) plus the bit pattern of the
/// importance vector.
std::string model_digest(const ml::RandomForest& forest, std::size_t rows) {
  ml::Matrix probe(kProbeRows, kCols);
  for (std::size_t r = 0; r < kProbeRows; ++r)
    for (std::size_t c = 0; c < kCols; ++c)
      probe(r, c) = value_of(rows + r, c);
  return digest(forest.predict(probe)) + "/" +
         digest(forest.feature_importance());
}

/// Child mode: open the code store, fit paged, print one JSON line of
/// evidence (digest, seconds, peak RSS, cache hit rate) on stdout.
int run_paged_child(const char* store_path) {
  dataset::StoreError serr;
  auto reader = dataset::StoreReader::open(store_path, &serr);
  if (!reader) {
    std::fprintf(stderr, "ooc-fit: open failed: %s\n", serr.message.c_str());
    return 2;
  }
  const int ycol = reader->column("y");
  if (ycol < 0) {
    std::fprintf(stderr, "ooc-fit: store has no \"y\" column\n");
    return 2;
  }
  std::vector<int> y;
  y.reserve(reader->rows());
  dataset::ColumnCursor ycur(*reader, static_cast<std::size_t>(ycol));
  dataset::ColumnBlock blk;
  while (ycur.next(blk, &serr))
    for (std::uint32_t i = 0; i < blk.nrows; ++i)
      y.push_back(blk.as<std::int32_t>()[i]);
  if (serr) {
    std::fprintf(stderr, "ooc-fit: label scan failed: %s\n",
                 serr.message.c_str());
    return 2;
  }
  std::vector<std::size_t> code_cols(kCols);
  std::iota(code_cols.begin(), code_cols.end(), std::size_t{0});
  dataset::PagedCodeSource src(*reader, code_cols);

  ml::RandomForest forest(forest_cfg());
  const auto t0 = std::chrono::steady_clock::now();
  forest.fit_binned(src, y, kClasses);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  core::Json out = core::Json::object();
  out.set("digest", core::Json(model_digest(forest, reader->rows())));
  out.set("seconds", core::Json(seconds));
  out.set("peak_rss_bytes", core::Json(core::peak_rss_bytes()));
  out.set("hit_rate",
          core::Json(core::PageCache::global().stats().hit_rate()));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

/// Removes a file on every exit path of its scope.
class RemoveOnExit {
 public:
  explicit RemoveOnExit(std::string path) : path_(std::move(path)) {}
  ~RemoveOnExit() { std::remove(path_.c_str()); }
  RemoveOnExit(const RemoveOnExit&) = delete;
  RemoveOnExit& operator=(const RemoveOnExit&) = delete;

 private:
  std::string path_;
};

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (char ch : s) {
    if (ch == '\'')
      out += "'\\''";
    else
      out += ch;
  }
  return out + "'";
}

struct WidthOutcome {
  int threads = 0;
  std::string resident_digest;
  std::string paged_digest;
  std::uint64_t paged_peak_rss = 0;
};

struct GateOutcome {
  std::string error;  // empty when every arm ran
  std::uint64_t payload_bytes = 0;
  std::vector<WidthOutcome> widths;
};

/// The whole gate: sketch cuts, write a `rows`-row store at `store_path`,
/// then per width fit resident here and paged in a child pointed at
/// `child_store` (the same path, except when a test injects a failure).
/// The store is removed on every return.
GateOutcome run_gate(const std::string& store_path,
                     const std::string& child_store, std::size_t rows) {
  GateOutcome out;
  const RemoveOnExit cleanup(store_path);

  // Pass 1: quantization cuts, exactly as BinnedMatrix would derive them.
  std::vector<std::vector<float>> cuts(kCols);
  {
    std::vector<ml::ColumnSketch> sketches;
    sketches.reserve(kCols);
    for (std::size_t c = 0; c < kCols; ++c) sketches.emplace_back(kBins);
    for (std::uint64_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < kCols; ++c)
        sketches[c].add(value_of(r, c));
    for (std::size_t c = 0; c < kCols; ++c) cuts[c] = sketches[c].finalize();
  }

  // Pass 2: write the code store and keep a resident copy of the codes +
  // labels for the in-memory arm.
  std::vector<dataset::ColumnSpec> schema;
  for (std::size_t c = 0; c < kCols; ++c)
    schema.push_back({"f" + std::to_string(c), dataset::ColumnType::U8,
                      cuts[c]});
  schema.push_back({"y", dataset::ColumnType::I32, {}});
  std::vector<std::vector<std::uint8_t>> codes(kCols);
  for (auto& col : codes) col.reserve(rows);
  std::vector<int> y;
  y.reserve(rows);
  dataset::StoreError serr;
  {
    dataset::StoreWriter::Options wopts;
    wopts.group_rows = kGroupRows;
    wopts.bins = kBins;
    dataset::StoreWriter writer(store_path, schema, wopts);
    for (std::uint64_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < kCols; ++c) {
        const auto code = static_cast<std::uint8_t>(
            ml::quantize_bin(cuts[c], value_of(r, c)));
        writer.add_u8(c, code);
        codes[c].push_back(code);
      }
      const int label = label_of(r);
      writer.add_i32(kCols, label);
      y.push_back(label);
      if (!writer.end_row(&serr)) break;
    }
    if (!serr) writer.finalize(&serr);
  }
  if (serr) {
    out.error = "store write failed: " + serr.message;
    return out;
  }
  {
    auto reader = dataset::StoreReader::open(store_path, &serr);
    if (!reader) {
      out.error = "store reopen failed: " + serr.message;
      return out;
    }
    out.payload_bytes = reader->payload_bytes();
  }

  const dataset::ResidentCodeSource resident(std::move(codes), cuts, kBins);
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    out.error = "cannot resolve /proc/self/exe";
    return out;
  }
  const std::string self(exe, static_cast<std::size_t>(n));

  for (const int w : {1, 2, 7}) {
    WidthOutcome row;
    row.threads = w;
    core::set_global_threads(static_cast<std::size_t>(w));
    ml::RandomForest rf(forest_cfg());
    rf.fit_binned(resident, y, kClasses);
    row.resident_digest = model_digest(rf, rows);
    core::set_global_threads(0);

    const std::string cmd =
        "SUGAR_THREADS=" + std::to_string(w) +
        " SUGAR_PAGE_CACHE_MB=" + std::to_string(kBudgetMb) + " " +
        shell_quote(self) + " --ooc-fit " + shell_quote(child_store);
    FILE* pipe = ::popen(cmd.c_str(), "r");
    if (!pipe) {
      out.error = "popen failed";
      return out;
    }
    std::string child_out;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), pipe)) child_out += buf;
    const int status = ::pclose(pipe);
    // The evidence line is the last parseable line on the child's stdout.
    std::optional<core::Json> child;
    std::istringstream lines(child_out);
    for (std::string line; std::getline(lines, line);)
      if (auto j = core::Json::parse(line)) child = std::move(j);
    if (status != 0 || !child || !child->is_object()) {
      out.error = "paged child (threads=" + std::to_string(w) +
                  ") failed with status " + std::to_string(status);
      return out;
    }
    const auto num = [&](const char* key) {
      const core::Json* v = child->find(key);
      return v ? v->number_or(0.0) : 0.0;
    };
    const core::Json* dj = child->find("digest");
    row.paged_digest = dj ? dj->string_or("") : "";
    row.paged_peak_rss = static_cast<std::uint64_t>(num("peak_rss_bytes"));
    std::printf("ooc gate t=%d  paged %.2fs  rss %.1f MB / payload %.1f MB  "
                "hit %.3f\n",
                w, num("seconds"),
                static_cast<double>(row.paged_peak_rss) / 1048576.0,
                static_cast<double>(out.payload_bytes) / 1048576.0,
                num("hit_rate"));
    out.widths.push_back(row);
  }
  return out;
}

std::string store_path(const char* name) {
  return ::testing::TempDir() + "sugar_ooc_gate_" + name + "_" +
         std::to_string(::getpid()) + ".sugc";
}

TEST(OocGate, PagedFitMatchesResidentAndStreamsAtAllWidths) {
  const std::string path = store_path("gate");
  const GateOutcome out = run_gate(path, path, kGateRows);
  ASSERT_TRUE(out.error.empty()) << out.error;
  ASSERT_GT(out.payload_bytes, 0u);
  ASSERT_EQ(out.widths.size(), 3u);
  for (const WidthOutcome& w : out.widths) {
    EXPECT_EQ(w.paged_digest, w.resident_digest)
        << "threads " << w.threads
        << ": paged fit differs from resident fit";
    EXPECT_GT(w.paged_peak_rss, 0u) << "threads " << w.threads;
    EXPECT_LT(w.paged_peak_rss, out.payload_bytes)
        << "threads " << w.threads
        << ": paged child's peak RSS reached the dataset size — the fit did "
           "not stream";
  }
  EXPECT_FALSE(file_exists(path));
}

TEST(OocGate, FailedChildLeavesNoStore) {
  // A small store, and a child pointed at a path that does not exist: the
  // child fails, the gate returns early, and the store must still go.
  const std::string path = store_path("fail");
  const GateOutcome out =
      run_gate(path, path + ".missing", 2 * kGroupRows + 17);
  EXPECT_NE(out.error.find("paged child"), std::string::npos) << out.error;
  EXPECT_FALSE(file_exists(path));
}

}  // namespace
}  // namespace sugar

#if defined(__SANITIZE_ADDRESS__)
// ASan keeps freed blocks in a quarantine (256 MB by default) that counts
// toward ru_maxrss, so under ASan the RSS gate would measure the sanitizer,
// not what the fit holds. The gate binary runs without the quarantine;
// ASAN_OPTIONS in the environment still takes precedence.
extern "C" const char* __asan_default_options() {
  return "quarantine_size_mb=0";
}
#endif

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--ooc-fit") == 0)
    return sugar::run_paged_child(argv[2]);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
