// Validates a BENCH_<table>.json artifact: parses it with the same strict
// Json parser the supervisor writes with and checks the schema essentials.
// The bench_smoke ctest label chains this after each bench run, so a crash,
// a torn write, or malformed output fails `ctest -L bench_smoke`.
//
// Beyond the default artifact check it knows three more modes:
//
//   json_check --chrome <trace.json>      validate a chrome://tracing dump
//   json_check --normalize <artifact>     print the artifact with volatile
//                                         (timing/trace/config-width) keys
//                                         stripped, for golden comparison
//   json_check --golden <artifact> <ref>  normalize both and require they
//                                         match byte-for-byte
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/artifact.h"

using sugar::core::Json;

namespace {

bool fail(const char* path, const char* why) {
  std::fprintf(stderr, "json_check: %s: %s\n", path, why);
  return false;
}

bool load(const char* path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(path, "cannot open");
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

// Keys stripped by --normalize: anything that legitimately varies between
// two correct runs of the same bench (wall timings, derived throughput,
// machine width, and the whole observability section). schema_version is
// volatile too because SUGAR_TRACE flips it between 2 and 4.
constexpr const char* kVolatileKeys[] = {
    "schema_version", "trace",          "wall_seconds",
    "train_seconds",  "test_seconds",   "seq_seconds",
    "par_seconds",    "speedup",        "scalar_seconds",
    "simd_seconds",   "gflops",         "bytes_per_s",
    "threads",        "parallel_cells", "hardware_concurrency",
    "cpu_seconds",
};

bool is_volatile_key(const std::string& key) {
  for (const char* k : kVolatileKeys)
    if (key == k) return true;
  return false;
}

Json normalize(const Json& j) {
  if (j.is_object()) {
    Json out = Json::object();
    for (const auto& [key, value] : j.members())
      if (!is_volatile_key(key)) out.set(key, normalize(value));
    return out;
  }
  if (j.is_array()) {
    Json out = Json::array();
    for (const Json& item : j.items()) out.push(normalize(item));
    return out;
  }
  return j;
}

/// Validates the schema-4 `trace` section written by trace_section_json():
/// mode, per-phase aggregates, counters and the dropped-events tally. Every
/// numeric field must be a real JSON number — core::Json serializes NaN and
/// Inf as null, so a trace contaminated by a non-finite timing value fails
/// here instead of slipping into the artifact record.
bool check_trace_section(const char* path, const Json& trace) {
  if (!trace.is_object()) return fail(path, "trace is not an object");
  const Json* mode = trace.find("mode");
  const std::string& m = mode ? mode->string_or("") : "";
  if (m != "summary" && m != "spans")
    return fail(path, "trace.mode is neither summary nor spans");
  const Json* phases = trace.find("phases");
  if (!phases || !phases->is_array()) return fail(path, "trace missing phases array");
  for (const Json& p : phases->items()) {
    const Json* name = p.find("name");
    if (!name || name->string_or("").empty())
      return fail(path, "trace phase missing name");
    for (const char* field : {"count", "wall_ms", "cpu_ms"}) {
      const Json* v = p.find(field);
      if (!v || v->type() != Json::Type::kNumber || v->number_or(-1) < 0)
        return fail(path, "trace phase missing non-negative numeric field");
    }
  }
  const Json* counters = trace.find("counters");
  if (!counters || !counters->is_array())
    return fail(path, "trace missing counters array");
  for (const Json& c : counters->items()) {
    const Json* name = c.find("name");
    if (!name || name->string_or("").empty())
      return fail(path, "trace counter missing name");
    const Json* v = c.find("value");
    if (!v || v->type() != Json::Type::kNumber || v->number_or(-1) < 0)
      return fail(path, "trace counter missing non-negative numeric value");
  }
  const Json* dropped = trace.find("dropped_events");
  if (!dropped || dropped->type() != Json::Type::kNumber ||
      dropped->number_or(-1) < 0)
    return fail(path, "trace missing numeric dropped_events");
  return true;
}

/// The out-of-core cell extra written by `bench_table8_shallow --scale`
/// (the core::run_ooc_scale payload): streamed-pipeline evidence. Hard
/// requirements: a positive scale and throughput, a cache hit rate inside
/// [0, 1], a non-empty digest and a positive peak RSS — a zero or missing
/// field means a stage was skipped or the accounting is torn.
bool check_ooc_section(const char* path, const Json& ooc) {
  if (!ooc.is_object()) return fail(path, "ooc extra is not an object");
  for (const char* field : {"scale", "rows_generated", "rows_kept",
                            "train_rows", "test_rows", "rows_per_sec",
                            "fit_rows_per_sec", "store_bytes",
                            "peak_rss_bytes"}) {
    const Json* v = ooc.find(field);
    if (!v || v->type() != Json::Type::kNumber || v->number_or(0) <= 0) {
      std::fprintf(stderr,
                   "json_check: %s: ooc extra field '%s' missing or not a "
                   "positive number\n", path, field);
      return false;
    }
  }
  const Json* hit = ooc.find("page_cache_hit_rate");
  if (!hit || hit->type() != Json::Type::kNumber || hit->number_or(-1) < 0 ||
      hit->number_or(2) > 1)
    return fail(path, "ooc page_cache_hit_rate outside [0, 1]");
  for (const char* field : {"accuracy", "macro_f1"}) {
    const Json* v = ooc.find(field);
    if (!v || v->type() != Json::Type::kNumber || v->number_or(-1) < 0 ||
        v->number_or(2) > 1)
      return fail(path, "ooc accuracy/macro_f1 outside [0, 1]");
  }
  const Json* digest = ooc.find("digest");
  if (!digest || digest->string_or("").empty())
    return fail(path, "ooc extra missing digest");
  return true;
}

/// The drift/transfer cell extra (`extra.drift`): provenance of the
/// train/test distribution pair. All four fields are required non-negative
/// integers — a missing one means the cell can't be attributed to a
/// distribution shift.
bool check_drift_section(const char* path, const Json& drift) {
  if (!drift.is_object()) return fail(path, "drift extra is not an object");
  for (const char* field : {"train_epoch", "test_epoch", "train_family",
                            "test_family"}) {
    const Json* v = drift.find(field);
    if (!v || v->type() != Json::Type::kNumber || v->number_or(-1) < 0)
      return fail(path, "drift extra missing a non-negative numeric field");
  }
  return true;
}

/// The assembled drift curve (`extra.drift_curve`): per-model arrays of
/// {epoch, accuracy} points with strictly ascending epochs and accuracies
/// inside [0, 1]. An empty series is legal (every cell of that model
/// failed) but a malformed point is not.
bool check_drift_curve_section(const char* path, const Json& curve) {
  if (!curve.is_object()) return fail(path, "drift_curve is not an object");
  if (curve.members().empty()) return fail(path, "drift_curve has no models");
  for (const auto& [model, series] : curve.members()) {
    if (!series.is_array()) {
      std::fprintf(stderr, "json_check: %s: drift_curve series '%s' is not an "
                           "array\n", path, model.c_str());
      return false;
    }
    double last_epoch = -1;
    for (const Json& point : series.items()) {
      const Json* epoch = point.find("epoch");
      const Json* acc = point.find("accuracy");
      if (!epoch || epoch->type() != Json::Type::kNumber ||
          epoch->number_or(-1) < 0 || epoch->number_or(-1) <= last_epoch)
        return fail(path, "drift_curve epochs are not strictly ascending");
      if (!acc || acc->type() != Json::Type::kNumber ||
          acc->number_or(-1) < 0 || acc->number_or(2) > 1)
        return fail(path, "drift_curve accuracy outside [0, 1]");
      last_epoch = epoch->number_or(0);
    }
  }
  return true;
}

/// The perturbation cell extra (`extra.perturb`): the jitter magnitudes,
/// whether the clean baseline completed, and — when it did — the baseline
/// accuracy plus the signed accuracy delta against it.
bool check_perturb_section(const char* path, const Json& perturb) {
  if (!perturb.is_object()) return fail(path, "perturb extra is not an object");
  for (const char* field : {"ttl", "window", "mss"}) {
    const Json* v = perturb.find(field);
    if (!v || v->type() != Json::Type::kNumber || v->number_or(-1) < 0)
      return fail(path, "perturb extra missing a non-negative jitter field");
  }
  const Json* ok = perturb.find("baseline_ok");
  if (!ok || ok->type() != Json::Type::kBool)
    return fail(path, "perturb extra missing baseline_ok bool");
  if (ok->bool_or(false)) {
    const Json* base = perturb.find("baseline_accuracy");
    if (!base || base->type() != Json::Type::kNumber ||
        base->number_or(-1) < 0 || base->number_or(2) > 1)
      return fail(path, "perturb baseline_accuracy outside [0, 1]");
    const Json* delta = perturb.find("accuracy_delta");
    if (!delta || delta->type() != Json::Type::kNumber ||
        delta->number_or(-2) < -1 || delta->number_or(2) > 1)
      return fail(path, "perturb accuracy_delta outside [-1, 1]");
  }
  return true;
}

/// Per-cell `trace` object (counter deltas attributed to the cell).
bool check_cell_trace(const char* path, const Json& cell_trace) {
  if (!cell_trace.is_object()) return fail(path, "cell trace is not an object");
  const Json* counters = cell_trace.find("counters");
  if (!counters || !counters->is_array())
    return fail(path, "cell trace missing counters array");
  for (const Json& c : counters->items()) {
    const Json* name = c.find("name");
    if (!name || name->string_or("").empty())
      return fail(path, "cell trace counter missing name");
    const Json* delta = c.find("delta");
    if (!delta || delta->type() != Json::Type::kNumber ||
        delta->number_or(-1) < 0)
      return fail(path, "cell trace counter missing non-negative numeric delta");
  }
  return true;
}

bool check(const char* path) {
  std::string text;
  if (!load(path, text)) return false;

  auto doc = Json::parse(text);
  if (!doc) return fail(path, "not valid JSON");
  if (!doc->is_object()) return fail(path, "top level is not an object");

  const Json* schema = doc->find("schema_version");
  if (!schema || schema->number_or(0) < 1)
    return fail(path, "missing schema_version");
  const bool v2 = schema->number_or(0) >= 2;
  const bool v4 = schema->number_or(0) >= 4;
  const Json* bench = doc->find("bench");
  if (!bench || bench->string_or("").empty()) return fail(path, "missing bench");

  const Json* health = doc->find("health");
  if (!health || !health->is_object()) return fail(path, "missing health object");
  const Json* cells = doc->find("cells");
  if (!cells || !cells->is_array()) return fail(path, "missing cells array");

  if (v2) {
    // Schema 2: the run's parallel-substrate configuration must be
    // attributable — compute-pool width and cell-level concurrency.
    const Json* config = doc->find("config");
    if (!config || !config->is_object()) return fail(path, "missing config object");
    const Json* threads = config->find("threads");
    if (!threads || threads->number_or(0) < 1)
      return fail(path, "config.threads missing or < 1");
    const Json* par = config->find("parallel_cells");
    if (!par || par->number_or(0) < 1)
      return fail(path, "config.parallel_cells missing or < 1");
  }

  if (v4) {
    // Schema 4 is only written when tracing was active, so the trace
    // section is mandatory, not optional.
    const Json* trace = doc->find("trace");
    if (!trace) return fail(path, "schema 4 missing trace section");
    if (!check_trace_section(path, *trace)) return false;
  } else if (doc->find("trace")) {
    return fail(path, "trace section present but schema_version < 4");
  }

  std::size_t declared =
      static_cast<std::size_t>(health->find("cells")
                                   ? health->find("cells")->number_or(0)
                                   : 0);
  if (declared != cells->items().size())
    return fail(path, "health.cells disagrees with cells[] length");

  for (const Json& cell : cells->items()) {
    const Json* status = cell.find("status");
    if (!status) return fail(path, "cell missing status");
    const std::string& s = status->string_or("");
    if (s == "ok") {
      if (!cell.find("summary")) return fail(path, "ok cell missing summary");
    } else if (s == "failed") {
      if (!cell.find("error")) return fail(path, "failed cell missing error");
    } else {
      return fail(path, "cell status is neither ok nor failed");
    }
    if (v2) {
      const Json* wall = cell.find("wall_seconds");
      if (!wall || wall->type() != Json::Type::kNumber || wall->number_or(-1) < 0)
        return fail(path, "cell missing non-negative wall_seconds");
    }
    if (const Json* cell_trace = cell.find("trace")) {
      if (!v4) return fail(path, "cell trace present but schema_version < 4");
      if (!check_cell_trace(path, *cell_trace)) return false;
    }
    if (const Json* summary = cell.find("summary")) {
      const Json* extra = summary->find("extra");
      if (const Json* ooc = extra ? extra->find("ooc") : nullptr)
        if (!check_ooc_section(path, *ooc)) return false;
      if (const Json* drift = extra ? extra->find("drift") : nullptr)
        if (!check_drift_section(path, *drift)) return false;
      if (const Json* curve = extra ? extra->find("drift_curve") : nullptr)
        if (!check_drift_curve_section(path, *curve)) return false;
      if (const Json* perturb = extra ? extra->find("perturb") : nullptr)
        if (!check_perturb_section(path, *perturb)) return false;
    }
  }
  return true;
}

/// Chrome trace_event dumps (`--trace <path>`): the {traceEvents: [...]}
/// wrapper with at least one complete ("X") event, every event carrying
/// the fields chrome://tracing / Perfetto require to place it.
bool check_chrome(const char* path) {
  std::string text;
  if (!load(path, text)) return false;
  auto doc = Json::parse(text);
  if (!doc) return fail(path, "not valid JSON");
  if (!doc->is_object()) return fail(path, "top level is not an object");
  const Json* events = doc->find("traceEvents");
  if (!events || !events->is_array())
    return fail(path, "missing traceEvents array");
  std::size_t complete = 0;
  for (const Json& e : events->items()) {
    if (!e.is_object()) return fail(path, "trace event is not an object");
    const Json* name = e.find("name");
    if (!name || name->string_or("").empty())
      return fail(path, "trace event missing name");
    const Json* ph = e.find("ph");
    const std::string& phase = ph ? ph->string_or("") : "";
    if (phase.empty()) return fail(path, "trace event missing ph");
    for (const char* field : {"pid", "tid"}) {
      const Json* v = e.find(field);
      if (!v || v->type() != Json::Type::kNumber)
        return fail(path, "trace event missing numeric pid/tid");
    }
    if (phase == "X") {
      ++complete;
      for (const char* field : {"ts", "dur"}) {
        const Json* v = e.find(field);
        if (!v || v->type() != Json::Type::kNumber || v->number_or(-1) < 0)
          return fail(path, "complete event missing non-negative ts/dur");
      }
    }
  }
  if (complete == 0) return fail(path, "no complete (ph=X) events");
  return true;
}

bool normalize_file(const char* path, std::string& out) {
  std::string text;
  if (!load(path, text)) return false;
  auto doc = Json::parse(text);
  if (!doc) return fail(path, "not valid JSON");
  out = normalize(*doc).dump(2);
  out += '\n';
  return true;
}

bool check_golden(const char* artifact, const char* golden) {
  std::string got, want;
  if (!normalize_file(artifact, got)) return false;
  // The golden file is stored already normalized, but normalize it again so
  // regenerating it from a raw artifact also works.
  if (!normalize_file(golden, want)) return false;
  if (got == want) return true;
  // Point at the first differing line so a drifted golden is debuggable.
  std::istringstream a(got), b(want);
  std::string la, lb;
  std::size_t line = 0;
  while (true) {
    ++line;
    const bool ea = !std::getline(a, la);
    const bool eb = !std::getline(b, lb);
    if (ea && eb) break;
    if (ea != eb || la != lb) {
      std::fprintf(stderr,
                   "json_check: %s: normalized artifact diverges from golden "
                   "%s at line %zu\n  artifact: %s\n  golden:   %s\n",
                   artifact, golden, line, ea ? "<eof>" : la.c_str(),
                   eb ? "<eof>" : lb.c_str());
      return false;
    }
  }
  return false;  // unreachable: equal streams imply got == want
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--chrome") == 0) {
    if (!check_chrome(argv[2])) return 1;
    std::printf("json_check: %s ok (chrome trace)\n", argv[2]);
    return 0;
  }
  if (argc == 3 && std::strcmp(argv[1], "--normalize") == 0) {
    std::string out;
    if (!normalize_file(argv[2], out)) return 1;
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }
  if (argc == 4 && std::strcmp(argv[1], "--golden") == 0) {
    if (!check_golden(argv[2], argv[3])) return 1;
    std::printf("json_check: %s matches golden %s\n", argv[2], argv[3]);
    return 0;
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: json_check <BENCH_artifact.json>\n"
                 "       json_check --chrome <trace.json>\n"
                 "       json_check --normalize <artifact.json>\n"
                 "       json_check --golden <artifact.json> <golden.json>\n");
    return 2;
  }
  if (!check(argv[1])) return 1;
  std::printf("json_check: %s ok\n", argv[1]);
  return 0;
}
