// Out-of-core scenario runner: the full trafficgen → clean → split →
// featurize → quantize → fit → evaluate pipeline executed entirely through
// SUGC stores, so the working set is one row group per stage plus the
// bounded page cache — never the dataset. This is the engine behind
// `bench_table8_shallow --scale <packets>`: the same shallow-baseline
// claim as Table 8, demonstrated at dataset sizes 10–100× the cache
// budget with flat peak RSS.
//
// Stages (each a streaming pass over stores on disk):
//   1. generate + clean — trafficgen chunks, each cleaned by the resident
//                  rule (dataset::clean_trace with the paper's default
//                  filter, then dataset::make_task_dataset for VPN-app),
//                  appended to a packet store (bytes, ts, cls, flow
//                  columns). Flow ids are each chunk's canonical dense ids,
//                  offset by the flows of the chunks already written.
//   2. split     — one pass over the flow column gathers per-flow sizes
//                  and labels (O(flows) memory); dataset::split_flows, the
//                  rule split_dataset applies, assigns each flow a side
//   3. featurize — header features (Table 12) routed by flow side to
//                  train/test F32 feature stores
//   4. quantize  — two-pass ColumnSketch over the train store (pass 1
//                  cuts, pass 2 codes) into a U8 code store — bit-identical
//                  to what BinnedMatrix would produce on the resident data
//   5. fit       — RandomForest::fit_binned over a PagedCodeSource
//   6. evaluate  — streamed per-row prediction on the test store
//
// Determinism: every stage is sequential in row order or delegates to the
// one-feature-per-worker parallel contracts, so the result digest is a
// pure function of (scale, seed) at any SUGAR_THREADS, page-cache budget
// or group size — and equal to the resident pipeline's on the same chunks
// (OocPipeline.DigestMatchesResidentStages).
#pragma once

#include <cstdint>
#include <string>

#include "core/artifact.h"
#include "ml/forest.h"
#include "trafficgen/datasets.h"

namespace sugar::core {

struct OocOptions {
  /// Directory for the intermediate store files (created by the caller).
  std::string dir;
  /// Stop generating once the packet store holds at least this many
  /// (cleaned) rows.
  std::uint64_t target_packets = 200000;
  std::uint64_t seed = 5;
  /// Rows per store page group — the page-size knob.
  std::size_t group_rows = 65536;
};

/// The generator settings of the run's `chunk`-th trace (ISCX-VPN analog).
trafficgen::GenOptions ooc_chunk_options(std::uint64_t seed, std::int32_t chunk);

/// The forest every run fits (its `tree.histogram_bins` is also the
/// quantizer's bin count).
ml::ForestConfig ooc_forest_config(std::uint64_t seed);

struct OocResult {
  /// Deterministic fingerprint of the test-set predictions.
  std::uint64_t digest = 0;
  /// Artifact payload: rows per stage, accuracy/macro-F1, rows/s, cache
  /// hit rate, peak RSS, total store bytes, per-stage seconds.
  Json json = Json::object();
};

/// Runs the pipeline. Throws core::RunError on store I/O failures or an
/// empty train/test partition.
OocResult run_ooc_scale(const OocOptions& opts);

}  // namespace sugar::core
