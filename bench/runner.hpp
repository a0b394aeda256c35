// Parallel evaluation runner.
//
// An exhibit (Figure 3, Table 3, ...) is a flat vector of Cells — one per
// (workload, policy, thread-count) configuration. run_cells() fans them out
// across a worker pool and returns results indexed exactly like the input,
// so the printing code that follows is oblivious to how many workers ran.
// Determinism argument: a cell's result depends only on (cell, Options) —
// every simulator run builds its own Machine/PolicyShared/Workload from a
// fixed seed and shares nothing mutable — so the result vector, and hence
// the exhibit's output, is byte-identical for any --jobs value.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "workload/trace.hpp"

namespace seer::bench {

struct Cell {
  // Any registered generator (workload::find / resolve, or a Desc built
  // from a spec, as fig4's hashmap cell does).
  workload::Desc info;
  rt::PolicyConfig policy;
  std::size_t threads = 8;
  // Label used in --json output; defaults to to_string(policy.kind) when
  // empty (variants like "Seer-profile-only" override it).
  std::string policy_label;
};

// One simulator run (one seed) of one cell — the unit of the --json output.
struct RunRecord {
  std::uint64_t seed = 0;
  double speedup = 0.0;
  std::uint64_t commits = 0;
  std::uint64_t makespan = 0;           // simulated cycles
  double commits_per_mcycle = 0.0;      // commit throughput (per 1e6 cycles)
  std::array<std::uint64_t, 4> aborts_by_cause{};  // indexed by AbortCause
  // MetricsRegistry snapshot of this run as a JSON object (--metrics only;
  // empty otherwise). Deterministic per (cell, seed): the simulator is
  // single-threaded and registration order is fixed, so the --metrics file
  // is byte-identical for any --jobs value.
  std::string metrics;
  // Model-introspection dump of this run as JSON fragments (--snapshots
  // only; empty otherwise). Deterministic per (cell, seed) by the same
  // argument as `metrics`: the per-run FlightRecorder is private to the
  // run and fed only from the single-threaded simulator.
  std::string flight;        // FlightRecorder::to_json() object
  std::string ground_truth;  // {"n_types": N, "conflicts": [{x,y,count}...]}
  std::string final_scheme;  // locksToAcquire rows as a JSON array
  std::string final_params;  // {"th1": ..., "th2": ...}
};

struct CellResult {
  Summary summary;
  std::vector<RunRecord> runs;  // in seed order
};

// Runs one configuration over opts.runs seeds — the serial kernel. When
// `trace` is non-null the first seed's run records trace events into it
// (the sink's lane count must cover cell.threads). When `record` is
// non-null the first seed's workload stream is captured into it as an
// instance trace (replayable via the "trace-replay" generator).
[[nodiscard]] CellResult run_cell(const Cell& cell, const Options& opts,
                                  obs::TraceSink* trace = nullptr,
                                  workload::InstanceTrace* record = nullptr);

// Runs every cell across opts.effective_jobs() workers; result i belongs to
// cells[i]. Exceptions from a cell propagate (lowest index first). With
// --trace, cell 0's first seed is traced and the Chrome JSON is written to
// opts.trace_path before returning; with --record, cell 0's first seed's
// instance stream is written to opts.record_path the same way.
[[nodiscard]] std::vector<CellResult> run_cells(const std::vector<Cell>& cells,
                                                const Options& opts);

// One-off convenience used by tests and ad-hoc probes.
[[nodiscard]] Summary run_config(const workload::Desc& info,
                                 const Options& opts, rt::PolicyConfig policy,
                                 std::size_t threads);

// Writes every requested exhibit file, each a no-op when its path is empty.
// All three share one envelope (the harness parameters, then one record per
// (cell, seed) in cell order) and are byte-identical for any --jobs value:
//   opts.json_path       speedup, throughput and aborts per run — the
//                        format BENCH_*.json trajectories are tracked with;
//   opts.metrics_path    one MetricsRegistry snapshot per run;
//   opts.snapshots_path  one flight-recorder dump + simulator ground truth
//                        per run, the input of tools/seer_inspect (DESIGN.md
//                        §9); this envelope carries "version": 1.
void write_outputs(const std::string& exhibit, const std::vector<Cell>& cells,
                   const std::vector<CellResult>& results, const Options& opts);

}  // namespace seer::bench
