// The STAMP benchmark stand-ins (Minh et al., IISWC'08), modelled as
// workload specs for the machine simulator.
//
// The paper evaluates on the standard STAMP suite minus Bayes
// (non-deterministic) and Labyrinth (transactions exceed TSX capacity) —
// the same eight configurations reproduced here:
//   genome, intruder, kmeans-high, kmeans-low, ssca2 (kernel only),
//   vacation-high, vacation-low, yada.
//
// Each spec encodes the benchmark's *transactional geometry* — which atomic
// blocks exist, how long they run, which shared structures they touch and
// how hot those are — calibrated so the per-type conflict and capacity
// behaviour matches the qualitative characterization in the STAMP paper and
// the numbers reported in the Seer paper's evaluation (Figure 3, Table 3).
// The rationale for each parameter choice is documented inline in
// workloads.cpp; the resulting paper-vs-measured comparison lives in
// EXPERIMENTS.md.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "stamp/spec.hpp"

namespace seer::stamp {

[[nodiscard]] WorkloadSpec genome_spec();
[[nodiscard]] WorkloadSpec intruder_spec();
[[nodiscard]] WorkloadSpec kmeans_high_spec();
[[nodiscard]] WorkloadSpec kmeans_low_spec();
[[nodiscard]] WorkloadSpec ssca2_spec();
[[nodiscard]] WorkloadSpec vacation_high_spec();
[[nodiscard]] WorkloadSpec vacation_low_spec();
[[nodiscard]] WorkloadSpec yada_spec();

struct WorkloadInfo {
  std::string name;
  std::function<WorkloadSpec()> spec;
  // Transactions per thread used by the benchmark harnesses (scaled per
  // workload so every benchmark simulates a comparable cycle volume).
  std::uint64_t bench_txs_per_thread;
};

// The eight benchmarks, in the paper's presentation order (Figure 3 a-h).
// Harnesses build them through the workload registry (workload::find).
[[nodiscard]] const std::vector<WorkloadInfo>& all_workloads();

}  // namespace seer::stamp
