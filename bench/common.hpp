// Shared harness for the paper-reproduction benchmarks.
//
// Each bench binary regenerates one exhibit of the paper's evaluation
// (Figure 3, Table 3, Figure 4, Figure 5). Runs are averaged over several
// seeds (the paper averages 20 hardware runs; the simulator is deterministic
// per seed so a handful suffices — override with --runs).
//
// Every exhibit is expressed as a flat list of independent configuration
// cells (bench/runner.hpp) fanned out across a thread pool: --jobs controls
// the worker count (default: all hardware threads) and NEVER changes the
// output, because each cell is deterministic and printing happens after the
// whole sweep, in cell order.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workload/registry.hpp"

namespace seer::bench {

struct Options {
  int runs = 2;             // seeds per configuration (simulator runs are
                            // deterministic; raise for tighter averages)
  double txs_scale = 0.5;   // fraction of each workload's bench_txs_per_thread
  std::uint64_t base_seed = 1000;
  int jobs = 0;             // simulator runs in flight; 0 = hardware threads
  std::string json_path;    // per-config machine-readable results (--json)
  std::string metrics_path; // per-run MetricsRegistry snapshots (--metrics)
  std::string trace_path;   // Chrome trace_event JSON of cell 0 (--trace)
  std::string snapshots_path;  // per-run flight-recorder dumps (--snapshots)
  std::string record_path;     // instance-trace capture of cell 0 (--record)
  std::vector<std::string> workloads;  // names or *.json configs; empty = all eight

  // Accepted flag ranges. --jobs 0 means "every hardware thread"; a scale
  // is positive (each run is floored at 200 transactions per thread).
  static constexpr int kMaxRuns = 10000;
  static constexpr int kMaxJobs = 1024;
  static constexpr double kMinTxsScale = 1e-6;
  static constexpr double kMaxTxsScale = 1000.0;

  static Options parse(int argc, char** argv) {
    using util::cli::parse_flag;
    Options o;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--runs") {
        o.runs = parse_flag(arg, next(), 1, kMaxRuns);
      } else if (arg == "--txs-scale") {
        o.txs_scale = parse_flag(arg, next(), kMinTxsScale, kMaxTxsScale);
      } else if (arg == "--seed") {
        o.base_seed = parse_flag<std::uint64_t>(arg, next(), 0, UINT64_MAX);
      } else if (arg == "--jobs") {
        o.jobs = parse_flag(arg, next(), 0, kMaxJobs);
      } else if (arg == "--json") {
        o.json_path = next();
      } else if (arg == "--metrics") {
        o.metrics_path = next();
      } else if (arg == "--trace") {
        o.trace_path = next();
      } else if (arg == "--snapshots") {
        o.snapshots_path = next();
      } else if (arg == "--record") {
        o.record_path = next();
      } else if (arg == "--workload") {
        o.workloads.push_back(next());
      } else if (arg == "--help" || arg == "-h") {
        std::printf(
            "options: --runs N  --txs-scale F  --seed S  --jobs N  "
            "--json PATH  --metrics PATH  --trace PATH  --snapshots PATH  "
            "--record PATH  --workload NAME|FILE.json (repeatable)\n");
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown option %s\n", arg.c_str());
        std::exit(2);
      }
    }
    return o;
  }

  // Worker threads for the sweep: --jobs if given, else every hardware
  // thread (the simulator is single-threaded, so cells pack one per core).
  [[nodiscard]] std::size_t effective_jobs() const {
    return jobs > 0 ? static_cast<std::size_t>(jobs) : util::hardware_jobs();
  }

  // Resolves --workload arguments through the generator registry: each is a
  // registered NAME or a FILE.json config; no arguments selects the eight
  // STAMP workloads in the paper's presentation order. A bad name or config
  // is a CLI usage error: diagnostic on stderr, exit 2 (same contract as
  // parse()).
  [[nodiscard]] std::vector<workload::Desc> selected() const {
    std::vector<workload::Desc> out;
    try {
      if (workloads.empty()) {
        for (const auto& name : workload::stamp_names()) {
          out.push_back(workload::find(name));
        }
      } else {
        for (const auto& w : workloads) {
          out.push_back(workload::resolve(w));
        }
      }
    } catch (const workload::ConfigError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
    return out;
  }
};

// Seed-averaged summary of one (workload, policy, threads) configuration.
struct Summary {
  double speedup = 0.0;
  double sgl_fraction = 0.0;
  double aux_fraction = 0.0;
  double sched_fraction = 0.0;
  double tx_fraction = 0.0;
  double core_fraction = 0.0;
  double tx_core_fraction = 0.0;
  double no_lock_fraction = 0.0;
  double aborts_per_commit = 0.0;
  double capacity_aborts = 0.0;
  // §5.2 census (Seer only): median fraction of tx locks per acquisition
  // and the share of acquisitions taking under 23% of the available locks.
  double txlock_median_fraction = 0.0;
  double txlock_under_23pct = 0.0;
};

inline rt::PolicyConfig policy_of(rt::PolicyKind kind) {
  rt::PolicyConfig cfg;
  cfg.kind = kind;
  return cfg;
}

// Seer with a subset of mechanisms (Figure 4 / Figure 5 variants).
inline rt::PolicyConfig seer_variant(bool tx_locks, bool core_locks,
                                     bool htm_acquire, bool hill_climbing) {
  rt::PolicyConfig cfg;
  cfg.kind = rt::PolicyKind::kSeer;
  cfg.seer.enable_tx_locks = tx_locks;
  cfg.seer.enable_core_locks = core_locks;
  cfg.seer.enable_htm_lock_acquire = htm_acquire;
  cfg.seer.enable_hill_climbing = hill_climbing;
  return cfg;
}

}  // namespace seer::bench
