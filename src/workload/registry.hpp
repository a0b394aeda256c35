// Name → generator registry with a JSON config front-end.
//
// Every workload the harnesses can run is registered here under a name:
// the eight compiled-in STAMP stand-ins (stamp/workloads.hpp's specs), plus
// the data-driven generators ("spec", "phased", "bst", "trace-replay"). A
// `--workload` argument is either a registered NAME or a FILE.json config:
//
//   {
//     "generator": "phased",        // registry name (required)
//     "name": "cross-shift",        // display name (optional)
//     "txs_per_thread": 2000,       // bench default (optional)
//     "params": { ... }             // generator-specific (optional)
//   }
//
// A raw instance-trace file (trace.hpp's format — it has "version" and
// "threads" instead of "generator") is also accepted and wraps itself in a
// trace-replay generator. An optional top-level "open_loop" object describes
// open-loop traffic over the generator (arrival rate/process, diurnal curve,
// bursts, admission-queue bound — open_loop.hpp documents the schema); it is
// validated here like everything else but only tools/seer_serve consumes it,
// the closed-loop bench harnesses ignore it. An optional top-level
// "topology" object pins the machine shape (sockets x cores_per_socket x
// smt_per_core — core/topology.hpp) for harnesses that build one, again
// validated here. All validation happens at
// config-parse time: unknown names, missing/mistyped fields, and
// out-of-range values throw ConfigError naming the bad key, which the CLIs
// print and exit non-zero.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/topology.hpp"
#include "util/json.hpp"
#include "workload/generator.hpp"
#include "workload/open_loop.hpp"

namespace seer::workload {

// A resolved workload: everything a harness needs to build and label runs.
// `make` may be called many times (one generator per run/cell).
struct Desc {
  std::string name;
  std::uint64_t bench_txs_per_thread = 4000;
  std::function<std::unique_ptr<Generator>(std::size_t n_threads)> make;
  // The config's "open_loop" section; null when absent (every registered
  // NAME, and any config without one). seer_serve requires it.
  std::shared_ptr<const OpenLoopConfig> open_loop;
  // The config's "topology" section (sockets x cores_per_socket x
  // smt_per_core); null when absent = the harness's flat default. An
  // optional "physical_cores" key inside the section is a cross-check
  // only — a value disagreeing with the shape is a ConfigError, never a
  // silent override.
  std::shared_ptr<const core::Topology> topology;

  Desc() = default;
  Desc(std::string n, std::uint64_t txs,
       std::function<std::unique_ptr<Generator>(std::size_t)> m)
      : name(std::move(n)), bench_txs_per_thread(txs), make(std::move(m)) {}
};

// Resolves a registered NAME with empty params. Throws ConfigError listing
// the known names for an unknown one.
[[nodiscard]] Desc find(const std::string& name);

// Parses and validates a config (or raw instance-trace) file / DOM.
[[nodiscard]] Desc from_config(const std::string& path);
[[nodiscard]] Desc from_config_json(const util::json::Value& doc,
                                    const std::string& origin);

// `--workload` semantics: *.json → from_config, anything else → find.
[[nodiscard]] Desc resolve(const std::string& name_or_path);

// The eight STAMP registry names, in the paper's presentation order — what
// the bench harness sweeps when no --workload is given.
[[nodiscard]] const std::vector<std::string>& stamp_names();

}  // namespace seer::workload
