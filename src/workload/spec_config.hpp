// JSON → stamp::WorkloadSpec.
//
// The declarative geometry the compiled-in STAMP stand-ins are written in
// (stamp/spec.hpp) becomes expressible as data: regions, transaction types
// with per-region access counts, and phase mixes. Used by the "spec"
// generator directly and by "phased" for each of its regimes (registry.hpp
// documents the enclosing config schema; DESIGN.md §11 shows a full
// example).
#pragma once

#include <string>

#include "stamp/spec.hpp"
#include "util/json.hpp"

namespace seer::workload {

// Parses one spec object. `origin` prefixes every diagnostic (e.g.
// "params.phases[0].spec"); `default_name` applies when the object carries
// no "name". Throws ConfigError naming the bad key on any violation.
[[nodiscard]] stamp::WorkloadSpec spec_from_json(const util::json::Value& obj,
                                                 const std::string& origin,
                                                 const std::string& default_name);

// Throws ConfigError when `spec` lays out more than 2^32 lines at
// `n_threads` threads: past that, 32-bit line ids would wrap into another
// region's range and conflict with lines the spec never shares.
// spec_from_json checks one thread; generators built for more threads
// check again with their real count.
void check_line_space(const stamp::WorkloadSpec& spec, std::size_t n_threads,
                      const std::string& origin);

}  // namespace seer::workload
