// Umbrella header: everything a downstream user of the Seer library needs.
//
//   #include "seer/seer.hpp"
//
//   * run transactions on real threads:   rt::ThreadedExecutor (+ htm::SoftHtm)
//   * pick a scheduling policy:           rt::PolicyConfig / rt::PolicyKind
//   * inspect what Seer inferred:         core::SeerScheduler
//   * evaluate policies in simulation:    sim::Machine + workload::find
#pragma once

#include "core/seer_scheduler.hpp"
#include "htm/abort_code.hpp"
#include "htm/soft_htm.hpp"
#include "runtime/policies.hpp"
#include "runtime/threaded_executor.hpp"
#include "sim/machine.hpp"
#include "workload/registry.hpp"
