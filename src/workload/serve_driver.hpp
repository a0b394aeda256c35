// Open-loop serving harness (DESIGN.md §12): runs a registered generator as
// a long-lived transactional service and measures end-to-end latency.
//
// Where threaded_driver answers "how fast can N threads push transactions
// through", this driver answers the service operator's question: at a given
// *offered* load, what latency do requests see, how deep does the admission
// queue get, and when does the system saturate? Per rate step it:
//
//   producer ──MpmcQueue──▶ workers(ThreadedExecutor over SoftHtm)
//
// The producer paces arrivals from an ArrivalSchedule (constant or Poisson
// gaps, diurnal/burst modulation), stamps each request with its enqueue
// time, and *never blocks*: a full queue is a shed, counted as `rejected`.
// Workers pop, execute the instance via the shared run_instance body, and
// record (completion - enqueue) — queue wait included — into exact
// per-worker latency histograms. Requests that arrive during `warmup_s`
// carry counted=false and are executed but excluded from step statistics.
//
// Two backends run every rate step through one step loop, which owns the
// arrival schedule, all accounting and the JSONL formatting; an `interval`
// line lands exactly at each emit_interval_ms boundary of the window:
//
//   * real          — wall-clock arrivals, real threads, real SoftHtm
//                     transactions. The numbers are about this machine.
//   * deterministic — the same schedule and shed policy on sim::Machine's
//                     open-loop entry: simulated hardware threads serve the
//                     requests under the selected policy, with the
//                     footprint-overlap conflicts, capacity limits and cost
//                     model of the paper exhibits (cycles -> time via
//                     cycles_per_us). Output is a pure function of (config,
//                     policy, seed), byte-identical across runs and --jobs —
//                     which is what CI gates against a checked-in baseline.
//
// Output is JSONL: one header line, periodic `interval` lines (queue depth,
// rate, bucket-estimate p50/p99), one `step` line per rate with exact
// nearest-rank quantiles, and a `summary` line naming the saturation knee —
// the first swept rate whose p99 or rejected fraction crosses the config's
// criteria. scripts/process_serve_logs.py consumes exactly this stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "runtime/policies.hpp"
#include "workload/open_loop.hpp"
#include "workload/registry.hpp"

namespace seer::workload {

class ServeTelemetry;

struct ServeOptions {
  rt::PolicyConfig policy{};
  // 0 = config's `workers`. Both backends give each worker its own core
  // unless the config has a `topology`.
  std::size_t workers_override = 0;
  std::uint64_t seed = 1;
  bool deterministic = false;
  // Deterministic mode only: rate steps simulated concurrently. Output is
  // buffered per step and concatenated in step order, so any value produces
  // identical bytes. Ignored (steps are inherently serial) in real mode.
  std::size_t jobs = 1;
  double duration_override_s = 0.0;  // 0 = config; replaces duration_s
  double rate_override = 0.0;        // 0 = config; replaces rate AND sweep
  // Real mode: append per-interval counter deltas (rt./htm./seer. metrics)
  // to the interval JSONL lines. Deterministic mode ignores this so its
  // output cannot depend on SEER_OBS.
  bool emit_metrics = false;
  // Live telemetry hub (serve_telemetry.hpp), or nullptr for none. The
  // driver bumps its counters/gauges/heartbeats from both backends; feeding
  // it never changes the JSONL bytes, which is what keeps a --listen run
  // byte-identical to a plain one.
  ServeTelemetry* telemetry = nullptr;
  // Model flight recorder for the real backend's Seer scheduler, or nullptr
  // for none. Each real step's scheduler records into it and ends the step
  // with a kFinal capture. The deterministic backend ignores it so its
  // bytes cannot depend on observability wiring.
  obs::FlightRecorder* recorder = nullptr;
  // Cooperative stop (SIGINT/SIGTERM in seer_serve), or nullptr for none.
  // When it flips, in either backend: the running step stops producing and
  // writing interval lines, drains what it accepted, and finalizes
  // normally; remaining steps are skipped; the summary line gains
  // "interrupted": true. Already-emitted lines keep their usual shape, so
  // an interrupted log still parses.
  const std::atomic<bool>* stop = nullptr;
};

// Per-rate-step statistics. The counters span the whole step window (warmup
// included — both backends count identically); the latency fields cover only
// *counted* requests, those that arrived after warmup_s. Latencies are
// end-to-end nanoseconds from arrival to commit, queue wait included
// (simulated cycles converted via cycles_per_us in deterministic mode).
// Requests still queued when the step window closes are drained and their
// latencies kept — they arrived inside the window, so dropping them would
// censor the tail.
struct StepStats {
  double offered_rate = 0.0;  // base rate of this step (requests/second)
  double duration_s = 0.0;    // measured window (excludes warmup)
  std::uint64_t arrivals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;  // shed at the admission queue
  std::uint64_t completed = 0;
  double rejected_fraction = 0.0;  // rejected / arrivals
  double throughput_rps = 0.0;     // completed / duration_s
  std::uint64_t latency_count = 0;
  double latency_mean_ns = 0.0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p90_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t queue_depth_peak = 0;
  std::uint64_t sgl_commits = 0;  // counted commits via the SGL fallback
  double sgl_fraction = 0.0;      // sgl_commits / completed
};

struct ServeReport {
  std::vector<StepStats> steps;  // in sweep order
  // First swept rate crossing the config's knee criteria; 0 when the system
  // kept up through the whole sweep.
  double knee_rate = 0.0;
  bool saturated = false;
  bool interrupted = false;  // a ServeOptions::stop flip cut the sweep short
  std::string jsonl;  // the full log: header / interval* / step* / summary
};

// Serves every rate step of `ol` using `desc`'s generator. The Desc's own
// open_loop pointer is NOT consulted — callers pass the section explicitly
// so overrides stay visible at the call site. Throws ConfigError when the
// worker count (the config's or ServeOptions::workers_override) exceeds the
// hardware threads of the config's topology.
[[nodiscard]] ServeReport run_serve(const Desc& desc, const OpenLoopConfig& ol,
                                    const ServeOptions& opts);

}  // namespace seer::workload
