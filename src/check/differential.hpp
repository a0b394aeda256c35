// Cross-backend differential harness for the SeerScheduler.
//
// Both drivers — the discrete-event simulator and the real-threads executor
// — talk to the scheduler through the same five calls (seer_scheduler.hpp),
// so the scheduler's decisions must be a pure function of the event stream
// it is fed: same trace in, same lock schemes and hill-climber moves out,
// regardless of which backend produced the trace. This harness makes that
// contract executable three ways:
//
//   * capture: a SchedulerTraceSink recording the live event stream and
//     every rebuild decision (scheme rows + thresholds) of a running
//     backend;
//   * replay: feed a captured or synthetic stream into a freshly
//     constructed scheduler and collect the decisions it takes;
//   * diff: report the first divergence between two decision streams.
//
// Live-capture-equals-replay holds for deterministically driven runs (the
// simulator, or a single-thread round-robin over executor handles); under
// free-running threads the recorder still yields *a* consistent
// interleaving, but the racy slab merge at rebuild time may have seen a
// different prefix than the recorded order.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/seer_scheduler.hpp"

namespace seer::check {

// One rebuild's outcome: the thresholds in force and the inferred scheme.
struct SchedDecision {
  std::uint64_t rebuild = 0;
  core::InferenceParams params{};
  std::vector<std::vector<core::TxTypeId>> rows;

  friend bool operator==(const SchedDecision& a, const SchedDecision& b) {
    return a.rebuild == b.rebuild && a.params.th1 == b.params.th1 &&
           a.params.th2 == b.params.th2 && a.rows == b.rows;
  }
};

// Mutex-guarded recorder, installable on a live scheduler.
class SchedTraceRecorder final : public core::SchedulerTraceSink {
 public:
  void on_event(const core::SchedEvent& e) noexcept override;
  void on_rebuild(std::uint64_t rebuild_index, const core::InferenceParams& params,
                  const core::LockScheme& scheme) noexcept override;

  [[nodiscard]] std::vector<core::SchedEvent> events() const;
  [[nodiscard]] std::vector<SchedDecision> decisions() const;

 private:
  mutable std::mutex mu_;
  std::vector<core::SchedEvent> events_;
  std::vector<SchedDecision> decisions_;
};

// Replays `events` into `sched` (freshly constructed, same SeerConfig as
// the capture) and returns the decisions it takes. Restores the scheduler's
// previous trace sink before returning.
[[nodiscard]] std::vector<SchedDecision> replay_trace(
    core::SeerScheduler& sched, const std::vector<core::SchedEvent>& events);

// Deterministic synthetic trace: `n_transactions` plausible transaction
// lifecycles (announce → aborts* → commit-or-fallback → clear) interleaved
// across threads by a seeded RNG, with designated-thread maintenance calls
// on an advancing clock. The same (seed, shape) always yields the same
// trace, so it can be fed to scheduler instances owned by different
// backends and their decisions compared.
[[nodiscard]] std::vector<core::SchedEvent> make_synthetic_trace(
    std::uint64_t seed, std::size_t n_threads, std::size_t n_types,
    std::size_t n_transactions);

// "" when identical; otherwise a human-readable first divergence.
[[nodiscard]] std::string diff_decisions(const std::vector<SchedDecision>& a,
                                         const std::vector<SchedDecision>& b);

}  // namespace seer::check
