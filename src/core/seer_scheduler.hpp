// SeerScheduler — the façade tying together the active-transactions table,
// the per-thread statistics, the lock-scheme inference (Alg. 5) and the
// threshold self-tuning.
//
// This class is backend-agnostic: the threaded runtime (over SoftHtm) and
// the machine simulator both drive it through the same five calls:
//
//   announce / clear          — Alg. 1 line 5 / Alg. 2 line 32
//   record_abort / commit     — Alg. 3
//   maybe_update              — Alg. 4 lines 52-54 (designated thread only)
//
// and read scheduling decisions through `scheme()`.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/active_tx_table.hpp"
#include "core/conflict_stats.hpp"
#include "core/hill_climber.hpp"
#include "core/lock_scheme.hpp"
#include "core/storm_detector.hpp"
#include "core/types.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "util/cacheline.hpp"

namespace seer::core {

// Feature toggles for the Figure 4 / Figure 5 ablations, plus the paper's
// fixed constants. The thread and type counts are constructor arguments:
// every backend sets them from its own shape.
struct SeerConfig {
  // Mechanism toggles (§5.3: each is one cumulative variant of Figure 5).
  bool enable_tx_locks = true;        // fine-grained transaction locks
  bool enable_core_locks = true;      // capacity-driven per-core locks
  bool enable_htm_lock_acquire = true;  // batch lock acquisition inside HTM
  bool enable_hill_climbing = true;   // self-tune Th1/Th2

  // Scheme maintenance cadence, in transaction executions between rebuilds.
  // The paper rebuilds opportunistically while waiting on the SGL; we also
  // rebuild every `update_period` executions (DESIGN.md deviation #1).
  std::uint64_t update_period = 512;

  std::uint64_t seed = 1;

  // --- storm detection and online re-inference (DESIGN.md §14) -------------
  // Window abort rate that opens a storm; it closes at two thirds of this
  // (core/storm_detector.hpp). The flight recorder records these storms.
  double storm_enter = 0.90;
  // When enabled, maybe_update probes the storm detector every
  // max(StormDetector::kMinWindow, update_period / 8) executions — a finer
  // cadence than the rebuild period. Entering a storm forces an immediate
  // rebuild with a `storm_decay` down-weighting of accumulated history, so
  // re-inference runs on predominantly fresh evidence instead of waiting
  // out the rest of the update window.
  bool storm_response = false;
  // Multiplier applied to accumulated history on storm entry (0 = forget
  // everything, 1 = change nothing). Only meaningful with storm_response.
  double storm_decay = 0.25;
};

// The observability sinks a backend attaches (src/obs/, DESIGN.md §8). Each
// is optional and must outlive the scheduler; null disables it with one
// predicted branch per event, and SEER_OBS=OFF compiles the calls away.
struct SeerSinks {
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
  // Model flight recorder (src/obs/flight_recorder.hpp): handed the storm
  // verdict once per scheme rebuild on the maintenance path; when its
  // trigger fires the scheduler builds a full ModelSnapshot. Never consulted
  // on the per-event hot path.
  obs::FlightRecorder* recorder = nullptr;
  // Time each rebuild on the wall clock into `seer.rebuild.ns` (needs
  // `metrics`). A backend whose output must stay byte-identical leaves it
  // off; the histogram is registered either way, so the metric order never
  // depends on it.
  bool time_rebuilds = false;
};

// One scheduler-facing event, as a backend-agnostic value. The five calls
// the backends drive the scheduler with (announce/clear/record_abort/
// record_commit/maybe_update, plus the test-only force_update) map 1:1 onto
// the kinds, so a captured stream can be replayed verbatim into a fresh
// scheduler — the foundation of the cross-backend differential harness
// (src/check/differential.hpp).
struct SchedEvent {
  enum class Kind : std::uint8_t {
    kAnnounce,
    kClear,
    kAbort,
    kCommit,
    kMaybeUpdate,
    kForceUpdate,
  };
  Kind kind = Kind::kAnnounce;
  ThreadId thread = 0;
  TxTypeId tx = kNoTx;     // kAnnounce/kAbort/kCommit only
  std::uint64_t now = 0;   // kMaybeUpdate/kForceUpdate only

  friend constexpr bool operator==(const SchedEvent& a, const SchedEvent& b) noexcept {
    return a.kind == b.kind && a.thread == b.thread && a.tx == b.tx && a.now == b.now;
  }
};

// Opt-in observer of the scheduler's event stream and rebuild decisions.
// on_event fires before the call is processed; on_rebuild fires after a
// rebuild publishes its scheme. Calls arrive on whichever thread drove the
// scheduler — implementations used under real concurrency must synchronize
// internally, and live-capture-equals-replay holds only for runs driven by
// a single thread (the simulator, or a round-robin test driver).
class SchedulerTraceSink {
 public:
  virtual ~SchedulerTraceSink() = default;
  virtual void on_event(const SchedEvent& e) noexcept = 0;
  virtual void on_rebuild(std::uint64_t rebuild_index, const InferenceParams& params,
                          const LockScheme& scheme) noexcept = 0;
};

class SeerScheduler {
 public:
  SeerScheduler(const SeerConfig& cfg, std::size_t n_threads, std::size_t n_types,
                SeerSinks sinks = {});
  SeerScheduler(const SeerScheduler&) = delete;
  SeerScheduler& operator=(const SeerScheduler&) = delete;

  [[nodiscard]] const SeerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t n_threads() const noexcept { return slabs_.size(); }
  [[nodiscard]] std::size_t n_types() const noexcept { return merged_.n_types; }

  // --- hot path -----------------------------------------------------------
  void announce(ThreadId thread, TxTypeId tx) noexcept {
    if (trace_) trace_->on_event({SchedEvent::Kind::kAnnounce, thread, tx, 0});
    if (metrics_) metrics_->add(m_announces_, thread);
    active_.announce(thread, tx);
  }
  void clear(ThreadId thread) noexcept {
    if (trace_) trace_->on_event({SchedEvent::Kind::kClear, thread, kNoTx, 0});
    active_.clear(thread);
  }

  // The per-thread slab carries ALL the event bookkeeping (matrices,
  // executions, raw tallies) in one contiguous allocation: a record touches
  // only lines this thread owns — no shared execution counter, no separate
  // commit-count array. Aborts are executions too (Alg. 3 line 34): the
  // rebuild cadence advances even in fallback-heavy phases where commits
  // are scarce, otherwise the scheduler could never learn its way out of
  // them.
  void record_abort(ThreadId thread, TxTypeId tx) noexcept {
    if (trace_) trace_->on_event({SchedEvent::Kind::kAbort, thread, tx, 0});
    if (metrics_) metrics_->add(m_aborts_, thread);
    slabs_[thread]->record_abort(tx, thread, active_);
  }
  void record_commit(ThreadId thread, TxTypeId tx) noexcept {
    if (trace_) trace_->on_event({SchedEvent::Kind::kCommit, thread, tx, 0});
    if (metrics_) metrics_->add(m_commits_, thread);
    slabs_[thread]->record_commit(tx, thread, active_);
  }

  // Current locking scheme; lock-free snapshot (scheme swaps use the
  // indirection-pointer trick the paper describes).
  [[nodiscard]] std::shared_ptr<const LockScheme> scheme() const {
    return std::atomic_load_explicit(&scheme_, std::memory_order_acquire);
  }

  // SGL fallback feed (any thread; the fallback path is already slow),
  // bumped when the driver decides to fall back (SeerPolicy::on_fallback).
  // Snapshots report it.
  void note_sgl_fallback() noexcept {
    sgl_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sgl_fallbacks() const noexcept {
    return sgl_fallbacks_.load(std::memory_order_relaxed);
  }

  // --- maintenance (designated thread) -------------------------------------
  // Rebuilds the scheme if `update_period` executions elapsed since the last
  // rebuild, and feeds the hill climber every few rebuilds. `now` is a
  // monotonic timestamp in arbitrary units (simulated cycles or rdtsc ticks)
  // used to turn commit counts into throughput. Only the designated thread
  // (0) may call this; returns true if a rebuild happened.
  bool maybe_update(ThreadId thread, std::uint64_t now);

  // Unconditional rebuild (tests, and the SGL-wait trigger).
  void force_update(std::uint64_t now);

  // --- check-harness instrumentation (src/check/) ---------------------------
  // Installs an event/decision observer; nullptr disables. Install before
  // any thread drives the scheduler and remove only after they stop.
  void set_trace_sink(SchedulerTraceSink* sink) noexcept { trace_ = sink; }

  // --- introspection --------------------------------------------------------
  [[nodiscard]] InferenceParams params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t rebuild_count() const noexcept { return rebuilds_; }
  [[nodiscard]] std::uint64_t tuning_epochs() const noexcept { return climber_.epochs(); }
  [[nodiscard]] const ActiveTxTable& active_table() const noexcept { return active_; }
  [[nodiscard]] GlobalStats merged_stats() const;
  [[nodiscard]] std::uint64_t total_commits() const noexcept;
  [[nodiscard]] std::uint64_t executions_seen() const noexcept;
  // Storm entries that forced a re-inference (storm_response only).
  [[nodiscard]] std::uint64_t storm_entries() const noexcept {
    return storm_entries_;
  }

  // Captures the full probabilistic model — merged matrices, thresholds,
  // climber state, active scheme — as a ModelSnapshot. Maintenance-path
  // cost (one slab merge + scheme copy); called for retained flight-recorder
  // captures and end-of-run dumps, never per transaction.
  [[nodiscard]] obs::ModelSnapshot make_model_snapshot(std::uint64_t now) const;

 private:
  void rebuild(std::uint64_t now);
  // The one merge (Alg. 5 prologue): zeroes `out`, then adds every slab.
  void merge_slabs(GlobalStats& out) const noexcept;

  SeerConfig cfg_;
  ActiveTxTable active_;
  std::vector<std::unique_ptr<ThreadStats>> slabs_;
  SchedulerTraceSink* trace_ = nullptr;

  // Observability sinks (dormant when null).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceSink* obs_trace_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  bool time_rebuilds_ = false;
  obs::MetricId m_announces_ = obs::kNoMetric;
  obs::MetricId m_aborts_ = obs::kNoMetric;
  obs::MetricId m_commits_ = obs::kNoMetric;
  obs::MetricId m_rebuilds_ = obs::kNoMetric;
  obs::MetricId m_climber_steps_ = obs::kNoMetric;
  obs::MetricId h_scheme_edges_ = obs::kNoMetric;
  obs::MetricId h_rebuild_ns_ = obs::kNoMetric;

  std::shared_ptr<const LockScheme> scheme_;
  InferenceParams params_;
  HillClimber climber_;

  // Rebuild scratch, sized once in the constructor and reused every period
  // (the maintenance path is allocation-free apart from the scheme object
  // it publishes): the merged lifetime totals, minus the storm discount once
  // one is active — exactly what the inference reads.
  GlobalStats merged_;
  // Storm state: the one detector, and for online re-inference
  // (storm_response) the discount subtracted from the merged lifetime totals
  // to realize storm-entry decay without touching the monotonic counters.
  StormDetector storm_;
  std::atomic<std::uint64_t> sgl_fallbacks_{0};
  std::uint64_t storm_entries_ = 0;
  std::uint64_t storm_probe_base_ = 0;  // executions at the last probe
  GlobalStats discount_;
  bool discount_active_ = false;

  std::uint64_t executions_at_last_rebuild_ = 0;
  std::uint64_t rebuilds_ = 0;
  // Hill-climber epoch length, in scheme rebuilds per tuning step.
  static constexpr std::uint64_t kRebuildsPerTuningEpoch = 2;
  std::uint64_t rebuilds_at_last_epoch_ = 0;
  std::uint64_t commits_at_last_epoch_ = 0;
  std::uint64_t time_at_last_epoch_ = 0;
  bool epoch_clock_started_ = false;
};

}  // namespace seer::core
