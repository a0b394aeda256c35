// Machine — a deterministic discrete-event simulator of a best-effort HTM
// multiprocessor, standing in for the paper's TSX-enabled Haswell testbed
// (DESIGN.md §1 explains the substitution).
//
// Modelled hardware:
//   * `n_threads` hardware threads on `physical_cores` cores, thread t on
//     core t % physical_cores (Linux-style enumeration, which is what
//     Alg. 4's `core % PHYSICAL_CORES` adapts to);
//   * per-core transactional capacity (cache lines), split among the
//     core-mates simultaneously in transactions (HALVED for an SMT pair) —
//     the capacity amplification that motivates Seer's core locks;
//   * eager requester-wins conflict detection over genuinely sampled
//     read/write line sets: a transaction beginning with a footprint that
//     overlaps a running one kills it at some point in their coexistence
//     window (coarse CONFLICT statuses, never the culprit); retried victims
//     carry the same footprint and strike back — the mutual-kill thrash
//     real best-effort HTMs exhibit;
//   * fallback-lock subscription: acquiring the SGL aborts every running
//     hardware transaction, and transactions beginning while it is held
//     abort explicitly (Alg. 1 lines 11-12);
//   * background OTHER aborts (interrupts etc.) with small probability.
//
// The scheduling policies under test (HLE/RTM/SCM/ATS/SGL/Seer/Oracle) run
// as real code — each thread's rt::TxDriver, the same protocol the threaded
// executor performs — against simulated FIFO locks and a logical-cycle cost
// model that charges CAS, begin/commit, abort penalties, and Seer's
// instrumentation (announcement, active-table scans, scheme rebuilds — this
// is what Figure 4 measures).
//
// Two ways to drive it: run() is the closed loop of the paper exhibits
// (each thread samples, executes and thinks until its quota is done);
// serve() + arrive() + drain() is the open loop of `seer_serve
// --deterministic` (requests arrive when the caller says, queue, and are
// served by whichever hardware thread is free).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/policies.hpp"
#include "runtime/tx_driver.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_lock.hpp"
#include "sim/workload.hpp"
#include "util/mpmc_queue.hpp"
#include "util/stats.hpp"

namespace seer::sim {

struct CostModel {
  std::uint64_t xbegin = 40;         // enter speculative mode
  std::uint64_t xcommit = 40;        // successful commit
  std::uint64_t abort_penalty = 180; // rollback + restart latency
  std::uint64_t cas = 50;            // lock acquire/release round-trip
  // Extra latency when a contended lock is handed to a queued waiter: the
  // lock line migrates between cores and the waiter must notice. Charged on
  // every queued handoff — this is what makes funneling work through one
  // lock (SCM's aux, ATS's sched lock, the SGL queue) expensive in practice.
  std::uint64_t lock_handoff = 450;
  // Seer instrumentation (charged only for PolicyKind::kSeer):
  std::uint64_t announce = 6;            // active-table store (Alg. 1 l.5)
  std::uint64_t scan_per_slot = 2;       // Alg. 3 scan, per table slot
  std::uint64_t scheme_rebuild = 1200;   // Alg. 5 merge + inference
};

struct MachineConfig {
  std::size_t n_threads = 8;
  // Hardware thread t runs on core t % physical_cores; threads sharing a
  // core split its transactional capacity.
  std::size_t physical_cores = 4;
  std::uint32_t cache_lines_per_core = 448;
  // Fraction of the (remaining) duration after which an over-capacity
  // transaction overflows and aborts.
  double capacity_abort_point = 0.6;
  double p_other_abort = 0.002;
  // When a starting transaction's footprint overlaps a running one, one of
  // the two aborts during their coexistence window. Requester-wins HTMs
  // favour whichever side issues the conflicting access *last*, and over a
  // whole overlap of interleaved accesses either side can be that. A fresh
  // transaction issues accesses at full speed while the resident is partway
  // done, so the resident loses more often; this is the probability that
  // the newly-started transaction is the victim instead.
  double p_newcomer_aborts = 0.5;
  // Bounded cooperative waits (cycles). The paper's waits are unbounded;
  // the bound exists only to rule out pathological waiting cycles, so it is
  // set far above any realistic lock tenure.
  std::uint64_t wait_budget = 100000;
  // Pessimistic (SGL) execution runs the body this much slower than a
  // hardware attempt: serialized execution re-warms caches after every
  // lock handoff and forgoes the HTM's speculative locality.
  double sgl_duration_factor = 1.25;
  std::uint64_t txs_per_thread = 20000;
  std::uint64_t seed = 1;
  rt::PolicyConfig policy{};
  CostModel costs{};

  // --- observability (src/obs/, DESIGN.md §8) ----------------------------
  // Optional sinks, attached here once: the machine hands them to the Seer
  // scheduler and the trace to every thread's driver, so one registry
  // collects the whole stack. The embedder freezes the registry after
  // constructing the machine and before run(). All machine-side recording
  // is single-threaded and timestamps are simulated cycles (the scheduler
  // never times its rebuilds here), so metrics and traces are deterministic
  // per (seed, config) — the property the --metrics jobs-invariance test
  // pins down.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
  // Model flight recorder: fed by the Seer scheduler (periodic/anomaly
  // snapshots at rebuilds) and handed a final end-of-run capture. Null
  // disables; stubbed under SEER_OBS=OFF.
  obs::FlightRecorder* recorder = nullptr;
};

struct MachineStats {
  Time makespan = 0;
  std::uint64_t serial_work = 0;  // estimated sequential execution time
  std::uint64_t commits = 0;
  std::uint64_t hw_attempts = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(rt::CommitMode::kModeCount)>
      commits_by_mode{};
  std::array<std::uint64_t, 4> aborts_by_cause{};  // indexed by AbortCause
  std::vector<std::uint64_t> commits_by_type;
  // §5.2 census: each time a directive acquires tx locks, the fraction of
  // all tx locks it takes.
  util::PercentileSketch txlock_fraction;
  // Seer introspection (zero/empty for other policies).
  std::uint64_t scheme_rebuilds = 0;
  core::InferenceParams final_params{};
  // Final locksToAcquire rows: final_scheme[x] lists the lock owners
  // (transaction types) x acquires.
  std::vector<std::vector<core::TxTypeId>> final_scheme;
  // Ground-truth conflict matrix (victim-major, n_types^2): materialized
  // conflict aborts by (victim type, aggressor type). The simulator knows
  // the aggressor precisely — information a commodity HTM never reveals —
  // which is what lets tools/seer_inspect score Seer's *inferred* scheme
  // for false serializations and missed conflicts against reality.
  std::vector<std::uint64_t> gt_conflicts;

  [[nodiscard]] double speedup() const noexcept {
    return makespan == 0 ? 0.0
                         : static_cast<double>(serial_work) /
                               static_cast<double>(makespan);
  }
  [[nodiscard]] std::uint64_t aborts() const noexcept {
    std::uint64_t n = 0;
    for (auto a : aborts_by_cause) n += a;
    return n;
  }
  [[nodiscard]] double mode_fraction(rt::CommitMode m) const noexcept {
    return commits == 0
               ? 0.0
               : static_cast<double>(
                     commits_by_mode[static_cast<std::size_t>(m)]) /
                     static_cast<double>(commits);
  }
};

// One open-loop request, reported when it commits.
struct Served {
  Time arrival = 0;
  Time commit = 0;
  rt::CommitMode mode = rt::CommitMode::kHtmNoLocks;
};

class Machine {
 public:
  Machine(MachineConfig cfg, std::unique_ptr<Workload> workload);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  ~Machine();

  // Runs the whole experiment to completion and returns the statistics.
  MachineStats run();

  // --- open loop (the alternative to run()) --------------------------------
  // Switches a fresh machine to serving: every hardware thread parks until
  // a request arrives. Accepted requests wait in a bounded admission queue
  // (the serving harness's util::MpmcQueue: a full queue sheds). A thread
  // that commits takes the next queued request, or parks; an accepted
  // arrival wakes the lowest-numbered parked thread, so thread 0 — Seer's
  // maintenance thread — is the first to take work and light load still
  // runs maintenance. Each commit is reported to `on_served`; latency is
  // commit - arrival. The workload is not sampled: the caller supplies
  // every instance.
  void serve(std::size_t queue_capacity, std::function<void(const Served&)> on_served);
  // Runs every event at or before `t`, then moves the clock to `t`.
  void advance(Time t);
  // Offers a request arriving at `at` (nondecreasing across calls); false =
  // shed by the full admission queue.
  bool arrive(Time at, TxInstance inst);
  // Runs until every accepted request has committed.
  void drain();
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return serving_->queue.approx_size();  // exact: the machine is single-threaded
  }

  [[nodiscard]] const MachineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const Workload& workload() const noexcept { return *workload_; }
  [[nodiscard]] Workload& workload() noexcept { return *workload_; }
  [[nodiscard]] rt::PolicyShared& policy_shared() noexcept { return shared_; }

 private:
  struct ThreadCtx;
  struct Queued {
    Time arrival = 0;
    TxInstance inst;
  };
  struct Serving {
    Serving(std::size_t capacity, std::function<void(const Served&)> cb)
        : queue(capacity), on_served(std::move(cb)) {}
    util::MpmcQueue<Queued> queue;
    std::function<void(const Served&)> on_served;
  };

  void step();
  void on_event(const Event& e);
  void start_tx(ThreadCtx& t);
  void serve_next(ThreadCtx& t);
  void begin(ThreadCtx& t);
  void perform(ThreadCtx& t);
  [[nodiscard]] bool acquire_rest(ThreadCtx& t);
  void start_hw(ThreadCtx& t);
  void abort_hw(ThreadCtx& t, htm::AbortStatus status,
                core::TxTypeId culprit = core::kNoTx);
  void sgl_granted(ThreadCtx& t);
  void committed(ThreadCtx& t, bool hardware);
  void release(ThreadCtx& t, rt::LockId id);
  void run_maintenance(ThreadCtx& t);

  // Who is in a hardware transaction: one bit per thread, id order.
  [[nodiscard]] bool in_hw(std::size_t id) const noexcept {
    return ((in_hw_[id >> 6] >> (id & 63)) & 1) != 0;
  }
  void set_in_hw(std::size_t id, bool on) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    in_hw_[id >> 6] = on ? (in_hw_[id >> 6] | bit) : (in_hw_[id >> 6] & ~bit);
  }
  // Calls f(id) for each thread in hardware, in id order. Each word is
  // read once, so f may take its thread out of hardware.
  template <typename F>
  void for_each_in_hw(F&& f) {
    for (std::size_t w = 0; w < in_hw_.size(); ++w) {
      for (std::uint64_t bits = in_hw_[w]; bits != 0; bits &= bits - 1) {
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  [[nodiscard]] std::uint32_t effective_capacity(const ThreadCtx& t) const noexcept;
  void schedule_capacity_check(ThreadCtx& t);
  [[nodiscard]] bool is_seer() const noexcept {
    return cfg_.policy.kind == rt::PolicyKind::kSeer;
  }
  [[nodiscard]] std::uint64_t scan_cost() const noexcept {
    return is_seer() ? cfg_.costs.scan_per_slot * cfg_.n_threads : 0;
  }

  void push(Time at, core::ThreadId th, EventKind kind, std::uint64_t gen,
            core::TxTypeId culprit = core::kNoTx);

  MachineConfig cfg_;
  std::unique_ptr<Workload> workload_;
  rt::PolicyShared shared_;
  EventQueue queue_;
  Time now_ = 0;

  rt::LockTable<SimLock> locks_;

  std::vector<std::unique_ptr<ThreadCtx>> threads_;
  std::vector<std::uint64_t> in_hw_;  // see in_hw()
  std::uint64_t serials_ = 0;         // instances begun so far
  std::size_t done_count_ = 0;
  MachineStats stats_;
  std::unique_ptr<Serving> serving_;  // set by serve(); null under run()

  // Observability (registered in the constructor when cfg_.metrics is set):
  // the drivers' rt.* transaction counters, and the event queue's depth.
  rt::TxMetrics tx_metrics_;
  obs::MetricId h_queue_depth_ = obs::kNoMetric;
};

// Convenience: build, run, return.
[[nodiscard]] MachineStats run_machine(const MachineConfig& cfg,
                                       std::unique_ptr<Workload> workload);

}  // namespace seer::sim
