// TxDriver — the policy protocol, stated once for both backends.
//
// One driver per thread runs each of its transactions through the one retry
// loop every policy shares (Alg. 1's START/END around Alg. 4's
// ACQUIRE/WAIT/RELEASE-SEER-LOCKS). It reads the budget and the SGL-wait
// rule from PolicyShared once, and asks the Policy only for the locks around
// each attempt. It does no I/O: it emits steps, a backend performs each one
// its own way (the ThreadedExecutor on WordLocks and SoftHtm, the
// sim::Machine on SimLocks and its event queue) and reports the outcome:
//
//   maintenance(now); begin(tx)       policy.maintenance, policy.begin_tx
//   loop, k = hardware attempts so far:
//     k == budget: policy.on_fallback; release every held lock (Alg. 1
//               lines 18-20), then kFallback: take the SGL, run the body,
//               release the SGL
//     else:     d = policy.next_attempt(k, k + 1 == budget)
//               kAcquire d.acquires, batched if d.htm_batch -> acquired()
//               kWaitSgl unless HLE (lemming avoidance, Alg. 4 line 55)
//                                                          -> wait_over()
//               kWaitLock per d.waits (cooperative)        -> wait_over()
//               kHwAttempt, subscribed to the SGL -> aborted(status,
//               culprit): on_conflict_attribution(culprit) if known,
//               policy.on_abort(status); loop
//   sgl_acquired(): the fallback holds the SGL
//   committed(hardware): policy.on_commit; release every held lock; done
//   abandon(), the body threw: policy.on_abandon; release every held lock
//
// So a transaction makes at most `budget` hardware attempts and then one
// fallback. The driver owns the held set. An acquire step only takes locks
// above every lock already held (canonical LockId order, lock_id.hpp), so
// hold-and-wait is acyclic and no lock is ever given back early; the driver
// releases the whole set, in canonical order, at commit and before the SGL,
// so nothing is ever co-held with the SGL and policies never track what to
// give back. It alone calls Policy and classify_commit, and it counts every
// outcome once, into ThreadCounters and the rt.* registry set. It is also
// the one place that traces a transaction (DESIGN.md §8), on its backend's
// clock: kTxBegin as it issues a hardware attempt, kTxAbort in aborted(),
// kSglFallback in sgl_acquired() and kTxCommit in committed(). The abort
// carries its cause, the other three the transaction type.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/policies.hpp"
#include "runtime/policy.hpp"

namespace seer::rt {

// Derives the census row from the set of locks held at commit time.
[[nodiscard]] CommitMode classify_commit(const LockList& held, bool used_sgl) noexcept;

// Per-thread outcome counters (single-writer; summed on demand).
struct ThreadCounters {
  std::array<std::uint64_t, static_cast<std::size_t>(CommitMode::kModeCount)>
      commits_by_mode{};
  std::array<std::uint64_t, 4> aborts_by_cause{};  // indexed by AbortCause
  std::uint64_t hw_attempts = 0;

  ThreadCounters& operator+=(const ThreadCounters& o) noexcept;
};

// The rt.* transaction counters. A backend registers them once and hands a
// copy to each thread's driver, which records on its thread's lane.
struct TxMetrics {
  TxMetrics() = default;
  explicit TxMetrics(obs::MetricsRegistry& registry);

  obs::MetricsRegistry* registry = nullptr;
  obs::MetricId commits = obs::kNoMetric;        // rt.commits
  obs::MetricId hw_attempts = obs::kNoMetric;    // rt.hw_attempts
  obs::MetricId sgl_fallbacks = obs::kNoMetric;  // rt.sgl_fallbacks, at commit
  std::array<obs::MetricId, 4> aborts{};         // rt.aborts.<cause>
  // rt.retry_depth: hardware attempts per commit (0 = straight to the SGL).
  obs::MetricId retry_depth = obs::kNoMetric;
};

// The trace sink a backend attaches, and the clock its drivers stamp with:
// now(clock) is the machine's cycle counter or the executor's
// obs::now_ticks. Nothing is read while `sink` is null.
struct TxTrace {
  obs::TraceSink* sink = nullptr;
  std::uint64_t (*now)(const void* clock) = nullptr;
  const void* clock = nullptr;
};

struct Step {
  enum class Kind : std::uint8_t {
    kRelease,    // release `lock`
    kAcquire,    // acquire `*locks` in order, all at once if htm_batch
    kWaitSgl,    // wait until `lock`, the SGL, is free
    kWaitLock,   // wait on `lock` while another thread holds it
    kHwAttempt,  // run one hardware attempt
    kFallback,   // take the SGL, run the body, release the SGL
    kDone,       // the transaction is over
  };
  Kind kind = Kind::kDone;
  bool htm_batch = false;
  LockId lock{};
  const LockList* locks = nullptr;  // valid until the next directive
};

// How a wait step ended. One rule for both backends: a wait that finds the
// lock held ends at the first release of it after the wait began, whoever
// takes it next, or when the backend's budget runs out (DESIGN.md §7). The
// SGL wait (Alg. 4 line 55) has no budget and lasts until the SGL is free:
// after kBlocked the driver looks at it again.
enum class WaitEnd : std::uint8_t {
  kFree,     // the lock was free at first look: go on
  kBlocked,  // the wait blocked until a release or the budget: look at the
             // SGL, then at the next lock, never the same one again
};

class TxDriver {
 public:
  TxDriver(PolicyShared& shared, core::ThreadId self, TxMetrics metrics = {},
           TxTrace trace = {});

  // Forwards to Policy::maintenance: true when a scheme rebuild ran.
  bool maintenance(std::uint64_t now) { return policy_->maintenance(now); }
  // Starts a transaction of type `tx`; the last step was kDone.
  void begin(core::TxTypeId tx);

  // The step to perform now. Acquire, wait, attempt and fallback steps are
  // returned again until their outcome is reported; the others need none.
  [[nodiscard]] Step next();

  void acquired();
  void wait_over(WaitEnd end) {
    if (state_ == State::kWaitSgl) {
      if (end == WaitEnd::kFree) state_ = State::kWaitLock;
      return;
    }
    assert(state_ == State::kWaitLock);
    ++wait_idx_;
    if (end == WaitEnd::kBlocked) state_ = State::kWaitSgl;
  }
  // The fallback step holds the SGL; its body runs next.
  void sgl_acquired();
  // Returns the Table 3 census row of the commit.
  CommitMode committed(bool hardware);
  // `culprit`: the aggressor's type where the backend knows it, else kNoTx.
  void aborted(htm::AbortStatus status, core::TxTypeId culprit = core::kNoTx);
  // The body threw; the next steps release every held lock, then kDone.
  void abandon();

  // Held locks, in canonical order.
  [[nodiscard]] const LockList& held() const noexcept { return held_; }
  [[nodiscard]] const ThreadCounters& counters() const noexcept { return counters_; }

 private:
  enum class State : std::uint8_t {
    kIdle,         // between transactions
    kDirective,    // fall back, or ask the policy for the next attempt
    kAcquire,      // awaiting acquired()
    kWaitSgl,      // awaiting wait_over() when wait_sgl_
    kWaitLock,     // awaiting wait_over() for d_.waits[wait_idx_]
    kAttempt,      // awaiting committed(true) or aborted()
    kReleaseHeld,  // release every held lock, then go to then_
    kFallback,     // awaiting committed(false)
    kDone,
  };

  void release_held_then(State then) noexcept {
    state_ = State::kReleaseHeld;
    then_ = then;
  }
  void stamp(obs::TraceKind kind, std::uint64_t arg) const noexcept {
    if (SEER_OBS_ENABLED && trace_.sink != nullptr) {
      trace_.sink->emit(self_, kind, trace_.now(trace_.clock), arg);
    }
  }

  std::unique_ptr<Policy> policy_;
  core::ThreadId self_;
  int budget_;      // hardware attempts before the SGL
  bool wait_sgl_;   // wait for the SGL to be free before each attempt
  TxMetrics metrics_;
  TxTrace trace_;
  ThreadCounters counters_;
  Directive d_;
  LockList held_;
  State state_ = State::kIdle;
  State then_ = State::kDone;
  std::size_t wait_idx_ = 0;
  int attempts_ = 0;  // hardware attempts of this transaction so far
  core::TxTypeId tx_ = core::kNoTx;  // the transaction in flight
};

}  // namespace seer::rt
