// The policy interface: per-thread scheduling decisions, no I/O. A Policy may
// share global state with its siblings (e.g. the SeerScheduler); its only
// caller is rt::TxDriver (tx_driver.hpp), which states the protocol and runs
// the one retry loop: the attempt budget, the SGL wait and the fallback are
// the driver's. A policy only says which locks to take and wait on around
// each attempt. The base class is the plain retry loop (HLE, RTM, SGL).
#pragma once

#include <cstdint>
#include <memory>

#include "core/types.hpp"
#include "htm/abort_code.hpp"
#include "runtime/lock_id.hpp"
#include "util/small_vec.hpp"

namespace seer::rt {

using LockList = util::SmallVec<LockId, 20>;

// The locks around one hardware attempt.
struct Directive {
  // Locks to acquire, in canonical order and above every lock already held
  // (lock_id.hpp). A policy never releases: the driver releases every held
  // lock at commit and before the SGL.
  LockList acquires;
  // Hint: batch `acquires` in a single HTM transaction (§4's multi-CAS
  // optimization). Only meaningful when acquires.size() >= 2.
  bool htm_batch = false;
  // Locks to wait on WITHOUT acquiring (cooperative waiting, Alg. 4 lines
  // 57-58). A wait ends at the first release after it began, or when the
  // backend's budget runs out (DESIGN.md §7).
  LockList waits;
};

// How a transaction ultimately committed — the Table 3 census.
enum class CommitMode : std::uint8_t {
  kHtmNoLocks = 0,
  kHtmAuxLock,      // SCM's auxiliary lock was held
  kHtmSchedLock,    // ATS's serialization lock was held
  kHtmTxLocks,      // Seer transaction lock(s) held
  kHtmCoreLock,     // Seer core lock held
  kHtmTxAndCore,    // both Seer lock kinds held
  kSglFallback,
  kModeCount,
};

[[nodiscard]] constexpr const char* to_string(CommitMode m) noexcept {
  switch (m) {
    case CommitMode::kHtmNoLocks: return "HTM no locks";
    case CommitMode::kHtmAuxLock: return "HTM + Aux lock";
    case CommitMode::kHtmSchedLock: return "HTM + Sched lock";
    case CommitMode::kHtmTxLocks: return "HTM + Tx Locks";
    case CommitMode::kHtmCoreLock: return "HTM + Core Locks";
    case CommitMode::kHtmTxAndCore: return "HTM + Tx + Core Locks";
    case CommitMode::kSglFallback: return "SGL fall-back";
    case CommitMode::kModeCount: break;
  }
  return "?";
}

class Policy {
 public:
  virtual ~Policy() = default;

  // A new transaction instance of type `tx` starts on this thread.
  virtual void begin_tx(core::TxTypeId tx) { (void)tx; }

  // The locks around hardware attempt `k` (0-based) of the budget; `last`
  // when it is the budget's final one.
  [[nodiscard]] virtual Directive next_attempt(int k, bool last) {
    (void)k;
    (void)last;
    return {};
  }

  // A hardware attempt aborted with `status`.
  virtual void on_abort(htm::AbortStatus status) { (void)status; }

  // PRECISE conflict attribution — the information commodity HTMs do NOT
  // provide (Figure 1 of the paper). The driver calls this right before the
  // corresponding on_abort, and only when the backend knows the aggressor
  // (the machine simulator, emulating an STM's precise feedback). Real-HTM
  // policies must not depend on it; the Oracle baseline is built on it.
  virtual void on_conflict_attribution(core::TxTypeId culprit) { (void)culprit; }

  // The budget is spent: the driver calls this when it decides to fall back,
  // before it releases every held lock and takes the SGL.
  virtual void on_fallback() {}

  // The transaction committed (hardware == false means via the SGL). The
  // driver then releases every lock it holds; a policy never says which.
  virtual void on_commit(bool hardware) { (void)hardware; }

  // The body threw something other than an abort: the transaction ends
  // without committing or aborting. The driver releases every lock it holds
  // for it; the policy drops whatever else it keeps for it.
  virtual void on_abandon() {}

  // Called through the driver at transaction start and while the thread
  // waits on the SGL, so a designated thread can run scheme
  // maintenance (Alg. 4 lines 52-54). The only hook that reads the clock:
  // `now` paces the rebuilds. Returns true when a scheme rebuild actually
  // happened (the simulator charges its cost model for it).
  virtual bool maintenance(std::uint64_t /*now*/) { return false; }
};

}  // namespace seer::rt
