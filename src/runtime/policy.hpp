// The policy protocol: how a scheduling policy talks to an execution driver.
//
// A Policy instance is per-thread decision logic (it may share global state
// with its siblings, e.g. the SeerScheduler). A *driver* — the real-threads
// executor or the machine simulator — owns the concrete locks and the HTM
// and runs this loop for every transaction:
//
//   policy.maintenance(now)   (a designated thread may rebuild its scheme)
//   policy.begin_tx(tx)
//   loop:
//     d = policy.next_attempt()
//     release d.releases; acquire d.acquires (canonical order, optionally
//       batched in one HTM transaction if d.htm_batch); honour d.waits
//     if d.mode == kFallback:
//         take SGL, run body pessimistically, release SGL
//         policy.on_commit(hardware=false) -> locks to release
//     else:
//         run one hardware attempt (subscribed to the SGL word)
//         committed ? policy.on_commit(hardware=true) -> release list
//                   : policy.on_abort(status); continue
//   on any other exception from the body: release every held lock,
//     policy.on_abandon(), rethrow
//
// Policies never block and never touch memory shared with transaction
// bodies; all waiting/acquiring is performed by the driver, which is what
// lets the identical policy code run on real threads and in simulation.
#pragma once

#include <cstdint>
#include <memory>

#include "core/types.hpp"
#include "htm/abort_code.hpp"
#include "runtime/lock_id.hpp"
#include "util/small_vec.hpp"

namespace seer::rt {

using LockList = util::SmallVec<LockId, 20>;

struct Directive {
  enum class Mode : std::uint8_t {
    kHardware,  // one more speculative attempt
    kFallback,  // give up on HTM, serialize on the single global lock
  };

  Mode mode = Mode::kHardware;
  // Locks to release before acquiring (canonical-order re-acquisition and
  // the pre-fallback release of Alg. 1 line 19).
  LockList releases;
  // Locks to acquire, already in canonical order.
  LockList acquires;
  // Hint: batch `acquires` in a single HTM transaction (§4's multi-CAS
  // optimization). Only meaningful when acquires.size() >= 2.
  bool htm_batch = false;
  // Locks to wait on until free WITHOUT acquiring (cooperative waiting,
  // Alg. 4 lines 57-58). Drivers bound these waits (see DESIGN.md).
  LockList waits;
  // Wait for the SGL to be free before starting (lemming-effect avoidance).
  bool wait_sgl = false;
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

// Derives the census row from the set of locks held at commit time.
[[nodiscard]] CommitMode classify_commit(const LockList& held, bool used_sgl) noexcept;

class Policy {
 public:
  virtual ~Policy() = default;

  // A new transaction instance of type `tx` starts on this thread.
  virtual void begin_tx(core::TxTypeId tx) = 0;

  // What should the driver do for the next attempt?
  [[nodiscard]] virtual Directive next_attempt() = 0;

  // A hardware attempt aborted with `status`.
  virtual void on_abort(htm::AbortStatus status) = 0;

  // PRECISE conflict attribution — the information commodity HTMs do NOT
  // provide (Figure 1 of the paper). Only drivers that actually know the
  // aggressor call this (the machine simulator, emulating an STM's precise
  // feedback), immediately before the corresponding on_abort. Real-HTM
  // policies must not depend on it; the Oracle baseline is built on it.
  virtual void on_conflict_attribution(core::TxTypeId culprit) { (void)culprit; }

  // The transaction committed (hardware == false means via the SGL).
  // Returns the locks the driver must now release (SGL excluded; the driver
  // manages the SGL itself).
  [[nodiscard]] virtual LockList on_commit(bool hardware) = 0;

  // The body threw something other than an abort: the transaction ends
  // without committing or aborting. The driver has already released every
  // lock it held for this transaction; the policy drops whatever else it
  // keeps for it.
  virtual void on_abandon() {}

  // Called by the driver at transaction start and while the thread is
  // waiting (e.g. on the SGL) so a designated thread can run scheme
  // maintenance (Alg. 4 lines 52-54). The only hook that reads the clock:
  // `now` paces the rebuilds. Returns true when a scheme rebuild actually
  // happened (the simulator charges its cost model for it).
  virtual bool maintenance(std::uint64_t now) {
    (void)now;
    return false;
  }
};

}  // namespace seer::rt
