// Simulated locks: strict-FIFO queued mutexes plus release subscriptions,
// reifying the symbolic LockIds inside the machine simulator.
//
// Semantics mirror the WordLocks of the threaded executor:
//   * try_acquire / release with FIFO handover (release passes ownership to
//     the queue head directly — no barging, deterministic order);
//   * subscriptions model the waits of Alg. 4 lines 55-58: every release
//     notifies every subscriber, a handover included, without giving it
//     ownership — the executor's waits see the same release as a new
//     sequence value (DESIGN.md §7).
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/types.hpp"

namespace seer::sim {

class SimLock {
 public:
  [[nodiscard]] bool is_locked() const noexcept { return owner_.has_value(); }
  [[nodiscard]] std::optional<core::ThreadId> owner() const noexcept { return owner_; }

  // Immediate acquisition if free. Never queues.
  [[nodiscard]] bool try_acquire(core::ThreadId t) noexcept {
    if (owner_.has_value()) return false;
    owner_ = t;
    return true;
  }

  // Joins the FIFO acquisition queue (caller must have failed try_acquire).
  void enqueue(core::ThreadId t) { waiters_.push_back(t); }

  // Subscribes to (one-shot) notification of the next release. The
  // subscriber's current generation stamp is echoed back in the
  // notification so stale subscriptions (the thread moved on) are dropped
  // by the machine's generation check.
  void subscribe(core::ThreadId t, std::uint64_t gen) { subs_.emplace_back(t, gen); }

  struct Notification {
    core::ThreadId thread;
    std::uint64_t gen;
  };

  struct ReleaseOutcome {
    // Thread that now owns the lock (ownership handed over), if any.
    std::optional<core::ThreadId> granted;
    // Every subscriber, whether or not the lock was handed over.
    std::vector<Notification> notified;
  };

  // Releases the lock held by `t`. The caller (the machine) turns the
  // outcome into kLockGranted / kWaitOver events.
  [[nodiscard]] ReleaseOutcome release(core::ThreadId t) {
    assert(owner_ == t && "release by non-owner");
    (void)t;
    ReleaseOutcome out;
    out.notified.swap(subs_);
    if (waiters_.empty()) {
      owner_.reset();
    } else {
      out.granted = waiters_.front();
      waiters_.pop_front();
      owner_ = out.granted;
    }
    return out;
  }

 private:
  std::optional<core::ThreadId> owner_;
  std::deque<core::ThreadId> waiters_;
  std::vector<Notification> subs_;
};

}  // namespace seer::sim
