// Simulated locks: strict-FIFO queued mutexes plus free-notification
// subscriptions, reifying the symbolic LockIds inside the machine simulator.
//
// Semantics mirror the WordLocks of the threaded executor:
//   * try_acquire / release with FIFO handover (release passes ownership to
//     the queue head directly — no barging, deterministic order);
//   * free subscriptions model the cooperative "wait while locked" loops
//     (Alg. 4 lines 55-58): subscribers are notified when the lock becomes
//     free without receiving ownership.
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

  // Subscribes to (one-shot) notification of the lock becoming free. The
  // subscriber's current generation stamp is echoed back in the
  // notification so stale subscriptions (the thread moved on) are dropped
  // by the machine's generation check.
  void subscribe_free(core::ThreadId t, std::uint64_t gen) {
    free_subs_.emplace_back(t, gen);
  }

  struct Notification {
    core::ThreadId thread;
    std::uint64_t gen;
  };

  struct ReleaseOutcome {
    // Thread that now owns the lock (ownership handed over), if any.
    std::optional<core::ThreadId> granted;
    // Threads to notify that the lock became free (only when not handed
    // over: a handover keeps the lock held).
    std::vector<Notification> notified;
  };

  // Releases the lock held by `t`. The caller (the machine) turns the
  // outcome into kLockGranted / kFreeNotify events.
  [[nodiscard]] ReleaseOutcome release(core::ThreadId t) {
    assert(owner_ == t && "release by non-owner");
    (void)t;
    ReleaseOutcome out;
    if (!waiters_.empty()) {
      out.granted = waiters_.front();
      waiters_.pop_front();
      owner_ = out.granted;
    } else {
      owner_.reset();
      out.notified.swap(free_subs_);
    }
    return out;
  }

 private:
  std::optional<core::ThreadId> owner_;
  std::deque<core::ThreadId> waiters_;
  std::vector<Notification> free_subs_;
};

}  // namespace seer::sim
