// Deterministic discrete-event queue.
//
// The machine simulator is single-threaded and fully deterministic: events
// are ordered by (time, sequence number), so ties are broken by insertion
// order and a (seed, configuration) pair reproduces a run bit-for-bit.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "core/types.hpp"

namespace seer::sim {

using Time = std::uint64_t;  // logical cycles

enum class EventKind : std::uint8_t {
  kStartTx,        // thread begins its next transaction instance
  kLockGranted,    // FIFO lock ownership transferred to the thread
  kWaitOver,       // the watched lock was released, or the wait budget ran out
  kHwCommit,       // the thread's hardware transaction reaches its end
  kConflictAbort,  // a concurrent requester's access invalidated this tx
  kCapacityAbort,  // the transaction overflows its transactional buffers
  kOtherAbort,     // interrupt / ring transition / ... (background noise)
  kSglBodyDone,    // pessimistic execution under the SGL finished
  kResume,         // generic continue-after-cost-accounting
  kServeNext,      // open loop: take the next queued request, or park
};

struct Event {
  Time time = 0;
  std::uint64_t seq = 0;  // tie-breaker, assigned by the queue
  core::ThreadId thread = 0;
  EventKind kind = EventKind::kStartTx;
  // kConflictAbort: the aggressor's type, which a commodity HTM would not
  // reveal (the driver forwards it to Policy::on_conflict_attribution).
  core::TxTypeId culprit = core::kNoTx;
  // Generation stamp: transient events (commit, aborts, waits, resume) are
  // dropped if the thread moved on. Ownership-transfer events
  // (kLockGranted) must always be delivered and carry kAnyGen.
  std::uint64_t gen = 0;
};

inline constexpr std::uint64_t kAnyGen = ~std::uint64_t{0};

class EventQueue {
 public:
  void push(Event e) {
    e.seq = next_seq_++;
    heap_.push(e);
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] const Event& top() const { return heap_.top(); }

  Event pop() {
    Event e = heap_.top();
    heap_.pop();
    return e;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace seer::sim
