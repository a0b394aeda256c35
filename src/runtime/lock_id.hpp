// Symbolic lock identifiers.
//
// Policies are pure decision logic shared between the real-threads executor
// and the machine simulator, so they cannot hold pointers to concrete lock
// objects. Instead they name locks symbolically and each backend reifies the
// names in a LockTable (of WordLocks for threads, SimLocks for the
// simulator).
//
// Canonical acquisition order (kind, then index) is a total order: aux <
// sched < core < tx. Every acquire step takes only locks above every lock
// its thread already holds (the TxDriver asserts it), so hold-and-wait
// follows the order and no waits-for cycle can form between acquirers; no
// lock is given back to be taken again. The SGL is never co-held with
// anything (the TxDriver releases every lock before falling back, Alg. 1
// line 19).
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "util/cacheline.hpp"

namespace seer::rt {

enum class LockKind : std::uint8_t {
  kSgl = 0,    // single global lock — the pessimistic fallback
  kAux = 1,    // SCM's auxiliary serialization lock
  kSched = 2,  // ATS's serialization lock
  kCore = 3,   // Seer: one per physical core (capacity aborts)
  kTx = 4,     // Seer: one per transaction type (conflict serialization)
};

struct LockId {
  LockKind kind{};
  std::uint16_t index = 0;

  friend constexpr auto operator<=>(const LockId&, const LockId&) = default;
};

inline constexpr LockId kSglLock{LockKind::kSgl, 0};
inline constexpr LockId kAuxLock{LockKind::kAux, 0};
inline constexpr LockId kSchedLock{LockKind::kSched, 0};

[[nodiscard]] constexpr LockId core_lock(std::uint16_t physical_core) noexcept {
  return LockId{LockKind::kCore, physical_core};
}
[[nodiscard]] constexpr LockId tx_lock(std::uint16_t tx_type) noexcept {
  return LockId{LockKind::kTx, tx_type};
}

// The concrete locks behind the symbolic LockIds, one per id.
template <typename Lock>
class LockTable {
 public:
  LockTable(std::size_t n_types, std::size_t physical_cores)
      : tx_locks_(n_types), core_locks_(physical_cores) {}

  [[nodiscard]] Lock& sgl() noexcept { return sgl_; }

  [[nodiscard]] Lock& get(LockId id) noexcept {
    switch (id.kind) {
      case LockKind::kSgl: return sgl_;
      case LockKind::kAux: return aux_;
      case LockKind::kSched: return sched_;
      case LockKind::kTx: return tx_locks_[id.index].value;
      case LockKind::kCore: return core_locks_[id.index].value;
    }
    __builtin_unreachable();
  }

 private:
  Lock sgl_;
  Lock aux_;
  Lock sched_;
  std::vector<util::Padded<Lock>> tx_locks_;
  std::vector<util::Padded<Lock>> core_locks_;
};

}  // namespace seer::rt
