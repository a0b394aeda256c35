// WordLock — a TTAS sequence-lock whose state is a single TM-visible word.
//
// Keeping the lock state in an htm::TmWord lets hardware/software
// transactions *subscribe* to it: reading the word inside a transaction puts
// it in the transaction's read set, so a later acquisition aborts the
// transaction — exactly the mechanism Alg. 1 lines 11-12 relies on for the
// single-global-lock fallback, and what HLE's lock elision does implicitly.
//
// The word encodes a sequence counter: ODD = locked, EVEN = free, and every
// release advances the sequence. This matters for the software TM: a
// subscription checks the word's VALUE, and without the sequence a full
// acquire/release cycle between a transaction's reads and its commit would
// be invisible (ABA) — allowing a speculative reader to miss a pessimistic
// writer's updates. Real HTM gets this for free from cache coherence; the
// sequence restores it here.
#pragma once

#include <atomic>
#include <cstdint>

#include "htm/soft_htm.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"

namespace seer::rt {

class alignas(util::kCacheLineBytes) WordLock {
 public:
  WordLock() = default;
  WordLock(const WordLock&) = delete;
  WordLock& operator=(const WordLock&) = delete;

  void lock() noexcept {
    util::Backoff backoff;
    while (!try_lock()) {
      while (is_locked()) backoff.pause();
    }
  }

  [[nodiscard]] bool try_lock() noexcept {
    std::uint64_t v = word_.load(std::memory_order_relaxed);
    if ((v & 1) != 0) return false;
    return word_.compare_exchange_strong(v, v + 1, std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  void unlock() noexcept {
    // Odd -> next even: frees the lock AND advances the sequence so every
    // subscriber from before this critical section fails revalidation.
    word_.fetch_add(1, std::memory_order_release);
  }

  [[nodiscard]] bool is_locked() const noexcept {
    return (word_.load(std::memory_order_acquire) & 1) != 0;
  }

  // Current raw sequence word. Even values are "free" snapshots suitable as
  // subscription baselines.
  [[nodiscard]] std::uint64_t sequence() const noexcept {
    return word_.load(std::memory_order_acquire);
  }

  // The raw word, for transactional subscription against a snapshot taken
  // with sequence().
  [[nodiscard]] const htm::TmWord& word() const noexcept { return word_; }

 private:
  htm::TmWord word_{0};
};

}  // namespace seer::rt
