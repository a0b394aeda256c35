// Constant-time access-set structures for the SoftHtm speculative hot path.
//
// SoftHtm's per-access costs must stay O(1) or every threaded exhibit ends
// up measuring the TM's bookkeeping instead of the scheduler above it
// (DESIGN.md §10). Two small, allocation-stingy structures provide that:
//
//   * AddrSignature — a 64-bit Bloom-style filter over word addresses. One
//     AND/compare answers the overwhelmingly common "this word is NOT in my
//     write set" question on the read path; a hit falls through to the
//     exact index below.
//   * AddrIndex — an open-addressed, power-of-two hash table mapping a word
//     address to a 32-bit payload (the write-set slot, or nothing when used
//     as a set). Slots are epoch-tagged: clearing the table between
//     transaction attempts is one integer bump, never a memset. The table
//     only allocates when it grows past its load factor, so a warmed-up
//     context runs allocation-free.
//
// Both are strictly thread-local (one per ThreadContext) and need no
// synchronization. Reads need neither on the common path: Tier-0 read
// tracking is a plain replay log of word pointers (DESIGN.md §10.1).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>

namespace seer::htm {

// Address mixer shared by the stripe map, the write filter and the index
// probes (same constants as SoftHtm::stripe_index_of: words 8 bytes apart
// spread out).
[[nodiscard]] inline std::uint64_t mix_addr(const void* addr) noexcept {
  auto h = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(addr) >> 3);
  h ^= h >> 17;
  h *= 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return h;
}

// 64-bit membership filter with no false negatives. False positives are
// resolved by the exact AddrIndex probe behind it. All operations take the
// pre-mixed hash so the hot path mixes each address exactly once and feeds
// every structure from the same 64 bits.
class AddrSignature {
 public:
  [[nodiscard]] static unsigned bit_of_hash(std::uint64_t h) noexcept {
    return static_cast<unsigned>(h >> 58);  // top 6 bits; stripes use the low bits
  }
  // Exposed so tests can manufacture deliberate bit collisions.
  [[nodiscard]] static unsigned bit_of(const void* addr) noexcept {
    return bit_of_hash(mix_addr(addr));
  }

  void add(std::uint64_t h) noexcept { bits_ |= 1ULL << bit_of_hash(h); }
  [[nodiscard]] bool may_contain(std::uint64_t h) const noexcept {
    return ((bits_ >> bit_of_hash(h)) & 1ULL) != 0;
  }
  void clear() noexcept { bits_ = 0; }
  [[nodiscard]] bool empty() const noexcept { return bits_ == 0; }

 private:
  std::uint64_t bits_ = 0;
};

// Open-addressed (linear probing), epoch-tagged addr -> uint32 map.
class AddrIndex {
 public:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;

  explicit AddrIndex(std::size_t min_slots = 64) { allocate(min_slots); }

  // Starts a new logical epoch: every slot written under an earlier epoch
  // becomes invisible. O(1). `epoch` must never be 0 (the empty tag) and
  // must not repeat between hard_reset() calls — the owner guarantees both
  // by bumping a counter and hard-resetting on wraparound.
  void begin_epoch(std::uint32_t epoch) noexcept {
    assert(epoch != 0);
    epoch_ = epoch;
    live_ = 0;
  }

  // Forgets everything, including stale epoch tags. Called by the owner
  // when its epoch counter wraps, so a recycled epoch value can never
  // resurrect a years-old slot.
  void hard_reset() noexcept {
    for (std::size_t i = 0; i <= mask_; ++i) slots_[i].epoch = 0;
    live_ = 0;
  }

  // The hashed variants take the pre-mixed hash of `addr` (mix_addr): the
  // caller computes it once per access and feeds the write filter, the
  // stripe map and the index probes from the same 64 bits.
  [[nodiscard]] std::uint32_t find(const void* addr, std::uint64_t h) const noexcept {
    std::size_t i = h & mask_;
    while (true) {
      const Slot& s = slots_[i];
      if (s.epoch != epoch_) return kNpos;
      if (s.addr == addr) return s.value;
      i = (i + 1) & mask_;
    }
  }
  [[nodiscard]] std::uint32_t find(const void* addr) const noexcept {
    return find(addr, mix_addr(addr));
  }

  // Returns the existing payload for `addr`, or inserts addr -> value and
  // returns kNpos ("it was new"). The single-probe combination keeps the
  // write-set dedup at exactly one table walk per access.
  std::uint32_t find_or_insert(const void* addr, std::uint32_t value, std::uint64_t h) {
    if (live_ >= grow_at_) grow();
    std::size_t i = h & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s = Slot{addr, value, epoch_};
        ++live_;
        return kNpos;
      }
      if (s.addr == addr) return s.value;
      i = (i + 1) & mask_;
    }
  }
  std::uint32_t find_or_insert(const void* addr, std::uint32_t value) {
    return find_or_insert(addr, value, mix_addr(addr));
  }

  // Grows (in one allocation) until `n` entries fit under the load factor.
  // Incremental growth would reach the same size through log2 doublings,
  // each a fresh allocation + rehash; a caller that knows its population up
  // front — the Tier-0 promotion replay — calls this once instead.
  void reserve_for(std::size_t n) {
    std::size_t want = mask_ + 1;
    while (want * 7 / 10 < n) want <<= 1;
    if (want > mask_ + 1) rehash_to(want);
  }

  [[nodiscard]] std::size_t live() const noexcept { return live_; }

 private:
  struct Slot {
    const void* addr = nullptr;
    std::uint32_t value = 0;
    std::uint32_t epoch = 0;  // 0 = never written
  };

  void allocate(std::size_t n_slots) {
    assert(n_slots >= 2 && (n_slots & (n_slots - 1)) == 0);
    slots_ = std::make_unique<Slot[]>(n_slots);
    mask_ = n_slots - 1;
    grow_at_ = n_slots * 7 / 10;  // 70% load factor, precomputed off the hot path
  }

  void grow() { rehash_to((mask_ + 1) * 2); }

  void rehash_to(std::size_t n_slots) {
    const std::size_t old_count = mask_ + 1;
    std::unique_ptr<Slot[]> old = std::move(slots_);
    allocate(n_slots);
    for (std::size_t i = 0; i < old_count; ++i) {
      const Slot& s = old[i];
      if (s.epoch != epoch_) continue;
      std::size_t j = mix_addr(s.addr) & mask_;
      while (slots_[j].epoch == epoch_) j = (j + 1) & mask_;
      slots_[j] = s;
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::size_t live_ = 0;
  std::size_t grow_at_ = 0;
  std::uint32_t epoch_ = 0;  // matches no slot until begin_epoch
};

}  // namespace seer::htm
