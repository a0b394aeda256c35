// TSX-compatible transaction status model.
//
// The entire premise of the paper is that commodity HTMs give only a COARSE
// abort categorization: a conflict happened, or capacity was exceeded, or an
// explicit abort / interrupt occurred — never *which* transaction caused it.
// Both backends in this project (the software TM and the simulator) report
// aborts through this one status word, whose bit layout follows Intel's
// <immintrin.h> _XABORT_* definitions, so a status reads exactly as RTM
// hardware would have reported it.
#pragma once

#include <cstdint>
#include <string_view>

namespace seer::htm {

// Bit layout of the EAX status returned by _xbegin() on abort.
inline constexpr unsigned kAbortExplicitBit = 1u << 0;  // _XABORT_EXPLICIT
inline constexpr unsigned kAbortRetryBit = 1u << 1;     // _XABORT_RETRY
inline constexpr unsigned kAbortConflictBit = 1u << 2;  // _XABORT_CONFLICT
inline constexpr unsigned kAbortCapacityBit = 1u << 3;  // _XABORT_CAPACITY
inline constexpr unsigned kAbortDebugBit = 1u << 4;     // _XABORT_DEBUG
inline constexpr unsigned kAbortNestedBit = 1u << 5;    // _XABORT_NESTED

// _XBEGIN_STARTED: the sentinel meaning "transaction is running".
inline constexpr unsigned kXBeginStarted = ~0u;

// Coarse abort categorization — the only information an HTM scheduler can
// rely on (Figure 1 of the paper).
enum class AbortCause : std::uint8_t {
  kConflict,  // data conflict with some (unknown) concurrent transaction
  kCapacity,  // read/write footprint exceeded the transactional buffers
  kExplicit,  // software called xabort (e.g. SGL found locked, Alg. 1 l.12)
  kOther,     // interrupt, ring transition, unsupported instruction, ...
};

[[nodiscard]] constexpr std::string_view to_string(AbortCause c) noexcept {
  switch (c) {
    case AbortCause::kConflict: return "conflict";
    case AbortCause::kCapacity: return "capacity";
    case AbortCause::kExplicit: return "explicit";
    case AbortCause::kOther: return "other";
  }
  return "?";
}

// Value-type wrapper around the raw EAX status word.
class AbortStatus {
 public:
  constexpr AbortStatus() = default;
  explicit constexpr AbortStatus(unsigned raw) noexcept : raw_(raw) {}

  // Factory helpers used by the software backends.
  static constexpr AbortStatus conflict(bool may_retry = true) noexcept {
    return AbortStatus(kAbortConflictBit | (may_retry ? kAbortRetryBit : 0u));
  }
  static constexpr AbortStatus capacity() noexcept {
    return AbortStatus(kAbortCapacityBit);
  }
  static constexpr AbortStatus explicit_abort(std::uint8_t code) noexcept {
    return AbortStatus(kAbortExplicitBit | (static_cast<unsigned>(code) << 24));
  }
  static constexpr AbortStatus other() noexcept { return AbortStatus(0u); }

  [[nodiscard]] constexpr unsigned raw() const noexcept { return raw_; }
  [[nodiscard]] constexpr bool is_conflict() const noexcept {
    return (raw_ & kAbortConflictBit) != 0;
  }
  [[nodiscard]] constexpr bool is_capacity() const noexcept {
    return (raw_ & kAbortCapacityBit) != 0;
  }
  [[nodiscard]] constexpr bool is_explicit() const noexcept {
    return (raw_ & kAbortExplicitBit) != 0;
  }
  [[nodiscard]] constexpr bool may_retry() const noexcept {
    return (raw_ & kAbortRetryBit) != 0;
  }
  // The 8-bit code passed to xabort (valid only when is_explicit()).
  [[nodiscard]] constexpr std::uint8_t explicit_code() const noexcept {
    return static_cast<std::uint8_t>(raw_ >> 24);
  }

  [[nodiscard]] constexpr AbortCause cause() const noexcept {
    // A status can set several bits; classify with the same precedence the
    // paper's discussion uses: capacity dominates (it is deterministic),
    // then conflict, then explicit.
    if (is_capacity()) return AbortCause::kCapacity;
    if (is_conflict()) return AbortCause::kConflict;
    if (is_explicit()) return AbortCause::kExplicit;
    return AbortCause::kOther;
  }

  constexpr friend bool operator==(AbortStatus a, AbortStatus b) noexcept {
    return a.raw_ == b.raw_;
  }

 private:
  unsigned raw_ = 0;
};

// Explicit-abort codes used by the runtime (conventional, mirror known
// HTM runtimes: code 0xFF signals "fallback lock was observed locked").
inline constexpr std::uint8_t kXAbortCodeSglLocked = 0xFF;

}  // namespace seer::htm
