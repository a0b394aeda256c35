// FaultPlan — deterministic, seeded abort injection for SoftHtm.
//
// Real TSX aborts for reasons the program cannot see: interrupts, capacity
// overflow whose onset shifts with memory layout (Dice et al., "The
// Influence of Malloc Placement on TSX HTM"), and conflicts reported with
// no aggressor identity (the paper's §3 premise). A FaultPlan reproduces
// that hostile environment on demand: install one per ThreadContext (via
// SoftHtm::ThreadContext::set_fault_injector or the ThreadedExecutor handle
// passthrough) and the TM aborts exactly where the plan says, with the
// status the plan says, through the unchanged xbegin/xend interface — the
// scheduler above never knows the abort was synthetic.
//
// Two layers compose:
//   * forced faults pinned to an exact coordinate — "attempt 7 dies of
//     CAPACITY at its 3rd read" — for deterministic unit tests of every
//     abort code;
//   * a seeded probabilistic background — per-operation probabilities of
//     CONFLICT / CAPACITY / OTHER — for property tests. One RNG draw per
//     operation ties the decision stream to the (seed, op stream) pair, so
//     a failing seed replays the identical injection schedule.
//
// A plan is per-context state driven from one thread; it needs and has no
// synchronization.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "htm/instrument.hpp"
#include "util/rng.hpp"

namespace seer::check {

struct FaultPlanConfig {
  // Per-operation probabilities of injecting each abort cause (summed mass
  // must stay <= 1). All zero = forced faults only, no RNG draws.
  double p_conflict = 0.0;
  double p_capacity = 0.0;
  double p_other = 0.0;
  std::uint64_t seed = 1;
};

class FaultPlan final : public htm::FaultInjector {
 public:
  explicit FaultPlan(FaultPlanConfig cfg = {});

  // Pins an abort to the `occurrence`-th operation of kind `op` (0-based,
  // counted within the attempt) of the given 0-based attempt. "The commit"
  // is always (op = kCommit, occurrence = 0).
  void force(std::uint64_t attempt, htm::TxOp op, std::uint64_t occurrence,
             htm::AbortStatus status);

  [[nodiscard]] std::optional<htm::AbortStatus> before_op(
      htm::TxOp op, std::uint64_t attempt, std::uint64_t op_index) noexcept override;

  // Injection census, by htm::AbortCause index.
  [[nodiscard]] std::uint64_t injected(htm::AbortCause c) const noexcept {
    return injected_by_cause_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t total_injected() const noexcept;

 private:
  struct Forced {
    std::uint64_t attempt;
    htm::TxOp op;
    std::uint64_t occurrence;
    htm::AbortStatus status;
  };

  FaultPlanConfig cfg_;
  bool probabilistic_;
  util::Xoshiro256 rng_;
  std::vector<Forced> forced_;
  // Occurrence counters for the attempt currently in flight.
  std::uint64_t current_attempt_ = ~0ULL;
  std::array<std::uint64_t, htm::kTxOpCount> kind_counts_{};
  std::array<std::uint64_t, 4> injected_by_cause_{};
};

}  // namespace seer::check
