#include "check/fault_plan.hpp"

namespace seer::check {

FaultPlan::FaultPlan(FaultPlanConfig cfg)
    : cfg_(cfg),
      probabilistic_(cfg.p_conflict + cfg.p_capacity + cfg.p_other > 0.0),
      rng_(cfg.seed) {}

void FaultPlan::force(std::uint64_t attempt, htm::TxOp op, std::uint64_t occurrence,
                      htm::AbortStatus status) {
  forced_.push_back(Forced{attempt, op, occurrence, status});
}

std::optional<htm::AbortStatus> FaultPlan::before_op(htm::TxOp op, std::uint64_t attempt,
                                                     std::uint64_t) noexcept {
  if (attempt != current_attempt_) {
    current_attempt_ = attempt;
    kind_counts_.fill(0);
  }
  const std::uint64_t occurrence = kind_counts_[static_cast<std::size_t>(op)]++;

  auto inject = [&](htm::AbortStatus s) -> std::optional<htm::AbortStatus> {
    ++injected_by_cause_[static_cast<std::size_t>(s.cause())];
    return s;
  };

  for (const Forced& f : forced_) {
    if (f.attempt == attempt && f.op == op && f.occurrence == occurrence) {
      return inject(f.status);
    }
  }

  if (probabilistic_) {
    // One draw per operation, spent whether or not a fault fires, so the
    // injection schedule is a pure function of (seed, op stream).
    const double u = rng_.uniform01();
    if (u < cfg_.p_conflict) return inject(htm::AbortStatus::conflict());
    if (u < cfg_.p_conflict + cfg_.p_capacity) {
      return inject(htm::AbortStatus::capacity());
    }
    if (u < cfg_.p_conflict + cfg_.p_capacity + cfg_.p_other) {
      return inject(htm::AbortStatus::other());
    }
  }
  return std::nullopt;
}

std::uint64_t FaultPlan::total_injected() const noexcept {
  std::uint64_t n = 0;
  for (auto c : injected_by_cause_) n += c;
  return n;
}

}  // namespace seer::check
