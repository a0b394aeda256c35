// The scheduling policies evaluated in the paper (§2, §5.1) plus Seer. All
// of them run the one retry loop of rt::TxDriver (Alg. 1's START): `budget()`
// hardware attempts, each preceded by a wait for the SGL to be free where
// `waits_for_sgl()`, then the SGL. They differ in the budget, the SGL wait
// and the locks they take around an attempt:
//
//   HLE  — hardware lock elision: a tiny implicit budget, no waiting on the
//          fallback lock (hence the lemming effect under contention).
//   RTM  — the software retry loop (budget 5) with the SGL wait. The
//          de-facto technique for commodity HTM; ATS-in-spirit per the
//          paper's discussion.
//   SCM  — software-assisted conflict management (Afek et al., PODC'14):
//          aborted transactions serialize on one auxiliary lock before
//          retrying in hardware.
//   ATS  — adaptive transaction scheduling (Yoo & Lee, SPAA'08): a
//          per-thread contention factor decides whether to serialize the
//          whole transaction behind a single scheduling lock.
//   SGL  — a budget of zero: always take the global lock (pessimistic bound).
//   Seer — this paper: Alg. 1-5 over the core scheduler.
//
// HLE, RTM and SGL take no locks, so they run the base Policy.
#pragma once

#include <memory>
#include <vector>

#include "core/seer_scheduler.hpp"
#include "runtime/policy.hpp"

namespace seer::rt {

// kOracle is an upper-bound baseline available only where precise conflict
// attribution exists (the simulator, standing in for an STM's feedback —
// Figure 1): it learns the conflict graph from exact aggressor identities
// and serializes flagged pairs from the first retry on. The gap between
// Seer and Oracle measures what the probabilistic inference loses to the
// imprecision of commodity HTM feedback.
enum class PolicyKind : std::uint8_t { kHle, kRtm, kScm, kAts, kSgl, kSeer, kOracle };

[[nodiscard]] constexpr const char* to_string(PolicyKind k) noexcept {
  switch (k) {
    case PolicyKind::kHle: return "HLE";
    case PolicyKind::kRtm: return "RTM";
    case PolicyKind::kScm: return "SCM";
    case PolicyKind::kAts: return "ATS";
    case PolicyKind::kSgl: return "SGL";
    case PolicyKind::kSeer: return "Seer";
    case PolicyKind::kOracle: return "Oracle";
  }
  return "?";
}

// Hardware attempts before the SGL for every kind but HLE and SGL (paper
// §5.1: "a budget of 5 for all approaches").
inline constexpr int kMaxAttempts = 5;
// HLE's implicit, implementation-defined budget.
inline constexpr int kHleAttempts = 2;
// Executions between the Oracle's scheme rebuilds.
inline constexpr std::uint64_t kOracleUpdatePeriod = 512;

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kRtm;
  core::SeerConfig seer{};
};

// Shared state of the Oracle baseline: exact pairwise conflict counts fed
// by precise attribution, and the lock scheme derived from them.
class OracleShared {
 public:
  explicit OracleShared(std::size_t n_types);

  void record_execution(core::TxTypeId x) noexcept;
  void record_conflict(core::TxTypeId victim, core::TxTypeId culprit) noexcept;

  // Rebuilds the scheme if due (any thread may call; internally throttled).
  void maybe_rebuild();

  [[nodiscard]] std::shared_ptr<const core::LockScheme> scheme() const {
    return std::atomic_load_explicit(&scheme_, std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t conflicts(core::TxTypeId x,
                                        core::TxTypeId y) const noexcept;

 private:
  std::size_t n_types_;
  std::vector<std::atomic<std::uint64_t>> pair_conflicts_;  // n*n
  std::vector<std::atomic<std::uint64_t>> executions_;      // n
  std::atomic<std::uint64_t> since_rebuild_{0};
  std::shared_ptr<const core::LockScheme> scheme_;
};

// Global state shared by all threads running one policy instance (the
// SeerScheduler, the Oracle's counts). Create one per experiment, then one
// Policy per thread from it. `n_cores` is the backend's core-lock count:
// thread t's core lock is core_lock(t % n_cores). `sinks` are the backend's,
// attached to the SeerScheduler under PolicyKind::kSeer.
class PolicyShared {
 public:
  PolicyShared(const PolicyConfig& cfg, std::size_t n_threads, std::size_t n_types,
               std::size_t n_cores, core::SeerSinks sinks = {});

  [[nodiscard]] std::unique_ptr<Policy> make_thread_policy(core::ThreadId thread);

  [[nodiscard]] const PolicyConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t n_threads() const noexcept { return n_threads_; }
  [[nodiscard]] std::size_t n_types() const noexcept { return n_types_; }

  // Hardware attempts per transaction before the SGL: kHleAttempts for HLE,
  // 0 for SGL, kMaxAttempts for every other kind.
  [[nodiscard]] int budget() const noexcept {
    if (cfg_.kind == PolicyKind::kHle) return kHleAttempts;
    return cfg_.kind == PolicyKind::kSgl ? 0 : kMaxAttempts;
  }
  // Whether each attempt first waits for the SGL to be free (lemming-effect
  // avoidance): every kind but HLE.
  [[nodiscard]] bool waits_for_sgl() const noexcept {
    return cfg_.kind != PolicyKind::kHle;
  }

  // Non-null only for PolicyKind::kSeer.
  [[nodiscard]] core::SeerScheduler* seer() noexcept { return seer_.get(); }

  // Non-null only for PolicyKind::kOracle.
  [[nodiscard]] OracleShared* oracle() noexcept { return oracle_.get(); }

 private:
  PolicyConfig cfg_;
  std::size_t n_threads_;
  std::size_t n_types_;
  std::size_t n_cores_;
  std::unique_ptr<core::SeerScheduler> seer_;
  std::unique_ptr<OracleShared> oracle_;
};

}  // namespace seer::rt
