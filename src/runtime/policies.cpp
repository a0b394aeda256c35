#include "runtime/policies.hpp"

#include <cassert>

namespace seer::rt {

namespace {

// ATS's moving-average weight and the contention factor above which a
// thread serializes (Yoo & Lee's defaults).
constexpr double kAtsAlpha = 0.3;
constexpr double kAtsThreshold = 0.5;
// The Oracle serializes pair (x, y) once precisely-attributed conflicts
// between them account for more than this fraction of x's executions.
constexpr double kOracleConflictThreshold = 0.05;

// ---------------------------------------------------------------------------
// SCM (Afek, Levy, Morrison — PODC'14): after the first abort the
// transaction serializes on one auxiliary lock and keeps retrying in
// hardware while holding it. Restricts parallelism among *all* restarting
// transactions (the coarse-grained behaviour Table 3 quantifies).
class ScmPolicy final : public Policy {
 public:
  Directive next_attempt(int k, bool) override {
    Directive d;
    if (k == 1) d.acquires.push_back(kAuxLock);
    return d;
  }
};

// ---------------------------------------------------------------------------
// ATS (Yoo & Lee, SPAA'08): each thread keeps a contention factor updated on
// commit/abort; when it exceeds a threshold the thread serializes its whole
// transaction behind a single scheduling lock. Coarse-grained by
// construction — the contrast Seer is built against (Table 1). The factor is
// this thread's alone, so it lives here.
class AtsPolicy final : public Policy {
 public:
  void begin_tx(core::TxTypeId) override { serialize_ = contention_ > kAtsThreshold; }

  Directive next_attempt(int k, bool) override {
    Directive d;
    if (serialize_ && k == 0) d.acquires.push_back(kSchedLock);
    return d;
  }

  void on_abort(htm::AbortStatus) override { update(/*aborted=*/true); }
  void on_commit(bool) override { update(/*aborted=*/false); }

 private:
  void update(bool aborted) noexcept {
    contention_ = contention_ * (1.0 - kAtsAlpha) + (aborted ? kAtsAlpha : 0.0);
  }

  double contention_ = 0.0;
  bool serialize_ = false;
};

// ---------------------------------------------------------------------------
// Oracle: the upper-bound scheduler built on PRECISE conflict attribution
// (available only from backends that know the aggressor — the simulator,
// standing in for an STM's feedback). With exact pair conflict counts there
// is nothing to infer: flagged pairs are serialized from the FIRST retry,
// not the last-resort attempt, and no Gaussian filtering is needed.
class OraclePolicy final : public Policy {
 public:
  explicit OraclePolicy(OracleShared& shared) : shared_(shared) {}

  void begin_tx(core::TxTypeId tx) override {
    tx_ = tx;
    holds_tx_ = false;
    shared_.record_execution(tx);
    shared_.maybe_rebuild();
  }

  Directive next_attempt(int k, bool) override {
    Directive d;
    // Precise knowledge engages immediately: after the first abort the
    // flagged peers' locks are taken (contrast: Seer waits for the last
    // attempt).
    if (!holds_tx_ && k >= 1) {
      const core::LockRow row = shared_.scheme()->row(tx_);
      for (core::TxTypeId y : row) {
        d.acquires.push_back(tx_lock(static_cast<std::uint16_t>(y)));
      }
      holds_tx_ = !row.empty();
    }
    if (!holds_tx_) d.waits.push_back(tx_lock(static_cast<std::uint16_t>(tx_)));
    return d;
  }

  void on_conflict_attribution(core::TxTypeId culprit) override {
    shared_.record_conflict(tx_, culprit);
  }

 private:
  OracleShared& shared_;
  bool holds_tx_ = false;
  core::TxTypeId tx_ = core::kNoTx;
};

// ---------------------------------------------------------------------------
// Seer — Alg. 1-4 over the core scheduler (Alg. 5 lives in seer_core).
class SeerPolicy final : public Policy {
 public:
  SeerPolicy(core::SeerScheduler& sched, core::ThreadId self, std::uint16_t my_core)
      : sched_(sched), cfg_(sched.config()), self_(self), my_core_(my_core) {}

  void begin_tx(core::TxTypeId tx) override {
    tx_ = tx;
    want_core_ = false;
    holds_core_ = false;
    // Announce before executing (Alg. 1 line 5). Scheme maintenance is
    // driven by the driver through maintenance() — at transaction start
    // (DESIGN.md deviation #1) and while waiting on the SGL.
    sched_.announce(self_, tx);
  }

  Directive next_attempt(int, bool last) override {
    Directive d;
    // The core lock after a capacity abort; then the last-resort tx locks
    // (Alg. 4 lines 47-49), only on the last attempt. So the tx locks come
    // once per transaction, never before the core lock: every step takes
    // locks above the ones held (core < tx, lock_id.hpp).
    if (cfg_.enable_core_locks && want_core_ && !holds_core_) {
      d.acquires.push_back(core_lock(my_core_));
      holds_core_ = true;
    }
    bool holds_tx = false;
    if (cfg_.enable_tx_locks && last) {
      const core::LockRow row = sched_.scheme()->row(tx_);
      for (core::TxTypeId y : row) {
        d.acquires.push_back(tx_lock(static_cast<std::uint16_t>(y)));
      }
      holds_tx = !row.empty();
    }
    // §4's multi-CAS optimization: batch the lock acquisitions in one HTM
    // transaction.
    d.htm_batch = cfg_.enable_htm_lock_acquire;

    // Cooperative waiting (Alg. 4 lines 57-58): wait for our own tx lock and
    // core lock when some *other* thread holds them.
    if (!holds_tx && cfg_.enable_tx_locks) {
      d.waits.push_back(tx_lock(static_cast<std::uint16_t>(tx_)));
    }
    if (!holds_core_ && cfg_.enable_core_locks) d.waits.push_back(core_lock(my_core_));
    return d;
  }

  void on_abort(htm::AbortStatus status) override {
    sched_.record_abort(self_, tx_);  // Alg. 1 line 16
    if (status.cause() == htm::AbortCause::kCapacity) want_core_ = true;
  }

  // Alg. 1 lines 18-20: the fallback count snapshots report.
  void on_fallback() override { sched_.note_sgl_fallback(); }

  void on_commit(bool hardware) override {
    // Alg. 2 line 28 (only hardware commits carry scheduling evidence).
    if (hardware) sched_.record_commit(self_, tx_);
    sched_.clear(self_);  // Alg. 2 line 32
  }

  void on_abandon() override { sched_.clear(self_); }

  bool maintenance(std::uint64_t now) override {
    // Alg. 4 lines 52-54: one designated thread exploits SGL wait time (the
    // driver also calls this on the start path — DESIGN.md deviation #1).
    if (self_ != 0) return false;
    return sched_.maybe_update(self_, now);
  }

 private:
  core::SeerScheduler& sched_;
  const core::SeerConfig& cfg_;
  core::ThreadId self_;
  std::uint16_t my_core_;
  core::TxTypeId tx_ = core::kNoTx;
  bool want_core_ = false;
  bool holds_core_ = false;
};

}  // namespace

OracleShared::OracleShared(std::size_t n_types)
    : n_types_(n_types),
      pair_conflicts_(n_types * n_types),
      executions_(n_types),
      scheme_(std::make_shared<core::LockScheme>(n_types)) {}

void OracleShared::record_execution(core::TxTypeId x) noexcept {
  executions_[static_cast<std::size_t>(x)].fetch_add(1, std::memory_order_relaxed);
  since_rebuild_.fetch_add(1, std::memory_order_relaxed);
}

void OracleShared::record_conflict(core::TxTypeId victim,
                                   core::TxTypeId culprit) noexcept {
  pair_conflicts_[static_cast<std::size_t>(victim) * n_types_ +
                  static_cast<std::size_t>(culprit)]
      .fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t OracleShared::conflicts(core::TxTypeId x, core::TxTypeId y) const noexcept {
  return pair_conflicts_[static_cast<std::size_t>(x) * n_types_ +
                         static_cast<std::size_t>(y)]
      .load(std::memory_order_relaxed);
}

void OracleShared::maybe_rebuild() {
  std::uint64_t due = since_rebuild_.load(std::memory_order_relaxed);
  if (due < kOracleUpdatePeriod) return;
  if (!since_rebuild_.compare_exchange_strong(due, 0, std::memory_order_acq_rel)) {
    return;  // another thread claimed the rebuild
  }
  auto next = std::make_shared<core::LockScheme>(n_types_);
  const auto n = static_cast<core::TxTypeId>(n_types_);
  for (core::TxTypeId x = 0; x < n; ++x) {
    const auto ex = static_cast<double>(
        executions_[static_cast<std::size_t>(x)].load(std::memory_order_relaxed));
    if (ex <= 0.0) continue;
    for (core::TxTypeId y = 0; y < n; ++y) {
      const auto cxy = static_cast<double>(conflicts(x, y));
      if (cxy / ex > kOracleConflictThreshold) {
        next->add(x, y);
        next->add(y, x);
      }
    }
  }
  std::atomic_store_explicit(&scheme_, std::shared_ptr<const core::LockScheme>(next),
                             std::memory_order_release);
}

PolicyShared::PolicyShared(const PolicyConfig& cfg, std::size_t n_threads,
                           std::size_t n_types, std::size_t n_cores,
                           core::SeerSinks sinks)
    : cfg_(cfg), n_threads_(n_threads), n_types_(n_types), n_cores_(n_cores) {
  if (cfg_.kind == PolicyKind::kSeer) {
    seer_ = std::make_unique<core::SeerScheduler>(cfg_.seer, n_threads, n_types, sinks);
  }
  if (cfg_.kind == PolicyKind::kOracle) {
    oracle_ = std::make_unique<OracleShared>(n_types);
  }
}

std::unique_ptr<Policy> PolicyShared::make_thread_policy(core::ThreadId thread) {
  assert(thread < n_threads_);
  switch (cfg_.kind) {
    case PolicyKind::kHle:
    case PolicyKind::kRtm:
    case PolicyKind::kSgl: return std::make_unique<Policy>();  // no locks
    case PolicyKind::kScm: return std::make_unique<ScmPolicy>();
    case PolicyKind::kAts: return std::make_unique<AtsPolicy>();
    case PolicyKind::kSeer:
      return std::make_unique<SeerPolicy>(*seer_, thread,
                                          static_cast<std::uint16_t>(thread % n_cores_));
    case PolicyKind::kOracle: return std::make_unique<OraclePolicy>(*oracle_);
  }
  return nullptr;
}

}  // namespace seer::rt
