#include "runtime/policies.hpp"

#include <cassert>

namespace seer::rt {

namespace {

// ---------------------------------------------------------------------------
// HLE, RTM and SGL: a plain retry loop, `budget` hardware attempts and then
// the SGL. RTM is the software loop every production TSX runtime uses (budget
// MAX_ATTEMPTS, wait while the SGL is locked before each attempt). HLE is
// implicit elision: a tiny budget and, crucially, no waiting on the fallback
// lock before re-attempting, which is exactly what produces the lemming
// effect the paper describes (§5.1, citing Dice et al. [6]). SGL, the
// pessimistic lower bound, has no attempts: every transaction takes the
// global lock.
class RetryPolicy final : public Policy {
 public:
  RetryPolicy(int budget, bool wait_sgl) : budget_(budget), wait_sgl_(wait_sgl) {}

  void begin_tx(core::TxTypeId) override { attempts_ = budget_; }

  Directive next_attempt() override {
    Directive d;
    if (attempts_ <= 0) {
      d.mode = Directive::Mode::kFallback;
      return d;
    }
    d.mode = Directive::Mode::kHardware;
    d.wait_sgl = wait_sgl_;
    return d;
  }

  void on_abort(htm::AbortStatus) override { --attempts_; }

 private:
  int budget_;
  bool wait_sgl_;
  int attempts_ = 0;
};

// ---------------------------------------------------------------------------
// SCM (Afek, Levy, Morrison — PODC'14): after the first abort the
// transaction serializes on one auxiliary lock and keeps retrying in
// hardware while holding it; the SGL is reached only when the budget runs
// out. Restricts parallelism among *all* restarting transactions (the
// coarse-grained behaviour Table 3 quantifies).
class ScmPolicy final : public Policy {
 public:
  explicit ScmPolicy(int budget) : budget_(budget) {}

  void begin_tx(core::TxTypeId) override {
    attempts_ = budget_;
    want_aux_ = false;
    holds_aux_ = false;
  }

  Directive next_attempt() override {
    Directive d;
    if (attempts_ <= 0) {
      d.mode = Directive::Mode::kFallback;
      return d;
    }
    d.mode = Directive::Mode::kHardware;
    d.wait_sgl = true;
    if (want_aux_ && !holds_aux_) {
      d.acquires.push_back(kAuxLock);
      holds_aux_ = true;
    }
    return d;
  }

  void on_abort(htm::AbortStatus) override {
    --attempts_;
    want_aux_ = true;
  }

 private:
  int budget_;
  int attempts_ = 0;
  bool want_aux_ = false;
  bool holds_aux_ = false;
};

// ---------------------------------------------------------------------------
// ATS (Yoo & Lee, SPAA'08): each thread keeps a contention factor updated on
// commit/abort; when it exceeds a threshold the thread serializes its whole
// attempt behind a single scheduling lock. Coarse-grained by construction —
// the contrast Seer is built against (Table 1).
class AtsPolicy final : public Policy {
 public:
  AtsPolicy(PolicyShared& shared, core::ThreadId self, int budget)
      : shared_(shared), self_(self), budget_(budget) {}

  void begin_tx(core::TxTypeId) override {
    attempts_ = budget_;
    holds_sched_ = false;
    serialize_ = shared_.ats_contention(self_) > shared_.config().ats.threshold;
  }

  Directive next_attempt() override {
    Directive d;
    if (attempts_ <= 0) {
      d.mode = Directive::Mode::kFallback;
      return d;
    }
    d.mode = Directive::Mode::kHardware;
    d.wait_sgl = true;
    if (serialize_ && !holds_sched_) {
      d.acquires.push_back(kSchedLock);
      holds_sched_ = true;
    }
    return d;
  }

  void on_abort(htm::AbortStatus) override {
    --attempts_;
    shared_.ats_update(self_, /*aborted=*/true);
  }

  void on_commit(bool) override { shared_.ats_update(self_, /*aborted=*/false); }

 private:
  PolicyShared& shared_;
  core::ThreadId self_;
  int budget_;
  int attempts_ = 0;
  bool holds_sched_ = false;
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
  OraclePolicy(OracleShared& shared, int budget) : shared_(shared), budget_(budget) {}

  void begin_tx(core::TxTypeId tx) override {
    tx_ = tx;
    attempts_ = budget_;
    holds_tx_ = false;
    shared_.record_execution(tx);
    shared_.maybe_rebuild();
  }

  Directive next_attempt() override {
    Directive d;
    if (attempts_ <= 0) {
      d.mode = Directive::Mode::kFallback;
      return d;
    }
    d.mode = Directive::Mode::kHardware;
    d.wait_sgl = true;
    // Precise knowledge engages immediately: after the first abort the
    // flagged peers' locks are taken (contrast: Seer waits for attempts==1).
    if (!holds_tx_ && attempts_ < budget_) {
      const core::LockRow row = shared_.scheme()->row(tx_);
      if (!row.empty()) {
        for (core::TxTypeId y : row) {
          d.acquires.push_back(tx_lock(static_cast<std::uint16_t>(y)));
        }
        holds_tx_ = true;
      }
    }
    if (!holds_tx_) d.waits.push_back(tx_lock(static_cast<std::uint16_t>(tx_)));
    return d;
  }

  void on_conflict_attribution(core::TxTypeId culprit) override {
    shared_.record_conflict(tx_, culprit);
  }

  void on_abort(htm::AbortStatus) override { --attempts_; }

 private:
  OracleShared& shared_;
  int budget_;
  int attempts_ = 0;
  bool holds_tx_ = false;
  core::TxTypeId tx_ = core::kNoTx;
};

// ---------------------------------------------------------------------------
// Seer — Alg. 1-4 over the core scheduler (Alg. 5 lives in seer_core).
class SeerPolicy final : public Policy {
 public:
  SeerPolicy(core::SeerScheduler& sched, core::ThreadId self, int budget)
      : sched_(sched),
        cfg_(sched.config()),
        self_(self),
        my_core_(static_cast<std::uint16_t>(self % cfg_.physical_cores)),
        budget_(budget) {}

  void begin_tx(core::TxTypeId tx) override {
    tx_ = tx;
    attempts_ = budget_;
    want_core_ = false;
    holds_core_ = false;
    holds_tx_ = false;
    // Announce before executing (Alg. 1 line 5). Scheme maintenance is
    // driven by the driver through maintenance() — at transaction start
    // (DESIGN.md deviation #1) and while waiting on the SGL.
    sched_.announce(self_, tx);
  }

  Directive next_attempt() override {
    Directive d;
    if (attempts_ <= 0) {
      // Alg. 1 lines 18-20: the driver releases every Seer lock, then takes
      // the SGL.
      sched_.note_sgl_fallback();  // storm detector + flight recorder feed
      d.mode = Directive::Mode::kFallback;
      return d;
    }
    d.mode = Directive::Mode::kHardware;
    d.wait_sgl = true;  // Alg. 4 line 55

    // The core lock after a capacity abort; then the last-resort tx locks
    // (Alg. 4 lines 47-49), only when one attempt remains. So the tx locks
    // come once per transaction, never before the core lock: every step
    // takes locks above the ones held (core < tx, lock_id.hpp).
    if (cfg_.enable_core_locks && want_core_ && !holds_core_) {
      d.acquires.push_back(core_lock(my_core_));
      holds_core_ = true;
    }
    if (cfg_.enable_tx_locks && attempts_ == 1 && !holds_tx_) {
      const core::LockRow row = sched_.scheme()->row(tx_);
      for (core::TxTypeId y : row) {
        d.acquires.push_back(tx_lock(static_cast<std::uint16_t>(y)));
      }
      holds_tx_ = !row.empty();
    }
    // §4's multi-CAS optimization: batch 2+ lock acquisitions in one HTM
    // transaction.
    d.htm_batch = cfg_.enable_htm_lock_acquire && d.acquires.size() >= 2;

    // Cooperative waiting (Alg. 4 lines 57-58): wait for our own tx lock and
    // core lock when some *other* thread holds them.
    if (!holds_tx_ && cfg_.enable_tx_locks) {
      d.waits.push_back(tx_lock(static_cast<std::uint16_t>(tx_)));
    }
    if (!holds_core_ && cfg_.enable_core_locks) d.waits.push_back(core_lock(my_core_));
    return d;
  }

  void on_abort(htm::AbortStatus status) override {
    sched_.record_abort(self_, tx_);  // Alg. 1 line 16
    --attempts_;
    if (status.cause() == htm::AbortCause::kCapacity) want_core_ = true;
  }

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
  int budget_;
  core::TxTypeId tx_ = core::kNoTx;
  int attempts_ = 0;
  bool want_core_ = false;
  bool holds_core_ = false;
  bool holds_tx_ = false;
};

}  // namespace

OracleShared::OracleShared(std::size_t n_types, const OracleParams& params)
    : n_types_(n_types),
      params_(params),
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
  if (due < params_.update_period) return;
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
      if (cxy / ex > params_.conflict_threshold) {
        next->add(x, y);
        next->add(y, x);
      }
    }
  }
  std::atomic_store_explicit(&scheme_, std::shared_ptr<const core::LockScheme>(next),
                             std::memory_order_release);
}

PolicyShared::PolicyShared(const PolicyConfig& cfg, std::size_t n_threads,
                           std::size_t n_types)
    : cfg_(cfg), n_threads_(n_threads), n_types_(n_types), ats_cf_(n_threads) {
  if (cfg_.kind == PolicyKind::kSeer) {
    core::SeerConfig sc = cfg_.seer;
    sc.n_threads = n_threads;
    sc.n_types = n_types;
    seer_ = std::make_unique<core::SeerScheduler>(sc);
  }
  if (cfg_.kind == PolicyKind::kOracle) {
    oracle_ = std::make_unique<OracleShared>(n_types, cfg_.oracle);
  }
  for (auto& c : ats_cf_) c.value.store(0.0, std::memory_order_relaxed);
}

double PolicyShared::ats_contention(core::ThreadId t) const noexcept {
  return ats_cf_[t].value.load(std::memory_order_relaxed);
}

void PolicyShared::ats_update(core::ThreadId t, bool aborted) noexcept {
  const double alpha = cfg_.ats.alpha;
  const double cur = ats_cf_[t].value.load(std::memory_order_relaxed);
  const double next = cur * (1.0 - alpha) + (aborted ? alpha : 0.0);
  ats_cf_[t].value.store(next, std::memory_order_relaxed);
}

std::unique_ptr<Policy> PolicyShared::make_thread_policy(core::ThreadId thread) {
  assert(thread < n_threads_);
  switch (cfg_.kind) {
    case PolicyKind::kHle:
      return std::make_unique<RetryPolicy>(cfg_.hle_attempts, /*wait_sgl=*/false);
    case PolicyKind::kRtm:
      return std::make_unique<RetryPolicy>(cfg_.max_attempts, /*wait_sgl=*/true);
    case PolicyKind::kScm:
      return std::make_unique<ScmPolicy>(cfg_.max_attempts);
    case PolicyKind::kAts:
      return std::make_unique<AtsPolicy>(*this, thread, cfg_.max_attempts);
    case PolicyKind::kSgl:
      return std::make_unique<RetryPolicy>(/*budget=*/0, /*wait_sgl=*/false);
    case PolicyKind::kSeer:
      return std::make_unique<SeerPolicy>(*seer_, thread, cfg_.max_attempts);
    case PolicyKind::kOracle:
      return std::make_unique<OraclePolicy>(*oracle_, cfg_.max_attempts);
  }
  return nullptr;
}

}  // namespace seer::rt
