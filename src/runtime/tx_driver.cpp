#include "runtime/tx_driver.hpp"

#include <algorithm>
#include <cassert>
#include <new>
#include <string>
#include <type_traits>

namespace seer::rt {

ThreadCounters& ThreadCounters::operator+=(const ThreadCounters& o) noexcept {
  for (std::size_t m = 0; m < commits_by_mode.size(); ++m) {
    commits_by_mode[m] += o.commits_by_mode[m];
  }
  for (std::size_t c = 0; c < aborts_by_cause.size(); ++c) {
    aborts_by_cause[c] += o.aborts_by_cause[c];
  }
  hw_attempts += o.hw_attempts;
  return *this;
}

CommitMode classify_commit(const LockList& held, bool used_sgl) noexcept {
  if (used_sgl) return CommitMode::kSglFallback;
  bool aux = false;
  bool sched = false;
  bool txl = false;
  bool corel = false;
  for (const LockId& l : held) {
    switch (l.kind) {
      case LockKind::kAux: aux = true; break;
      case LockKind::kSched: sched = true; break;
      case LockKind::kTx: txl = true; break;
      case LockKind::kCore: corel = true; break;
      case LockKind::kSgl: break;
    }
  }
  if (aux) return CommitMode::kHtmAuxLock;
  if (sched) return CommitMode::kHtmSchedLock;
  if (txl && corel) return CommitMode::kHtmTxAndCore;
  if (txl) return CommitMode::kHtmTxLocks;
  if (corel) return CommitMode::kHtmCoreLock;
  return CommitMode::kHtmNoLocks;
}

TxMetrics::TxMetrics(obs::MetricsRegistry& m)
    : registry(&m),
      commits(m.counter("rt.commits")),
      hw_attempts(m.counter("rt.hw_attempts")),
      sgl_fallbacks(m.counter("rt.sgl_fallbacks")) {
  for (std::size_t c = 0; c < aborts.size(); ++c) {
    const auto cause = static_cast<htm::AbortCause>(c);
    aborts[c] = m.counter(std::string("rt.aborts.").append(htm::to_string(cause)));
  }
  retry_depth = m.histogram("rt.retry_depth");
}

TxDriver::TxDriver(PolicyShared& shared, core::ThreadId self, TxMetrics metrics,
                   TxTrace trace)
    : policy_(shared.make_thread_policy(self)),
      self_(self),
      budget_(shared.budget()),
      wait_sgl_(shared.waits_for_sgl()),
      metrics_(metrics),
      trace_(trace) {}

void TxDriver::begin(core::TxTypeId tx) {
  assert(state_ == State::kIdle && held_.empty());
  policy_->begin_tx(tx);
  tx_ = tx;
  attempts_ = 0;
  state_ = State::kDirective;
}

static_assert(std::is_trivially_destructible_v<Directive>);

Step TxDriver::next() {
  while (true) {
    switch (state_) {
      case State::kDirective:
        if (attempts_ >= budget_) {
          // The budget is spent (Alg. 1 lines 18-20): release every held
          // lock, then take the SGL.
          policy_->on_fallback();
          release_held_then(State::kFallback);
          break;
        }
        // Built in place: a Directive is a few hundred bytes, trivially
        // destructible, and this runs once per attempt.
        ::new (static_cast<void*>(&d_))
            Directive(policy_->next_attempt(attempts_, attempts_ + 1 == budget_));
        wait_idx_ = 0;
        state_ = d_.acquires.empty() ? State::kWaitSgl : State::kAcquire;
        break;
      case State::kAcquire:
        return {Step::Kind::kAcquire, d_.htm_batch && d_.acquires.size() >= 2, {},
                &d_.acquires};
      case State::kWaitSgl:
        if (wait_sgl_) return {Step::Kind::kWaitSgl, false, kSglLock};
        state_ = State::kWaitLock;
        break;
      case State::kWaitLock:
        if (wait_idx_ < d_.waits.size()) {
          return {Step::Kind::kWaitLock, false, d_.waits[wait_idx_]};
        }
        state_ = State::kAttempt;
        ++counters_.hw_attempts;
        ++attempts_;
        if (metrics_.registry != nullptr) {
          metrics_.registry->add(metrics_.hw_attempts, self_);
        }
        stamp(obs::TraceKind::kTxBegin, static_cast<std::uint64_t>(tx_));
        return {Step::Kind::kHwAttempt};
      case State::kAttempt: return {Step::Kind::kHwAttempt};
      case State::kReleaseHeld:
        if (!held_.empty()) {
          const LockId id = held_[0];
          std::rotate(held_.begin(), held_.begin() + 1, held_.end());
          held_.pop_back();  // the rest stays in canonical order
          return {Step::Kind::kRelease, false, id};
        }
        state_ = then_;
        break;
      case State::kFallback: return {Step::Kind::kFallback};
      case State::kDone:
      case State::kIdle:
        assert(state_ == State::kDone && "next() outside a transaction");
        state_ = State::kIdle;
        return {Step::Kind::kDone};
    }
  }
}

void TxDriver::acquired() {
  assert(state_ == State::kAcquire);
  for (const LockId& id : d_.acquires) {
    // Canonical order with nothing given back early: a step takes only locks
    // above every lock already held, so hold-and-wait stays acyclic and the
    // held set stays sorted.
    assert((held_.empty() || held_.back() < id) && "acquired below a held lock");
    held_.push_back(id);
  }
  state_ = State::kWaitSgl;
}

void TxDriver::sgl_acquired() {
  assert(state_ == State::kFallback);
  stamp(obs::TraceKind::kSglFallback, static_cast<std::uint64_t>(tx_));
}

CommitMode TxDriver::committed(bool hardware) {
  assert(state_ == (hardware ? State::kAttempt : State::kFallback));
  stamp(obs::TraceKind::kTxCommit, static_cast<std::uint64_t>(tx_));
  const CommitMode mode = classify_commit(held_, /*used_sgl=*/!hardware);
  counters_.commits_by_mode[static_cast<std::size_t>(mode)]++;
  if (obs::MetricsRegistry* m = metrics_.registry; m != nullptr) {
    m->add(metrics_.commits, self_);
    m->observe(metrics_.retry_depth, self_, static_cast<std::uint64_t>(attempts_));
    if (mode == CommitMode::kSglFallback) m->add(metrics_.sgl_fallbacks, self_);
  }
  policy_->on_commit(hardware);
  release_held_then(State::kDone);
  return mode;
}

void TxDriver::aborted(htm::AbortStatus status, core::TxTypeId culprit) {
  assert(state_ == State::kAttempt);
  const auto cause = static_cast<std::size_t>(status.cause());
  stamp(obs::TraceKind::kTxAbort, cause);
  counters_.aborts_by_cause[cause]++;
  if (metrics_.registry != nullptr) metrics_.registry->add(metrics_.aborts[cause], self_);
  if (culprit != core::kNoTx) policy_->on_conflict_attribution(culprit);
  policy_->on_abort(status);
  state_ = State::kDirective;
}

void TxDriver::abandon() {
  policy_->on_abandon();
  release_held_then(State::kDone);
}

}  // namespace seer::rt
