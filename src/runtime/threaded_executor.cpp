#include "runtime/threaded_executor.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/backoff.hpp"

namespace seer::rt {

namespace {

// Spin budget for cooperative (non-acquiring) waits on tx/core locks.
// Bounded so that the wait heuristic can never deadlock (DESIGN.md).
constexpr std::uint64_t kWaitSpinBudget = 1u << 14;
// All-or-nothing batched lock acquisition attempts before falling back to
// blocking in-order acquisition.
constexpr int kBatchTries = 8;

}  // namespace

ThreadedExecutor::ThreadedExecutor(htm::SoftHtm& tm, const PolicyConfig& policy,
                                   Options opts)
    : tm_(tm),
      opts_(opts),
      shared_(with_obs(policy, opts), opts.n_threads, opts.n_types),
      locks_(opts.n_types, opts.physical_cores) {
  if (opts_.metrics != nullptr) {
    obs::MetricsRegistry& m = *opts_.metrics;
    m_commits_ = m.counter("rt.commits");
    m_sgl_fallbacks_ = m.counter("rt.sgl_fallbacks");
    h_retry_depth_ = m.histogram("rt.retry_depth");
    for (std::size_t c = 0; c < m_aborts_.size(); ++c) {
      m_aborts_[c] = m.counter(
          std::string("rt.aborts.")
              .append(htm::to_string(static_cast<htm::AbortCause>(c))));
    }
    htm_metrics_.registry = opts_.metrics;
    htm_metrics_.promote_capacity = m.counter("htm.read_promote.capacity");
    htm_metrics_.capacity_abort_sig = m.counter("htm.aborts.capacity.sig_only");
    htm_metrics_.capacity_abort_exact = m.counter("htm.aborts.capacity.exact");
  }
}

std::uint64_t ThreadedExecutor::ThreadHandle::now() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();  // the paper's RDTSC-based feedback clock
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

void ThreadedExecutor::ThreadHandle::apply_releases(const Directive& d, LockList& held) {
  for (const LockId& id : d.releases) {
    exec_->locks_.get(id).unlock();
    auto it = std::find(held.begin(), held.end(), id);
    assert(it != held.end() && "policy released a lock the driver never took");
    if (it != held.end()) {
      *it = held.back();
      held.pop_back();
    }
  }
}

void ThreadedExecutor::ThreadHandle::acquire_locks(const Directive& d, LockList& held) {
  if (d.acquires.empty()) return;
  bool done = false;
  if (d.htm_batch && d.acquires.size() >= 2) {
    // §4's multi-CAS optimization: grab all locks all-or-nothing. On real
    // TSX this is one hardware transaction over the lock words; over the
    // software TM an equivalent atomic try-all (see DESIGN.md) keeps the
    // all-or-nothing semantics without transacting on directly-mutated
    // words.
    for (int attempt = 0; attempt < kBatchTries && !done; ++attempt) {
      std::size_t got = 0;
      for (; got < d.acquires.size(); ++got) {
        if (!exec_->locks_.get(d.acquires[got]).try_lock()) break;
      }
      if (got == d.acquires.size()) {
        done = true;
      } else {
        for (std::size_t i = 0; i < got; ++i) {
          exec_->locks_.get(d.acquires[i]).unlock();
        }
        std::this_thread::yield();
      }
    }
  }
  if (!done) {
    // Blocking acquisition in the canonical order the policy supplied —
    // globally consistent, hence deadlock-free.
    for (const LockId& id : d.acquires) exec_->locks_.get(id).lock();
  }
  for (const LockId& id : d.acquires) held.push_back(id);
}

void ThreadedExecutor::ThreadHandle::wait_locks(const Directive& d) {
  if (d.wait_sgl) {
    // Alg. 4 line 55; while waiting, the designated thread opportunistically
    // refreshes the locking scheme (lines 52-54).
    WordLock& sgl = exec_->locks_.sgl();
    util::Backoff backoff;
    while (sgl.is_locked()) {
      policy_->maintenance(now());
      backoff.pause();
    }
  }
  // Cooperative waits are bounded: they are a scheduling heuristic, not a
  // correctness mechanism, and bounding them rules out waiting cycles.
  for (const LockId& id : d.waits) {
    const WordLock& l = exec_->locks_.get(id);
    util::Backoff backoff;
    for (std::uint64_t spin = 0;
         l.is_locked() && spin < kWaitSpinBudget; ++spin) {
      backoff.pause();
    }
  }
}

void ThreadedExecutor::ThreadHandle::finish(bool hardware, LockList& held) {
  const LockList to_release = policy_->on_commit(hardware);
  for (const LockId& id : to_release) {
    exec_->locks_.get(id).unlock();
    auto it = std::find(held.begin(), held.end(), id);
    assert(it != held.end() && "policy released a lock the driver never took");
    if (it != held.end()) {
      *it = held.back();
      held.pop_back();
    }
  }
  assert(held.empty() && "locks leaked across transaction completion");
  held.clear();
}

void ThreadedExecutor::ThreadHandle::abandon(LockList& held) {
  for (const LockId& id : held) exec_->locks_.get(id).unlock();
  held.clear();
  policy_->on_abandon();
}

ExecutorStats ThreadedExecutor::aggregate(
    const std::vector<std::unique_ptr<ThreadHandle>>& handles) {
  ExecutorStats stats;
  for (const auto& h : handles) {
    if (!h) continue;
    const ThreadCounters& c = h->counters();
    for (std::size_t i = 0; i < c.commits_by_mode.size(); ++i) {
      stats.total.commits_by_mode[i] += c.commits_by_mode[i];
    }
    for (std::size_t i = 0; i < c.aborts_by_cause.size(); ++i) {
      stats.total.aborts_by_cause[i] += c.aborts_by_cause[i];
    }
    stats.total.hw_attempts += c.hw_attempts;
  }
  return stats;
}

}  // namespace seer::rt
