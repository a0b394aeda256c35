#include "runtime/threaded_executor.hpp"

#include <thread>

#include "util/backoff.hpp"

namespace seer::rt {

namespace {

// Spin budget for cooperative (non-acquiring) waits on tx/core locks.
// Bounded so that the wait heuristic can never deadlock (DESIGN.md §7).
constexpr std::uint64_t kWaitSpinBudget = 1u << 14;
// All-or-nothing batched lock acquisition attempts before falling back to
// blocking in-order acquisition.
constexpr int kBatchTries = 8;

}  // namespace

ThreadedExecutor::ThreadedExecutor(htm::SoftHtm& tm, const PolicyConfig& policy,
                                   Options opts)
    : tm_(tm),
      opts_(opts),
      shared_(policy, opts.n_threads, opts.n_types, opts.physical_cores,
              {.metrics = opts.metrics,
               .trace = opts.trace,
               .recorder = opts.recorder,
               .time_rebuilds = true}),
      locks_(opts.n_types, opts.physical_cores) {
  if (opts_.metrics != nullptr) {
    obs::MetricsRegistry& m = *opts_.metrics;
    tx_metrics_ = TxMetrics(m);
    htm_metrics_.registry = opts_.metrics;
    htm_metrics_.promote_capacity = m.counter("htm.read_promote.capacity");
    htm_metrics_.capacity_abort_sig = m.counter("htm.aborts.capacity.sig_only");
    htm_metrics_.capacity_abort_exact = m.counter("htm.aborts.capacity.exact");
    htm_metrics_.extensions = m.counter("htm.extensions");
    htm_metrics_.extension_reads = m.counter("htm.extension_reads");
    htm_metrics_.lock_wait_timeouts = m.counter("htm.lock_wait_timeouts");
  }
}

void ThreadedExecutor::ThreadHandle::perform(const Step& s) {
  LockSpace& locks = exec_->locks_;
  switch (s.kind) {
    case Step::Kind::kRelease:
      locks.get(s.lock).unlock();
      return;
    case Step::Kind::kAcquire:
      if (s.htm_batch) {
        // §4's multi-CAS optimization: all locks or none. Real TSX uses one
        // hardware transaction over the lock words; an atomic try-all keeps
        // those semantics over the software TM (see DESIGN.md).
        for (int attempt = 0; attempt < kBatchTries; ++attempt) {
          std::size_t got = 0;
          while (got < s.locks->size() && locks.get((*s.locks)[got]).try_lock()) ++got;
          if (got == s.locks->size()) {
            driver_.acquired();
            return;
          }
          for (std::size_t i = 0; i < got; ++i) locks.get((*s.locks)[i]).unlock();
          std::this_thread::yield();
        }
      }
      // Blocking acquisition in the canonical order the policy supplied —
      // globally consistent, hence deadlock-free.
      for (const LockId& id : *s.locks) locks.get(id).lock();
      driver_.acquired();
      return;
    case Step::Kind::kWaitSgl: {
      // Alg. 4 line 55; while waiting, the designated thread opportunistically
      // refreshes the locking scheme (lines 52-54).
      util::Backoff backoff;
      while (locks.sgl().is_locked()) {
        driver_.maintenance(obs::now_ticks());
        backoff.pause();
      }
      driver_.wait_over(WaitEnd::kFree);
      return;
    }
    case Step::Kind::kWaitLock: {
      // Cooperative waits are bounded: they are a scheduling heuristic, not
      // a correctness mechanism, and bounding them rules out waiting cycles.
      util::Backoff backoff;
      driver_.wait_over(wait_for_release(locks.get(s.lock), kWaitSpinBudget,
                                         [&] { backoff.pause(); }));
      return;
    }
    case Step::Kind::kHwAttempt:
    case Step::Kind::kFallback:
    case Step::Kind::kDone:
      break;  // run() performs these
  }
  assert(false && "not a lock step");
}

ExecutorStats ThreadedExecutor::aggregate(
    const std::vector<std::unique_ptr<ThreadHandle>>& handles) {
  ExecutorStats stats;
  for (const auto& h : handles) {
    if (h) stats.total += h->counters();
  }
  return stats;
}

}  // namespace seer::rt
