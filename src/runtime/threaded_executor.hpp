// ThreadedExecutor — the real-threads driver of the policy protocol.
//
// Reifies the symbolic lock space as WordLocks, runs transaction bodies over
// a SoftHtm (or, with SEER_ENABLE_TSX, real RTM hardware) and drives any
// Policy through the protocol documented in policy.hpp. This is the
// embedding a downstream user links against: create one executor, one
// ThreadHandle per thread, and call handle.run(txType, body).
//
// The transaction body must be a generic callable `void(auto& tx)` using
// only tx.read / tx.write / tx.abort on htm::TmWord memory. Both paths run
// it through SoftHtm: speculatively with hardware-like capacity limits, or
// — on the single-global-lock fallback — as an unbounded stripe-coordinated
// transaction retried while holding the SGL (which keeps pessimistic
// updates atomic against in-flight speculative commits).
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/topology.hpp"
#include "htm/soft_htm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/policies.hpp"
#include "runtime/policy.hpp"
#include "runtime/word_lock.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"

namespace seer::rt {

// The concrete lock objects behind the symbolic LockIds.
class LockSpace {
 public:
  LockSpace(std::size_t n_types, std::size_t physical_cores)
      : tx_locks_(n_types), core_locks_(physical_cores) {}

  [[nodiscard]] WordLock& sgl() noexcept { return sgl_; }

  [[nodiscard]] WordLock& get(LockId id) noexcept {
    switch (id.kind) {
      case LockKind::kSgl: return sgl_;
      case LockKind::kAux: return aux_;
      case LockKind::kSched: return sched_;
      case LockKind::kTx: return tx_locks_[id.index].value;
      case LockKind::kCore: return core_locks_[id.index].value;
    }
    __builtin_unreachable();
  }

 private:
  WordLock sgl_;
  WordLock aux_;
  WordLock sched_;
  std::vector<util::Padded<WordLock>> tx_locks_;
  std::vector<util::Padded<WordLock>> core_locks_;
};

// Per-thread outcome counters (single-writer; summed on demand).
struct ThreadCounters {
  std::array<std::uint64_t, static_cast<std::size_t>(CommitMode::kModeCount)>
      commits_by_mode{};
  std::array<std::uint64_t, 4> aborts_by_cause{};  // indexed by AbortCause
  std::uint64_t hw_attempts = 0;
};

struct ExecutorStats {
  ThreadCounters total;

  [[nodiscard]] std::uint64_t commits() const noexcept {
    std::uint64_t n = 0;
    for (auto c : total.commits_by_mode) n += c;
    return n;
  }
  [[nodiscard]] std::uint64_t aborts() const noexcept {
    std::uint64_t n = 0;
    for (auto c : total.aborts_by_cause) n += c;
    return n;
  }
  [[nodiscard]] double mode_fraction(CommitMode m) const noexcept {
    const std::uint64_t c = commits();
    return c == 0 ? 0.0
                  : static_cast<double>(
                        total.commits_by_mode[static_cast<std::size_t>(m)]) /
                        static_cast<double>(c);
  }
};

class ThreadedExecutor {
 public:
  struct Options {
    std::size_t n_threads = 4;
    std::size_t n_types = 4;
    std::size_t physical_cores = 4;
    // Optional machine shape forwarded to the Seer scheduler (NUMA-aware
    // shard layout). When set, keep physical_cores equal to its
    // sockets x cores_per_socket — LockSpace's core slice is sized from
    // physical_cores and the scheduler derives the same count from the
    // topology.
    std::optional<core::Topology> topology;

    // --- observability (src/obs/, DESIGN.md §8) --------------------------
    // Optional sinks shared by the executor, the SoftHtm contexts it owns
    // and (unless the policy config installs its own) the Seer scheduler.
    // Both must outlive the executor; the embedder freezes the registry
    // after constructing the executor and before spawning threads.
    obs::MetricsRegistry* metrics = nullptr;
    obs::TraceSink* trace = nullptr;
  };

  ThreadedExecutor(htm::SoftHtm& tm, const PolicyConfig& policy, Options opts);

  class ThreadHandle {
   public:
    // Executes one transaction of type `tx` to completion under the policy.
    // Returns how it ultimately committed.
    template <typename Body>
    CommitMode run(core::TxTypeId tx, Body&& body) {
      assert(tx >= 0 && static_cast<std::size_t>(tx) < exec_->opts_.n_types);
      policy_->maintenance(now());
      policy_->begin_tx(tx);
      LockList held;
      std::uint64_t tx_attempts = 0;
      while (true) {
        const Directive d = policy_->next_attempt();
        apply_releases(d, held);
        acquire_locks(d, held);
        if (d.mode == Directive::Mode::kFallback) {
          run_fallback(body);
          finish(/*hardware=*/false, held);
          obs_tx_done(CommitMode::kSglFallback, tx, tx_attempts);
          return CommitMode::kSglFallback;
        }
        wait_locks(d);
        ++counters_.hw_attempts;
        ++tx_attempts;
        const htm::AbortStatus status = hw_attempt(body);
        if (status.raw() == htm::kXBeginStarted) {
          const CommitMode mode = classify_commit(held, /*used_sgl=*/false);
          counters_.commits_by_mode[static_cast<std::size_t>(mode)]++;
          finish(/*hardware=*/true, held);
          obs_tx_done(mode, tx, tx_attempts);
          return mode;
        }
        counters_.aborts_by_cause[static_cast<std::size_t>(status.cause())]++;
        if (exec_->opts_.metrics != nullptr) {
          exec_->opts_.metrics->add(
              exec_->m_aborts_[static_cast<std::size_t>(status.cause())], id_);
        }
        policy_->on_abort(status);
      }
    }

    [[nodiscard]] const ThreadCounters& counters() const noexcept { return counters_; }
    [[nodiscard]] core::ThreadId id() const noexcept { return id_; }

    // --- check-harness instrumentation (src/check/) ----------------------
    // Per-thread hooks into the underlying SoftHtm context: deterministic
    // abort injection and commit logging for the opacity checker. Install
    // before the owning thread starts running transactions; the injector /
    // log must outlive every run() on this handle.
    void set_fault_injector(htm::FaultInjector* injector) noexcept {
      tm_ctx_.set_fault_injector(injector);
    }
    void set_tx_log(htm::TxLog* log) noexcept { tm_ctx_.set_tx_log(log); }

   private:
    friend class ThreadedExecutor;
    ThreadHandle(ThreadedExecutor& exec, core::ThreadId id)
        : exec_(&exec),
          id_(id),
          tm_ctx_(exec.tm_),
          policy_(exec.shared_.make_thread_policy(id)) {
      tm_ctx_.set_obs(exec.opts_.trace, id);
      if (exec.opts_.metrics != nullptr) {
        htm::HtmMetrics m = exec.htm_metrics_;
        m.lane = id;
        tm_ctx_.set_metrics(m);
      }
    }

    // Per-completed-transaction observability: one commit bump, the retry
    // depth (hardware attempts consumed, 0 = straight to fallback), and the
    // fallback counter/event when the SGL path was taken.
    void obs_tx_done(CommitMode mode, core::TxTypeId tx,
                     std::uint64_t attempts) noexcept {
      obs::MetricsRegistry* m = exec_->opts_.metrics;
      if (m != nullptr) {
        m->add(exec_->m_commits_, id_);
        m->observe(exec_->h_retry_depth_, id_, attempts);
        if (mode == CommitMode::kSglFallback) m->add(exec_->m_sgl_fallbacks_, id_);
      }
      if (exec_->opts_.trace != nullptr && mode == CommitMode::kSglFallback) {
        exec_->opts_.trace->emit(id_, obs::TraceKind::kSglFallback,
                                 obs::now_ticks(), static_cast<std::uint64_t>(tx));
      }
    }

    template <typename Body>
    htm::AbortStatus hw_attempt(Body&& body) {
      WordLock& sgl = exec_->locks_.sgl();
      return tm_ctx_.attempt([&](htm::SoftHtm::Tx& tx) {
        // Alg. 1 lines 11-12: abort explicitly if the fallback is in use;
        // subscribing to the observed sequence snapshot aborts us on any
        // later acquisition — including a full acquire/release cycle (the
        // release advances the sequence, so there is no ABA window).
        const std::uint64_t snapshot = sgl.sequence();
        if ((snapshot & 1) != 0) tx.abort(htm::kXAbortCodeSglLocked);
        tx.subscribe(sgl.word(), snapshot);
        body(tx);
      });
    }

    template <typename Body>
    void run_fallback(Body&& body) {
      // Pessimistic path: hold the SGL (blocking new hardware attempts via
      // their subscription) and run the body as an unbounded, stripe-
      // coordinated transaction so its updates are atomic even against
      // hardware transactions that were already mid-commit when we took the
      // lock. Those in-flight commits drain quickly — new ones cannot start
      // while we hold the SGL — so the retry loop terminates.
      WordLock& sgl = exec_->locks_.sgl();
      sgl.lock();
      util::Backoff backoff;
      while (true) {
        const htm::AbortStatus s =
            tm_ctx_.attempt_unbounded([&](htm::SoftHtm::Tx& tx) { body(tx); });
        if (s.raw() == htm::kXBeginStarted) break;
        backoff.pause();
      }
      sgl.unlock();
      counters_.commits_by_mode[static_cast<std::size_t>(CommitMode::kSglFallback)]++;
    }

    void apply_releases(const Directive& d, LockList& held);
    void acquire_locks(const Directive& d, LockList& held);
    void wait_locks(const Directive& d);
    void finish(bool hardware, LockList& held);

    [[nodiscard]] static std::uint64_t now() noexcept;

    ThreadedExecutor* exec_;
    core::ThreadId id_;
    htm::SoftHtm::ThreadContext tm_ctx_;
    std::unique_ptr<Policy> policy_;
    ThreadCounters counters_;
  };

  // One handle per thread; create before spawning, use strictly from the
  // owning thread.
  [[nodiscard]] std::unique_ptr<ThreadHandle> make_handle(core::ThreadId id) {
    assert(id < opts_.n_threads);
    return std::unique_ptr<ThreadHandle>(new ThreadHandle(*this, id));
  }

  [[nodiscard]] const Options& options() const noexcept { return opts_; }
  [[nodiscard]] PolicyShared& policy_shared() noexcept { return shared_; }
  [[nodiscard]] LockSpace& lock_space() noexcept { return locks_; }

  // Sums counters across the given handles (call after joining workers).
  [[nodiscard]] static ExecutorStats aggregate(
      const std::vector<std::unique_ptr<ThreadHandle>>& handles);

 private:
  friend class ThreadHandle;

  // Routes the executor-level obs sinks into the Seer scheduler unless the
  // policy config already carries its own.
  [[nodiscard]] static PolicyConfig with_obs(PolicyConfig policy, const Options& opts) {
    if (policy.seer.metrics == nullptr) policy.seer.metrics = opts.metrics;
    // Real-mode timestamps are wall-clock already, so the rebuild-cost
    // histogram (seer.rebuild.ns) adds no new nondeterminism here; the
    // simulator's with_obs deliberately leaves it off to keep its metrics
    // output byte-stable.
    if (policy.seer.metrics != nullptr) policy.seer.measure_rebuild_ns = true;
    if (policy.seer.obs_trace == nullptr) policy.seer.obs_trace = opts.trace;
    if (opts.topology && !policy.seer.topology) {
      policy.seer.topology = opts.topology;
    }
    // LockSpace is sized from opts.physical_cores; SeerPolicy indexes its core
    // slice with my_core_ = thread % seer.physical_cores, so keep them in sync.
    policy.seer.physical_cores = opts.physical_cores;
    return policy;
  }

  htm::SoftHtm& tm_;
  Options opts_;
  PolicyShared shared_;
  LockSpace locks_;

  // Observability metric ids (registered in the constructor when
  // opts_.metrics is set; kNoMetric otherwise).
  obs::MetricId m_commits_ = obs::kNoMetric;
  obs::MetricId m_sgl_fallbacks_ = obs::kNoMetric;
  obs::MetricId h_retry_depth_ = obs::kNoMetric;
  std::array<obs::MetricId, 4> m_aborts_{obs::kNoMetric, obs::kNoMetric,
                                         obs::kNoMetric, obs::kNoMetric};
  // SoftHtm read-tier counters (htm.read_promote.capacity,
  // htm.aborts.capacity.*), registered alongside the rt.* metrics and handed
  // to every ThreadHandle's context with its own lane. These let abort
  // attribution distinguish a capacity abort raised while reads were still
  // in the Tier-0 log from one raised under exact accounting.
  htm::HtmMetrics htm_metrics_;
};

}  // namespace seer::rt
