// ThreadedExecutor — the real-threads backend of the policy protocol.
//
// Reifies the symbolic lock space as WordLocks, runs transaction bodies over
// a SoftHtm and performs the steps of each thread's TxDriver (tx_driver.hpp).
// This is the embedding a downstream user links against: create one
// executor, one ThreadHandle per thread, and call handle.run(txType, body).
//
// The transaction body must be a generic callable `void(auto& tx)` using
// only tx.read / tx.write / tx.abort on htm::TmWord memory. Both paths run
// it through SoftHtm: speculatively with hardware-like capacity limits, or
// — on the single-global-lock fallback — as an unbounded stripe-coordinated
// transaction retried while holding the SGL (which keeps pessimistic
// updates atomic against in-flight speculative commits).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "htm/soft_htm.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/policies.hpp"
#include "runtime/tx_driver.hpp"
#include "runtime/word_lock.hpp"
#include "util/backoff.hpp"

namespace seer::rt {

using LockSpace = LockTable<WordLock>;

// The executor's cooperative wait (Alg. 4 lines 57-58; DESIGN.md §7): kFree
// when `l` is free at first look. Otherwise it pauses until the first
// release after the wait began — the sequence advances, whoever takes the
// lock next — or for `budget` pauses, and returns kBlocked.
template <typename Pause>
[[nodiscard]] WaitEnd wait_for_release(const WordLock& l, std::uint64_t budget,
                                       Pause&& pause) {
  const std::uint64_t seq = l.sequence();
  if ((seq & 1) == 0) return WaitEnd::kFree;
  for (std::uint64_t spin = 0; spin < budget && l.sequence() == seq; ++spin) pause();
  return WaitEnd::kBlocked;
}

// Thrown out of ThreadHandle::run when a body aborts explicitly (tx.abort)
// on the SGL fallback path. That path holds the SGL and retries only the
// conflicts that in-flight speculative commits cause; an explicit abort
// would recur on every retry, so it ends the transaction instead. The SGL
// and every policy lock are released before the exception leaves run().
class ExplicitAbortOnFallback : public std::runtime_error {
 public:
  explicit ExplicitAbortOnFallback(std::uint8_t code)
      : std::runtime_error("explicit abort (code " + std::to_string(code) +
                           ") on the SGL fallback path"),
        code_(code) {}
  [[nodiscard]] std::uint8_t code() const noexcept { return code_; }

 private:
  std::uint8_t code_;
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

    // --- observability (src/obs/, DESIGN.md §8) --------------------------
    // Optional sinks, attached here once: the executor hands them to the
    // Seer scheduler, the registry to the SoftHtm contexts it owns and the
    // trace to every thread's driver. With a registry attached the
    // scheduler also times its rebuilds (seer.rebuild.ns): real-mode
    // timestamps are wall-clock already. All three must outlive the
    // executor; the embedder freezes the registry after constructing the
    // executor and before spawning threads.
    obs::MetricsRegistry* metrics = nullptr;
    obs::TraceSink* trace = nullptr;
    obs::FlightRecorder* recorder = nullptr;
  };

  ThreadedExecutor(htm::SoftHtm& tm, const PolicyConfig& policy, Options opts);

  class ThreadHandle {
   public:
    // Executes one transaction of type `tx` to completion under the policy.
    // Returns how it ultimately committed. A body that throws anything but
    // an abort has its updates rolled back, every lock released and the
    // policy told (Policy::on_abandon); the exception then propagates. So
    // does ExplicitAbortOnFallback, for a body that calls tx.abort on the
    // SGL fallback path. The body must not call tx.subscribe: SoftHtm keeps
    // one subscription per attempt, and the executor owns it (hw_attempt
    // subscribes to the SGL, Alg. 1 lines 11-12). Only an assert catches a
    // second one.
    template <typename Body>
    CommitMode run(core::TxTypeId tx, Body&& body) {
      assert(tx >= 0 && static_cast<std::size_t>(tx) < exec_->opts_.n_types);
      driver_.maintenance(obs::now_ticks());  // the paper's RDTSC feedback clock
      driver_.begin(tx);
      CommitMode mode = CommitMode::kHtmNoLocks;
      try {
        for (Step s = driver_.next(); s.kind != Step::Kind::kDone; s = driver_.next()) {
          if (s.kind == Step::Kind::kHwAttempt) {
            const htm::AbortStatus status = hw_attempt(body);
            if (status.raw() == htm::kXBeginStarted) {
              mode = driver_.committed(/*hardware=*/true);
            } else {
              driver_.aborted(status);
            }
          } else if (s.kind == Step::Kind::kFallback) {
            run_fallback(body);
            mode = driver_.committed(/*hardware=*/false);
          } else {
            perform(s);
          }
        }
      } catch (...) {
        driver_.abandon();
        for (Step s = driver_.next(); s.kind != Step::Kind::kDone; s = driver_.next()) {
          perform(s);  // releases
        }
        throw;
      }
      return mode;
    }

    [[nodiscard]] const ThreadCounters& counters() const noexcept {
      return driver_.counters();
    }
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
          driver_(exec.shared_, id, exec.tx_metrics_,
                  {.sink = exec.opts_.trace,
                   .now = [](const void*) { return obs::now_ticks(); }}) {
      if (exec.opts_.metrics != nullptr) {
        htm::HtmMetrics m = exec.htm_metrics_;
        m.lane = id;
        tm_ctx_.set_metrics(m);
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
      // while we hold the SGL — so the retry loop terminates. Only their
      // conflicts are retried: nothing here is capacity-bounded or
      // fault-injected, and an explicit abort is the body's own decision,
      // which it would repeat on every retry.
      WordLock& sgl = exec_->locks_.sgl();
      sgl.lock();
      struct Unlock {  // a throwing body must not leave the SGL held
        WordLock& lock;
        ~Unlock() { lock.unlock(); }
      } unlock{sgl};
      driver_.sgl_acquired();
      util::Backoff backoff;
      while (true) {
        const htm::AbortStatus s =
            tm_ctx_.attempt_unbounded([&](htm::SoftHtm::Tx& tx) { body(tx); });
        if (s.raw() == htm::kXBeginStarted) break;
        if (s.is_explicit()) throw ExplicitAbortOnFallback(s.explicit_code());
        backoff.pause();
      }
    }

    // Performs a release, acquire or wait step on the WordLocks.
    void perform(const Step& s);

    ThreadedExecutor* exec_;
    core::ThreadId id_;
    htm::SoftHtm::ThreadContext tm_ctx_;
    TxDriver driver_;
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

  htm::SoftHtm& tm_;
  Options opts_;
  PolicyShared shared_;
  LockSpace locks_;

  // The rt.* transaction counters (registered in the constructor when
  // opts_.metrics is set; detached otherwise).
  TxMetrics tx_metrics_;
  // SoftHtm read-tier counters (htm.read_promote.capacity,
  // htm.aborts.capacity.*), registered alongside the rt.* metrics and handed
  // to every ThreadHandle's context with its own lane. These let abort
  // attribution distinguish a capacity abort raised while reads were still
  // in the Tier-0 log from one raised under exact accounting.
  htm::HtmMetrics htm_metrics_;
};

}  // namespace seer::rt
