// Tests for the real-threads driver (ThreadedExecutor over SoftHtm): every
// policy must preserve atomicity under genuine concurrency, balance its
// locks, and produce consistent statistics. Thread counts are kept small —
// the CI box may have a single core — and no assertion is timing-based.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "htm/soft_htm.hpp"
#include "runtime/threaded_executor.hpp"

namespace seer::rt {
namespace {

ThreadedExecutor::Options small_opts(std::size_t threads, std::size_t types) {
  ThreadedExecutor::Options o;
  o.n_threads = threads;
  o.n_types = types;
  o.physical_cores = 2;
  return o;
}

PolicyConfig make_policy(PolicyKind kind) {
  PolicyConfig cfg;
  cfg.kind = kind;
  if (kind == PolicyKind::kSeer) {
    cfg.seer.update_period = 128;
  }
  return cfg;
}

// ------------------------------------------------------- single thread -----

TEST(ThreadedExecutor, SingleThreadCommitsInHardware) {
  htm::SoftHtm tm;
  ThreadedExecutor exec(tm, make_policy(PolicyKind::kRtm), small_opts(1, 1));
  auto h = exec.make_handle(0);
  htm::TmWord w{0};
  for (int i = 0; i < 100; ++i) {
    const CommitMode mode = h->run(0, [&](auto& tx) { tx.write(w, tx.read(w) + 1); });
    EXPECT_EQ(mode, CommitMode::kHtmNoLocks);
  }
  EXPECT_EQ(w.load(), 100u);
  EXPECT_EQ(h->counters().commits_by_mode[0], 100u);
  EXPECT_EQ(h->counters().hw_attempts, 100u);
}

TEST(ThreadedExecutor, SglPolicyRunsPessimistically) {
  htm::SoftHtm tm;
  ThreadedExecutor exec(tm, make_policy(PolicyKind::kSgl), small_opts(1, 1));
  auto h = exec.make_handle(0);
  htm::TmWord w{0};
  const CommitMode mode = h->run(0, [&](auto& tx) { tx.write(w, 7); });
  EXPECT_EQ(mode, CommitMode::kSglFallback);
  EXPECT_EQ(w.load(), 7u);
  EXPECT_EQ(h->counters().hw_attempts, 0u);
  EXPECT_FALSE(exec.lock_space().sgl().is_locked()) << "SGL released after use";
}

TEST(ThreadedExecutor, ExplicitCapacityFallsBackToSgl) {
  htm::SoftHtm tm(htm::SoftHtm::Config{.max_read_set = 4, .max_write_set = 4});
  ThreadedExecutor exec(tm, make_policy(PolicyKind::kRtm), small_opts(1, 1));
  auto h = exec.make_handle(0);
  std::vector<htm::TmWord> words(16);
  const CommitMode mode = h->run(0, [&](auto& tx) {
    for (auto& w : words) tx.write(w, 1);
  });
  EXPECT_EQ(mode, CommitMode::kSglFallback);
  for (auto& w : words) EXPECT_EQ(w.load(), 1u);
  const auto capacity_idx = static_cast<std::size_t>(htm::AbortCause::kCapacity);
  EXPECT_EQ(h->counters().aborts_by_cause[capacity_idx], 5u)
      << "all five budget attempts abort on capacity";
}

// --------------------------------------------------------- concurrency -----

class PolicyAtomicity : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyAtomicity, ConcurrentCounterExact) {
  htm::SoftHtm tm;
  constexpr std::size_t kThreads = 4;
  constexpr int kIters = 2500;
  ThreadedExecutor exec(tm, make_policy(GetParam()), small_opts(kThreads, 2));
  htm::TmWord counter{0};

  std::vector<std::unique_ptr<ThreadedExecutor::ThreadHandle>> handles;
  for (core::ThreadId t = 0; t < kThreads; ++t) handles.push_back(exec.make_handle(t));

  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        (void)handles[t]->run(static_cast<core::TxTypeId>(i % 2), [&](auto& tx) {
          tx.write(counter, tx.read(counter) + 1);
        });
      }
    });
  }
  for (auto& th : ts) th.join();

  EXPECT_EQ(counter.load(), kThreads * kIters);
  const ExecutorStats stats = ThreadedExecutor::aggregate(handles);
  EXPECT_EQ(stats.commits(), kThreads * kIters) << "one commit per transaction";

  // Every lock must be free after the storm.
  LockSpace& ls = exec.lock_space();
  EXPECT_FALSE(ls.sgl().is_locked());
  EXPECT_FALSE(ls.get(kAuxLock).is_locked());
  EXPECT_FALSE(ls.get(kSchedLock).is_locked());
  for (std::uint16_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(ls.get(tx_lock(i)).is_locked());
    EXPECT_FALSE(ls.get(core_lock(i)).is_locked());
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyAtomicity,
                         ::testing::Values(PolicyKind::kHle, PolicyKind::kRtm,
                                           PolicyKind::kScm, PolicyKind::kAts,
                                           PolicyKind::kSgl, PolicyKind::kSeer));

// A body that throws something other than an abort must leave no lock held
// and no transaction announced, whichever policy runs it and whatever it
// holds at the time. The thrower first aborts explicitly (SCM then takes its
// aux lock), then overflows its write budget (Seer then takes its core lock),
// then throws: HLE's budget of 2 puts that throw on the SGL path, and the SGL
// policy throws on its only (SGL-path) call.
class ThrowingBody : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(ThrowingBody, ReleasesEveryLockAndLetsOthersRun) {
  const PolicyKind kind = GetParam();
  htm::SoftHtm tm(htm::SoftHtm::Config{.max_read_set = 4, .max_write_set = 4});
  ThreadedExecutor exec(tm, make_policy(kind), small_opts(2, 1));
  auto thrower = exec.make_handle(0);
  auto other = exec.make_handle(1);
  htm::TmWord w{0};
  std::vector<htm::TmWord> wide(8);
  int calls = 0;
  const auto body = [&](auto& tx) {
    tx.write(w, tx.read(w) + 1);
    ++calls;
    if (kind != PolicyKind::kSgl && calls == 1) tx.abort(0x42);
    if (kind != PolicyKind::kSgl && calls == 2) {
      for (auto& x : wide) tx.write(x, 1);
    }
    throw std::runtime_error("foreign");
  };
  EXPECT_THROW((void)thrower->run(0, body), std::runtime_error);
  EXPECT_EQ(calls, kind == PolicyKind::kSgl ? 1 : 3);
  EXPECT_EQ(w.load(), 0u) << "the throwing attempt's write was rolled back";

  // Checked before anyone else runs: a leaked lock would block `other`.
  LockSpace& ls = exec.lock_space();
  ASSERT_FALSE(ls.sgl().is_locked());
  ASSERT_FALSE(ls.get(kAuxLock).is_locked());
  ASSERT_FALSE(ls.get(kSchedLock).is_locked());
  ASSERT_FALSE(ls.get(tx_lock(0)).is_locked());
  for (std::uint16_t c = 0; c < 2; ++c) ASSERT_FALSE(ls.get(core_lock(c)).is_locked());
  if (core::SeerScheduler* seer = exec.policy_shared().seer()) {
    EXPECT_EQ(seer->active_table().peek(0), core::kNoTx);
  }

  (void)other->run(0, [&](auto& tx) { tx.write(w, tx.read(w) + 1); });
  (void)thrower->run(0, [&](auto& tx) { tx.write(w, tx.read(w) + 1); });
  EXPECT_EQ(w.load(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ThrowingBody,
                         ::testing::Values(PolicyKind::kHle, PolicyKind::kRtm,
                                           PolicyKind::kScm, PolicyKind::kAts,
                                           PolicyKind::kSgl, PolicyKind::kSeer,
                                           PolicyKind::kOracle));

// A body that always aborts explicitly would abort on every retry of the
// SGL fallback path too. Whichever policy runs it, run() must end it with
// ExplicitAbortOnFallback carrying the code, not retry it forever while
// holding the SGL.
class AlwaysAbortingBody : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(AlwaysAbortingBody, EndsOnTheFallbackPathAndReleasesEveryLock) {
  const PolicyKind kind = GetParam();
  htm::SoftHtm tm;
  ThreadedExecutor exec(tm, make_policy(kind), small_opts(2, 1));
  auto aborter = exec.make_handle(0);
  auto other = exec.make_handle(1);
  htm::TmWord w{0};
  int calls = 0;
  try {
    (void)aborter->run(0, [&](auto& tx) {
      ++calls;
      tx.write(w, tx.read(w) + 1);
      tx.abort(0x42);
    });
    ADD_FAILURE() << "run() returned from a body that always aborts";
  } catch (const ExplicitAbortOnFallback& e) {
    EXPECT_EQ(e.code(), 0x42);
  }
  const ThreadCounters& c = aborter->counters();
  EXPECT_EQ(calls, static_cast<int>(c.hw_attempts) + 1) << "one fallback call";
  EXPECT_EQ(c.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kExplicit)],
            c.hw_attempts);
  EXPECT_EQ(c.commits_by_mode[static_cast<std::size_t>(CommitMode::kSglFallback)], 0u);
  EXPECT_EQ(w.load(), 0u) << "no aborted attempt published its write";

  LockSpace& ls = exec.lock_space();
  ASSERT_FALSE(ls.sgl().is_locked());
  ASSERT_FALSE(ls.get(kAuxLock).is_locked());
  ASSERT_FALSE(ls.get(kSchedLock).is_locked());
  ASSERT_FALSE(ls.get(tx_lock(0)).is_locked());
  for (std::uint16_t i = 0; i < 2; ++i) ASSERT_FALSE(ls.get(core_lock(i)).is_locked());
  if (core::SeerScheduler* seer = exec.policy_shared().seer()) {
    EXPECT_EQ(seer->active_table().peek(0), core::kNoTx);
  }

  (void)other->run(0, [&](auto& tx) { tx.write(w, tx.read(w) + 1); });
  (void)aborter->run(0, [&](auto& tx) { tx.write(w, tx.read(w) + 1); });
  EXPECT_EQ(w.load(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, AlwaysAbortingBody,
                         ::testing::Values(PolicyKind::kHle, PolicyKind::kRtm,
                                           PolicyKind::kScm, PolicyKind::kAts,
                                           PolicyKind::kSgl, PolicyKind::kSeer,
                                           PolicyKind::kOracle));

TEST(ThreadedExecutor, BankInvariantUnderSeer) {
  htm::SoftHtm tm;
  constexpr std::size_t kThreads = 4;
  constexpr int kAccounts = 16;
  constexpr std::uint64_t kInitial = 100;
  ThreadedExecutor exec(tm, make_policy(PolicyKind::kSeer), small_opts(kThreads, 2));
  std::vector<htm::TmWord> accounts(kAccounts);
  for (auto& a : accounts) a.store(kInitial);

  std::vector<std::unique_ptr<ThreadedExecutor::ThreadHandle>> handles;
  for (core::ThreadId t = 0; t < kThreads; ++t) handles.push_back(exec.make_handle(t));

  std::atomic<std::uint64_t> bad_audits{0};
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      util::Xoshiro256 rng(t + 1);
      for (int i = 0; i < 1500; ++i) {
        if (i % 8 == 0) {
          // Type 1: full audit.
          (void)handles[t]->run(1, [&](auto& tx) {
            std::uint64_t total = 0;
            for (auto& a : accounts) total += tx.read(a);
            if (total != kAccounts * kInitial) bad_audits.fetch_add(1);
          });
        } else {
          // Type 0: transfer.
          const auto from = rng.below(kAccounts);
          const auto to = (from + 1 + rng.below(kAccounts - 1)) % kAccounts;
          (void)handles[t]->run(0, [&](auto& tx) {
            const std::uint64_t f = tx.read(accounts[from]);
            if (f == 0) return;
            tx.write(accounts[from], f - 1);
            tx.write(accounts[to], tx.read(accounts[to]) + 1);
          });
        }
      }
    });
  }
  for (auto& th : ts) th.join();

  EXPECT_EQ(bad_audits.load(), 0u) << "an audit observed a torn bank state";
  std::uint64_t total = 0;
  for (auto& a : accounts) total += a.load();
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST(ThreadedExecutor, SeerStatisticsAccumulateUnderThreads) {
  htm::SoftHtm tm;
  constexpr std::size_t kThreads = 3;
  PolicyConfig pc = make_policy(PolicyKind::kSeer);
  ThreadedExecutor exec(tm, pc, small_opts(kThreads, 2));
  htm::TmWord hot{0};

  std::vector<std::unique_ptr<ThreadedExecutor::ThreadHandle>> handles;
  for (core::ThreadId t = 0; t < kThreads; ++t) handles.push_back(exec.make_handle(t));

  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        (void)handles[t]->run(0, [&](auto& tx) { tx.write(hot, tx.read(hot) + 1); });
      }
    });
  }
  for (auto& th : ts) th.join();

  core::SeerScheduler* seer = exec.policy_shared().seer();
  ASSERT_NE(seer, nullptr);
  EXPECT_EQ(seer->total_commits() +
                ThreadedExecutor::aggregate(handles)
                    .total.commits_by_mode[static_cast<std::size_t>(
                        CommitMode::kSglFallback)],
            kThreads * 2000u)
      << "hardware commits recorded + SGL commits = all transactions";
  EXPECT_EQ(seer->merged_stats().total_executions(),
            seer->total_commits() + ThreadedExecutor::aggregate(handles).aborts());
}

TEST(ThreadedExecutor, AggregateSumsAcrossHandles) {
  htm::SoftHtm tm;
  ThreadedExecutor exec(tm, make_policy(PolicyKind::kRtm), small_opts(2, 1));
  auto h0 = exec.make_handle(0);
  auto h1 = exec.make_handle(1);
  htm::TmWord w{0};
  (void)h0->run(0, [&](auto& tx) { tx.write(w, 1); });
  (void)h1->run(0, [&](auto& tx) { tx.write(w, 2); });
  std::vector<std::unique_ptr<ThreadedExecutor::ThreadHandle>> handles;
  handles.push_back(std::move(h0));
  handles.push_back(std::move(h1));
  const ExecutorStats stats = ThreadedExecutor::aggregate(handles);
  EXPECT_EQ(stats.commits(), 2u);
  EXPECT_DOUBLE_EQ(stats.mode_fraction(CommitMode::kHtmNoLocks), 1.0);
}

}  // namespace
}  // namespace seer::rt
