// Tests for the policy layer: the one retry loop every policy runs (the
// TxDriver that both backends use), directive sequences of every policy under
// scripted abort-status sequences, commit-mode classification, and the Seer
// policy's lock-management rules (Alg. 1-4).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "runtime/policies.hpp"
#include "runtime/policy.hpp"
#include "runtime/tx_driver.hpp"

namespace seer::rt {
namespace {

using htm::AbortStatus;

// ------------------------------------------------------ classify_commit ----

struct ClassifyCase {
  LockList held;
  bool sgl;
  CommitMode expected;
};

// Names a case after its path and locks ("htm_core0_tx2"), so its test name
// is stable; gtest would print the raw bytes, padding included.
void PrintTo(const ClassifyCase& c, std::ostream* os) {
  static constexpr const char* kKind[] = {"sgl", "aux", "sched", "core", "tx"};
  *os << (c.sgl ? "sgl" : "htm");
  for (const LockId& l : c.held) {
    *os << '_' << kKind[static_cast<std::size_t>(l.kind)] << l.index;
  }
}

class ClassifyParam : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(ClassifyParam, Classifies) {
  const auto& c = GetParam();
  EXPECT_EQ(classify_commit(c.held, c.sgl), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClassifyParam,
    ::testing::Values(
        ClassifyCase{{}, false, CommitMode::kHtmNoLocks},
        ClassifyCase{{}, true, CommitMode::kSglFallback},
        ClassifyCase{{kAuxLock}, false, CommitMode::kHtmAuxLock},
        ClassifyCase{{kSchedLock}, false, CommitMode::kHtmSchedLock},
        ClassifyCase{{tx_lock(3)}, false, CommitMode::kHtmTxLocks},
        ClassifyCase{{core_lock(1)}, false, CommitMode::kHtmCoreLock},
        ClassifyCase{{core_lock(0), tx_lock(2)}, false, CommitMode::kHtmTxAndCore},
        ClassifyCase{{tx_lock(1), tx_lock(2)}, false, CommitMode::kHtmTxLocks},
        ClassifyCase{{core_lock(0), tx_lock(2)}, true, CommitMode::kSglFallback}));

TEST(LockId, CanonicalOrdering) {
  EXPECT_LT(kAuxLock, kSchedLock);
  EXPECT_LT(kSchedLock, core_lock(0));
  EXPECT_LT(core_lock(5), tx_lock(0));
  EXPECT_LT(tx_lock(0), tx_lock(1));
  EXPECT_EQ(tx_lock(3), tx_lock(3));
}

// -------------------------------------------------------------- helpers ----

PolicyConfig config_for(PolicyKind kind) {
  PolicyConfig cfg;
  cfg.kind = kind;
  return cfg;
}

// Runs a transaction to completion through a TxDriver against a scripted
// status sequence. `statuses` aborts are consumed one per hardware attempt
// (attributed to `culprit`, as the simulator would); when they run out, the
// next hardware attempt commits. Every wait ends at once. Each hardware
// attempt's directive is rebuilt from the steps that carried it out: the
// acquisition and lock waits before it.
struct Trace {
  std::vector<Directive> directives;  // one per hardware attempt
  bool hardware_commit = false;       // false: committed through the SGL
  LockList sgl_releases;    // the driver's releases before the commit: the
                            // fallback's, before its SGL step
  LockList final_releases;  // the driver's releases after the commit
  std::vector<Step::Kind> steps;
};

Trace run_scripted(TxDriver& drv, core::TxTypeId tx, std::vector<AbortStatus> statuses,
                   core::TxTypeId culprit = core::kNoTx) {
  Trace trace;
  drv.begin(tx);
  std::size_t next = 0;
  Directive d;
  bool committed = false;
  for (int guard = 0; guard < 1024; ++guard) {
    const Step s = drv.next();
    trace.steps.push_back(s.kind);
    switch (s.kind) {
      case Step::Kind::kRelease:
        (committed ? trace.final_releases : trace.sgl_releases).push_back(s.lock);
        break;
      case Step::Kind::kAcquire:
        d.acquires = *s.locks;
        d.htm_batch = s.htm_batch;
        drv.acquired();
        break;
      case Step::Kind::kWaitSgl:
        drv.wait_over(WaitEnd::kFree);
        break;
      case Step::Kind::kWaitLock:
        d.waits.push_back(s.lock);
        drv.wait_over(WaitEnd::kFree);
        break;
      case Step::Kind::kHwAttempt:
        trace.directives.push_back(std::exchange(d, Directive{}));
        if (next < statuses.size()) {
          drv.aborted(statuses[next++], culprit);
        } else {
          trace.hardware_commit = true;
          committed = true;
          (void)drv.committed(/*hardware=*/true);
        }
        break;
      case Step::Kind::kFallback:
        committed = true;
        (void)drv.committed(/*hardware=*/false);
        break;
      case Step::Kind::kDone:
        return trace;
    }
  }
  ADD_FAILURE() << "policy did not terminate";
  return trace;
}

// The last `n` steps of a trace: where the driver's releases fall relative
// to the commit and the SGL step.
using K = Step::Kind;
std::vector<K> last_steps(const Trace& t, std::size_t n) {
  return {t.steps.end() - static_cast<std::ptrdiff_t>(std::min(n, t.steps.size())),
          t.steps.end()};
}

std::vector<AbortStatus> conflicts(int n) {
  return std::vector<AbortStatus>(static_cast<std::size_t>(n),
                                  AbortStatus::conflict());
}

PolicyConfig seer_config(bool tx_locks = true, bool core_locks = true,
                         bool htm_acquire = true) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kSeer;
  cfg.seer.enable_tx_locks = tx_locks;
  cfg.seer.enable_core_locks = core_locks;
  cfg.seer.enable_htm_lock_acquire = htm_acquire;
  cfg.seer.enable_hill_climbing = false;
  cfg.seer.update_period = 1u << 30;  // never auto-rebuild in these tests
  return cfg;
}

// Plants a scheme edge pair (a <-> b) by manufacturing statistics and
// forcing a rebuild.
void plant_edge(core::SeerScheduler& s, core::TxTypeId a, core::TxTypeId b) {
  s.announce(1, b);
  for (int i = 0; i < 90; ++i) s.record_abort(0, a);
  for (int i = 0; i < 10; ++i) s.record_commit(0, a);
  s.clear(1);
  // Background benign evidence against another type so the Gaussian has
  // contrast to cut on.
  const core::TxTypeId other = static_cast<core::TxTypeId>(
      (std::max(a, b) + 1) % static_cast<core::TxTypeId>(s.n_types()));
  s.announce(1, other);
  for (int i = 0; i < 95; ++i) s.record_commit(0, a);
  for (int i = 0; i < 5; ++i) s.record_abort(0, a);
  s.clear(1);
  s.force_update(0);
}

AbortStatus status_of(htm::AbortCause cause) {
  switch (cause) {
    case htm::AbortCause::kConflict: return AbortStatus::conflict();
    case htm::AbortCause::kCapacity: return AbortStatus::capacity();
    case htm::AbortCause::kExplicit:
      return AbortStatus::explicit_abort(htm::kXAbortCodeSglLocked);
    case htm::AbortCause::kOther: break;
  }
  return AbortStatus::other();
}

// ----------------------------------------------------------- retry loop ----

// The one retry loop, for every kind (TxDriver): under a script that aborts
// every attempt with one cause, a transaction makes exactly `budget`
// hardware attempts (HLE 2, SGL 0, every other kind kMaxAttempts = 5)
// whatever the cause, each after a wait for the SGL unless the kind is HLE;
// then the driver releases what it holds (SCM's aux lock, and Seer's core
// lock after a capacity abort) and takes one fallback step.
class RetryLoop
    : public ::testing::TestWithParam<std::tuple<PolicyKind, htm::AbortCause>> {};

TEST_P(RetryLoop, BudgetAttemptsThenReleasesThenOneFallback) {
  const auto [kind, cause] = GetParam();
  const PolicyConfig cfg = kind == PolicyKind::kSeer ? seer_config() : config_for(kind);
  PolicyShared shared(cfg, 8, 4, 4);
  TxDriver drv(shared, 2);
  const int budget = kind == PolicyKind::kHle   ? 2
                     : kind == PolicyKind::kSgl ? 0
                                                : 5;
  const bool waits_sgl = kind != PolicyKind::kHle;

  const Trace t = run_scripted(drv, 1, std::vector<AbortStatus>(8, status_of(cause)));
  EXPECT_FALSE(t.hardware_commit);
  EXPECT_EQ(t.directives.size(), static_cast<std::size_t>(budget));
  EXPECT_EQ(drv.counters().hw_attempts, static_cast<std::uint64_t>(budget));
  EXPECT_EQ(drv.counters().commits_by_mode[static_cast<std::size_t>(
                CommitMode::kSglFallback)],
            1u);
  // Each attempt's steps end at its kHwAttempt; each holds one SGL wait
  // (every wait ends at once) unless the kind is HLE, and no release.
  auto from = t.steps.begin();
  for (int a = 0; a < budget; ++a) {
    const auto attempt = std::find(from, t.steps.end(), K::kHwAttempt);
    ASSERT_NE(attempt, t.steps.end());
    EXPECT_EQ(std::count(from, attempt, K::kWaitSgl), waits_sgl ? 1 : 0)
        << "attempt " << a;
    EXPECT_EQ(std::count(from, attempt, K::kRelease), 0) << "attempt " << a;
    from = attempt + 1;
  }
  // Then every held lock is released, and one fallback ends the transaction.
  LockList held;
  if (kind == PolicyKind::kScm) held.push_back(kAuxLock);
  if (kind == PolicyKind::kSeer && cause == htm::AbortCause::kCapacity) {
    held.push_back(core_lock(2));
  }
  EXPECT_EQ(t.sgl_releases, held);
  std::vector<K> tail(t.sgl_releases.size(), K::kRelease);
  tail.push_back(K::kFallback);
  tail.push_back(K::kDone);
  EXPECT_EQ(std::vector<K>(from, t.steps.end()), tail);
  EXPECT_TRUE(t.final_releases.empty());
  EXPECT_TRUE(drv.held().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RetryLoop,
    ::testing::Combine(::testing::Values(PolicyKind::kHle, PolicyKind::kRtm,
                                         PolicyKind::kScm, PolicyKind::kAts,
                                         PolicyKind::kSgl, PolicyKind::kSeer,
                                         PolicyKind::kOracle),
                       ::testing::Values(htm::AbortCause::kConflict,
                                         htm::AbortCause::kCapacity,
                                         htm::AbortCause::kExplicit,
                                         htm::AbortCause::kOther)),
    [](const ::testing::TestParamInfo<std::tuple<PolicyKind, htm::AbortCause>>& p) {
      return std::string(to_string(std::get<0>(p.param))) + "_" +
             std::string(htm::to_string(std::get<1>(p.param)));
    });

// ------------------------------------------------------------------ RTM ----

TEST(RtmPolicy, CommitsFirstTryWithoutLocks) {
  PolicyShared shared(config_for(PolicyKind::kRtm), 4, 4, 4);
  TxDriver p(shared, 0);
  const Trace t = run_scripted(p, 0, {});
  EXPECT_EQ(t.steps, (std::vector<K>{K::kWaitSgl, K::kHwAttempt, K::kDone}))
      << "lemming avoidance, no locks";
  EXPECT_TRUE(t.hardware_commit);
}

TEST(RtmPolicy, BudgetResetsPerTransaction) {
  PolicyShared shared(config_for(PolicyKind::kRtm), 4, 4, 4);
  TxDriver p(shared, 0);
  (void)run_scripted(p, 0, conflicts(5));
  const Trace t = run_scripted(p, 0, conflicts(2));
  EXPECT_EQ(t.directives.size(), 3u);
  EXPECT_TRUE(t.hardware_commit);
}

// ------------------------------------------------------------------ SCM ----

TEST(ScmPolicy, AcquiresAuxAfterFirstAbort) {
  PolicyShared shared(config_for(PolicyKind::kScm), 4, 4, 4);
  TxDriver p(shared, 0);
  const Trace t = run_scripted(p, 0, conflicts(1));
  ASSERT_EQ(t.directives.size(), 2u);
  EXPECT_TRUE(t.directives[0].acquires.empty());
  ASSERT_EQ(t.directives[1].acquires.size(), 1u);
  EXPECT_EQ(t.directives[1].acquires[0], kAuxLock);
  EXPECT_TRUE(t.hardware_commit);
  ASSERT_EQ(t.final_releases.size(), 1u);
  EXPECT_EQ(t.final_releases[0], kAuxLock);
  EXPECT_EQ(last_steps(t, 3), (std::vector<K>{K::kHwAttempt, K::kRelease, K::kDone}))
      << "the driver releases after the commit";
}

TEST(ScmPolicy, AuxAcquiredOnceAcrossRetries) {
  PolicyShared shared(config_for(PolicyKind::kScm), 4, 4, 4);
  TxDriver p(shared, 0);
  const Trace t = run_scripted(p, 0, conflicts(3));
  ASSERT_EQ(t.directives.size(), 4u);
  EXPECT_EQ(t.directives[1].acquires.size(), 1u);
  EXPECT_TRUE(t.directives[2].acquires.empty());
  EXPECT_TRUE(t.directives[3].acquires.empty());
}

TEST(ScmPolicy, FallbackReleasesAuxFirst) {
  PolicyShared shared(config_for(PolicyKind::kScm), 4, 4, 4);
  TxDriver p(shared, 0);
  const Trace t = run_scripted(p, 0, conflicts(5));
  EXPECT_FALSE(t.hardware_commit);
  ASSERT_EQ(t.sgl_releases.size(), 1u);
  EXPECT_EQ(t.sgl_releases[0], kAuxLock);
  EXPECT_TRUE(t.final_releases.empty());
  EXPECT_EQ(last_steps(t, 3), (std::vector<K>{K::kRelease, K::kFallback, K::kDone}))
      << "the aux lock is released before the SGL step";
}

TEST(ScmPolicy, CleanRunNeverTouchesAux) {
  PolicyShared shared(config_for(PolicyKind::kScm), 4, 4, 4);
  TxDriver p(shared, 0);
  const Trace t = run_scripted(p, 0, {});
  EXPECT_TRUE(t.directives[0].acquires.empty());
  EXPECT_TRUE(t.final_releases.empty());
  EXPECT_EQ(std::count(t.steps.begin(), t.steps.end(), K::kRelease), 0);
}

// ------------------------------------------------------------------ ATS ----

// The contention factor is an exponential moving average (weight 0.3) of
// per-attempt outcomes: each abort adds 1, each commit 0. A transaction
// serializes behind the sched lock, from its first attempt, when the factor
// exceeds 0.5 at its start. Checked through the directives against a
// test-local model of the average.
TEST(AtsPolicy, ContentionFactorEma) {
  PolicyShared shared(config_for(PolicyKind::kAts), 4, 4, 4);
  TxDriver drv(shared, 0);
  double cf = 0.0;
  const auto update = [&cf](bool aborted) { cf = cf * (1.0 - 0.3) + (aborted ? 0.3 : 0.0); };
  // Three transactions that abort twice each leave the factor at 0.357,
  // 0.479 and 0.521: the fourth is the first to serialize. Five aborts fall
  // back, and the SGL commit counts as a commit. The later starts read
  // 0.505 and 0.493, so a weight or threshold off by 0.01 changes a
  // decision.
  const std::vector<int> aborts = {2, 2, 2, 2, 3, 3, 1, 5, 2, 1, 2};
  int first_serialized = -1;
  for (std::size_t i = 0; i < aborts.size(); ++i) {
    const Trace t = run_scripted(drv, 0, conflicts(aborts[i]));
    ASSERT_FALSE(t.directives.empty());
    const bool serialized = t.directives[0].acquires == LockList{kSchedLock};
    EXPECT_EQ(serialized, cf > 0.5) << "transaction " << i << ", factor " << cf;
    if (serialized && first_serialized < 0) first_serialized = static_cast<int>(i);
    for (std::size_t a = 1; a < t.directives.size(); ++a) {
      EXPECT_TRUE(t.directives[a].acquires.empty()) << "the sched lock is taken once";
    }
    for (int a = 0; a < std::min(aborts[i], 5); ++a) update(true);
    update(false);
  }
  EXPECT_EQ(first_serialized, 3);
  // Per-thread factors: another thread of the same policy runs free.
  TxDriver other(shared, 1);
  EXPECT_TRUE(run_scripted(other, 0, {}).directives[0].acquires.empty());
}

TEST(AtsPolicy, SerializesAboveThreshold) {
  PolicyShared shared(config_for(PolicyKind::kAts), 4, 4, 4);
  TxDriver p(shared, 0);
  // Drive the contention factor above 0.5 with one transaction that falls
  // back.
  (void)run_scripted(p, 0, conflicts(5));
  const Trace t = run_scripted(p, 0, {});
  ASSERT_EQ(t.directives.size(), 1u);
  ASSERT_EQ(t.directives[0].acquires.size(), 1u);
  EXPECT_EQ(t.directives[0].acquires[0], kSchedLock);
  ASSERT_EQ(t.final_releases.size(), 1u);
  EXPECT_EQ(t.final_releases[0], kSchedLock);
  EXPECT_EQ(last_steps(t, 3), (std::vector<K>{K::kHwAttempt, K::kRelease, K::kDone}))
      << "the driver releases after the commit";
}

TEST(AtsPolicy, CalmThreadRunsFree) {
  PolicyShared shared(config_for(PolicyKind::kAts), 4, 4, 4);
  TxDriver p(shared, 1);
  const Trace t = run_scripted(p, 0, {});
  EXPECT_TRUE(t.directives[0].acquires.empty());
}

// ----------------------------------------------------------------- Seer ----

TEST(SeerPolicy, AnnouncesOnBeginAndClearsOnCommit) {
  PolicyShared shared(seer_config(), 8, 4, 4);
  auto p = shared.make_thread_policy(3);
  p->begin_tx(2);
  EXPECT_EQ(shared.seer()->active_table().peek(3), 2);
  (void)p->next_attempt(0, false);
  (void)p->on_commit(true);
  EXPECT_EQ(shared.seer()->active_table().peek(3), core::kNoTx);
}

TEST(SeerPolicy, WaitsOnOwnLocksEveryAttempt) {
  PolicyShared shared(seer_config(), 8, 4, 4);
  auto p = shared.make_thread_policy(5);  // physical core 5 % 4 = 1
  p->begin_tx(2);
  const Directive d = p->next_attempt(0, false);
  EXPECT_TRUE(d.waits.contains(tx_lock(2))) << "Alg. 4 line 57: own tx lock";
  EXPECT_TRUE(d.waits.contains(core_lock(1))) << "Alg. 4 line 58: own core lock";
  EXPECT_TRUE(d.acquires.empty());
}

// How a wait ended decides what the driver looks at next (DESIGN.md §7):
// after kFree it goes on. After kBlocked — the wait lasted until a release
// or the budget — a lock wait moves to the SGL and then the next lock, never
// the same one again, while the SGL wait looks at the SGL again.
TEST(TxDriver, WaitEndDecidesWhatIsLookedAtNext) {
  PolicyShared shared(seer_config(), 8, 4, 4);
  TxDriver drv(shared, 5);  // waits on tx_lock(2), then core_lock(1)
  drv.begin(2);
  const auto expect_next = [&](K kind, LockId lock) {
    const Step s = drv.next();
    EXPECT_EQ(s.kind, kind);
    EXPECT_EQ(s.lock, lock);
  };
  expect_next(K::kWaitSgl, kSglLock);
  drv.wait_over(WaitEnd::kBlocked);
  expect_next(K::kWaitSgl, kSglLock);
  drv.wait_over(WaitEnd::kFree);
  expect_next(K::kWaitLock, tx_lock(2));
  drv.wait_over(WaitEnd::kBlocked);
  expect_next(K::kWaitSgl, kSglLock);
  drv.wait_over(WaitEnd::kFree);
  expect_next(K::kWaitLock, core_lock(1));
  drv.wait_over(WaitEnd::kBlocked);
  expect_next(K::kWaitSgl, kSglLock);
  drv.wait_over(WaitEnd::kFree);
  expect_next(K::kHwAttempt, LockId{});
  EXPECT_EQ(drv.counters().hw_attempts, 1u) << "one attempt, however long the waits";
  EXPECT_EQ(drv.committed(/*hardware=*/true), CommitMode::kHtmNoLocks);
  expect_next(K::kDone, LockId{});
}

TEST(SeerPolicy, CapacityAbortTriggersCoreLock) {
  PolicyShared shared(seer_config(), 8, 4, 4);
  TxDriver p(shared, 6);  // core 2
  const Trace t = run_scripted(p, 0, {AbortStatus::capacity()});
  ASSERT_EQ(t.directives.size(), 2u);
  const Directive& d = t.directives[1];
  ASSERT_EQ(d.acquires.size(), 1u);
  EXPECT_EQ(d.acquires[0], core_lock(2));
  // Once held, the own-core-lock wait disappears.
  EXPECT_FALSE(d.waits.contains(core_lock(2)));
  // Held until commit, then released by the driver.
  ASSERT_EQ(t.final_releases.size(), 1u);
  EXPECT_EQ(t.final_releases[0], core_lock(2));
  EXPECT_EQ(last_steps(t, 3), (std::vector<K>{K::kHwAttempt, K::kRelease, K::kDone}));
}

TEST(SeerPolicy, ConflictAbortDoesNotTakeCoreLock) {
  PolicyShared shared(seer_config(), 8, 4, 4);
  auto p = shared.make_thread_policy(0);
  p->begin_tx(0);
  (void)p->next_attempt(0, false);
  p->on_abort(AbortStatus::conflict());
  const Directive d = p->next_attempt(1, false);
  EXPECT_TRUE(d.acquires.empty());
}

// The row's tx locks come on the budget's last attempt only: the fifth of
// five.
TEST(SeerPolicy, TxLocksAcquiredOnlyOnLastAttempt) {
  PolicyShared shared(seer_config(), 8, 4, 4);
  plant_edge(*shared.seer(), 1, 2);
  ASSERT_TRUE(shared.seer()->scheme()->row(1).contains(2));

  TxDriver p(shared, 0);
  const Trace t = run_scripted(p, 1, conflicts(kMaxAttempts - 1));
  ASSERT_EQ(t.directives.size(), static_cast<std::size_t>(kMaxAttempts));
  for (std::size_t attempt = 0; attempt + 1 < t.directives.size(); ++attempt) {
    EXPECT_TRUE(t.directives[attempt].acquires.empty())
        << "no tx locks before the last attempt";
  }
  const Directive& d = t.directives.back();
  ASSERT_EQ(d.acquires.size(), 1u);
  EXPECT_EQ(d.acquires[0], tx_lock(2));
  EXPECT_FALSE(d.waits.contains(tx_lock(1)))
      << "holding tx locks suppresses the own-lock wait (Alg. 4 line 57)";
  EXPECT_TRUE(t.hardware_commit);
  EXPECT_TRUE(t.final_releases.contains(tx_lock(2)));
  EXPECT_EQ(last_steps(t, 3), (std::vector<K>{K::kHwAttempt, K::kRelease, K::kDone}));
}

TEST(SeerPolicy, FallbackReleasesEverything) {
  PolicyShared shared(seer_config(), 8, 4, 4);
  plant_edge(*shared.seer(), 1, 2);
  TxDriver p(shared, 0);
  // Capacity first (-> core lock), then conflicts: the 5th attempt acquires
  // the tx locks, and its abort sends the transaction to the SGL.
  const Trace t = run_scripted(p, 1,
                               {AbortStatus::capacity(), AbortStatus::conflict(),
                                AbortStatus::conflict(), AbortStatus::conflict(),
                                AbortStatus::conflict()});
  ASSERT_EQ(t.directives.size(), 5u);
  EXPECT_FALSE(t.hardware_commit);
  EXPECT_EQ(t.sgl_releases, (LockList{core_lock(0), tx_lock(2)})) << "canonical order";
  EXPECT_EQ(last_steps(t, 4),
            (std::vector<K>{K::kRelease, K::kRelease, K::kFallback, K::kDone}))
      << "every lock is released before the SGL step";
  EXPECT_TRUE(t.final_releases.empty()) << "everything was already released pre-SGL";
}

// The tx locks join a held core lock above it (core < tx): the core lock
// is kept, nothing is given back and taken again (DESIGN.md §3, deviation 5).
TEST(SeerPolicy, TxLocksJoinTheHeldCoreLock) {
  PolicyShared shared(seer_config(), 8, 4, 4);
  plant_edge(*shared.seer(), 1, 2);
  TxDriver drv(shared, 2);  // core 2
  const Trace t = run_scripted(drv, 1,
                               {AbortStatus::capacity(), AbortStatus::conflict(),
                                AbortStatus::conflict(), AbortStatus::conflict()});
  ASSERT_EQ(t.directives.size(), 5u);
  EXPECT_EQ(t.directives[1].acquires, (LockList{core_lock(2)}));
  const Directive& last = t.directives[4];  // one attempt left
  EXPECT_EQ(last.acquires, (LockList{tx_lock(2)})) << "only the tx locks";
  EXPECT_FALSE(last.htm_batch) << "one lock: nothing to batch";
  EXPECT_TRUE(t.sgl_releases.empty()) << "no release before the commit";
  EXPECT_EQ(t.final_releases, (LockList{core_lock(2), tx_lock(2)}));
}

// A capacity abort that leaves one attempt asks for the core lock and the
// tx locks at once: one step, core first, batched by the multi-CAS path
// unless the config turns it off.
TEST(SeerPolicy, HtmBatchDisabledByConfig) {
  for (const bool htm_acquire : {true, false}) {
    PolicyShared shared(seer_config(true, true, htm_acquire), 8, 4, 4);
    plant_edge(*shared.seer(), 1, 2);
    auto p = shared.make_thread_policy(2);
    p->begin_tx(1);
    for (int k = 0; k < 3; ++k) {
      (void)p->next_attempt(k, false);
      p->on_abort(AbortStatus::conflict());
    }
    (void)p->next_attempt(3, false);
    p->on_abort(AbortStatus::capacity());
    const Directive d = p->next_attempt(4, /*last=*/true);
    EXPECT_EQ(d.acquires, (LockList{core_lock(2), tx_lock(2)}));
    EXPECT_EQ(d.htm_batch, htm_acquire);
  }
}

TEST(SeerPolicy, ProfileOnlyVariantNeverAcquiresOrWaits) {
  // The Figure 4 variant: full profiling, no lock acquisition.
  PolicyShared shared(seer_config(false, false, false), 8, 4, 4);
  plant_edge(*shared.seer(), 1, 2);
  auto p = shared.make_thread_policy(0);
  p->begin_tx(1);
  for (int k = 0; k < 5; ++k) {
    const Directive d = p->next_attempt(k, k == 4);
    EXPECT_TRUE(d.acquires.empty());
    EXPECT_TRUE(d.waits.empty());
    p->on_abort(AbortStatus::capacity());
  }
  // Profiling still ran: statistics accumulated.
  EXPECT_GT(shared.seer()->merged_stats().total_executions(), 0u);
}

TEST(SeerPolicy, EmptyRowMeansNoTxLockAcquisition) {
  PolicyShared shared(seer_config(), 8, 4, 4);  // empty scheme
  auto p = shared.make_thread_policy(0);
  p->begin_tx(1);
  for (int k = 0; k < 4; ++k) {
    (void)p->next_attempt(k, false);
    p->on_abort(AbortStatus::conflict());
  }
  const Directive d = p->next_attempt(4, /*last=*/true);  // row empty
  EXPECT_TRUE(d.acquires.empty());
}

TEST(SeerPolicy, MaintenanceOnlyOnDesignatedThread) {
  PolicyConfig cfg = seer_config();
  cfg.seer.update_period = 1;
  PolicyShared shared(cfg, 8, 4, 4);
  auto p0 = shared.make_thread_policy(0);
  auto p1 = shared.make_thread_policy(1);
  // Generate enough executions for an update to be due.
  shared.seer()->record_commit(1, 0);
  shared.seer()->record_commit(1, 0);
  EXPECT_FALSE(p1->maintenance(100));
  EXPECT_TRUE(p0->maintenance(100));
  EXPECT_EQ(shared.seer()->rebuild_count(), 1u);
}

TEST(SeerPolicy, RecordsAbortAndCommitStats) {
  PolicyShared shared(seer_config(), 8, 4, 4);
  auto p0 = shared.make_thread_policy(0);
  auto p1 = shared.make_thread_policy(1);
  p1->begin_tx(3);  // announce type 3 on thread 1
  p0->begin_tx(2);
  (void)p0->next_attempt(0, false);
  p0->on_abort(AbortStatus::conflict());
  (void)p0->next_attempt(1, false);
  (void)p0->on_commit(true);
  const core::GlobalStats g = shared.seer()->merged_stats();
  EXPECT_EQ(g.abort(2, 3), 1u);
  EXPECT_EQ(g.commit(2, 3), 1u);
  EXPECT_EQ(g.execs(2), 2u);
}

TEST(SeerPolicy, SglCommitDoesNotRecordCommitStats) {
  PolicyShared shared(seer_config(), 8, 4, 4);
  auto p0 = shared.make_thread_policy(0);
  auto p1 = shared.make_thread_policy(1);
  p1->begin_tx(3);
  p0->begin_tx(2);
  (void)p0->on_commit(/*hardware=*/false);  // Alg. 2: only HW commits record
  const core::GlobalStats g = shared.seer()->merged_stats();
  EXPECT_EQ(g.commit(2, 3), 0u);
  EXPECT_EQ(g.execs(2), 0u);
  EXPECT_EQ(shared.seer()->active_table().peek(0), core::kNoTx)
      << "the active slot clears on either path";
}

// The fallback count the storm detector and the flight recorder read grows
// when the driver decides to fall back: at the step after the last abort,
// before the releases and before the SGL commit is reported.
TEST(SeerPolicy, FallbackCountedAtTheFallbackStep) {
  PolicyShared shared(seer_config(), 8, 4, 4);
  const core::SeerScheduler& sched = *shared.seer();
  TxDriver drv(shared, 6);  // core 2
  const auto to_attempt = [&drv] {
    for (Step s = drv.next();; s = drv.next()) {
      if (s.kind == K::kAcquire) {
        drv.acquired();
      } else if (s.kind == K::kWaitSgl || s.kind == K::kWaitLock) {
        drv.wait_over(WaitEnd::kFree);
      } else {
        return s.kind;
      }
    }
  };
  drv.begin(1);
  ASSERT_EQ(to_attempt(), K::kHwAttempt);
  drv.aborted(AbortStatus::capacity());  // the second attempt takes the core lock
  for (int k = 2; k <= kMaxAttempts; ++k) {
    ASSERT_EQ(to_attempt(), K::kHwAttempt) << "attempt " << k;
    drv.aborted(AbortStatus::conflict());
    EXPECT_EQ(sched.sgl_fallbacks(), 0u) << "not at the abort of attempt " << k;
  }
  const Step release = drv.next();
  EXPECT_EQ(release.kind, K::kRelease);
  EXPECT_EQ(release.lock, core_lock(2));
  EXPECT_EQ(sched.sgl_fallbacks(), 1u) << "at the step that decides the fallback";
  EXPECT_EQ(drv.next().kind, K::kFallback);
  (void)drv.committed(/*hardware=*/false);
  EXPECT_EQ(drv.next().kind, K::kDone);
  EXPECT_EQ(sched.sgl_fallbacks(), 1u) << "once per fallback";
  EXPECT_TRUE(run_scripted(drv, 1, {}).hardware_commit);
  EXPECT_EQ(sched.sgl_fallbacks(), 1u);
}

// One parameterized sweep: every policy terminates and leaks no locks under
// every abort-cause bombardment.
struct PolicyStressCase {
  PolicyKind kind;
  htm::AbortCause cause;
};

class PolicyStress : public ::testing::TestWithParam<PolicyStressCase> {};

TEST_P(PolicyStress, TerminatesAndBalancesLocks) {
  const auto [kind, cause] = GetParam();
  PolicyConfig cfg = config_for(kind);
  if (kind == PolicyKind::kSeer) cfg = seer_config();
  PolicyShared shared(cfg, 8, 4, 4);
  TxDriver drv(shared, 2);
  const AbortStatus status = status_of(cause);

  for (int round = 0; round < 10; ++round) {
    drv.begin(round % 4);
    int attempts = 0;
    for (bool done = false; !done;) {
      const LockList before = drv.held();
      const Step s = drv.next();
      switch (s.kind) {
        case Step::Kind::kRelease:
          ASSERT_TRUE(before.contains(s.lock)) << "released a lock it does not hold";
          break;
        case Step::Kind::kAcquire: {
          LockList held = before;
          for (const LockId& id : *s.locks) {
            ASSERT_FALSE(held.contains(id)) << "double acquisition";
            held.push_back(id);
          }
          drv.acquired();
          break;
        }
        case Step::Kind::kWaitSgl:
        case Step::Kind::kWaitLock:
          drv.wait_over(WaitEnd::kFree);
          break;
        case Step::Kind::kHwAttempt:
          ASSERT_LT(++attempts, 32) << "policy failed to terminate";
          drv.aborted(status);
          break;
        case Step::Kind::kFallback:
          (void)drv.committed(/*hardware=*/false);
          break;
        case Step::Kind::kDone:
          done = true;
          break;
      }
    }
    EXPECT_TRUE(drv.held().empty()) << "locks leaked across a transaction";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PolicyStress,
    ::testing::Values(PolicyStressCase{PolicyKind::kHle, htm::AbortCause::kConflict},
                      PolicyStressCase{PolicyKind::kRtm, htm::AbortCause::kConflict},
                      PolicyStressCase{PolicyKind::kRtm, htm::AbortCause::kCapacity},
                      PolicyStressCase{PolicyKind::kScm, htm::AbortCause::kConflict},
                      PolicyStressCase{PolicyKind::kScm, htm::AbortCause::kExplicit},
                      PolicyStressCase{PolicyKind::kAts, htm::AbortCause::kConflict},
                      PolicyStressCase{PolicyKind::kSgl, htm::AbortCause::kOther},
                      PolicyStressCase{PolicyKind::kSeer, htm::AbortCause::kConflict},
                      PolicyStressCase{PolicyKind::kSeer, htm::AbortCause::kCapacity},
                      PolicyStressCase{PolicyKind::kSeer, htm::AbortCause::kExplicit},
                      PolicyStressCase{PolicyKind::kSeer, htm::AbortCause::kOther}));

// The held set is empty after every commit and at every SGL step (Alg. 1
// lines 18-20), and every acquire step takes only locks above the held ones
// (canonical order, nothing given back early), for every policy under every
// abort cause, checked on the driver both backends run. Round r aborts r % 8
// times before committing, so short rounds commit in hardware with locks
// held and long ones exhaust the budget; Seer gets a planted scheme edge and
// Oracle learns one from the attributed conflicts (its first rebuild comes
// after kOracleUpdatePeriod rounds), so both really take tx locks.
class DriverHeldSet
    : public ::testing::TestWithParam<std::tuple<PolicyKind, htm::AbortCause>> {};

TEST_P(DriverHeldSet, EmptyAfterEveryCommitAndAtEverySglStep) {
  const auto [kind, cause] = GetParam();
  PolicyShared shared(kind == PolicyKind::kSeer ? seer_config() : config_for(kind), 8,
                      4, 4);
  if (kind == PolicyKind::kSeer) plant_edge(*shared.seer(), 1, 2);
  TxDriver drv(shared, 2);
  const AbortStatus status = status_of(cause);

  std::size_t most_held = 0;
  for (std::uint64_t round = 0; round < kOracleUpdatePeriod + 16; ++round) {
    const auto tx = static_cast<core::TxTypeId>(1 + round % 2);
    auto aborts = static_cast<int>(round % 8);
    drv.begin(tx);
    for (bool done = false; !done;) {
      const Step s = drv.next();
      switch (s.kind) {
        case Step::Kind::kRelease:
          break;
        case Step::Kind::kAcquire: {
          LockList held = drv.held();
          for (const LockId& id : *s.locks) {
            EXPECT_TRUE(held.empty() || held.back() < id) << "taken below a held lock";
            held.push_back(id);
          }
          drv.acquired();
          most_held = std::max(most_held, drv.held().size());
          break;
        }
        case Step::Kind::kWaitSgl:
        case Step::Kind::kWaitLock:
          drv.wait_over(WaitEnd::kFree);
          break;
        case Step::Kind::kHwAttempt:
          if (aborts-- > 0) {
            const bool attributed = cause == htm::AbortCause::kConflict;
            drv.aborted(status, attributed ? 3 - tx : core::kNoTx);  // types 1 <-> 2
          } else {
            (void)drv.committed(/*hardware=*/true);
          }
          break;
        case Step::Kind::kFallback:
          EXPECT_TRUE(drv.held().empty()) << "a lock is held at the SGL step";
          (void)drv.committed(/*hardware=*/false);
          break;
        case Step::Kind::kDone:
          EXPECT_TRUE(drv.held().empty()) << "a lock is held after the commit";
          done = true;
          break;
      }
    }
  }
  // Not vacuous: every lock-taking policy held something along the way
  // (Oracle learns only from attributed conflicts).
  const bool takes_locks =
      kind == PolicyKind::kScm || kind == PolicyKind::kAts || kind == PolicyKind::kSeer ||
      (kind == PolicyKind::kOracle && cause == htm::AbortCause::kConflict);
  if (takes_locks) {
    EXPECT_GT(most_held, 0u) << "the policy never held a lock";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, DriverHeldSet,
    ::testing::Combine(
        ::testing::Values(PolicyKind::kHle, PolicyKind::kRtm, PolicyKind::kScm,
                          PolicyKind::kAts, PolicyKind::kSgl, PolicyKind::kSeer,
                          PolicyKind::kOracle),
        ::testing::Values(htm::AbortCause::kConflict, htm::AbortCause::kCapacity,
                          htm::AbortCause::kExplicit, htm::AbortCause::kOther)));

// ----------------------------------------------------------------- Oracle --

TEST(OraclePolicy, LearnsFromPreciseAttribution) {
  PolicyShared shared(config_for(PolicyKind::kOracle), 4, 4, 4);
  auto p = shared.make_thread_policy(0);

  // Feed precisely-attributed conflicts: type 1 keeps getting killed by 2,
  // until the rebuild due after kOracleUpdatePeriod executions.
  for (std::uint64_t i = 0; i < kOracleUpdatePeriod; ++i) {
    EXPECT_TRUE(shared.oracle()->scheme()->empty()) << "rebuilt before the period";
    p->begin_tx(1);
    (void)p->next_attempt(0, false);
    p->on_conflict_attribution(2);
    p->on_abort(AbortStatus::conflict());
    (void)p->next_attempt(1, false);
    (void)p->on_commit(true);
  }
  ASSERT_NE(shared.oracle(), nullptr);
  EXPECT_EQ(shared.oracle()->conflicts(1, 2), kOracleUpdatePeriod);
  EXPECT_TRUE(shared.oracle()->scheme()->row(1).contains(2));
  EXPECT_TRUE(shared.oracle()->scheme()->row(2).contains(1)) << "symmetric";
}

TEST(OraclePolicy, SerializesFromFirstRetry) {
  PolicyShared shared(config_for(PolicyKind::kOracle), 4, 4, 4);
  TxDriver drv(shared, 0);
  for (std::uint64_t i = 0; i < kOracleUpdatePeriod; ++i) {
    (void)run_scripted(drv, 1, conflicts(1), /*culprit=*/2);
  }
  // Now a fresh instance: first attempt free, first RETRY takes the lock —
  // earlier than Seer's last-attempt last resort.
  const Trace t = run_scripted(drv, 1, conflicts(1));
  ASSERT_EQ(t.directives.size(), 2u);
  const Directive& first = t.directives[0];
  EXPECT_TRUE(first.acquires.empty());
  EXPECT_TRUE(first.waits.contains(tx_lock(1))) << "waits on own lock";
  const Directive& retry = t.directives[1];
  ASSERT_EQ(retry.acquires.size(), 1u);
  EXPECT_EQ(retry.acquires[0], tx_lock(2));
  EXPECT_TRUE(t.final_releases.contains(tx_lock(2)));
  EXPECT_EQ(last_steps(t, 3), (std::vector<K>{K::kHwAttempt, K::kRelease, K::kDone}));
}

TEST(OraclePolicy, IgnoresAttributionlessAborts) {
  PolicyShared shared(config_for(PolicyKind::kOracle), 4, 4, 4);
  auto p = shared.make_thread_policy(0);
  // Two periods: the scheme is rebuilt, from no attributed conflict.
  for (std::uint64_t i = 0; i < 2 * kOracleUpdatePeriod; ++i) {
    p->begin_tx(1);
    (void)p->next_attempt(0, false);
    p->on_abort(AbortStatus::capacity());  // no attribution call
    (void)p->next_attempt(1, false);
    (void)p->on_commit(true);
  }
  EXPECT_TRUE(shared.oracle()->scheme()->empty());
}

TEST(PolicyShared, KindNamesRoundTrip) {
  EXPECT_STREQ(to_string(PolicyKind::kHle), "HLE");
  EXPECT_STREQ(to_string(PolicyKind::kRtm), "RTM");
  EXPECT_STREQ(to_string(PolicyKind::kScm), "SCM");
  EXPECT_STREQ(to_string(PolicyKind::kAts), "ATS");
  EXPECT_STREQ(to_string(PolicyKind::kSgl), "SGL");
  EXPECT_STREQ(to_string(PolicyKind::kSeer), "Seer");
}

TEST(PolicyShared, SeerOnlyForSeerKind) {
  PolicyShared rtm(config_for(PolicyKind::kRtm), 4, 4, 4);
  EXPECT_EQ(rtm.seer(), nullptr);
  PolicyShared seer(seer_config(), 4, 4, 4);
  EXPECT_NE(seer.seer(), nullptr);
  EXPECT_EQ(seer.seer()->n_threads(), 4u);
  EXPECT_EQ(seer.seer()->n_types(), 4u);
}

}  // namespace
}  // namespace seer::rt
