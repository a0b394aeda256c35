// Tests for the policy layer: directive sequences of every policy under
// scripted abort-status sequences, commit-mode classification, and the
// Seer policy's lock-management rules (Alg. 1-4).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "runtime/policies.hpp"
#include "runtime/policy.hpp"

namespace seer::rt {
namespace {

using htm::AbortStatus;

// ------------------------------------------------------ classify_commit ----

struct ClassifyCase {
  LockList held;
  bool sgl;
  CommitMode expected;
};

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
  cfg.max_attempts = 5;
  cfg.hle_attempts = 2;
  return cfg;
}

// Runs a transaction to completion against a scripted status sequence and
// returns the directives observed. `statuses` aborts are consumed one per
// hardware attempt; when they run out, the next hardware attempt commits.
struct Trace {
  std::vector<Directive> directives;
  bool hardware_commit = false;
  LockList final_releases;
};

Trace run_scripted(Policy& p, core::TxTypeId tx, std::vector<AbortStatus> statuses) {
  Trace trace;
  p.begin_tx(tx);
  std::size_t next = 0;
  for (int guard = 0; guard < 64; ++guard) {
    Directive d = p.next_attempt();
    trace.directives.push_back(d);
    if (d.mode == Directive::Mode::kFallback) {
      trace.hardware_commit = false;
      trace.final_releases = p.on_commit(/*hardware=*/false);
      return trace;
    }
    if (next < statuses.size()) {
      p.on_abort(statuses[next++]);
    } else {
      trace.hardware_commit = true;
      trace.final_releases = p.on_commit(/*hardware=*/true);
      return trace;
    }
  }
  ADD_FAILURE() << "policy did not terminate";
  return trace;
}

std::vector<AbortStatus> conflicts(int n) {
  return std::vector<AbortStatus>(static_cast<std::size_t>(n),
                                  AbortStatus::conflict());
}

// ------------------------------------------------------------------ RTM ----

TEST(RtmPolicy, CommitsFirstTryWithoutLocks) {
  PolicyShared shared(config_for(PolicyKind::kRtm), 4, 4);
  auto p = shared.make_thread_policy(0);
  const Trace t = run_scripted(*p, 0, {});
  ASSERT_EQ(t.directives.size(), 1u);
  EXPECT_EQ(t.directives[0].mode, Directive::Mode::kHardware);
  EXPECT_TRUE(t.directives[0].wait_sgl) << "lemming avoidance";
  EXPECT_TRUE(t.directives[0].acquires.empty());
  EXPECT_TRUE(t.directives[0].waits.empty());
  EXPECT_TRUE(t.hardware_commit);
}

TEST(RtmPolicy, FallsBackAfterBudgetExhausted) {
  PolicyShared shared(config_for(PolicyKind::kRtm), 4, 4);
  auto p = shared.make_thread_policy(0);
  const Trace t = run_scripted(*p, 0, conflicts(5));
  ASSERT_EQ(t.directives.size(), 6u) << "5 hardware attempts then fallback";
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(t.directives[static_cast<std::size_t>(i)].mode,
              Directive::Mode::kHardware);
  }
  EXPECT_EQ(t.directives[5].mode, Directive::Mode::kFallback);
  EXPECT_FALSE(t.hardware_commit);
}

TEST(RtmPolicy, BudgetResetsPerTransaction) {
  PolicyShared shared(config_for(PolicyKind::kRtm), 4, 4);
  auto p = shared.make_thread_policy(0);
  (void)run_scripted(*p, 0, conflicts(5));
  const Trace t = run_scripted(*p, 0, conflicts(2));
  EXPECT_EQ(t.directives.size(), 3u);
  EXPECT_TRUE(t.hardware_commit);
}

// ------------------------------------------------------------------ HLE ----

TEST(HlePolicy, SmallBudgetAndNoLemmingAvoidance) {
  PolicyShared shared(config_for(PolicyKind::kHle), 4, 4);
  auto p = shared.make_thread_policy(0);
  const Trace t = run_scripted(*p, 0, conflicts(5));
  ASSERT_EQ(t.directives.size(), 3u) << "2 attempts then the elided lock";
  EXPECT_FALSE(t.directives[0].wait_sgl) << "HLE retries blindly";
  EXPECT_EQ(t.directives[2].mode, Directive::Mode::kFallback);
}

// ------------------------------------------------------------------ SCM ----

TEST(ScmPolicy, AcquiresAuxAfterFirstAbort) {
  PolicyShared shared(config_for(PolicyKind::kScm), 4, 4);
  auto p = shared.make_thread_policy(0);
  const Trace t = run_scripted(*p, 0, conflicts(1));
  ASSERT_EQ(t.directives.size(), 2u);
  EXPECT_TRUE(t.directives[0].acquires.empty());
  ASSERT_EQ(t.directives[1].acquires.size(), 1u);
  EXPECT_EQ(t.directives[1].acquires[0], kAuxLock);
  EXPECT_TRUE(t.hardware_commit);
  ASSERT_EQ(t.final_releases.size(), 1u);
  EXPECT_EQ(t.final_releases[0], kAuxLock);
}

TEST(ScmPolicy, AuxAcquiredOnceAcrossRetries) {
  PolicyShared shared(config_for(PolicyKind::kScm), 4, 4);
  auto p = shared.make_thread_policy(0);
  const Trace t = run_scripted(*p, 0, conflicts(3));
  ASSERT_EQ(t.directives.size(), 4u);
  EXPECT_EQ(t.directives[1].acquires.size(), 1u);
  EXPECT_TRUE(t.directives[2].acquires.empty());
  EXPECT_TRUE(t.directives[3].acquires.empty());
}

TEST(ScmPolicy, FallbackReleasesAuxFirst) {
  PolicyShared shared(config_for(PolicyKind::kScm), 4, 4);
  auto p = shared.make_thread_policy(0);
  const Trace t = run_scripted(*p, 0, conflicts(5));
  const Directive& fb = t.directives.back();
  EXPECT_EQ(fb.mode, Directive::Mode::kFallback);
  ASSERT_EQ(fb.releases.size(), 1u);
  EXPECT_EQ(fb.releases[0], kAuxLock);
  EXPECT_TRUE(t.final_releases.empty());
}

TEST(ScmPolicy, CleanRunNeverTouchesAux) {
  PolicyShared shared(config_for(PolicyKind::kScm), 4, 4);
  auto p = shared.make_thread_policy(0);
  const Trace t = run_scripted(*p, 0, {});
  EXPECT_TRUE(t.directives[0].acquires.empty());
  EXPECT_TRUE(t.final_releases.empty());
}

// ------------------------------------------------------------------ ATS ----

TEST(AtsPolicy, ContentionFactorEma) {
  PolicyShared shared(config_for(PolicyKind::kAts), 4, 4);
  EXPECT_DOUBLE_EQ(shared.ats_contention(0), 0.0);
  shared.ats_update(0, true);
  EXPECT_DOUBLE_EQ(shared.ats_contention(0), 0.3);
  shared.ats_update(0, true);
  EXPECT_DOUBLE_EQ(shared.ats_contention(0), 0.3 * 0.7 + 0.3);
  shared.ats_update(0, false);
  EXPECT_NEAR(shared.ats_contention(0), (0.3 * 0.7 + 0.3) * 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(shared.ats_contention(1), 0.0) << "per-thread factors";
}

TEST(AtsPolicy, SerializesAboveThreshold) {
  PolicyShared shared(config_for(PolicyKind::kAts), 4, 4);
  auto p = shared.make_thread_policy(0);
  // Drive the contention factor above 0.5 via repeated aborting runs.
  (void)run_scripted(*p, 0, conflicts(5));
  ASSERT_GT(shared.ats_contention(0), 0.5);
  const Trace t = run_scripted(*p, 0, {});
  ASSERT_EQ(t.directives.size(), 1u);
  ASSERT_EQ(t.directives[0].acquires.size(), 1u);
  EXPECT_EQ(t.directives[0].acquires[0], kSchedLock);
  ASSERT_EQ(t.final_releases.size(), 1u);
  EXPECT_EQ(t.final_releases[0], kSchedLock);
}

TEST(AtsPolicy, CalmThreadRunsFree) {
  PolicyShared shared(config_for(PolicyKind::kAts), 4, 4);
  auto p = shared.make_thread_policy(1);
  const Trace t = run_scripted(*p, 0, {});
  EXPECT_TRUE(t.directives[0].acquires.empty());
}

// ------------------------------------------------------------------ SGL ----

TEST(SglPolicy, AlwaysFallsBack) {
  PolicyShared shared(config_for(PolicyKind::kSgl), 4, 4);
  auto p = shared.make_thread_policy(0);
  const Trace t = run_scripted(*p, 0, {});
  ASSERT_EQ(t.directives.size(), 1u);
  EXPECT_EQ(t.directives[0].mode, Directive::Mode::kFallback);
}

// ----------------------------------------------------------------- Seer ----

PolicyConfig seer_config(bool tx_locks = true, bool core_locks = true,
                         bool htm_acquire = true) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kSeer;
  cfg.max_attempts = 5;
  cfg.seer.physical_cores = 4;
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
      (std::max(a, b) + 1) % static_cast<core::TxTypeId>(s.config().n_types));
  s.announce(1, other);
  for (int i = 0; i < 95; ++i) s.record_commit(0, a);
  for (int i = 0; i < 5; ++i) s.record_abort(0, a);
  s.clear(1);
  s.force_update(0);
}

TEST(SeerPolicy, AnnouncesOnBeginAndClearsOnCommit) {
  PolicyShared shared(seer_config(), 8, 4);
  auto p = shared.make_thread_policy(3);
  p->begin_tx(2);
  EXPECT_EQ(shared.seer()->active_table().peek(3), 2);
  (void)p->next_attempt();
  (void)p->on_commit(true);
  EXPECT_EQ(shared.seer()->active_table().peek(3), core::kNoTx);
}

TEST(SeerPolicy, WaitsOnOwnLocksEveryAttempt) {
  PolicyShared shared(seer_config(), 8, 4);
  auto p = shared.make_thread_policy(5);  // physical core 5 % 4 = 1
  p->begin_tx(2);
  const Directive d = p->next_attempt();
  EXPECT_EQ(d.mode, Directive::Mode::kHardware);
  EXPECT_TRUE(d.wait_sgl);
  EXPECT_TRUE(d.waits.contains(tx_lock(2))) << "Alg. 4 line 57: own tx lock";
  EXPECT_TRUE(d.waits.contains(core_lock(1))) << "Alg. 4 line 58: own core lock";
  EXPECT_TRUE(d.acquires.empty());
}

TEST(SeerPolicy, CapacityAbortTriggersCoreLock) {
  PolicyShared shared(seer_config(), 8, 4);
  auto p = shared.make_thread_policy(6);  // core 2
  p->begin_tx(0);
  (void)p->next_attempt();
  p->on_abort(AbortStatus::capacity());
  const Directive d = p->next_attempt();
  ASSERT_EQ(d.acquires.size(), 1u);
  EXPECT_EQ(d.acquires[0], core_lock(2));
  // Once held, the own-core-lock wait disappears.
  EXPECT_FALSE(d.waits.contains(core_lock(2)));
  // Held until commit.
  const LockList rel = p->on_commit(true);
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel[0], core_lock(2));
}

TEST(SeerPolicy, ConflictAbortDoesNotTakeCoreLock) {
  PolicyShared shared(seer_config(), 8, 4);
  auto p = shared.make_thread_policy(0);
  p->begin_tx(0);
  (void)p->next_attempt();
  p->on_abort(AbortStatus::conflict());
  const Directive d = p->next_attempt();
  EXPECT_TRUE(d.acquires.empty());
}

TEST(SeerPolicy, TxLocksAcquiredOnlyOnLastAttempt) {
  PolicyShared shared(seer_config(), 8, 4);
  plant_edge(*shared.seer(), 1, 2);
  ASSERT_TRUE(shared.seer()->scheme()->row(1).contains(2));

  auto p = shared.make_thread_policy(0);
  p->begin_tx(1);
  for (int attempt = 0; attempt < 3; ++attempt) {
    const Directive d = p->next_attempt();
    EXPECT_TRUE(d.acquires.empty()) << "no tx locks before the last attempt";
    p->on_abort(AbortStatus::conflict());
  }
  // 4th abort leaves one attempt: the next directive takes the row locks.
  p->on_abort(AbortStatus::conflict());
  const Directive d = p->next_attempt();
  ASSERT_EQ(d.acquires.size(), 1u);
  EXPECT_EQ(d.acquires[0], tx_lock(2));
  EXPECT_FALSE(d.waits.contains(tx_lock(1)))
      << "holding tx locks suppresses the own-lock wait (Alg. 4 line 57)";
  const LockList rel = p->on_commit(true);
  EXPECT_TRUE(rel.contains(tx_lock(2)));
}

TEST(SeerPolicy, FallbackReleasesEverything) {
  PolicyShared shared(seer_config(), 8, 4);
  plant_edge(*shared.seer(), 1, 2);
  auto p = shared.make_thread_policy(0);
  p->begin_tx(1);
  (void)p->next_attempt();
  p->on_abort(AbortStatus::capacity());  // -> core lock
  (void)p->next_attempt();
  p->on_abort(AbortStatus::conflict());
  (void)p->next_attempt();
  p->on_abort(AbortStatus::conflict());
  (void)p->next_attempt();
  p->on_abort(AbortStatus::conflict());  // attempts = 1 next
  (void)p->next_attempt();                 // acquires tx locks
  p->on_abort(AbortStatus::conflict());  // attempts = 0
  const Directive fb = p->next_attempt();
  EXPECT_EQ(fb.mode, Directive::Mode::kFallback);
  EXPECT_TRUE(fb.releases.contains(core_lock(0)));
  EXPECT_TRUE(fb.releases.contains(tx_lock(2)));
  EXPECT_TRUE(fb.acquires.empty());
  const LockList rel = p->on_commit(false);
  EXPECT_TRUE(rel.empty()) << "everything was already released pre-SGL";
}

TEST(SeerPolicy, CanonicalReacquisitionWhenTxLocksJoinCoreLock) {
  PolicyShared shared(seer_config(), 8, 4);
  plant_edge(*shared.seer(), 1, 2);
  auto p = shared.make_thread_policy(2);  // core 2
  p->begin_tx(1);
  (void)p->next_attempt();
  p->on_abort(AbortStatus::capacity());
  (void)p->next_attempt();  // acquires core lock
  p->on_abort(AbortStatus::conflict());
  (void)p->next_attempt();
  p->on_abort(AbortStatus::conflict());
  (void)p->next_attempt();
  p->on_abort(AbortStatus::conflict());  // one attempt left
  const Directive d = p->next_attempt();
  // Core lock must be released and re-acquired ahead of the tx locks so the
  // global acquisition order (core < tx) is preserved.
  ASSERT_EQ(d.releases.size(), 1u);
  EXPECT_EQ(d.releases[0], core_lock(2));
  ASSERT_EQ(d.acquires.size(), 2u);
  EXPECT_EQ(d.acquires[0], core_lock(2));
  EXPECT_EQ(d.acquires[1], tx_lock(2));
  EXPECT_TRUE(d.htm_batch) << "2+ locks: the multi-CAS-by-HTM path applies";
}

TEST(SeerPolicy, HtmBatchDisabledByConfig) {
  PolicyShared shared(seer_config(true, true, /*htm_acquire=*/false), 8, 4);
  plant_edge(*shared.seer(), 1, 2);
  auto p = shared.make_thread_policy(2);
  p->begin_tx(1);
  (void)p->next_attempt();
  p->on_abort(AbortStatus::capacity());
  (void)p->next_attempt();
  for (int i = 0; i < 3; ++i) {
    p->on_abort(AbortStatus::conflict());
    if (i < 2) (void)p->next_attempt();
  }
  const Directive d = p->next_attempt();
  EXPECT_GE(d.acquires.size(), 2u);
  EXPECT_FALSE(d.htm_batch);
}

TEST(SeerPolicy, ProfileOnlyVariantNeverAcquiresOrWaits) {
  // The Figure 4 variant: full profiling, no lock acquisition.
  PolicyShared shared(seer_config(false, false, false), 8, 4);
  plant_edge(*shared.seer(), 1, 2);
  auto p = shared.make_thread_policy(0);
  p->begin_tx(1);
  for (int i = 0; i < 5; ++i) {
    const Directive d = p->next_attempt();
    if (d.mode == Directive::Mode::kFallback) break;
    EXPECT_TRUE(d.acquires.empty());
    EXPECT_TRUE(d.waits.empty());
    p->on_abort(AbortStatus::capacity());
  }
  // Profiling still ran: statistics accumulated.
  EXPECT_GT(shared.seer()->merged_stats().total_executions(), 0u);
}

TEST(SeerPolicy, EmptyRowMeansNoTxLockAcquisition) {
  PolicyShared shared(seer_config(), 8, 4);  // empty scheme
  auto p = shared.make_thread_policy(0);
  p->begin_tx(1);
  for (int i = 0; i < 4; ++i) {
    (void)p->next_attempt();
    p->on_abort(AbortStatus::conflict());
  }
  const Directive d = p->next_attempt();  // last attempt, row empty
  EXPECT_TRUE(d.acquires.empty());
}

TEST(SeerPolicy, MaintenanceOnlyOnDesignatedThread) {
  PolicyConfig cfg = seer_config();
  cfg.seer.update_period = 1;
  PolicyShared shared(cfg, 8, 4);
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
  PolicyShared shared(seer_config(), 8, 4);
  auto p0 = shared.make_thread_policy(0);
  auto p1 = shared.make_thread_policy(1);
  p1->begin_tx(3);  // announce type 3 on thread 1
  p0->begin_tx(2);
  (void)p0->next_attempt();
  p0->on_abort(AbortStatus::conflict());
  (void)p0->next_attempt();
  (void)p0->on_commit(true);
  const core::GlobalStats g = shared.seer()->merged_stats();
  EXPECT_EQ(g.abort(2, 3), 1u);
  EXPECT_EQ(g.commit(2, 3), 1u);
  EXPECT_EQ(g.execs(2), 2u);
}

TEST(SeerPolicy, SglCommitDoesNotRecordCommitStats) {
  PolicyShared shared(seer_config(), 8, 4);
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
  PolicyShared shared(cfg, 8, 4);
  auto p = shared.make_thread_policy(2);

  AbortStatus status = AbortStatus::other();
  switch (cause) {
    case htm::AbortCause::kConflict: status = AbortStatus::conflict(); break;
    case htm::AbortCause::kCapacity: status = AbortStatus::capacity(); break;
    case htm::AbortCause::kExplicit:
      status = AbortStatus::explicit_abort(htm::kXAbortCodeSglLocked);
      break;
    case htm::AbortCause::kOther: break;
  }

  for (int round = 0; round < 10; ++round) {
    LockList held;
    p->begin_tx(round % 4);
    for (int guard = 0;; ++guard) {
      ASSERT_LT(guard, 32) << "policy failed to terminate";
      const Directive d = p->next_attempt();
      for (const LockId& id : d.releases) {
        auto it = std::find(held.begin(), held.end(), id);
        ASSERT_NE(it, held.end()) << "released a lock it does not hold";
        *it = held.back();
        held.pop_back();
      }
      for (const LockId& id : d.acquires) {
        ASSERT_FALSE(held.contains(id)) << "double acquisition";
        held.push_back(id);
      }
      if (d.mode == Directive::Mode::kFallback) {
        const LockList rel = p->on_commit(false);
        for (const LockId& id : rel) {
          auto it = std::find(held.begin(), held.end(), id);
          ASSERT_NE(it, held.end());
          *it = held.back();
          held.pop_back();
        }
        break;
      }
      p->on_abort(status);
    }
    EXPECT_TRUE(held.empty()) << "locks leaked across a transaction";
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

// ----------------------------------------------------------------- Oracle --

TEST(OraclePolicy, LearnsFromPreciseAttribution) {
  PolicyConfig cfg = config_for(PolicyKind::kOracle);
  cfg.oracle.update_period = 4;
  cfg.oracle.conflict_threshold = 0.05;
  PolicyShared shared(cfg, 4, 4);
  auto p = shared.make_thread_policy(0);

  // Feed precisely-attributed conflicts: type 1 keeps getting killed by 2.
  for (int i = 0; i < 20; ++i) {
    p->begin_tx(1);
    (void)p->next_attempt();
    p->on_conflict_attribution(2);
    p->on_abort(AbortStatus::conflict());
    (void)p->next_attempt();
    (void)p->on_commit(true);
  }
  ASSERT_NE(shared.oracle(), nullptr);
  EXPECT_GE(shared.oracle()->conflicts(1, 2), 20u);
  EXPECT_TRUE(shared.oracle()->scheme()->row(1).contains(2));
  EXPECT_TRUE(shared.oracle()->scheme()->row(2).contains(1)) << "symmetric";
}

TEST(OraclePolicy, SerializesFromFirstRetry) {
  PolicyConfig cfg = config_for(PolicyKind::kOracle);
  cfg.oracle.update_period = 2;
  PolicyShared shared(cfg, 4, 4);
  auto p = shared.make_thread_policy(0);
  for (int i = 0; i < 10; ++i) {
    p->begin_tx(1);
    (void)p->next_attempt();
    p->on_conflict_attribution(2);
    p->on_abort(AbortStatus::conflict());
    (void)p->next_attempt();
    (void)p->on_commit(true);
  }
  // Now a fresh instance: first attempt free, first RETRY takes the lock —
  // earlier than Seer's attempts==1 last resort.
  p->begin_tx(1);
  const Directive first = p->next_attempt();
  EXPECT_TRUE(first.acquires.empty());
  EXPECT_TRUE(first.waits.contains(tx_lock(1))) << "waits on own lock";
  p->on_abort(AbortStatus::conflict());
  const Directive retry = p->next_attempt();
  ASSERT_EQ(retry.acquires.size(), 1u);
  EXPECT_EQ(retry.acquires[0], tx_lock(2));
  const LockList rel = p->on_commit(true);
  EXPECT_TRUE(rel.contains(tx_lock(2)));
}

TEST(OraclePolicy, IgnoresAttributionlessAborts) {
  PolicyConfig cfg = config_for(PolicyKind::kOracle);
  cfg.oracle.update_period = 2;
  PolicyShared shared(cfg, 4, 4);
  auto p = shared.make_thread_policy(0);
  for (int i = 0; i < 10; ++i) {
    p->begin_tx(1);
    (void)p->next_attempt();
    p->on_abort(AbortStatus::capacity());  // no attribution call
    (void)p->next_attempt();
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
  PolicyShared rtm(config_for(PolicyKind::kRtm), 4, 4);
  EXPECT_EQ(rtm.seer(), nullptr);
  PolicyShared seer(seer_config(), 4, 4);
  EXPECT_NE(seer.seer(), nullptr);
  EXPECT_EQ(seer.seer()->config().n_threads, 4u);
  EXPECT_EQ(seer.seer()->config().n_types, 4u);
}

}  // namespace
}  // namespace seer::rt
