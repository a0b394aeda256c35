// Tests for the correctness harness (src/check/): deterministic fault
// injection through SoftHtm's unchanged xbegin/xend interface, and the
// offline opacity verifier over recorded commit logs — including the
// acceptance gate that the verifier catches a deliberately broken TM.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "check/fault_plan.hpp"
#include "check/opacity.hpp"
#include "htm/soft_htm.hpp"
#include "runtime/threaded_executor.hpp"

namespace seer::check {
namespace {

bool committed(htm::AbortStatus s) { return s.raw() == htm::kXBeginStarted; }

// ----------------------------------------------------------- FaultPlan -----

TEST(FaultPlan, ForcesEveryAbortCauseDeterministically) {
  const struct {
    htm::AbortStatus status;
    htm::AbortCause cause;
  } cases[] = {
      {htm::AbortStatus::conflict(), htm::AbortCause::kConflict},
      {htm::AbortStatus::capacity(), htm::AbortCause::kCapacity},
      {htm::AbortStatus::other(), htm::AbortCause::kOther},
  };
  for (const auto& c : cases) {
    htm::SoftHtm tm;
    htm::SoftHtm::ThreadContext ctx(tm);
    FaultPlan plan;
    plan.force(/*attempt=*/0, htm::TxOp::kWrite, /*occurrence=*/0, c.status);
    ctx.set_fault_injector(&plan);
    htm::TmWord w{0};

    const htm::AbortStatus first =
        ctx.attempt([&](htm::SoftHtm::Tx& tx) { tx.write(w, 1); });
    EXPECT_FALSE(committed(first));
    EXPECT_EQ(first.cause(), c.cause) << "forced cause must come back verbatim";
    EXPECT_EQ(w.load(), 0u) << "injected abort must roll back";
    EXPECT_EQ(plan.injected(c.cause), 1u);

    // The plan pins attempt 0 only; the retry goes through untouched.
    const htm::AbortStatus retry =
        ctx.attempt([&](htm::SoftHtm::Tx& tx) { tx.write(w, 1); });
    EXPECT_TRUE(committed(retry));
    EXPECT_EQ(w.load(), 1u);
    EXPECT_EQ(plan.total_injected(), 1u);
  }
}

TEST(FaultPlan, ForcedFaultHitsTheExactOperation) {
  htm::SoftHtm tm;
  htm::SoftHtm::ThreadContext ctx(tm);
  FaultPlan plan;
  // Die at the SECOND read of the first attempt.
  plan.force(0, htm::TxOp::kRead, /*occurrence=*/1, htm::AbortStatus::conflict());
  ctx.set_fault_injector(&plan);
  std::vector<htm::TmWord> words(4);
  int reads_completed = 0;
  const htm::AbortStatus s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
    for (auto& w : words) {
      (void)tx.read(w);
      ++reads_completed;
    }
  });
  EXPECT_FALSE(committed(s));
  EXPECT_EQ(reads_completed, 1) << "fault fires before the targeted read runs";
}

TEST(FaultPlan, CommitFaultKillsAFinishedBody) {
  htm::SoftHtm tm;
  htm::SoftHtm::ThreadContext ctx(tm);
  FaultPlan plan;
  plan.force(0, htm::TxOp::kCommit, 0, htm::AbortStatus::capacity());
  ctx.set_fault_injector(&plan);
  htm::TmWord w{0};
  bool body_finished = false;
  const htm::AbortStatus s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
    tx.write(w, 9);
    body_finished = true;
  });
  EXPECT_TRUE(body_finished) << "the body ran to completion";
  EXPECT_FALSE(committed(s)) << "then the commit was killed";
  EXPECT_EQ(s.cause(), htm::AbortCause::kCapacity);
  EXPECT_EQ(w.load(), 0u);
}

TEST(FaultPlan, SubscribeFaultFiresBeforeTheSubscriptionRegisters) {
  // Tx::subscribe is a speculative access like any other — on real TSX the
  // fallback lock sits in the read set, so a plan must be able to pin an
  // abort to exactly the subscription point.
  htm::SoftHtm tm;
  htm::SoftHtm::ThreadContext ctx(tm);
  FaultPlan plan;
  plan.force(0, htm::TxOp::kSubscribe, 0, htm::AbortStatus::conflict());
  ctx.set_fault_injector(&plan);
  std::atomic<std::uint64_t> lock_word{0};
  htm::TmWord w{0};
  bool past_subscribe = false;
  const htm::AbortStatus s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
    tx.write(w, 1);
    tx.subscribe(lock_word, 0);
    past_subscribe = true;
  });
  EXPECT_FALSE(committed(s));
  EXPECT_EQ(s.cause(), htm::AbortCause::kConflict);
  EXPECT_FALSE(past_subscribe) << "the fault fires before subscribe completes";
  EXPECT_EQ(w.load(), 0u) << "injected abort must roll back the buffered write";
  EXPECT_EQ(plan.injected(htm::AbortCause::kConflict), 1u);

  // The plan pinned attempt 0 only: the retry subscribes and commits.
  const htm::AbortStatus retry = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
    tx.write(w, 1);
    tx.subscribe(lock_word, 0);
  });
  EXPECT_TRUE(committed(retry));
  EXPECT_EQ(w.load(), 1u);
}

TEST(FaultPlan, SubscribeFaultThroughExecutorLandsOnRetryPath) {
  // The threaded executor's hardware path subscribes to the SGL word on
  // every speculative attempt, so a kSubscribe-pinned fault exercises the
  // hook exactly where production transactions hit it. The killed attempt
  // must surface as a normal conflict to the policy, and the retry (or the
  // fallback) still commits the body exactly once.
  htm::SoftHtm tm;
  rt::ThreadedExecutor::Options opts;
  opts.n_threads = 1;
  opts.n_types = 1;
  opts.physical_cores = 2;
  rt::PolicyConfig policy;
  policy.kind = rt::PolicyKind::kRtm;
  rt::ThreadedExecutor exec(tm, policy, opts);
  auto h = exec.make_handle(0);
  FaultPlan plan;
  plan.force(0, htm::TxOp::kSubscribe, 0, htm::AbortStatus::conflict());
  h->set_fault_injector(&plan);
  htm::TmWord w{0};
  (void)h->run(0, [&](auto& tx) { tx.write(w, tx.read(w) + 1); });
  EXPECT_EQ(w.load(), 1u);
  EXPECT_EQ(plan.injected(htm::AbortCause::kConflict), 1u)
      << "the subscription fault fired exactly once";
  const auto conflict_idx = static_cast<std::size_t>(htm::AbortCause::kConflict);
  EXPECT_GT(h->counters().aborts_by_cause[conflict_idx], 0u)
      << "the injected subscribe abort reached the policy's accounting";
}

TEST(FaultPlan, SeedReproducesInjectionSchedule) {
  // Identical (seed, op stream) pairs must produce identical injection
  // schedules — the property that makes failing property-test seeds replay.
  auto run = [](std::uint64_t seed) {
    htm::SoftHtm tm;
    htm::SoftHtm::ThreadContext ctx(tm);
    FaultPlan plan(FaultPlanConfig{
        .p_conflict = 0.05, .p_capacity = 0.05, .p_other = 0.05, .seed = seed});
    ctx.set_fault_injector(&plan);
    htm::TmWord w{0};
    std::vector<bool> aborted;
    for (int i = 0; i < 200; ++i) {
      const htm::AbortStatus s = ctx.attempt(
          [&](htm::SoftHtm::Tx& tx) { tx.write(w, tx.read(w) + 1); });
      aborted.push_back(!committed(s));
    }
    return std::pair{aborted, plan.total_injected()};
  };
  const auto [a1, n1] = run(42);
  const auto [a2, n2] = run(42);
  EXPECT_EQ(a1, a2) << "same seed, same op stream, same schedule";
  EXPECT_EQ(n1, n2);
  EXPECT_GT(n1, 0u) << "with p=0.15/op some injection must have fired";
  const auto [a3, n3] = run(43);
  EXPECT_NE(a1, a3) << "different seed, different schedule";
  (void)n3;
}

TEST(FaultPlan, FallbackPathIsExempt) {
  // attempt_unbounded models the pessimistic SGL path, which executes
  // non-speculatively: even a plan that kills every operation must not
  // touch it, or the fallback could never make progress.
  htm::SoftHtm tm;
  htm::SoftHtm::ThreadContext ctx(tm);
  FaultPlan plan(FaultPlanConfig{.p_other = 1.0});
  ctx.set_fault_injector(&plan);
  htm::TmWord w{0};

  const htm::AbortStatus spec =
      ctx.attempt([&](htm::SoftHtm::Tx& tx) { tx.write(w, 1); });
  EXPECT_FALSE(committed(spec)) << "speculative attempts are fair game";

  const htm::AbortStatus pess =
      ctx.attempt_unbounded([&](htm::SoftHtm::Tx& tx) { tx.write(w, 2); });
  EXPECT_TRUE(committed(pess));
  EXPECT_EQ(w.load(), 2u);
}

TEST(FaultPlan, ThreadedExecutorPassthroughStillCompletes) {
  // A hostile plan injected through the executor handle: the policy burns
  // its retry budget on synthetic aborts and lands on the SGL, but the
  // transaction still commits exactly once.
  htm::SoftHtm tm;
  rt::ThreadedExecutor::Options opts;
  opts.n_threads = 1;
  opts.n_types = 1;
  opts.physical_cores = 2;
  rt::PolicyConfig policy;
  policy.kind = rt::PolicyKind::kRtm;
  rt::ThreadedExecutor exec(tm, policy, opts);
  auto h = exec.make_handle(0);
  FaultPlan plan(FaultPlanConfig{.p_conflict = 1.0});
  h->set_fault_injector(&plan);
  htm::TmWord w{0};
  const rt::CommitMode mode =
      h->run(0, [&](auto& tx) { tx.write(w, tx.read(w) + 1); });
  EXPECT_EQ(mode, rt::CommitMode::kSglFallback);
  EXPECT_EQ(w.load(), 1u);
  const auto conflict_idx = static_cast<std::size_t>(htm::AbortCause::kConflict);
  EXPECT_GT(h->counters().aborts_by_cause[conflict_idx], 0u)
      << "the injected aborts reached the policy's accounting";
}

// ------------------------------------------- tier-promotion boundary ----
// With max_read_set = 8 the Tier-0 replay log holds exactly 8 reads; the
// 9th LOGGED read (occurrence 8) lands on the budget boundary and is the
// read that promotes to exact tracking (DESIGN.md §10). Duplicate re-reads
// keep the distinct count at 8, so promotion dedups back under budget and
// the transaction commits rather than capacity-aborting.

TEST(FaultPlan, ForcedFaultPinsThePromotionTriggeringRead) {
  htm::SoftHtm tm{htm::SoftHtm::Config{.max_read_set = 8}};
  htm::SoftHtm::ThreadContext ctx(tm);
  FaultPlan plan;
  plan.force(0, htm::TxOp::kRead, /*occurrence=*/8, htm::AbortStatus::conflict());
  ctx.set_fault_injector(&plan);
  std::vector<htm::TmWord> words(8);
  int reads_completed = 0;
  auto body = [&](htm::SoftHtm::Tx& tx) {
    std::uint64_t acc = 0;
    for (auto& w : words) {
      acc += tx.read(w);
      ++reads_completed;
    }
    acc += tx.read(words[0]);  // logged read 9: the promoting read
    ++reads_completed;
    (void)acc;
  };
  const htm::AbortStatus s = ctx.attempt(body);
  EXPECT_FALSE(committed(s));
  EXPECT_EQ(reads_completed, 8) << "the fault fires before the promoting read";
  EXPECT_EQ(ctx.read_promotions_capacity(), 0u)
      << "the attempt died before promote_reads ran";

  reads_completed = 0;
  const htm::AbortStatus retry = ctx.attempt(body);
  EXPECT_TRUE(committed(retry));
  EXPECT_EQ(reads_completed, 9);
  EXPECT_EQ(ctx.read_promotions_capacity(), 1u)
      << "the retry crossed the boundary and promoted";
}

TEST(FaultPlan, FaultJustAfterPromotionRollsBackTheExactTier) {
  // Kill the read AFTER the promoting one: the attempt dies with the exact
  // tier active and the replayed index populated. Rollback must leave the
  // context able to re-enter Tier 0 on the retry and promote again.
  htm::SoftHtm tm{htm::SoftHtm::Config{.max_read_set = 8}};
  htm::SoftHtm::ThreadContext ctx(tm);
  FaultPlan plan;
  plan.force(0, htm::TxOp::kRead, /*occurrence=*/9, htm::AbortStatus::capacity());
  ctx.set_fault_injector(&plan);
  std::vector<htm::TmWord> words(8);
  auto body = [&](htm::SoftHtm::Tx& tx) {
    std::uint64_t acc = 0;
    for (auto& w : words) acc += tx.read(w);
    acc += tx.read(words[0]);  // logged read 9: promotes
    acc += tx.read(words[1]);  // logged read 10: exact tier — killed
    (void)acc;
  };
  const htm::AbortStatus s = ctx.attempt(body);
  EXPECT_FALSE(committed(s));
  EXPECT_EQ(s.cause(), htm::AbortCause::kCapacity);
  EXPECT_EQ(ctx.read_promotions_capacity(), 1u)
      << "the first attempt promoted before dying";

  const htm::AbortStatus retry = ctx.attempt(body);
  EXPECT_TRUE(committed(retry));
  EXPECT_EQ(ctx.read_promotions_capacity(), 2u)
      << "every attempt starts over in Tier 0 and re-promotes";
}

// ----------------------------------------------------- opacity verifier ----

TEST(Opacity, CleanSingleThreadHistoryVerifies) {
  htm::SoftHtm tm;
  htm::SoftHtm::ThreadContext ctx(tm);
  htm::TxLog log;
  ctx.set_tx_log(&log);
  std::vector<htm::TmWord> words(4);
  MemorySnapshot initial;
  snapshot_words(initial, words.data(), words.size());

  for (int i = 0; i < 50; ++i) {
    const htm::AbortStatus s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
      const std::size_t j = static_cast<std::size_t>(i) % words.size();
      tx.write(words[j], tx.read(words[j]) + 1);
    });
    ASSERT_TRUE(committed(s));
  }
  const OpacityReport report = verify_opacity({&log}, initial);
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
  EXPECT_EQ(report.transactions_checked, 50u);
  EXPECT_EQ(report.reads_checked, 50u);
}

TEST(Opacity, CleanConcurrentHistoryVerifies) {
  htm::SoftHtm tm;
  htm::TmWord counter{0};
  constexpr int kThreads = 4;
  constexpr int kIncrements = 1500;
  MemorySnapshot initial;
  snapshot_words(initial, &counter, 1);
  std::vector<htm::TxLog> logs(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      htm::SoftHtm::ThreadContext ctx(tm);
      ctx.set_tx_log(&logs[static_cast<std::size_t>(t)]);
      for (int i = 0; i < kIncrements; ++i) {
        while (true) {
          const htm::AbortStatus s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
            tx.write(counter, tx.read(counter) + 1);
          });
          if (committed(s)) break;
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  std::vector<const htm::TxLog*> log_ptrs;
  for (const auto& l : logs) log_ptrs.push_back(&l);
  const OpacityReport report = verify_opacity(log_ptrs, initial);
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
  EXPECT_EQ(report.transactions_checked,
            static_cast<std::size_t>(kThreads) * kIncrements);
  EXPECT_EQ(counter.load(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

// Hand-crafted logs: the verifier's classification must be exact.

TEST(Opacity, FlagsStaleReadAsLostUpdate) {
  const std::uint64_t word_a = 0;  // stands in for a TmWord's storage
  htm::TxLog log;
  // v1 writes a=2 (having read the initial 1); v2 then reads the
  // OVERWRITTEN value 1 — a lost update.
  log.push_back(htm::TxRecord{.begin_version = 0,
                              .commit_version = 1,
                              .writer = true,
                              .reads = {{&word_a, 1}},
                              .writes = {{&word_a, 2}}});
  log.push_back(htm::TxRecord{.begin_version = 0,
                              .commit_version = 2,
                              .writer = true,
                              .reads = {{&word_a, 1}},
                              .writes = {{&word_a, 3}}});
  const OpacityReport report = verify_opacity({&log}, {{&word_a, 1}});
  ASSERT_EQ(report.violations.size(), 1u);
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.kind, ViolationKind::kStaleRead);
  EXPECT_EQ(v.commit_version, 2u);
  EXPECT_EQ(v.observed, 1u);
  EXPECT_EQ(v.expected, 2u);
}

TEST(Opacity, FlagsDirtyReadOfNeverCommittedValue) {
  const std::uint64_t word_a = 0;
  htm::TxLog log;
  log.push_back(htm::TxRecord{.begin_version = 0,
                              .commit_version = 1,
                              .writer = true,
                              .reads = {{&word_a, 99}},  // 99 never existed
                              .writes = {{&word_a, 2}}});
  const OpacityReport report = verify_opacity({&log}, {{&word_a, 1}});
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front().kind, ViolationKind::kDirtyRead);
}

TEST(Opacity, FlagsDuplicateCommitVersions) {
  const std::uint64_t word_a = 0;
  htm::TxLog log;
  for (int i = 0; i < 2; ++i) {
    log.push_back(htm::TxRecord{.begin_version = 0,
                                .commit_version = 7,
                                .writer = true,
                                .reads = {},
                                .writes = {{&word_a, 1}}});
  }
  const OpacityReport report = verify_opacity({&log}, {{&word_a, 0}});
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front().kind,
            ViolationKind::kDuplicateCommitVersion);
}

TEST(Opacity, ReadOnlySerializesAtItsSnapshot) {
  const std::uint64_t word_a = 0;
  htm::TxLog log;
  // Writer v1 sets a=2; a read-only tx with begin snapshot 1 must see a=2
  // (it serializes just after v1), even though a later writer sets a=3.
  log.push_back(htm::TxRecord{.begin_version = 0,
                              .commit_version = 1,
                              .writer = true,
                              .reads = {},
                              .writes = {{&word_a, 2}}});
  log.push_back(htm::TxRecord{.begin_version = 1,
                              .commit_version = 1,
                              .writer = false,
                              .reads = {{&word_a, 2}},
                              .writes = {}});
  log.push_back(htm::TxRecord{.begin_version = 1,
                              .commit_version = 2,
                              .writer = true,
                              .reads = {{&word_a, 2}},
                              .writes = {{&word_a, 3}}});
  const OpacityReport report = verify_opacity({&log}, {{&word_a, 1}});
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
}

TEST(Opacity, UnsnapshottedWordsAdoptFirstReadValue) {
  const std::uint64_t word_a = 0;
  htm::TxLog log;
  log.push_back(htm::TxRecord{.begin_version = 0,
                              .commit_version = 0,
                              .writer = false,
                              .reads = {{&word_a, 123}},
                              .writes = {}});
  // No snapshot entry for word_a: the first sighting defines the model.
  const OpacityReport report = verify_opacity({&log}, {});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.reads_checked, 1u);
}

// ------------------------------------------- broken-TM acceptance gates ----

// The defect skips commit-time read-set validation, so a transaction whose
// read was overwritten mid-flight publishes anyway — a lost update. This is
// the deterministic version of the acceptance criterion; the property
// harness (property_test.cpp) proves the same via random exploration.
TEST(OpacityGate, CatchesSkipCommitValidationDefect) {
  htm::SoftHtm tm(htm::SoftHtm::Config{
      .defect = htm::SoftHtm::Defect::kSkipCommitValidation});
  htm::SoftHtm::ThreadContext a(tm);
  htm::SoftHtm::ThreadContext b(tm);
  htm::TxLog log_a;
  htm::TxLog log_b;
  a.set_tx_log(&log_a);
  b.set_tx_log(&log_b);
  htm::TmWord w{0};
  htm::TmWord y{0};
  MemorySnapshot initial;
  snapshot_words(initial, &w, 1);
  snapshot_words(initial, &y, 1);

  const htm::AbortStatus s = a.attempt([&](htm::SoftHtm::Tx& tx) {
    const std::uint64_t v = tx.read(w);
    // B commits w=7 while A is speculating on the old value.
    const htm::AbortStatus sb =
        b.attempt([&](htm::SoftHtm::Tx& txb) { txb.write(w, 7); });
    ASSERT_TRUE(committed(sb));
    tx.write(y, v + 1);  // carries the doomed read into a published write
  });
  ASSERT_TRUE(committed(s)) << "the broken TM must NOT detect the conflict";

  const OpacityReport report = verify_opacity({&log_a, &log_b}, initial);
  ASSERT_FALSE(report.ok()) << "the checker must flag the zombie commit";
  EXPECT_EQ(report.violations.front().kind, ViolationKind::kStaleRead);
}

TEST(OpacityGate, SameInterleavingOnHealthyTmIsRejectedByTheTm) {
  htm::SoftHtm tm;  // Defect::kNone
  htm::SoftHtm::ThreadContext a(tm);
  htm::SoftHtm::ThreadContext b(tm);
  htm::TxLog log_a;
  htm::TxLog log_b;
  a.set_tx_log(&log_a);
  b.set_tx_log(&log_b);
  htm::TmWord w{0};
  htm::TmWord y{0};
  MemorySnapshot initial;
  snapshot_words(initial, &w, 1);
  snapshot_words(initial, &y, 1);

  const htm::AbortStatus s = a.attempt([&](htm::SoftHtm::Tx& tx) {
    const std::uint64_t v = tx.read(w);
    const htm::AbortStatus sb =
        b.attempt([&](htm::SoftHtm::Tx& txb) { txb.write(w, 7); });
    ASSERT_TRUE(committed(sb));
    tx.write(y, v + 1);
  });
  EXPECT_FALSE(committed(s)) << "a healthy TM aborts the doomed transaction";
  const OpacityReport report = verify_opacity({&log_a, &log_b}, initial);
  EXPECT_TRUE(report.ok()) << "only B committed; the history is clean";
  EXPECT_EQ(report.transactions_checked, 1u);
}

TEST(OpacityGate, SkipReadValidationDefectBreaksSnapshots) {
  // With per-read validation off, a reader can observe x and y from
  // DIFFERENT snapshots and still commit read-only; the replay flags the
  // mixed read set.
  htm::SoftHtm tm(htm::SoftHtm::Config{
      .defect = htm::SoftHtm::Defect::kSkipReadValidation});
  htm::SoftHtm::ThreadContext a(tm);
  htm::SoftHtm::ThreadContext b(tm);
  htm::TxLog log_a;
  htm::TxLog log_b;
  a.set_tx_log(&log_a);
  b.set_tx_log(&log_b);
  htm::TmWord x{1};
  htm::TmWord y{1};
  MemorySnapshot initial;
  snapshot_words(initial, &x, 1);
  snapshot_words(initial, &y, 1);

  const htm::AbortStatus s = a.attempt([&](htm::SoftHtm::Tx& tx) {
    (void)tx.read(x);  // old snapshot: x=1
    const htm::AbortStatus sb = b.attempt([&](htm::SoftHtm::Tx& txb) {
      txb.write(x, 2);
      txb.write(y, 2);
    });
    ASSERT_TRUE(committed(sb));
    (void)tx.read(y);  // new snapshot: y=2 — inconsistent, not detected
  });
  ASSERT_TRUE(committed(s));
  const OpacityReport report = verify_opacity({&log_a, &log_b}, initial);
  EXPECT_FALSE(report.ok()) << "mixed-snapshot read set must be flagged";
}

TEST(OpacityGate, CatchesExtendWithoutValidationDefect) {
  // A reads x; B commits x and y; A's read of y meets a stripe newer than
  // its snapshot and extends. A healthy extension revalidates x, finds it
  // overwritten and aborts A. The defect moves the snapshot without that
  // check: A reads the new y next to the old x and commits read-only at
  // the extended snapshot, where the replay finds x stale.
  for (const bool broken : {false, true}) {
    SCOPED_TRACE(broken ? "extend without validation" : "healthy");
    htm::SoftHtm tm(htm::SoftHtm::Config{
        .defect = broken ? htm::SoftHtm::Defect::kExtendWithoutValidation
                         : htm::SoftHtm::Defect::kNone});
    htm::SoftHtm::ThreadContext a(tm);
    htm::SoftHtm::ThreadContext b(tm);
    htm::TxLog log_a;
    htm::TxLog log_b;
    a.set_tx_log(&log_a);
    b.set_tx_log(&log_b);
    htm::TmWord x{1};
    htm::TmWord y{1};
    MemorySnapshot initial;
    snapshot_words(initial, &x, 1);
    snapshot_words(initial, &y, 1);

    const htm::AbortStatus s = a.attempt([&](htm::SoftHtm::Tx& tx) {
      (void)tx.read(x);
      const htm::AbortStatus sb = b.attempt([&](htm::SoftHtm::Tx& txb) {
        txb.write(x, 2);
        txb.write(y, 2);
      });
      ASSERT_TRUE(committed(sb));
      (void)tx.read(y);
    });
    const OpacityReport report = verify_opacity({&log_a, &log_b}, initial);
    if (broken) {
      ASSERT_TRUE(committed(s)) << "the broken TM must NOT detect the conflict";
      ASSERT_FALSE(report.ok()) << "the checker must flag the zombie commit";
      EXPECT_EQ(report.violations.front().kind, ViolationKind::kStaleRead);
      EXPECT_EQ(report.violations.front().addr, static_cast<const void*>(&x));
    } else {
      EXPECT_FALSE(committed(s)) << "a healthy extension revalidates x and aborts";
      EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
    }
  }
}

TEST(OpacityGate, CommitValidationGuardsReadsOnBothSidesOfThePromotion) {
  // The doomed read is taken in Tier 0 (signature + replay log only), the
  // read set then crosses the promotion boundary, and only commit-time
  // validation can catch the stale value. On a healthy TM the cross-tier
  // commit must abort; with kSkipCommitValidation the zombie publishes and
  // the offline replay must flag the stale read — proving the Tier-0 log
  // carries enough to validate reads made before the exact index existed.
  for (const bool broken : {false, true}) {
    htm::SoftHtm tm(htm::SoftHtm::Config{
        .max_read_set = 8,
        .defect = broken ? htm::SoftHtm::Defect::kSkipCommitValidation
                         : htm::SoftHtm::Defect::kNone});
    htm::SoftHtm::ThreadContext a(tm);
    htm::SoftHtm::ThreadContext b(tm);
    htm::TxLog log_a;
    htm::TxLog log_b;
    a.set_tx_log(&log_a);
    b.set_tx_log(&log_b);
    htm::TmWord w{0};
    htm::TmWord y{0};
    std::vector<htm::TmWord> fill(7);
    MemorySnapshot initial;
    snapshot_words(initial, &w, 1);
    snapshot_words(initial, &y, 1);
    snapshot_words(initial, fill.data(), fill.size());

    const htm::AbortStatus s = a.attempt([&](htm::SoftHtm::Tx& tx) {
      const std::uint64_t v = tx.read(w);  // Tier-0 read, about to go stale
      const htm::AbortStatus sb =
          b.attempt([&](htm::SoftHtm::Tx& txb) { txb.write(w, 7); });
      ASSERT_TRUE(committed(sb));
      for (auto& f : fill) (void)tx.read(f);  // fills the 8-slot log
      (void)tx.read(fill[0]);                 // logged read 9: promotes
      tx.write(y, v + 1);  // carries the doomed read into a published write
    });
    EXPECT_EQ(a.read_promotions_capacity(), 1u)
        << "the interleaving must actually cross the tier boundary";
    const OpacityReport report = verify_opacity({&log_a, &log_b}, initial);
    if (broken) {
      ASSERT_TRUE(committed(s)) << "the broken TM must NOT detect the conflict";
      ASSERT_FALSE(report.ok()) << "the checker must flag the zombie commit";
      EXPECT_EQ(report.violations.front().kind, ViolationKind::kStaleRead);
    } else {
      EXPECT_FALSE(committed(s))
          << "a healthy TM validates the Tier-0 read at commit and aborts";
      EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
    }
  }
}

}  // namespace
}  // namespace seer::check
