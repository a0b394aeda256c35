// Tests for the machine simulator: event queue, simulated locks, conflict
// predicates, and end-to-end Machine behaviour on synthetic workloads with
// controlled conflict/capacity structure (including failure injection).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "runtime/threaded_executor.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "sim/sim_lock.hpp"
#include "sim/workload.hpp"
#include "stamp/workloads.hpp"

namespace seer::sim {
namespace {

// --------------------------------------------------------- EventQueue ------

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  Event a;
  a.time = 30;
  Event b;
  b.time = 10;
  Event c;
  c.time = 20;
  q.push(a);
  q.push(b);
  q.push(c);
  EXPECT_EQ(q.pop().time, 10u);
  EXPECT_EQ(q.pop().time, 20u);
  EXPECT_EQ(q.pop().time, 30u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 10; ++i) {
    Event e;
    e.time = 5;
    e.thread = i;
    q.push(e);
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(q.pop().thread, i) << "FIFO among same-time events";
  }
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.push(Event{});
  q.push(Event{});
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 1u);
}

// ------------------------------------------------------------ SimLock ------

TEST(SimLock, TryAcquireAndRelease) {
  SimLock l;
  EXPECT_FALSE(l.is_locked());
  EXPECT_TRUE(l.try_acquire(3));
  EXPECT_TRUE(l.is_locked());
  EXPECT_EQ(l.owner(), 3u);
  EXPECT_FALSE(l.try_acquire(4));
  const auto out = l.release(3);
  EXPECT_FALSE(out.granted.has_value());
  EXPECT_FALSE(l.is_locked());
}

TEST(SimLock, FifoHandover) {
  SimLock l;
  ASSERT_TRUE(l.try_acquire(0));
  l.enqueue(1);
  l.enqueue(2);
  auto out = l.release(0);
  ASSERT_TRUE(out.granted.has_value());
  EXPECT_EQ(*out.granted, 1u);
  EXPECT_TRUE(l.is_locked()) << "handover keeps the lock held";
  EXPECT_TRUE(out.notified.empty()) << "nobody subscribed";
  out = l.release(1);
  EXPECT_EQ(*out.granted, 2u);
  out = l.release(2);
  EXPECT_FALSE(out.granted.has_value());
}

TEST(SimLock, SubscribersNotifiedAtEveryRelease) {
  SimLock l;
  ASSERT_TRUE(l.try_acquire(0));
  l.subscribe(5, 42);
  l.subscribe(6, 43);
  l.enqueue(1);
  auto out = l.release(0);  // handover to 1 notifies as well
  EXPECT_EQ(*out.granted, 1u);
  ASSERT_EQ(out.notified.size(), 2u);
  EXPECT_EQ(out.notified[0].thread, 5u);
  EXPECT_EQ(out.notified[0].gen, 42u);
  EXPECT_EQ(out.notified[1].thread, 6u);
  l.subscribe(7, 44);
  out = l.release(1);  // now free
  EXPECT_FALSE(l.is_locked());
  ASSERT_EQ(out.notified.size(), 1u);
  EXPECT_EQ(out.notified[0].thread, 7u);
}

TEST(SimLock, SubscriptionsAreOneShot) {
  SimLock l;
  ASSERT_TRUE(l.try_acquire(0));
  l.subscribe(5, 1);
  (void)l.release(0);
  ASSERT_TRUE(l.try_acquire(0));
  const auto out = l.release(0);
  EXPECT_TRUE(out.notified.empty());
}

// ---------------------------------------------------------- wait rule ------

// One wait rule for both backends (DESIGN.md §7): a wait that finds the lock
// held ends at the first release after it began, even when the lock is taken
// again at once — handed to the queued acquirer by the FIFO SimLock,
// re-taken by a barging thread on the WordLock.
TEST(WaitRule, EndsAtTheFirstReleaseInBothBackends) {
  // Machine: thread 5 waits while thread 0 holds the lock and 1 is queued.
  SimLock sim;
  ASSERT_TRUE(sim.try_acquire(0));
  sim.enqueue(1);
  sim.subscribe(5, 7);
  const SimLock::ReleaseOutcome out = sim.release(0);
  EXPECT_EQ(*out.granted, 1u);
  EXPECT_TRUE(sim.is_locked()) << "handed over";
  ASSERT_EQ(out.notified.size(), 1u) << "the handover ends the wait";
  EXPECT_EQ(out.notified[0].thread, 5u);

  // Executor: the holder releases and re-takes the lock during the waiter's
  // first pause.
  rt::WordLock word;
  word.lock();
  int pauses = 0;
  const auto end = rt::wait_for_release(word, /*budget=*/1000, [&] {
    if (pauses++ == 0) {
      word.unlock();
      word.lock();
    }
  });
  EXPECT_EQ(end, rt::WaitEnd::kBlocked);
  EXPECT_TRUE(word.is_locked()) << "re-taken";
  EXPECT_EQ(pauses, 1) << "the release ends the wait, not the budget";

  // With no release the budget ends it; a free lock is no wait at all.
  pauses = 0;
  EXPECT_EQ(rt::wait_for_release(word, 16, [&] { ++pauses; }), rt::WaitEnd::kBlocked);
  EXPECT_EQ(pauses, 16);
  word.unlock();
  EXPECT_EQ(rt::wait_for_release(word, 16, [&] { ++pauses; }), rt::WaitEnd::kFree);
  EXPECT_EQ(pauses, 16);
}

// --------------------------------------------------------- TxInstance ------

TxInstance make_inst(std::vector<std::uint32_t> reads,
                     std::vector<std::uint32_t> writes) {
  TxInstance i;
  i.reads = std::move(reads);
  i.writes = std::move(writes);
  i.duration = 100;
  return i;
}

TEST(TxInstance, FootprintCountsUnion) {
  EXPECT_EQ(make_inst({1, 2, 3}, {3, 4}).footprint_lines(), 4u);
  EXPECT_EQ(make_inst({}, {}).footprint_lines(), 0u);
  EXPECT_EQ(make_inst({1, 2}, {}).footprint_lines(), 2u);
  EXPECT_EQ(make_inst({}, {7}).footprint_lines(), 1u);
  EXPECT_EQ(make_inst({1, 2, 3}, {1, 2, 3}).footprint_lines(), 3u);
}

TEST(TxInstance, WriteConflictSemantics) {
  const auto w_hits_r = make_inst({}, {5});
  const auto reader = make_inst({5}, {});
  EXPECT_TRUE(write_conflicts(w_hits_r, reader));
  EXPECT_FALSE(write_conflicts(reader, w_hits_r)) << "readers do not invalidate";
  EXPECT_TRUE(instances_conflict(w_hits_r, reader));
  EXPECT_TRUE(instances_conflict(reader, w_hits_r)) << "symmetric";
}

TEST(TxInstance, DisjointFootprintsNeverConflict) {
  const auto a = make_inst({1, 2}, {3});
  const auto b = make_inst({4, 5}, {6});
  EXPECT_FALSE(instances_conflict(a, b));
}

TEST(TxInstance, WriteWriteConflicts) {
  const auto a = make_inst({}, {10, 20});
  const auto b = make_inst({}, {20, 30});
  EXPECT_TRUE(instances_conflict(a, b));
}

// ------------------------------------------------- synthetic workloads -----

// A fully controllable workload for machine tests.
class SyntheticWorkload final : public Workload {
 public:
  struct Params {
    std::string name = "synthetic";
    std::uint64_t duration = 1000;
    std::uint64_t think = 200;
    std::size_t n_types = 2;
    // Line sets per type; every instance of a type uses exactly these.
    std::vector<std::vector<std::uint32_t>> reads;
    std::vector<std::vector<std::uint32_t>> writes;
    // Offset every line by thread id so instances on different threads are
    // disjoint (used to build genuinely conflict-free workloads).
    bool per_thread_lines = false;
  };

  explicit SyntheticWorkload(Params p) : p_(std::move(p)) {
    type_names_.reserve(p_.n_types);
    for (std::size_t i = 0; i < p_.n_types; ++i) {
      type_names_.push_back(std::string(1, 't').append(std::to_string(i)));
    }
  }

  const std::string& name() const override { return p_.name; }
  std::size_t n_types() const override { return p_.n_types; }
  const std::string& type_name(core::TxTypeId t) const override {
    return type_names_[static_cast<std::size_t>(t)];
  }

  void next(core::ThreadId thread, double, util::Xoshiro256& rng,
            TxInstance& out) override {
    const auto type = static_cast<std::size_t>(rng.below(p_.n_types));
    out.type = static_cast<core::TxTypeId>(type);
    out.duration = p_.duration;
    out.reads = type < p_.reads.size() ? p_.reads[type] : std::vector<std::uint32_t>{};
    out.writes =
        type < p_.writes.size() ? p_.writes[type] : std::vector<std::uint32_t>{};
    if (p_.per_thread_lines) {
      const std::uint32_t offset = 100000u * (thread + 1);
      for (auto& l : out.reads) l += offset;
      for (auto& l : out.writes) l += offset;
    }
  }

  std::uint64_t think_time(core::ThreadId, util::Xoshiro256&) override {
    return p_.think;
  }

 private:
  Params p_;
  std::vector<std::string> type_names_;
};

SyntheticWorkload::Params no_conflict_params() {
  SyntheticWorkload::Params p;
  p.n_types = 2;
  // Per-thread disjoint footprints: no pair of concurrent instances can
  // ever conflict (same-thread instances never coexist).
  p.reads = {{1}, {2}};
  p.writes = {{10}, {20}};
  p.per_thread_lines = true;
  return p;
}

// Type 0 self-conflicts on one hot line; type 1 is read-only and clean —
// gives the inference a learnable contrast even at 8 threads.
SyntheticWorkload::Params hot_type_params() {
  SyntheticWorkload::Params p;
  p.n_types = 2;
  p.reads = {{1}, {2, 3}};
  p.writes = {{99}, {}};
  return p;
}

SyntheticWorkload::Params all_conflict_params() {
  SyntheticWorkload::Params p;
  p.n_types = 2;
  // Everyone writes the same line: every coexistence is a conflict candidate.
  p.reads = {{1}, {2}};
  p.writes = {{99}, {99}};
  return p;
}

MachineConfig base_config(rt::PolicyKind kind, std::size_t threads,
                          std::uint64_t txs = 400, std::uint64_t seed = 3) {
  MachineConfig cfg;
  cfg.n_threads = threads;
  cfg.txs_per_thread = txs;
  cfg.policy.kind = kind;
  cfg.seed = seed;
  return cfg;
}

// ------------------------------------------------------------ Machine ------

TEST(Machine, AllTransactionsAccounted) {
  const auto cfg = base_config(rt::PolicyKind::kRtm, 4);
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
  EXPECT_EQ(s.commits, 4u * 400u);
  std::uint64_t by_mode = 0;
  for (auto c : s.commits_by_mode) by_mode += c;
  EXPECT_EQ(by_mode, s.commits);
  std::uint64_t by_type = 0;
  for (auto c : s.commits_by_type) by_type += c;
  EXPECT_EQ(by_type, s.commits);
  EXPECT_GT(s.makespan, 0u);
  EXPECT_GT(s.serial_work, 0u);
}

TEST(Machine, DeterministicForSameSeed) {
  const auto cfg = base_config(rt::PolicyKind::kSeer, 6);
  const MachineStats a =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  const MachineStats b =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.aborts(), b.aborts());
  EXPECT_EQ(a.commits_by_mode, b.commits_by_mode);
}

TEST(Machine, DifferentSeedsDiverge) {
  const auto wl = [] {
    return std::make_unique<SyntheticWorkload>(all_conflict_params());
  };
  auto cfg = base_config(rt::PolicyKind::kRtm, 6);
  const MachineStats a = run_machine(cfg, wl());
  cfg.seed = 999;
  const MachineStats b = run_machine(cfg, wl());
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(Machine, NoConflictWorkloadScalesAndNeverAborts) {
  auto cfg = base_config(rt::PolicyKind::kRtm, 4);
  cfg.p_other_abort = 0.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
  EXPECT_EQ(s.aborts(), 0u);
  EXPECT_GT(s.speedup(), 3.0);
  EXPECT_DOUBLE_EQ(s.mode_fraction(rt::CommitMode::kHtmNoLocks), 1.0);
}

TEST(Machine, SingleThreadSpeedupNearOne) {
  auto cfg = base_config(rt::PolicyKind::kRtm, 1);
  cfg.p_other_abort = 0.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
  EXPECT_LE(s.speedup(), 1.0) << "TM overheads cannot beat sequential";
  EXPECT_GT(s.speedup(), 0.85);
}

TEST(Machine, ConflictsProduceAbortsAndFallbacks) {
  auto cfg = base_config(rt::PolicyKind::kRtm, 8, 600);
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  EXPECT_GT(s.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kConflict)], 0u);
  EXPECT_GT(s.mode_fraction(rt::CommitMode::kSglFallback), 0.0);
  EXPECT_EQ(s.commits, 8u * 600u) << "every transaction still completes";
}

TEST(Machine, SglPolicyIsFullySerialized) {
  const auto cfg = base_config(rt::PolicyKind::kSgl, 4);
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  EXPECT_DOUBLE_EQ(s.mode_fraction(rt::CommitMode::kSglFallback), 1.0);
  EXPECT_EQ(s.hw_attempts, 0u);
  EXPECT_LT(s.speedup(), 1.0);
}

TEST(Machine, OtherAbortInjectionAlwaysAborting) {
  // Failure injection: every attempt suffers a background abort, so every
  // transaction must reach the SGL and the run must still terminate.
  auto cfg = base_config(rt::PolicyKind::kRtm, 2, 50);
  cfg.p_other_abort = 1.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
  EXPECT_EQ(s.commits, 100u);
  EXPECT_DOUBLE_EQ(s.mode_fraction(rt::CommitMode::kSglFallback), 1.0);
  EXPECT_GT(s.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kOther)], 0u);
}

TEST(Machine, TinyWaitBudgetStillTerminates) {
  auto cfg = base_config(rt::PolicyKind::kSeer, 8, 300);
  cfg.wait_budget = 1;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  EXPECT_EQ(s.commits, 8u * 300u);
}

// Capacity behaviour -------------------------------------------------------

SyntheticWorkload::Params big_footprint_params(std::uint32_t lines) {
  SyntheticWorkload::Params p;
  p.n_types = 1;
  p.duration = 2000;
  // Read-only bulk footprint: capacity pressure without any conflicts, so
  // the tests isolate the capacity/core-lock axis.
  std::vector<std::uint32_t> reads;
  for (std::uint32_t i = 0; i < lines; ++i) reads.push_back(1000 + i);
  p.reads = {reads};
  p.writes = {{}};
  return p;
}

TEST(Machine, NoCapacityAbortsWithoutSmtSharing) {
  // 4 threads on 4 physical cores: nobody shares, and the footprint (300)
  // fits the full per-core budget (448).
  auto cfg = base_config(rt::PolicyKind::kRtm, 4, 200);
  cfg.p_other_abort = 0.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(big_footprint_params(300)));
  EXPECT_EQ(s.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kCapacity)], 0u);
}

TEST(Machine, SmtSharingTriggersCapacityAborts) {
  // 8 threads on 4 cores: siblings halve the budget; 300 > 224.
  auto cfg = base_config(rt::PolicyKind::kRtm, 8, 200);
  cfg.p_other_abort = 0.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(big_footprint_params(300)));
  EXPECT_GT(s.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kCapacity)], 0u);
}

TEST(Machine, SeerCoreLocksAbsorbCapacityPressure) {
  auto cfg = base_config(rt::PolicyKind::kSeer, 8, 400);
  cfg.p_other_abort = 0.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(big_footprint_params(300)));
  const double core_modes =
      s.mode_fraction(rt::CommitMode::kHtmCoreLock) +
      s.mode_fraction(rt::CommitMode::kHtmTxAndCore);
  EXPECT_GT(core_modes, 0.05) << "core locks should carry real traffic";
  EXPECT_LT(s.mode_fraction(rt::CommitMode::kSglFallback), 0.05);
}

TEST(Machine, SeerBeatsRtmUnderSmtCapacityPressure) {
  auto seer_cfg = base_config(rt::PolicyKind::kSeer, 8, 400);
  seer_cfg.p_other_abort = 0.0;
  auto rtm_cfg = base_config(rt::PolicyKind::kRtm, 8, 400);
  rtm_cfg.p_other_abort = 0.0;
  const MachineStats seer = run_machine(
      seer_cfg, std::make_unique<SyntheticWorkload>(big_footprint_params(300)));
  const MachineStats rtm = run_machine(
      rtm_cfg, std::make_unique<SyntheticWorkload>(big_footprint_params(300)));
  EXPECT_GT(seer.speedup(), rtm.speedup());
}

TEST(Machine, OversizedTransactionsAlwaysFallBack) {
  // Footprint beyond even the full per-core budget: deterministic capacity
  // failure, every instance ends up on the SGL.
  auto cfg = base_config(rt::PolicyKind::kRtm, 2, 60);
  cfg.p_other_abort = 0.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(big_footprint_params(600)));
  EXPECT_DOUBLE_EQ(s.mode_fraction(rt::CommitMode::kSglFallback), 1.0);
}

// Seer-specific end-to-end -------------------------------------------------

TEST(Machine, SeerLearnsSelfConflictAndSerializes) {
  auto cfg = base_config(rt::PolicyKind::kSeer, 8, 1500, 17);
  cfg.policy.seer.update_period = 256;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(hot_type_params()));
  EXPECT_GT(s.scheme_rebuilds, 0u);
  ASSERT_EQ(s.final_scheme.size(), 2u);
  // Type 0 writes line 99; the scheme must connect at least one hot pair.
  std::size_t edges = 0;
  for (const auto& row : s.final_scheme) edges += row.size();
  EXPECT_GT(edges, 0u) << "inference failed to find the planted conflict";
  EXPECT_GT(s.mode_fraction(rt::CommitMode::kHtmTxLocks) +
                s.mode_fraction(rt::CommitMode::kHtmTxAndCore),
            0.0);
}

TEST(Machine, SeerTxLockCensusPopulated) {
  auto cfg = base_config(rt::PolicyKind::kSeer, 8, 1500, 17);
  cfg.policy.seer.update_period = 256;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(hot_type_params()));
  EXPECT_GT(s.txlock_fraction.count(), 0u);
  EXPECT_LE(s.txlock_fraction.percentile(1.0), 1.0);
}

TEST(Machine, RtmHasNoSeerArtifacts) {
  const auto cfg = base_config(rt::PolicyKind::kRtm, 4);
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
  EXPECT_EQ(s.scheme_rebuilds, 0u);
  EXPECT_TRUE(s.final_scheme.empty());
  EXPECT_EQ(s.txlock_fraction.count(), 0u);
}

// Every policy terminates with exact commit counts on a contended workload.
class MachinePolicyParam : public ::testing::TestWithParam<rt::PolicyKind> {};

TEST_P(MachinePolicyParam, ContendedRunCompletes) {
  const auto cfg = base_config(GetParam(), 8, 300);
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  EXPECT_EQ(s.commits, 8u * 300u);
  for (std::size_t m = 0; m < s.commits_by_mode.size(); ++m) {
    EXPECT_LE(s.commits_by_mode[m], s.commits);
  }
  EXPECT_GT(s.speedup(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, MachinePolicyParam,
                         ::testing::Values(rt::PolicyKind::kHle, rt::PolicyKind::kRtm,
                                           rt::PolicyKind::kScm, rt::PolicyKind::kAts,
                                           rt::PolicyKind::kSgl, rt::PolicyKind::kSeer));

// Thread-count sweep: commits always exact, makespan monotone in work.
class MachineThreadParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MachineThreadParam, ExactCommitsAtEveryWidth) {
  const std::size_t threads = GetParam();
  const auto cfg = base_config(rt::PolicyKind::kSeer, threads, 200);
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  EXPECT_EQ(s.commits, threads * 200u);
}

INSTANTIATE_TEST_SUITE_P(Widths, MachineThreadParam,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Physical bound: no scheduler can make N threads run more than N times the
// serial work rate (the simulator must conserve time).
class SpeedupBound : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpeedupBound, NeverExceedsThreadCount) {
  const std::size_t threads = GetParam();
  for (auto kind : {rt::PolicyKind::kRtm, rt::PolicyKind::kScm,
                    rt::PolicyKind::kSeer, rt::PolicyKind::kOracle}) {
    const auto cfg = base_config(kind, threads, 300);
    const MachineStats s =
        run_machine(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
    EXPECT_LE(s.speedup(), static_cast<double>(threads) + 1e-9)
        << rt::to_string(kind) << " at " << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SpeedupBound, ::testing::Values(1u, 2u, 4u, 8u));

// ------------------------------------------------------------ open loop --

TEST(MachineServe, LoneRequestCostsItsAttemptAndABurstSheds) {
  auto cfg = base_config(rt::PolicyKind::kRtm, 1);
  cfg.p_other_abort = 0.0;
  Machine m(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
  std::vector<Served> served;
  m.serve(2, [&](const Served& s) { served.push_back(s); });
  TxInstance inst;
  inst.duration = 1000;
  inst.writes = {7};

  // An idle machine starts the request on arrival: latency is the begin
  // cost plus the body.
  ASSERT_TRUE(m.arrive(100, inst));
  m.drain();
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].arrival, 100u);
  EXPECT_EQ(served[0].commit - served[0].arrival, cfg.costs.xbegin + inst.duration);
  EXPECT_EQ(served[0].mode, rt::CommitMode::kHtmNoLocks);

  // A burst at one instant: one request enters service, two fill the
  // two-slot queue, the rest are shed, and the admitted ones commit in
  // arrival order.
  served.clear();
  int accepted = 0;
  for (int i = 0; i < 10; ++i) accepted += m.arrive(50000, inst) ? 1 : 0;
  EXPECT_EQ(accepted, 3);
  m.drain();
  ASSERT_EQ(served.size(), 3u);
  EXPECT_LT(served[0].commit, served[1].commit);
  EXPECT_LT(served[1].commit, served[2].commit);
}

// A victim with two conflict aborts scheduled in one attempt is credited to
// the aggressor of the event that fires. One-cycle bodies make every overlap
// a certain hit, and newcomers are always the victim: thread 2 starts one
// cycle before thread 0's transaction ends, so the abort thread 0 causes
// fires at once, ahead of the one thread 1 causes, which was scheduled
// after it.
TEST(MachineServe, ConflictAbortCreditsTheAggressorOfTheEventThatFired) {
  auto cfg = base_config(rt::PolicyKind::kOracle, 3);
  cfg.p_other_abort = 0.0;
  cfg.p_newcomer_aborts = 1.0;
  SyntheticWorkload::Params p;
  p.n_types = 3;
  Machine m(cfg, std::make_unique<SyntheticWorkload>(p));
  m.serve(4, [](const Served&) {});
  const auto inst = [](core::TxTypeId type, std::vector<std::uint32_t> writes) {
    TxInstance i;
    i.type = type;
    i.duration = 1;
    i.writes = std::move(writes);
    return i;
  };
  const Time t0_ends = cfg.costs.xbegin + 1;
  ASSERT_TRUE(m.arrive(0, inst(1, {1})));               // thread 0
  ASSERT_TRUE(m.arrive(t0_ends - 1, inst(2, {2})));     // thread 1, disjoint
  ASSERT_TRUE(m.arrive(t0_ends - 1, inst(0, {1, 2})));  // thread 2, the victim
  m.drain();
  const rt::OracleShared& oracle = *m.policy_shared().oracle();
  EXPECT_EQ(oracle.conflicts(0, 1), 1u) << "credited to the event that fired";
  EXPECT_EQ(oracle.conflicts(0, 2), 0u);
}

// The SGL wait (Alg. 4 line 55) lasts until the SGL is free, even though a
// handover now notifies its waiters too (DESIGN.md §7): a notified waiter
// looks again. RTM: threads 0 and 1 overflow their capacity on every
// attempt. Thread 0 spends its budget first and takes the SGL while thread
// 1's last attempt runs, which aborts it onto the SGL queue; thread 2
// arrives while the SGL is held and waits. When thread 0 hands the SGL to
// thread 1, thread 2 must keep waiting. Had it attempted then, the held SGL
// would have aborted that attempt: thread 2 begins exactly one attempt and
// aborts none.
TEST(MachineServe, SglWaitLastsUntilTheSglIsFree) {
  auto cfg = base_config(rt::PolicyKind::kRtm, 3);
  cfg.p_other_abort = 0.0;
  obs::TraceSink trace(3);
  cfg.trace = &trace;
  SyntheticWorkload::Params p;
  p.n_types = 3;
  Machine m(cfg, std::make_unique<SyntheticWorkload>(p));
  std::vector<Served> served;
  m.serve(4, [&](const Served& s) { served.push_back(s); });
  const auto inst = [](core::TxTypeId type, std::uint64_t duration,
                       std::vector<std::uint32_t> writes) {
    TxInstance i;
    i.type = type;
    i.duration = duration;
    i.writes = std::move(writes);
    return i;
  };
  const auto overflow = [&cfg](std::uint32_t first) {
    std::vector<std::uint32_t> lines(cfg.cache_lines_per_core + 1);
    for (std::size_t k = 0; k < lines.size(); ++k) {
      lines[k] = first + static_cast<std::uint32_t>(k);
    }
    return lines;
  };
  // Thread 0's attempts last 10 000 cycles until their capacity abort at
  // 60%, thread 1's 11 000: thread 0 falls back at about 31 000 cycles,
  // inside thread 1's fifth attempt (about 27 200 to 33 800).
  ASSERT_TRUE(m.arrive(0, inst(0, 10000, overflow(1000))));      // thread 0
  ASSERT_TRUE(m.arrive(1, inst(1, 11000, overflow(5000))));      // thread 1
  ASSERT_TRUE(m.arrive(36000, inst(2, 100, {2})));               // thread 2
  m.drain();
  ASSERT_EQ(served.size(), 3u);
  std::sort(served.begin(), served.end(),
            [](const Served& a, const Served& b) { return a.arrival < b.arrival; });
  EXPECT_EQ(served[0].mode, rt::CommitMode::kSglFallback);
  EXPECT_EQ(served[1].mode, rt::CommitMode::kSglFallback);
  EXPECT_LT(served[0].commit, served[1].commit) << "the SGL was handed over";
  EXPECT_LT(served[2].arrival, served[0].commit) << "thread 2 arrived during the SGL";
  EXPECT_EQ(served[2].mode, rt::CommitMode::kHtmNoLocks);
  EXPECT_GT(served[2].commit, served[1].commit) << "it began once the SGL was free";
  std::size_t begins = 0;
  std::size_t aborts = 0;
  for (const obs::TraceEvent& e : trace.drain_sorted()) {
    if (e.thread == 2 && e.kind == obs::TraceKind::kTxBegin) ++begins;
    if (e.thread == 2 && e.kind == obs::TraceKind::kTxAbort) ++aborts;
  }
  EXPECT_EQ(begins, SEER_OBS_ENABLED ? 1u : 0u)
      << "the waiter attempted while the SGL was held";
  EXPECT_EQ(aborts, 0u);
}

// Parked threads wake lowest-numbered first, so under light load thread 0 —
// the only thread that runs Seer's scheme maintenance — serves every
// request and the scheme is still rebuilt.
TEST(MachineServe, LightLoadKeepsThreadZeroServing) {
  Machine m(base_config(rt::PolicyKind::kSeer, 4),
            std::make_unique<SyntheticWorkload>(hot_type_params()));
  std::size_t served = 0;
  m.serve(16, [&](const Served&) { ++served; });
  TxInstance inst;
  inst.duration = 100;
  inst.writes = {99};
  for (Time t = 0; t < 2000; ++t) ASSERT_TRUE(m.arrive(t * 10000, inst));
  m.drain();
  EXPECT_EQ(served, 2000u);
  EXPECT_GT(m.policy_shared().seer()->rebuild_count(), 0u);
}


// ------------------------------------------------------ GoldenMachine ------

// FNV-1a over every MachineStats field, doubles by their bits.
std::uint64_t stats_hash(const MachineStats& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_all = [&mix](const auto& values) {
    mix(values.size());
    for (const auto v : values) mix(static_cast<std::uint64_t>(v));
  };
  mix(s.makespan);
  mix(s.serial_work);
  mix(s.commits);
  mix(s.hw_attempts);
  mix_all(s.commits_by_mode);
  mix_all(s.aborts_by_cause);
  mix_all(s.commits_by_type);
  mix(s.txlock_fraction.count());
  mix(std::bit_cast<std::uint64_t>(s.txlock_fraction.mean()));
  mix(s.scheme_rebuilds);
  mix(std::bit_cast<std::uint64_t>(s.final_params.th1));
  mix(std::bit_cast<std::uint64_t>(s.final_params.th2));
  mix(s.final_scheme.size());
  for (const auto& row : s.final_scheme) mix_all(row);
  mix_all(s.gt_conflicts);
  return h;
}

// The whole simulator, pinned: every MachineStats field of the 8 STAMP
// stand-ins under the 7 policies (8 threads, seed 1, a tenth of the bench
// transaction count). A change to the machine's hot path — the pair test,
// its verdict memo, the sampler — must leave every hash as it is; a change
// that moves simulated numbers on purpose re-pins them and says why.
TEST(GoldenMachine, StatsMatchPinnedHashes) {
  constexpr std::size_t kPolicies = static_cast<std::size_t>(rt::PolicyKind::kOracle) + 1;
  struct Golden {
    const char* name;
    std::uint64_t hash[kPolicies];  // HLE, RTM, SCM, ATS, SGL, Seer, Oracle
  };
  const Golden golden[] = {
      {"genome",
       {16824983231897718241ULL, 6309754415671317643ULL, 17707352791316822263ULL, 607665826525233325ULL,
        4468727435813659186ULL, 11736817691200222999ULL, 13392761087280387774ULL}},
      {"intruder",
       {2634552043286123086ULL, 3463918437599736482ULL, 15875498246141960403ULL, 18161307249538283238ULL,
        4886399979536338169ULL, 2004746113332409056ULL, 14979066944081358191ULL}},
      {"kmeans-high",
       {13858565819173586516ULL, 14527518777531883078ULL, 8393510511312003476ULL, 8873280628473099824ULL,
        4772132229018501930ULL, 11550707324708904990ULL, 15749736680228752552ULL}},
      {"kmeans-low",
       {11736397987872779640ULL, 17955636508970063456ULL, 15197107295890240549ULL, 7286194603357577884ULL,
        4772132229018501930ULL, 16709832342717960189ULL, 12862865338157794773ULL}},
      {"ssca2",
       {2610268655582345165ULL, 2610268655582345165ULL, 12158397821528515150ULL, 2610268655582345165ULL,
        12455794825022067372ULL, 6959389698025489828ULL, 2610268655582345165ULL}},
      {"vacation-high",
       {15826414786288829871ULL, 10226084972034370709ULL, 6806065790025370406ULL, 1187575846077907481ULL,
        9354648962443533800ULL, 7930719928055747812ULL, 13463136231507503441ULL}},
      {"vacation-low",
       {17596630953206522206ULL, 10152198020182313896ULL, 4356391406300620169ULL, 1855240680021930404ULL,
        12579327620933028138ULL, 2172939541073218947ULL, 10544202248834166150ULL}},
      {"yada",
       {13894292934272239447ULL, 4076745777713676532ULL, 12485771721168586893ULL, 2814268873870474247ULL,
        10431888195831953306ULL, 17324416049721190688ULL, 5971003940898244458ULL}},
  };
  const auto& stamps = stamp::all_workloads();
  ASSERT_EQ(std::size(golden), stamps.size());
  for (std::size_t w = 0; w < stamps.size(); ++w) {
    const stamp::WorkloadInfo& info = stamps[w];
    ASSERT_EQ(info.name, golden[w].name);
    for (std::size_t k = 0; k < kPolicies; ++k) {
      MachineConfig cfg;
      cfg.n_threads = 8;
      cfg.seed = 1;
      cfg.txs_per_thread = info.bench_txs_per_thread / 10;
      cfg.policy.kind = static_cast<rt::PolicyKind>(k);
      const MachineStats s =
          run_machine(cfg, std::make_unique<stamp::SpecWorkload>(info.spec(), 8));
      EXPECT_EQ(stats_hash(s), golden[w].hash[k])
          << info.name << " under " << rt::to_string(cfg.policy.kind);
    }
  }
}

}  // namespace
}  // namespace seer::sim
