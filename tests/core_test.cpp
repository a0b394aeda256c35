// Tests for the Seer scheduler core: active-transactions table, per-thread
// statistics (Alg. 3), probability model, lock-scheme inference (Alg. 5),
// stochastic hill climbing and the SeerScheduler façade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/active_tx_table.hpp"
#include "core/conflict_stats.hpp"
#include "core/hill_climber.hpp"
#include "core/lock_scheme.hpp"
#include "core/probability.hpp"
#include "core/seer_scheduler.hpp"
#include "core/storm_detector.hpp"

namespace seer::core {
namespace {

// ------------------------------------------------------ ActiveTxTable ------

TEST(ActiveTxTable, StartsEmpty) {
  ActiveTxTable t(4);
  for (ThreadId i = 0; i < 4; ++i) EXPECT_EQ(t.peek(i), kNoTx);
}

TEST(ActiveTxTable, AnnounceAndClearAreSlotLocal) {
  ActiveTxTable t(4);
  t.announce(1, 7);
  t.announce(3, 2);
  EXPECT_EQ(t.peek(0), kNoTx);
  EXPECT_EQ(t.peek(1), 7);
  EXPECT_EQ(t.peek(2), kNoTx);
  EXPECT_EQ(t.peek(3), 2);
  t.clear(1);
  EXPECT_EQ(t.peek(1), kNoTx);
  EXPECT_EQ(t.peek(3), 2);
}

TEST(ActiveTxTable, ReAnnounceOverwrites) {
  ActiveTxTable t(2);
  t.announce(0, 1);
  t.announce(0, 5);
  EXPECT_EQ(t.peek(0), 5);
}

// -------------------------------------------------------- ThreadStats ------

TEST(ThreadStats, RecordsConcurrentTypesOnAbort) {
  ActiveTxTable active(4);
  ThreadStats stats(3);
  active.announce(0, 0);  // self — must be skipped
  active.announce(1, 2);
  active.announce(2, 1);
  // slot 3 idle
  stats.record_abort(0, /*self=*/0, active);
  EXPECT_EQ(stats.abort_cell(0, 2), 1u);
  EXPECT_EQ(stats.abort_cell(0, 1), 1u);
  EXPECT_EQ(stats.abort_cell(0, 0), 0u) << "own slot must be skipped";
  EXPECT_EQ(stats.commit_cell(0, 2), 0u);
}

TEST(ThreadStats, MultiplicityCountsPerSlot) {
  // Two threads running the same type y mean two increments for (x, y) —
  // the paper's per-slot scan semantics (Alg. 3).
  ActiveTxTable active(4);
  ThreadStats stats(2);
  active.announce(1, 1);
  active.announce(2, 1);
  active.announce(3, 1);
  stats.record_commit(0, 0, active);
  EXPECT_EQ(stats.commit_cell(0, 1), 3u);
}

TEST(ThreadStats, ExecutionsCountBothOutcomes) {
  ActiveTxTable active(2);
  ThreadStats stats(2);
  stats.record_abort(1, 0, active);
  stats.record_abort(1, 0, active);
  stats.record_commit(1, 0, active);
  GlobalStats g(2);
  stats.merge_into(g);
  EXPECT_EQ(g.execs(1), 3u);
  EXPECT_EQ(g.execs(0), 0u);
}

TEST(ThreadStats, MergeSumsAcrossSlabs) {
  ActiveTxTable active(2);
  active.announce(1, 0);
  ThreadStats a(2);
  ThreadStats b(2);
  a.record_abort(0, 0, active);
  a.record_commit(0, 0, active);
  b.record_abort(0, 0, active);
  GlobalStats g(2);
  a.merge_into(g);
  b.merge_into(g);
  EXPECT_EQ(g.abort(0, 0), 2u);
  EXPECT_EQ(g.commit(0, 0), 1u);
  EXPECT_EQ(g.execs(0), 3u);
  EXPECT_EQ(g.total_executions(), 3u);
}

// -------------------------------------------------- ProbabilityModel -------

GlobalStats make_stats(std::size_t n) { return GlobalStats(n); }

TEST(ProbabilityModel, MatchesPaperFormulas) {
  GlobalStats g = make_stats(2);
  // a_01 = 30, c_01 = 10, e_0 = 100
  g.aborts[g.idx(0, 1)] = 30;
  g.commits[g.idx(0, 1)] = 10;
  g.executions[0] = 100;
  const ProbabilityModel p(g);
  EXPECT_DOUBLE_EQ(p.conditional_abort(0, 1), 30.0 / 40.0);
  EXPECT_DOUBLE_EQ(p.conjunctive_abort(0, 1), 30.0 / 100.0);
  EXPECT_TRUE(p.observed_concurrent(0, 1));
}

TEST(ProbabilityModel, ZeroEvidenceIsZero) {
  GlobalStats g = make_stats(2);
  g.executions[0] = 50;
  const ProbabilityModel p(g);
  EXPECT_EQ(p.conditional_abort(0, 1), 0.0);
  EXPECT_EQ(p.conjunctive_abort(0, 1), 0.0);
  EXPECT_FALSE(p.observed_concurrent(0, 1));
}

TEST(ProbabilityModel, ZeroExecutionsGuarded) {
  GlobalStats g = make_stats(2);
  g.aborts[g.idx(0, 1)] = 5;
  const ProbabilityModel p(g);
  EXPECT_EQ(p.conjunctive_abort(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(p.conditional_abort(0, 1), 1.0);
}

TEST(ProbabilityModel, EmptyStatsAreFiniteEverywhere) {
  // A scheduler rebuilding before any slab recorded a sample must see
  // probabilities, not NaNs: every cell of an all-zero stats matrix is 0.
  GlobalStats g = make_stats(3);
  const ProbabilityModel p(g);
  for (TxTypeId x = 0; x < 3; ++x) {
    for (TxTypeId y = 0; y < 3; ++y) {
      EXPECT_EQ(p.conditional_abort(x, y), 0.0);
      EXPECT_EQ(p.conjunctive_abort(x, y), 0.0);
      EXPECT_FALSE(p.observed_concurrent(x, y));
    }
  }
}

TEST(ProbabilityModel, SingleThreadRunsCarryNoPairEvidence) {
  // One thread, one active slot: the Alg. 3 scan skips self, so a
  // single-threaded run accumulates executions but NEVER concurrent
  // evidence — every pair probability must stay 0 (nothing to serialize).
  ActiveTxTable active(1);
  ThreadStats stats(2);
  for (int i = 0; i < 10; ++i) {
    active.announce(0, 0);
    stats.record_abort(0, /*self=*/0, active);
    stats.record_commit(0, /*self=*/0, active);
    active.clear(0);
  }
  GlobalStats g = make_stats(2);
  stats.merge_into(g);
  EXPECT_EQ(g.execs(0), 20u);
  const ProbabilityModel p(g);
  for (TxTypeId x = 0; x < 2; ++x) {
    for (TxTypeId y = 0; y < 2; ++y) {
      EXPECT_EQ(p.conditional_abort(x, y), 0.0) << int(x) << "," << int(y);
      EXPECT_EQ(p.conjunctive_abort(x, y), 0.0) << int(x) << "," << int(y);
      EXPECT_FALSE(p.observed_concurrent(x, y));
    }
  }
}

TEST(ProbabilityModel, SelfConcurrencyCountsAsPairEvidence) {
  // Two threads running the SAME type: (x, x) is a real pair — the model
  // must not special-case the diagonal.
  ActiveTxTable active(2);
  active.announce(1, 0);
  ThreadStats stats(1);
  stats.record_abort(0, /*self=*/0, active);
  GlobalStats g = make_stats(1);
  stats.merge_into(g);
  const ProbabilityModel p(g);
  EXPECT_DOUBLE_EQ(p.conditional_abort(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p.conjunctive_abort(0, 0), 1.0);
  EXPECT_TRUE(p.observed_concurrent(0, 0));
}

// --------------------------------------------------------- LockScheme ------

TEST(LockScheme, AddKeepsRowsSortedAndUnique) {
  LockScheme s(4);
  s.add(0, 3);
  s.add(0, 1);
  s.add(0, 3);
  s.add(0, 2);
  const LockRow& r = s.row(0);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(r[1], 2);
  EXPECT_EQ(r[2], 3);
  EXPECT_TRUE(s.row(1).empty());
  EXPECT_EQ(s.edge_count(), 3u);
  EXPECT_FALSE(s.empty());
}

TEST(LockScheme, OverflowDropsSilently) {
  LockScheme s(kMaxLocksPerRow + 8);
  for (TxTypeId y = 0; y < static_cast<TxTypeId>(kMaxLocksPerRow + 8); ++y) {
    s.add(0, y);
  }
  EXPECT_EQ(s.row(0).size(), kMaxLocksPerRow);
  EXPECT_TRUE(std::is_sorted(s.row(0).begin(), s.row(0).end()));
}

// Builds stats where pair (x, y) has the given abort/commit evidence and
// everything else is uniform background noise.
GlobalStats hot_pair_stats(std::size_t n, TxTypeId x, TxTypeId y,
                           std::uint64_t hot_aborts, std::uint64_t hot_commits,
                           std::uint64_t noise_aborts = 5,
                           std::uint64_t noise_commits = 95) {
  GlobalStats g(n);
  for (TxTypeId a = 0; a < static_cast<TxTypeId>(n); ++a) {
    std::uint64_t execs = 0;
    for (TxTypeId b = 0; b < static_cast<TxTypeId>(n); ++b) {
      g.aborts[g.idx(a, b)] = noise_aborts;
      g.commits[g.idx(a, b)] = noise_commits;
      execs += noise_aborts + noise_commits;
    }
    g.executions[a] = execs;
  }
  g.aborts[g.idx(x, y)] = hot_aborts;
  g.commits[g.idx(x, y)] = hot_commits;
  g.executions[x] += hot_aborts + hot_commits - noise_aborts - noise_commits;
  return g;
}

TEST(BuildLockScheme, FlagsHotPairSymmetrically) {
  const GlobalStats g = hot_pair_stats(4, 1, 2, /*aborts=*/400, /*commits=*/100);
  const auto scheme = build_lock_scheme(g, InferenceParams{.th1 = 0.3, .th2 = 0.8});
  EXPECT_TRUE(scheme->row(1).contains(2));
  EXPECT_TRUE(scheme->row(2).contains(1)) << "lines 73-74: symmetric locks";
  EXPECT_FALSE(scheme->row(0).contains(3));
  EXPECT_FALSE(scheme->row(3).contains(0));
}

TEST(BuildLockScheme, SelfConflictYieldsSelfEdge) {
  const GlobalStats g = hot_pair_stats(3, 1, 1, 500, 100);
  const auto scheme = build_lock_scheme(g, InferenceParams{.th1 = 0.3, .th2 = 0.8});
  EXPECT_TRUE(scheme->row(1).contains(1));
}

TEST(BuildLockScheme, EmptyStatsGiveEmptyScheme) {
  const GlobalStats g(4);
  const auto scheme = build_lock_scheme(g, InferenceParams{});
  EXPECT_TRUE(scheme->empty());
}

TEST(BuildLockScheme, UniformRowsProduceNoEdges) {
  // All pairs identical: zero variance, strict '>' comparison — nothing is
  // an outlier, nothing gets serialized.
  GlobalStats g(4);
  for (TxTypeId a = 0; a < 4; ++a) {
    for (TxTypeId b = 0; b < 4; ++b) {
      g.aborts[g.idx(a, b)] = 50;
      g.commits[g.idx(a, b)] = 50;
    }
    g.executions[a] = 400;
  }
  const auto scheme = build_lock_scheme(g, InferenceParams{.th1 = 0.05, .th2 = 0.8});
  EXPECT_TRUE(scheme->empty());
}

TEST(BuildLockScheme, Th1GatesRarePairs) {
  // Hot conditional probability but RARE in absolute terms: the pair aborts
  // always when concurrent, but concurrency is 1% of executions.
  GlobalStats g(2);
  g.aborts[g.idx(0, 1)] = 10;   // always aborts when 1 is around...
  g.commits[g.idx(0, 1)] = 0;
  g.aborts[g.idx(0, 0)] = 1;
  g.commits[g.idx(0, 0)] = 99;
  g.executions[0] = 1000;       // ...but that is only 1% of executions
  g.executions[1] = 1000;
  const auto high_th1 = build_lock_scheme(g, InferenceParams{.th1 = 0.3, .th2 = 0.5});
  EXPECT_FALSE(high_th1->row(0).contains(1)) << "Th1 must veto rare pairs";
  const auto low_th1 = build_lock_scheme(g, InferenceParams{.th1 = 0.005, .th2 = 0.5});
  EXPECT_TRUE(low_th1->row(0).contains(1));
}

class Th2Monotonicity : public ::testing::TestWithParam<double> {};

TEST_P(Th2Monotonicity, HigherTh2NeverAddsEdges) {
  const double th2 = GetParam();
  GlobalStats g(6);
  // Structured evidence: pair (0,1) strong, (2,3) medium, rest weak noise.
  for (TxTypeId a = 0; a < 6; ++a) {
    for (TxTypeId b = 0; b < 6; ++b) {
      g.aborts[g.idx(a, b)] = 10;
      g.commits[g.idx(a, b)] = 90;
    }
    g.executions[a] = 600;
  }
  g.aborts[g.idx(0, 1)] = 300;
  g.commits[g.idx(0, 1)] = 50;
  g.aborts[g.idx(2, 3)] = 120;
  g.commits[g.idx(2, 3)] = 80;
  const auto lo = build_lock_scheme(g, InferenceParams{.th1 = 0.05, .th2 = th2});
  const auto hi = build_lock_scheme(g, InferenceParams{.th1 = 0.05, .th2 = th2 + 0.15});
  EXPECT_GE(lo->edge_count(), hi->edge_count());
}

INSTANTIATE_TEST_SUITE_P(Grid, Th2Monotonicity,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.8));

TEST(BuildLockScheme, DeterministicForSameInputs) {
  const GlobalStats g = hot_pair_stats(5, 0, 4, 300, 100);
  const InferenceParams p{.th1 = 0.2, .th2 = 0.7};
  const auto a = build_lock_scheme(g, p);
  const auto b = build_lock_scheme(g, p);
  ASSERT_EQ(a->n_types(), b->n_types());
  for (TxTypeId x = 0; x < 5; ++x) EXPECT_EQ(a->row(x), b->row(x));
}

TEST(BuildLockScheme, RowsAreSortedForDeadlockFreedom) {
  GlobalStats g(6);
  for (TxTypeId b = 0; b < 6; ++b) {
    g.aborts[g.idx(0, b)] = (b == 2 || b == 4) ? 200 : 2;
    g.commits[g.idx(0, b)] = 50;
  }
  g.executions[0] = 800;
  for (TxTypeId a = 1; a < 6; ++a) g.executions[a] = 800;
  const auto scheme = build_lock_scheme(g, InferenceParams{.th1 = 0.05, .th2 = 0.6});
  for (TxTypeId x = 0; x < 6; ++x) {
    EXPECT_TRUE(std::is_sorted(scheme->row(x).begin(), scheme->row(x).end()));
  }
}

// -------------------------------------------------------- HillClimber ------

TEST(HillClimber, StartsAtPaperDefaults) {
  HillClimber hc;
  EXPECT_DOUBLE_EQ(hc.current().x, 0.3);
  EXPECT_DOUBLE_EQ(hc.current().y, 0.8);
  EXPECT_EQ(hc.epochs(), 0u);
}

TEST(HillClimber, ClimbsAQuadraticBowl) {
  // Objective peaked at (0.6, 0.2).
  auto score = [](HillClimber::Point p) {
    const double dx = p.x - 0.6;
    const double dy = p.y - 0.2;
    return 1.0 - (dx * dx + dy * dy);
  };
  HillClimberConfig cfg;
  cfg.jump_probability = 0.0;  // pure local search for this test
  cfg.seed = 9;
  HillClimber hc(cfg);
  for (int i = 0; i < 400; ++i) {
    (void)hc.feed(score(hc.current()));
  }
  EXPECT_NEAR(hc.best().x, 0.6, 0.1);
  EXPECT_NEAR(hc.best().y, 0.2, 0.1);
  EXPECT_GT(hc.best_score(), 0.98);
}

TEST(HillClimber, StaysInBox) {
  HillClimberConfig cfg;
  cfg.initial_x = 0.0;
  cfg.initial_y = 1.0;
  cfg.jump_probability = 0.5;  // jump a lot
  cfg.seed = 4;
  HillClimber hc(cfg);
  for (int i = 0; i < 500; ++i) {
    const auto p = hc.feed(0.5);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 1.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 1.0);
  }
}

TEST(HillClimber, RetreatsFromWorseCandidates) {
  HillClimberConfig cfg;
  cfg.jump_probability = 0.0;
  cfg.seed = 2;
  HillClimber hc(cfg);
  const auto start = hc.current();
  (void)hc.feed(10.0);  // baseline at the initial point
  for (int i = 0; i < 50; ++i) {
    (void)hc.feed(1.0);  // every candidate is worse
  }
  EXPECT_NEAR(hc.best().x, start.x, 1e-12);
  EXPECT_NEAR(hc.best().y, start.y, 1e-12);
  EXPECT_DOUBLE_EQ(hc.best_score(), 10.0);
}

TEST(HillClimber, DeterministicBySeed) {
  HillClimberConfig cfg;
  cfg.seed = 77;
  HillClimber a(cfg);
  HillClimber b(cfg);
  for (int i = 0; i < 100; ++i) {
    const auto pa = a.feed(static_cast<double>(i % 7));
    const auto pb = b.feed(static_cast<double>(i % 7));
    EXPECT_DOUBLE_EQ(pa.x, pb.x);
    EXPECT_DOUBLE_EQ(pa.y, pb.y);
  }
}

TEST(HillClimber, OscillatingScoresDoNotCauseDrift) {
  // A noisy objective that alternates good/bad feedback must not walk the
  // climber away from its best-known point: every non-improving epoch
  // retreats to best, so the candidate is never more than one step from
  // it. Unchecked, oscillation-chasing would random-walk the thresholds.
  HillClimberConfig cfg;
  cfg.jump_probability = 0.0;
  cfg.seed = 11;
  HillClimber hc(cfg);
  const auto start = hc.current();
  (void)hc.feed(100.0);  // strong baseline at the paper's initial point
  for (int i = 0; i < 300; ++i) {
    // Oscillate well below the baseline: none of these are improvements.
    (void)hc.feed(i % 2 == 0 ? 1.0 : 50.0);
    const auto p = hc.current();
    EXPECT_LE(std::abs(p.x - start.x) + std::abs(p.y - start.y),
              cfg.step + 1e-12)
        << "candidate drifted more than one step from best at epoch " << i;
  }
  EXPECT_NEAR(hc.best().x, start.x, 1e-12);
  EXPECT_NEAR(hc.best().y, start.y, 1e-12);
  EXPECT_DOUBLE_EQ(hc.best_score(), 100.0);
}

TEST(HillClimber, BoundaryMovesClampAtMinCorner) {
  // Pinned at the (lo, lo) corner, downhill proposals clamp onto the
  // boundary instead of leaving the box; the clamped coordinate stays
  // exactly lo, never a negative epsilon.
  HillClimberConfig cfg;
  cfg.initial_x = 0.0;
  cfg.initial_y = 0.0;
  cfg.jump_probability = 0.0;
  cfg.seed = 5;
  HillClimber hc(cfg);
  for (int i = 0; i < 200; ++i) {
    const auto p = hc.feed(0.0);  // never improve: best stays at the corner
    EXPECT_GE(p.x, 0.0);
    EXPECT_GE(p.y, 0.0);
    // One axis moved by at most +step, the other must sit exactly on lo.
    EXPECT_TRUE(p.x == 0.0 || p.y == 0.0)
        << "coordinate-wise proposal moved both axes: " << p.x << "," << p.y;
    EXPECT_LE(p.x, cfg.step + 1e-12);
    EXPECT_LE(p.y, cfg.step + 1e-12);
  }
}

TEST(HillClimber, BoundaryMovesClampAtMaxCorner) {
  HillClimberConfig cfg;
  cfg.initial_x = 1.0;
  cfg.initial_y = 1.0;
  cfg.jump_probability = 0.0;
  cfg.seed = 6;
  HillClimber hc(cfg);
  for (int i = 0; i < 200; ++i) {
    const auto p = hc.feed(0.0);
    EXPECT_LE(p.x, 1.0);
    EXPECT_LE(p.y, 1.0);
    EXPECT_GE(p.x, 1.0 - cfg.step - 1e-12);
    EXPECT_GE(p.y, 1.0 - cfg.step - 1e-12);
  }
}

TEST(HillClimber, DegenerateBoxPinsEveryProposal) {
  // lo == hi: the box is a single point; proposals and jumps alike must
  // collapse onto it rather than divide-by-zero or escape.
  HillClimberConfig cfg;
  cfg.lo = 0.4;
  cfg.hi = 0.4;
  cfg.initial_x = 0.4;
  cfg.initial_y = 0.4;
  cfg.jump_probability = 0.5;  // exercise the jump path too
  cfg.seed = 8;
  HillClimber hc(cfg);
  for (int i = 0; i < 100; ++i) {
    const auto p = hc.feed(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(p.x, 0.4);
    EXPECT_DOUBLE_EQ(p.y, 0.4);
  }
}

// ------------------------------------------------------ SeerScheduler ------

// Schedulers built from it run four threads and three transaction types.
SeerConfig small_config() {
  SeerConfig cfg;
  cfg.update_period = 10;
  return cfg;
}

TEST(SeerScheduler, AnnounceVisibleInActiveTable) {
  SeerScheduler s(small_config(), 4, 3);
  s.announce(2, 1);
  EXPECT_EQ(s.active_table().peek(2), 1);
  s.clear(2);
  EXPECT_EQ(s.active_table().peek(2), kNoTx);
}

TEST(SeerScheduler, RecordsFlowIntoMergedStats) {
  SeerScheduler s(small_config(), 4, 3);
  s.announce(1, 2);
  s.record_abort(0, 0);   // thread 0 aborts type 0 while thread 1 runs type 2
  s.record_commit(0, 0);  // and then commits one
  const GlobalStats g = s.merged_stats();
  EXPECT_EQ(g.abort(0, 2), 1u);
  EXPECT_EQ(g.commit(0, 2), 1u);
  EXPECT_EQ(g.execs(0), 2u);
  EXPECT_EQ(s.total_commits(), 1u);
}

TEST(SeerScheduler, OnlyDesignatedThreadRebuilds) {
  SeerScheduler s(small_config(), 4, 3);
  for (int i = 0; i < 100; ++i) s.record_commit(1, 0);
  EXPECT_FALSE(s.maybe_update(1, 1000));
  EXPECT_FALSE(s.maybe_update(3, 1000));
  EXPECT_EQ(s.rebuild_count(), 0u);
  EXPECT_TRUE(s.maybe_update(0, 1000));
  EXPECT_EQ(s.rebuild_count(), 1u);
}

TEST(SeerScheduler, UpdatePeriodThrottlesRebuilds) {
  SeerScheduler s(small_config(), 4, 3);  // period 10
  for (int i = 0; i < 9; ++i) s.record_commit(0, 0);
  EXPECT_FALSE(s.maybe_update(0, 10));
  s.record_commit(0, 0);
  EXPECT_TRUE(s.maybe_update(0, 20));
  EXPECT_FALSE(s.maybe_update(0, 30)) << "no new executions since last rebuild";
}

TEST(SeerScheduler, SchemeSwapsAfterRebuildWithEvidence) {
  SeerConfig cfg = small_config();
  cfg.enable_hill_climbing = false;
  SeerScheduler s(cfg, 4, 3);
  EXPECT_TRUE(s.scheme()->empty());
  // Manufacture heavy 0<->1 conflict evidence plus benign background.
  s.announce(1, 1);
  for (int i = 0; i < 90; ++i) s.record_abort(0, 0);
  for (int i = 0; i < 10; ++i) s.record_commit(0, 0);
  s.clear(1);
  s.announce(1, 2);
  for (int i = 0; i < 5; ++i) s.record_abort(0, 0);
  for (int i = 0; i < 95; ++i) s.record_commit(0, 0);
  s.clear(1);
  s.force_update(1234);
  const auto scheme = s.scheme();
  EXPECT_TRUE(scheme->row(0).contains(1));
  EXPECT_TRUE(scheme->row(1).contains(0));
  EXPECT_FALSE(scheme->row(0).contains(2));
}

TEST(SeerScheduler, HillClimberAdvancesWithEpochs) {
  SeerConfig cfg = small_config();
  cfg.enable_hill_climbing = true;
  SeerScheduler s(cfg, 4, 3);
  std::uint64_t now = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 12; ++i) s.record_commit(0, 0);
    now += 1000;
    (void)s.maybe_update(0, now);
  }
  EXPECT_GT(s.rebuild_count(), 10u);
  EXPECT_GT(s.tuning_epochs(), 2u);
}

TEST(SeerScheduler, NoDecayKeepsLifetimeEvidence) {
  // The paper's statistics accumulate for the whole run: a pair that was hot
  // and then went quiet stays flagged through a phase shift.
  SeerConfig cfg = small_config();
  cfg.enable_hill_climbing = false;
  SeerScheduler s(cfg, 4, 3);
  for (int round = 0; round < 3; ++round) {
    s.announce(1, 1);
    for (int i = 0; i < 90; ++i) s.record_abort(0, 0);
    for (int i = 0; i < 10; ++i) s.record_commit(0, 0);
    s.clear(1);
    s.announce(1, 2);
    for (int i = 0; i < 95; ++i) s.record_commit(0, 0);
    for (int i = 0; i < 5; ++i) s.record_abort(0, 0);
    s.clear(1);
    s.force_update(100 * (round + 1));
  }
  ASSERT_TRUE(s.scheme()->row(0).contains(1));
  for (int round = 0; round < 2; ++round) {
    s.announce(1, 1);
    s.announce(2, 2);
    for (int i = 0; i < 100; ++i) s.record_commit(0, 0);
    s.clear(1);
    s.clear(2);
    s.force_update(1000 + 100 * round);
  }
  // Both probabilities still reflect the hot phase strongly enough to stay
  // flagged: conjunctive P(0 ab ∩ 0||1) = 270/800 clears Th1 = 0.3, and the
  // conditional one (270 aborts vs 230 commits against y=1) is the outlier.
  EXPECT_TRUE(s.scheme()->row(0).contains(1));
}

TEST(SeerScheduler, HillClimbingDisabledKeepsParams) {
  SeerConfig cfg = small_config();
  cfg.enable_hill_climbing = false;
  SeerScheduler s(cfg, 4, 3);
  std::uint64_t now = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 12; ++i) s.record_commit(0, 0);
    now += 1000;
    (void)s.maybe_update(0, now);
  }
  EXPECT_DOUBLE_EQ(s.params().th1, 0.3);
  EXPECT_DOUBLE_EQ(s.params().th2, 0.8);
  EXPECT_EQ(s.tuning_epochs(), 0u);
}

TEST(SeerScheduler, StormProbeForcesEarlyRebuildAndKeepsReinferring) {
  SeerConfig cfg;
  cfg.update_period = 512;  // probe cadence = max(64, 512/8) = 64
  cfg.storm_response = true;
  SeerScheduler s(cfg, 2, 2);
  std::uint64_t now = 0;

  // First probe window only seeds the detector base — no rebuild yet, and
  // well before update_period would fire on its own.
  for (int i = 0; i < 64; ++i) s.record_abort(0, 0);
  EXPECT_FALSE(s.maybe_update(0, now += 100));
  EXPECT_EQ(s.rebuild_count(), 0u);

  // Second window is pure aborts: rate 1.0 >= 0.9 opens the storm and
  // forces an immediate rebuild at 128 executions, a quarter of the period.
  for (int i = 0; i < 64; ++i) s.record_abort(0, 0);
  EXPECT_TRUE(s.maybe_update(0, now += 100));
  EXPECT_EQ(s.rebuild_count(), 1u);
  EXPECT_EQ(s.storm_entries(), 1u);

  // While the storm stays active, re-inference continues at probe cadence —
  // but entry is only counted once (history decays once, on entry).
  for (int i = 0; i < 64; ++i) s.record_abort(0, 0);
  EXPECT_TRUE(s.maybe_update(0, now += 100));
  EXPECT_EQ(s.rebuild_count(), 2u);
  EXPECT_EQ(s.storm_entries(), 1u);

  // A commit-only window drops the rate through the exit threshold: the
  // storm closes and the probe stops forcing rebuilds (the regular period
  // has not elapsed since the last one).
  for (int i = 0; i < 64; ++i) s.record_commit(0, 0);
  EXPECT_FALSE(s.maybe_update(0, now += 100));
  EXPECT_EQ(s.rebuild_count(), 2u);
  EXPECT_EQ(s.storm_entries(), 1u);
}

TEST(SeerScheduler, StormResponseOffNeverProbes) {
  SeerConfig cfg;
  cfg.update_period = 512;  // storm_response stays false
  SeerScheduler s(cfg, 2, 2);
  // With storm_response on, the second of these pure-abort probe windows
  // would open a storm and rebuild (the test above).
  for (int w = 1; w <= 2; ++w) {
    for (int i = 0; i < 64; ++i) s.record_abort(0, 0);
    EXPECT_FALSE(s.maybe_update(0, 100 * w)) << "below update_period, no probe path";
  }
  EXPECT_EQ(s.rebuild_count(), 0u);
  EXPECT_EQ(s.storm_entries(), 0u);
}


// ------------------------------------------------------ StormDetector ------

TEST(StormDetector, ClosesAtTwoThirdsOfItsEntryRate) {
  // Entering at 0.90 closes at 0.90 * 2 / 3, which is exactly 0.60.
  StormDetector d(0.90);
  EXPECT_FALSE(d.on_window(0, 0)) << "the first call only seeds the base";
  EXPECT_TRUE(d.on_window(1000, 100));  // abort rate 0.90 reaches entry
  EXPECT_TRUE(d.active());
  EXPECT_TRUE(d.on_window(2000, 100 + 399));  // 0.601, above exit: stays open
  EXPECT_TRUE(d.active());
  EXPECT_TRUE(d.on_window(3000, 499 + 400));  // exactly 0.60: closes
  EXPECT_FALSE(d.active());
  EXPECT_TRUE(d.on_window(4000, 899 + 101));  // 0.899, below entry: stays closed
  EXPECT_FALSE(d.active());
}

TEST(StormDetector, ShortWindowsKeepAccumulatingUntilTheMinimum) {
  constexpr std::uint64_t kMin = StormDetector::kMinWindow;
  StormDetector d(0.90);
  (void)d.on_window(0, 0);
  // kMin - 1 pure aborts are too few to judge: the window is not evaluated,
  // and its executions stay in the next one.
  EXPECT_FALSE(d.on_window(kMin - 1, 0));
  EXPECT_FALSE(d.active());
  EXPECT_FALSE(d.take_verdict().entered);
  // One more abort completes a kMin-execution window since the seed.
  EXPECT_TRUE(d.on_window(kMin, 0));
  EXPECT_TRUE(d.active());
  const StormVerdict v = d.take_verdict();
  EXPECT_TRUE(v.entered);
  EXPECT_DOUBLE_EQ(v.peak_rate, 1.0);
  // The evaluated window moved the base: kMin - 1 commits after it are again
  // too few to close the storm, and kMin are enough.
  EXPECT_FALSE(d.on_window(2 * kMin - 1, kMin - 1));
  EXPECT_TRUE(d.active());
  EXPECT_TRUE(d.on_window(2 * kMin, kMin));
  EXPECT_FALSE(d.active());
}

TEST(StormDetector, VerdictCoversEveryWindowSinceTheLastTake) {
  StormDetector d(0.90);
  (void)d.on_window(0, 0);
  (void)d.on_window(100, 5);  // 0.95: opens
  StormVerdict v = d.take_verdict();
  EXPECT_TRUE(v.entered);
  EXPECT_FALSE(v.exited);
  EXPECT_TRUE(v.active);
  EXPECT_DOUBLE_EQ(v.peak_rate, 0.95);
  // Three windows before the next take: still hot (0.97), recovered (0.02,
  // closes), hot again (0.93, a new storm). The verdict closed one storm and
  // opened the next, and its peak is the new storm's own.
  (void)d.on_window(200, 5 + 3);
  (void)d.on_window(300, 8 + 98);
  (void)d.on_window(400, 106 + 7);
  v = d.take_verdict();
  EXPECT_TRUE(v.entered);
  EXPECT_TRUE(v.exited);
  EXPECT_TRUE(v.active);
  EXPECT_DOUBLE_EQ(v.peak_rate, 1.0 - 7.0 / 100.0);
  // Taking starts a fresh verdict: with no window evaluated since, it reads
  // all clear, while the detector itself is still in the storm.
  v = d.take_verdict();
  EXPECT_FALSE(v.entered || v.exited || v.active);
  EXPECT_EQ(v.peak_rate, 0.0);
  EXPECT_TRUE(d.active());
}

}  // namespace
}  // namespace seer::core
