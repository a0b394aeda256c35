// End-to-end shape tests: full simulator runs over the calibrated STAMP
// stand-ins, asserting the qualitative results the paper reports (who wins,
// where the crossovers fall, where the locks engage) rather than absolute
// numbers. These are the automated guardrails behind EXPERIMENTS.md. Plus
// the cross-backend rt.* count tests, which both SEER_OBS builds run.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "htm/soft_htm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/threaded_executor.hpp"
#include "sim/machine.hpp"
#include "stamp/spec.hpp"
#include "stamp/workloads.hpp"
#include "util/json.hpp"
#include "workload/registry.hpp"

namespace seer {
namespace {

sim::MachineStats run(const std::string& name, rt::PolicyKind kind,
                      std::size_t threads, std::uint64_t txs = 1200,
                      std::uint64_t seed = 21) {
  sim::MachineConfig cfg;
  cfg.n_threads = threads;
  cfg.txs_per_thread = txs;
  cfg.policy.kind = kind;
  cfg.seed = seed;
  return sim::run_machine(cfg, workload::find(name).make(threads));
}

double sgl_fraction(const sim::MachineStats& s) {
  return s.mode_fraction(rt::CommitMode::kSglFallback);
}

// ------------------------------------------------------------- Figure 3 ----

TEST(Shape, SeerBeatsRtmOnEveryConflictHeavyBenchmark) {
  for (const char* wl : {"genome", "intruder", "kmeans-high", "vacation-high"}) {
    const auto seer = run(wl, rt::PolicyKind::kSeer, 8);
    const auto rtm = run(wl, rt::PolicyKind::kRtm, 8);
    EXPECT_GT(seer.speedup(), rtm.speedup()) << wl;
  }
}

TEST(Shape, VacationHighReproducesHeadlineGain) {
  // The paper's peak: ~2-2.5x over the best baseline curve shape for
  // RTM (~0.8 at 8 threads) vs Seer (~2.2).
  const auto seer = run("vacation-high", rt::PolicyKind::kSeer, 8);
  const auto rtm = run("vacation-high", rt::PolicyKind::kRtm, 8);
  EXPECT_LT(rtm.speedup(), 1.2);
  EXPECT_GT(seer.speedup(), 1.8);
  EXPECT_GT(seer.speedup(), 2.0 * rtm.speedup());
}

TEST(Shape, Ssca2ScalesForEveryPolicyAndSeerOverheadIsSmall) {
  const auto rtm = run("ssca2", rt::PolicyKind::kRtm, 8, 2500);
  const auto seer = run("ssca2", rt::PolicyKind::kSeer, 8, 2500);
  const auto scm = run("ssca2", rt::PolicyKind::kScm, 8, 2500);
  EXPECT_GT(rtm.speedup(), 4.0);
  EXPECT_GT(scm.speedup(), 4.0);
  EXPECT_GT(seer.speedup(), 4.0);
  // Figure 4's bound: the profiling machinery costs well under 10%.
  EXPECT_GT(seer.speedup() / rtm.speedup(), 0.90);
}

TEST(Shape, YadaStaysBelowOneForEveryone) {
  for (auto kind : {rt::PolicyKind::kHle, rt::PolicyKind::kRtm, rt::PolicyKind::kScm,
                    rt::PolicyKind::kSeer}) {
    const auto s = run("yada", rt::PolicyKind(kind), 8, 600);
    EXPECT_LT(s.speedup(), 1.25) << rt::to_string(kind);
  }
}

TEST(Shape, SeerMatchesBaselinesAtLowThreadCounts) {
  // §5.1: "Seer performs similarly to the best solution up to 3 threads".
  for (const char* wl : {"intruder", "kmeans-high"}) {
    const auto seer = run(wl, rt::PolicyKind::kSeer, 2);
    const auto rtm = run(wl, rt::PolicyKind::kRtm, 2);
    EXPECT_GT(seer.speedup(), 0.85 * rtm.speedup()) << wl;
  }
}

// -------------------------------------------------------------- Table 3 ----

TEST(Shape, HleSuffersTheLemmingEffect) {
  const auto s = run("intruder", rt::PolicyKind::kHle, 8);
  EXPECT_GT(sgl_fraction(s), 0.75)
      << "HLE at 8 threads must devolve to the elided lock";
  const auto s2 = run("intruder", rt::PolicyKind::kHle, 2);
  EXPECT_LT(sgl_fraction(s2), sgl_fraction(s)) << "fraction grows with threads";
}

TEST(Shape, RtmFallbackGrowsWithThreads) {
  const auto t2 = run("genome", rt::PolicyKind::kRtm, 2);
  const auto t8 = run("genome", rt::PolicyKind::kRtm, 8);
  EXPECT_GT(sgl_fraction(t8), sgl_fraction(t2));
  EXPECT_GT(sgl_fraction(t8), 0.05);
}

TEST(Shape, SeerDrasticallyReducesFallbackVsRtm) {
  for (const char* wl : {"genome", "intruder", "kmeans-high", "vacation-high"}) {
    const auto seer = run(wl, rt::PolicyKind::kSeer, 8);
    const auto rtm = run(wl, rt::PolicyKind::kRtm, 8);
    EXPECT_LT(sgl_fraction(seer), 0.55 * sgl_fraction(rtm) + 0.01) << wl;
  }
}

TEST(Shape, ScmRunsUnderAuxiliaryLock) {
  const auto s = run("intruder", rt::PolicyKind::kScm, 8);
  EXPECT_GT(s.mode_fraction(rt::CommitMode::kHtmAuxLock), 0.02)
      << "a visible share of SCM commits happens under the aux lock";
  EXPECT_LT(sgl_fraction(s), 0.10) << "SCM rarely reaches the SGL";
}

TEST(Shape, SeerUsesFineGrainedModes) {
  const auto s = run("intruder", rt::PolicyKind::kSeer, 8, 2500);
  const double tx_modes = s.mode_fraction(rt::CommitMode::kHtmTxLocks) +
                          s.mode_fraction(rt::CommitMode::kHtmTxAndCore);
  EXPECT_GT(tx_modes, 0.01) << "tx locks must carry some commits";
  EXPECT_GT(s.mode_fraction(rt::CommitMode::kHtmNoLocks), 0.5)
      << "most commits still run completely lock-free (Table 3: 80%)";
}

TEST(Shape, ModeFractionsSumToOne) {
  for (auto kind : {rt::PolicyKind::kHle, rt::PolicyKind::kRtm, rt::PolicyKind::kScm,
                    rt::PolicyKind::kAts, rt::PolicyKind::kSgl, rt::PolicyKind::kSeer}) {
    const auto s = run("kmeans-low", rt::PolicyKind(kind), 6, 500);
    double total = 0.0;
    for (std::size_t m = 0; m < s.commits_by_mode.size(); ++m) {
      total += s.mode_fraction(static_cast<rt::CommitMode>(m));
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << rt::to_string(kind);
  }
}

// ----------------------------------------------------------- §5.2 claim ----

TEST(Shape, TxLockAcquisitionsAreFineGrained) {
  const auto s = run("intruder", rt::PolicyKind::kSeer, 8, 2500);
  ASSERT_GT(s.txlock_fraction.count(), 0u);
  // Median acquisition takes a small fraction of the available tx locks
  // (paper §5.2: below 23% in half the cases, on larger programs).
  EXPECT_LE(s.txlock_fraction.percentile(0.5), 0.67);
}

// ------------------------------------------------------------- capacity ----

TEST(Shape, YadaCapacityAbortsAppearOnlyWithSmt) {
  const auto t4 = run("yada", rt::PolicyKind::kRtm, 4, 400);
  const auto t8 = run("yada", rt::PolicyKind::kRtm, 8, 400);
  const auto cap = static_cast<std::size_t>(htm::AbortCause::kCapacity);
  EXPECT_GT(t8.aborts_by_cause[cap], 4 * t4.aborts_by_cause[cap])
      << "SMT sharing is what creates capacity pressure";
}

TEST(Shape, SeerCoreLocksEngageOnYada) {
  const auto s = run("yada", rt::PolicyKind::kSeer, 8, 600);
  const double core_modes = s.mode_fraction(rt::CommitMode::kHtmCoreLock) +
                            s.mode_fraction(rt::CommitMode::kHtmTxAndCore);
  EXPECT_GT(core_modes, 0.02);
}

// ------------------------------------------------------------ inference ----

TEST(Shape, SeerInfersIntruderSelfConflicts) {
  const auto s = run("intruder", rt::PolicyKind::kSeer, 8, 2500);
  ASSERT_EQ(s.final_scheme.size(), 3u);
  // The three pipeline stages contend with themselves; at least two of the
  // three self edges must be discovered (statistics are noisy by design).
  int self_edges = 0;
  for (core::TxTypeId t = 0; t < 3; ++t) {
    for (core::TxTypeId y : s.final_scheme[static_cast<std::size_t>(t)]) {
      if (y == t) ++self_edges;
    }
  }
  EXPECT_GE(self_edges, 2);
  EXPECT_GT(s.scheme_rebuilds, 3u);
}

TEST(Shape, SeerSchemeStaysEmptyWithoutConflicts) {
  const auto s = run("ssca2", rt::PolicyKind::kSeer, 8, 2000);
  std::size_t edges = 0;
  for (const auto& row : s.final_scheme) edges += row.size();
  EXPECT_EQ(edges, 0u) << "no conflicts, no serialization";
}

TEST(Shape, HillClimbingMovesThresholds) {
  sim::MachineConfig cfg;
  cfg.n_threads = 8;
  cfg.txs_per_thread = 3000;
  cfg.policy.kind = rt::PolicyKind::kSeer;
  cfg.seed = 21;
  const auto s = sim::run_machine(cfg, workload::find("intruder").make(8));
  const bool moved = s.final_params.th1 != 0.3 || s.final_params.th2 != 0.8;
  EXPECT_TRUE(moved) << "self-tuning never adjusted (Th1, Th2)";
}

// ------------------------------------------------------------- ablation ----

TEST(Shape, OracleBoundsSeerFromAbove) {
  // The Oracle has STM-grade precise attribution (Figure 1's left side);
  // Seer must land between RTM and the Oracle on conflict-heavy intruder.
  const auto rtm = run("intruder", rt::PolicyKind::kRtm, 8, 2000);
  const auto seer = run("intruder", rt::PolicyKind::kSeer, 8, 2000);
  const auto oracle = run("intruder", rt::PolicyKind::kOracle, 8, 2000);
  EXPECT_GT(oracle.speedup(), rtm.speedup());
  EXPECT_GT(seer.speedup(), rtm.speedup());
  EXPECT_GT(oracle.speedup(), 0.85 * seer.speedup())
      << "precise information should not lose badly to inference";
}

TEST(Shape, SeerAheadOfOracleOnKmeansHigh) {
  // EXPERIMENTS.md's oracle gap: on kmeans-high the Oracle, with no core
  // locks and serializing flagged pairs from the first retry, trails Seer;
  // both still beat RTM.
  const auto rtm = run("kmeans-high", rt::PolicyKind::kRtm, 8, 2000);
  const auto seer = run("kmeans-high", rt::PolicyKind::kSeer, 8, 2000);
  const auto oracle = run("kmeans-high", rt::PolicyKind::kOracle, 8, 2000);
  EXPECT_GT(oracle.speedup(), rtm.speedup());
  EXPECT_GT(seer.speedup(), oracle.speedup());
}

TEST(Shape, OracleLearnsPreciselyOnIntruder) {
  sim::MachineConfig cfg;
  cfg.n_threads = 8;
  cfg.txs_per_thread = 2000;
  cfg.policy.kind = rt::PolicyKind::kOracle;
  cfg.seed = 21;
  sim::Machine m(cfg, workload::find("intruder").make(8));
  (void)m.run();
  auto* oracle = m.policy_shared().oracle();
  ASSERT_NE(oracle, nullptr);
  // capture<->capture is the hottest precisely-attributed pair.
  EXPECT_GT(oracle->conflicts(0, 0), 0u);
  EXPECT_TRUE(oracle->scheme()->row(0).contains(0));
}

TEST(Shape, TxLocksImproveOverProfileOnly) {
  sim::MachineConfig base;
  base.n_threads = 8;
  base.txs_per_thread = 1500;
  base.seed = 21;
  base.policy.kind = rt::PolicyKind::kSeer;
  base.policy.seer.enable_tx_locks = false;
  base.policy.seer.enable_core_locks = false;
  base.policy.seer.enable_htm_lock_acquire = false;
  base.policy.seer.enable_hill_climbing = false;

  auto with_tx = base;
  with_tx.policy.seer.enable_tx_locks = true;

  const auto profile_only =
      sim::run_machine(base, workload::find("intruder").make(8));
  const auto tx_locks =
      sim::run_machine(with_tx, workload::find("intruder").make(8));
  EXPECT_GT(tx_locks.speedup(), profile_only.speedup())
      << "Figure 5: transaction locks provide the largest boost";
}

TEST(Shape, CoreLocksAloneHelpYadaAt8Threads) {
  sim::MachineConfig base;
  base.n_threads = 8;
  base.txs_per_thread = 600;
  base.seed = 21;
  base.policy.kind = rt::PolicyKind::kSeer;
  base.policy.seer.enable_tx_locks = false;
  base.policy.seer.enable_core_locks = false;
  base.policy.seer.enable_htm_lock_acquire = false;
  base.policy.seer.enable_hill_climbing = false;

  auto with_core = base;
  with_core.policy.seer.enable_core_locks = true;

  const auto off = sim::run_machine(base, workload::find("yada").make(8));
  const auto on = sim::run_machine(with_core, workload::find("yada").make(8));
  EXPECT_GT(on.speedup(), off.speedup())
      << "§5.3: enabling only core locks speeds up SMT-capacity workloads";
}

}  // namespace

// ------------------------------------------ cross-backend rt.* counters ---
// Both builds run these: under SEER_OBS=OFF the registry and the trace sink
// are stubs, and every count reads 0.

namespace obs {
namespace {

std::uint64_t counter_of(const MetricsSnapshot& snap, std::string_view name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// Checks the rt.* transaction counters of `snap` against a backend's own
// totals. Every name must be registered; under SEER_OBS=OFF the registry is
// a stub whose snapshot holds no metric, so every count reads 0.
void expect_rt_counters_match(const MetricsSnapshot& snap, std::uint64_t commits,
                              std::uint64_t hw_attempts,
                              const std::array<std::uint64_t, 4>& aborts_by_cause,
                              std::uint64_t sgl_commits) {
  if (!SEER_OBS_ENABLED) {
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.histograms.empty());
    return;
  }
  std::map<std::string, std::uint64_t> counters;
  for (const auto& c : snap.counters) counters[c.name] = c.value;
  const auto expect = [&](const std::string& name, std::uint64_t want) {
    const auto it = counters.find(name);
    ASSERT_NE(it, counters.end()) << name << " is not registered";
    EXPECT_EQ(it->second, want) << name;
  };
  expect("rt.commits", commits);
  expect("rt.hw_attempts", hw_attempts);
  expect("rt.sgl_fallbacks", sgl_commits);
  for (std::size_t c = 0; c < aborts_by_cause.size(); ++c) {
    const auto cause = static_cast<htm::AbortCause>(c);
    expect(std::string("rt.aborts.").append(htm::to_string(cause)), aborts_by_cause[c]);
  }
  const HistogramSnapshot* depth = nullptr;
  for (const auto& h : snap.histograms) {
    if (h.name == "rt.retry_depth") depth = &h;
  }
  ASSERT_NE(depth, nullptr) << "rt.retry_depth is not registered";
  EXPECT_EQ(depth->count, commits) << "one retry depth per commit";
  EXPECT_EQ(depth->sum, hw_attempts) << "every attempt belongs to a committed tx";
}

// Both backends count transactions once, in the driver, under one set of
// rt.* names: a contended simulated run and a contended real-thread run,
// each with aborts and SGL fallbacks, agree with MachineStats and
// ThreadedExecutor::aggregate respectively.
TEST(ObsIntegration, BothBackendsCountIntoOneRtCounterSet) {
  {
    constexpr std::size_t kThreads = 8;
    MetricsRegistry reg(kThreads);
    sim::MachineConfig cfg;
    cfg.n_threads = kThreads;
    cfg.txs_per_thread = 300;
    cfg.policy.kind = rt::PolicyKind::kRtm;
    cfg.metrics = &reg;
    sim::Machine machine(
        cfg, std::make_unique<stamp::SpecWorkload>(stamp::intruder_spec(), kThreads));
    reg.freeze();
    const sim::MachineStats s = machine.run();
    const std::uint64_t sgl =
        s.commits_by_mode[static_cast<std::size_t>(rt::CommitMode::kSglFallback)];
    ASSERT_GT(s.aborts(), 0u);
    ASSERT_GT(sgl, 0u);
    const MetricsSnapshot snap = reg.snapshot();
    expect_rt_counters_match(snap, s.commits, s.hw_attempts, s.aborts_by_cause, sgl);
    for (const auto& c : snap.counters) {
      EXPECT_NE(c.name.rfind("sim.", 0), 0u) << c.name << ": the driver counts";
    }
  }
  {
    constexpr std::size_t kThreads = 2;
    constexpr int kTxPerThread = 200;
    MetricsRegistry reg(kThreads);
    // Every 8th transaction writes past the write budget: capacity aborts
    // until the budget runs out, then the SGL.
    htm::SoftHtm tm{htm::SoftHtm::Config{.max_write_set = 4}};
    rt::ThreadedExecutor::Options opts;
    opts.n_threads = kThreads;
    opts.n_types = 1;
    opts.physical_cores = 2;
    opts.metrics = &reg;
    rt::PolicyConfig policy;
    policy.kind = rt::PolicyKind::kRtm;
    rt::ThreadedExecutor exec(tm, policy, opts);
    reg.freeze();

    htm::TmWord counter{0};
    std::vector<std::unique_ptr<rt::ThreadedExecutor::ThreadHandle>> handles;
    for (core::ThreadId id = 0; id < kThreads; ++id) {
      handles.push_back(exec.make_handle(id));
    }
    std::vector<std::thread> threads;
    for (core::ThreadId id = 0; id < kThreads; ++id) {
      threads.emplace_back([&, id] {
        std::vector<htm::TmWord> wide(8);
        for (int i = 0; i < kTxPerThread; ++i) {
          (void)handles[id]->run(0, [&](auto& tx) {
            tx.write(counter, tx.read(counter) + 1);
            if (i % 8 == 0) {
              for (auto& w : wide) tx.write(w, 1);
            }
          });
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(counter.load(), kThreads * static_cast<std::uint64_t>(kTxPerThread));

    const rt::ExecutorStats st = rt::ThreadedExecutor::aggregate(handles);
    const std::uint64_t sgl =
        st.total.commits_by_mode[static_cast<std::size_t>(rt::CommitMode::kSglFallback)];
    ASSERT_GT(st.aborts(), 0u);
    ASSERT_GT(sgl, 0u);
    expect_rt_counters_match(reg.snapshot(), st.commits(), st.total.hw_attempts,
                             st.total.aborts_by_cause, sgl);
  }
}

// The driver stamps one trace event per outcome it counts (DESIGN.md §8):
// a begin per rt.hw_attempts, an abort per rt.aborts.<cause>, a fallback
// per rt.sgl_fallbacks and a commit per rt.commits. Begin, fallback and
// commit carry one of the workload's `n_types` transaction types. Under
// SEER_OBS=OFF every count is 0.
void expect_trace_matches_rt_counters(const TraceSink& trace, const MetricsSnapshot& snap,
                                      std::size_t n_types) {
  EXPECT_EQ(trace.dropped(), 0u);
  std::array<std::uint64_t, static_cast<std::size_t>(TraceKind::kKindCount)> n{};
  std::uint64_t untyped = 0;
  for (const TraceEvent& e : trace.drain_sorted()) {
    ++n[static_cast<std::size_t>(e.kind)];
    if ((e.kind == TraceKind::kTxBegin || e.kind == TraceKind::kSglFallback ||
         e.kind == TraceKind::kTxCommit) &&
        e.arg >= n_types) {
      ++untyped;
    }
  }
  EXPECT_EQ(untyped, 0u) << "begin, fallback and commit events must carry a type";
  const auto count = [&](TraceKind k) { return n[static_cast<std::size_t>(k)]; };
  std::uint64_t aborts = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    const auto cause = static_cast<htm::AbortCause>(c);
    aborts += counter_of(snap, std::string("rt.aborts.").append(htm::to_string(cause)));
  }
  EXPECT_EQ(count(TraceKind::kTxBegin), counter_of(snap, "rt.hw_attempts"));
  EXPECT_EQ(count(TraceKind::kTxAbort), aborts);
  EXPECT_EQ(count(TraceKind::kSglFallback), counter_of(snap, "rt.sgl_fallbacks"));
  EXPECT_EQ(count(TraceKind::kTxCommit), counter_of(snap, "rt.commits"));
  // Both runs abort and fall back wherever the layer is compiled in.
  EXPECT_EQ(aborts > 0, SEER_OBS_ENABLED != 0);
  EXPECT_EQ(count(TraceKind::kSglFallback) > 0, SEER_OBS_ENABLED != 0);
}

TEST(ObsIntegration, BothBackendsTraceOneEventPerCountedOutcome) {
  {
    SCOPED_TRACE("machine");
    constexpr std::size_t kThreads = 8;
    MetricsRegistry reg(kThreads);
    TraceSink trace(kThreads);
    sim::MachineConfig cfg;
    cfg.n_threads = kThreads;
    cfg.txs_per_thread = 300;
    cfg.policy.kind = rt::PolicyKind::kSeer;
    cfg.metrics = &reg;
    cfg.trace = &trace;
    sim::Machine machine(
        cfg, std::make_unique<stamp::SpecWorkload>(stamp::intruder_spec(), kThreads));
    reg.freeze();
    (void)machine.run();
    expect_trace_matches_rt_counters(trace, reg.snapshot(), machine.workload().n_types());
  }
  {
    SCOPED_TRACE("real threads");
    // Every transaction writes more distinct words than SoftHtm's write set
    // holds, so each one spends its five hardware attempts on capacity
    // aborts and commits on the SGL, whose body SoftHtm runs unbounded.
    constexpr std::size_t kThreads = 2, kTypes = 2, kTxs = 100, kWords = 600;
    htm::SoftHtm tm;
    ASSERT_GT(kWords, tm.config().max_write_set);
    MetricsRegistry reg(kThreads);
    TraceSink trace(kThreads);
    rt::ThreadedExecutor::Options opts;
    opts.n_threads = kThreads;
    opts.n_types = kTypes;
    opts.physical_cores = kThreads;
    opts.metrics = &reg;
    opts.trace = &trace;
    rt::PolicyConfig policy;
    policy.kind = rt::PolicyKind::kSeer;
    policy.seer.update_period = 64;
    rt::ThreadedExecutor exec(tm, policy, opts);
    reg.freeze();

    std::vector<htm::TmWord> words(kThreads * kWords);  // a disjoint block per thread
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto h = exec.make_handle(static_cast<core::ThreadId>(t));
        for (std::size_t i = 0; i < kTxs; ++i) {
          (void)h->run(static_cast<core::TxTypeId>(i % kTypes), [&](auto& tx) {
            for (std::size_t j = 0; j < kWords; ++j) tx.write(words[t * kWords + j], i);
          });
        }
      });
    }
    for (auto& th : threads) th.join();
    expect_trace_matches_rt_counters(trace, reg.snapshot(), kTypes);
  }
}


// The one Chrome writer compiles in both builds. Under SEER_OBS=OFF the stub
// sink holds no lane and no event, and the file is still a trace that
// parses, with zero events, which is what --trace writes there.
TEST(ObsIntegration, ChromeTraceParsesInEitherBuild) {
  TraceSink sink(2, 8);
  sink.emit(0, TraceKind::kTxBegin, 10, 1);
  sink.emit(0, TraceKind::kTxCommit, 20, 1);
  const std::string path = ::testing::TempDir() + "integration_test_trace.json";
  ASSERT_TRUE(sink.write_chrome_json(path));
  std::string err;
  const auto v = util::json::parse_file(path, &err);
  std::remove(path.c_str());
  ASSERT_TRUE(v.has_value()) << err;
  const util::json::Value* events = v->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  const util::json::Value* meta = v->find("seerMeta");
  ASSERT_NE(meta, nullptr);
  const std::uint64_t want = SEER_OBS_ENABLED ? 2 : 0;  // one B/E pair
  EXPECT_EQ(events->array.size(), want);
  EXPECT_EQ(meta->u64("emitted"), want);
  EXPECT_EQ(meta->u64("dropped"), 0u);
  const util::json::Value* per_lane = meta->find("droppedPerThread");
  ASSERT_NE(per_lane, nullptr);
  EXPECT_EQ(per_lane->array.size(), SEER_OBS_ENABLED ? 2u : 0u);
}

}  // namespace
}  // namespace obs
}  // namespace seer
