// Model-introspection subsystem: FlightRecorder trigger/ring semantics,
// ModelSnapshot serialization, and the scheduler/machine integration.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/seer_scheduler.hpp"
#include "htm/soft_htm.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/snapshot.hpp"
#include "runtime/threaded_executor.hpp"
#include "sim/machine.hpp"
#include "util/json.hpp"
#include "workload/registry.hpp"

// The OFF-build contract (on_rebuild always false, to_json "{}") is covered
// by bench_runner_test, which runs in both configurations; everything below
// exercises the real recorder and is only built with SEER_OBS=ON.

namespace seer::obs {
namespace {

ModelSnapshot tiny_snapshot(std::uint64_t now, std::uint64_t rebuild) {
  ModelSnapshot s;
  s.now = now;
  s.rebuild = rebuild;
  s.n_types = 2;
  s.aborts = {0, 3, 1, 0};
  s.commit_pairs = {5, 2, 2, 7};
  s.execs = {10, 12};
  s.scheme = {{0, 1}, {0}};
  return s;
}

// The scheduler's hand-off at rebuild `rebuild`: its clock, and the storm
// verdict for the windows since the previous rebuild.
RebuildSample sample_at(std::uint64_t rebuild, core::StormVerdict storm = {}) {
  return RebuildSample{rebuild * 1000, rebuild, storm};
}

// Feeds a detector the way a scheduler without storm response does: one
// window of lifetime tallies per rebuild, then the verdict for it.
class RebuildWindows {
 public:
  RebuildSample next(std::uint64_t executions, std::uint64_t commits) {
    (void)detector_.on_window(executions, commits);
    return sample_at(++rebuild_, detector_.take_verdict());
  }
  [[nodiscard]] std::uint64_t rebuild() const noexcept { return rebuild_; }

 private:
  core::StormDetector detector_{0.90};
  std::uint64_t rebuild_ = 0;
};

TEST(FlightRecorder, PeriodicCadenceCapturesEveryKthRebuild) {
  FlightRecorder rec;
  std::vector<std::uint64_t> captured_at;
  for (std::uint64_t r = 1; r <= 20; ++r) {
    if (rec.on_rebuild(sample_at(r))) {
      captured_at.push_back(r);
      rec.record(tiny_snapshot(r * 1000, r));
    }
  }
  // First rebuild always captures (captured_ == 0), then every 8th.
  static_assert(kSnapshotPeriod == 8);
  EXPECT_EQ(captured_at, (std::vector<std::uint64_t>{1, 9, 17}));
  EXPECT_EQ(rec.captured(), 3u);
  EXPECT_EQ(rec.dropped(), 0u);
  for (const ModelSnapshot* s : rec.snapshots()) {
    EXPECT_EQ(s->reason, SnapshotReason::kPeriodic);
  }
}

TEST(FlightRecorder, RingOverwritesOldestAndKeepsSeqOrder) {
  FlightRecorder rec;
  constexpr std::uint64_t kCaptures = kSnapshotRingCapacity + 6;
  for (std::uint64_t r = 1; r <= 1 + kSnapshotPeriod * (kCaptures - 1); ++r) {
    if (rec.on_rebuild(sample_at(r))) rec.record(tiny_snapshot(r * 1000, r));
  }
  EXPECT_EQ(rec.captured(), kCaptures);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto snaps = rec.snapshots();
  ASSERT_EQ(snaps.size(), kSnapshotRingCapacity);
  // Seqs 0..69 were assigned; the ring retains the newest 64, seq-ordered.
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i]->seq, 6u + i);
    EXPECT_EQ(snaps[i]->rebuild, 1 + kSnapshotPeriod * (6 + i));  // seq k at 1 + 8k
  }
}

TEST(FlightRecorder, AbortStormOpensOneEpisodeWithHysteresis) {
  FlightRecorder rec;
  RebuildWindows windows;
  std::uint64_t executions = 0;
  std::uint64_t commits = 0;
  // The first rebuild only seeds the detector; the recorder captures it
  // because it has captured nothing yet.
  ASSERT_TRUE(rec.on_rebuild(windows.next(executions, commits)));
  rec.record(tiny_snapshot(1000, 1));
  // Per-window commit counts (1000 executions each): healthy (abort rate
  // 0.10), storm entry (0.95), still hot (0.92 — hysteresis, no re-capture),
  // hovering above exit (0.65 — episode stays open), recovery (0.20 — closes
  // it), then a second storm (0.95 — new episode, new capture). No periodic
  // capture falls due: each storm entry restarts the period.
  const std::uint64_t window_commits[] = {900, 50, 80, 350, 800, 50};
  std::vector<bool> fired;
  for (const std::uint64_t wc : window_commits) {
    executions += 1000;
    commits += wc;
    fired.push_back(rec.on_rebuild(windows.next(executions, commits)));
    if (fired.back()) rec.record(tiny_snapshot(windows.rebuild() * 1000, windows.rebuild()));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, false, false, true}));

  const auto& eps = rec.episodes();
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_FALSE(eps[0].open);
  EXPECT_NEAR(eps[0].peak_rate, 0.95, 1e-9);
  EXPECT_GT(eps[0].end_rebuild, eps[0].start_rebuild);
  EXPECT_TRUE(eps[1].open) << "second storm runs hot to the end";
  const auto snaps = rec.snapshots();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0]->reason, SnapshotReason::kPeriodic);
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i]->reason, SnapshotReason::kAnomaly);
  }
}

TEST(FlightRecorder, RecordFinalClosesOpenEpisodesAtFinalClock) {
  FlightRecorder rec;
  RebuildWindows windows;
  ASSERT_TRUE(rec.on_rebuild(windows.next(0, 0)));  // the first capture
  rec.record(tiny_snapshot(1000, 1));
  ASSERT_TRUE(rec.on_rebuild(windows.next(1000, 10)));  // abort storm
  rec.record(tiny_snapshot(2000, 2));
  ModelSnapshot fin = tiny_snapshot(7777, 9);
  rec.record_final(std::move(fin));
  ASSERT_EQ(rec.episodes().size(), 1u);
  EXPECT_TRUE(rec.episodes()[0].open) << "open flag survives for the dump";
  EXPECT_EQ(rec.episodes()[0].end_now, 7777u);
  EXPECT_EQ(rec.episodes()[0].end_rebuild, 9u);
  EXPECT_EQ(rec.snapshots().back()->reason, SnapshotReason::kFinal);
}

// One recorder, two schedulers in turn (seer_serve's real steps): each
// run's final closes the episodes still open in that run only. The second
// run's storm opens its own episode; the first keeps its end.
TEST(FlightRecorder, EachFinalClosesOnlyItsOwnRunsEpisodes) {
  FlightRecorder rec;
  for (std::uint64_t run = 0; run < 2; ++run) {
    RebuildWindows windows;  // a fresh scheduler's detector
    const std::uint64_t t0 = run * 100000;
    if (rec.on_rebuild(windows.next(0, 0))) rec.record(tiny_snapshot(t0 + 1000, 1));
    ASSERT_TRUE(rec.on_rebuild(windows.next(1000, 10))) << "run " << run << "'s storm";
    rec.record(tiny_snapshot(t0 + 2000, 2));
    rec.record_final(tiny_snapshot(t0 + 7777, 9));
  }
  const auto& eps = rec.episodes();
  ASSERT_EQ(eps.size(), 2u);
  for (std::uint64_t run = 0; run < 2; ++run) {
    EXPECT_TRUE(eps[run].open);
    EXPECT_EQ(eps[run].end_now, run * 100000 + 7777) << "run " << run;
  }
  std::size_t finals = 0;
  for (const ModelSnapshot* s : rec.snapshots()) {
    if (s->reason == SnapshotReason::kFinal) ++finals;
  }
  EXPECT_EQ(finals, 2u);
}

TEST(ModelSnapshot, JsonRoundTripsThroughParser) {
  ModelSnapshot s = tiny_snapshot(123, 7);
  s.seq = 3;
  s.reason = SnapshotReason::kAnomaly;
  s.executions = 22;
  s.commits = 12;
  s.sgl_fallbacks = 4;
  s.th1 = 0.3;
  s.th2 = 0.8;
  s.climber_cur_x = 0.38;
  s.climber_cur_y = 0.8;
  s.climber_best_x = 0.3;
  s.climber_best_y = 0.8;
  s.climber_best_score = 1.5;
  s.climber_epochs = 9;

  std::string text;
  s.append_json(text);
  std::string err;
  const auto v = util::json::parse(text, &err);
  ASSERT_TRUE(v.has_value()) << err << "\n" << text;
  EXPECT_EQ(v->u64("seq"), 3u);
  EXPECT_EQ(v->str("reason"), "anomaly");
  EXPECT_EQ(v->u64("now"), 123u);
  EXPECT_EQ(v->u64("rebuild"), 7u);
  EXPECT_EQ(v->u64("executions"), 22u);
  EXPECT_EQ(v->u64("sgl_fallbacks"), 4u);
  EXPECT_DOUBLE_EQ(v->find("params")->num("th1"), 0.3);
  EXPECT_DOUBLE_EQ(v->find("params")->num("th2"), 0.8);
  const util::json::Value* climber = v->find("climber");
  ASSERT_NE(climber, nullptr);
  EXPECT_DOUBLE_EQ(climber->find("cur")->array[0].number, 0.38);
  EXPECT_EQ(climber->u64("epochs"), 9u);
  EXPECT_EQ(v->u64("n_types"), 2u);
  // All four pairs carry joint evidence (aborts or commits), so none are
  // dropped by the sparse-omission rule.
  const util::json::Value* pairs = v->find("pairs");
  ASSERT_NE(pairs, nullptr);
  ASSERT_EQ(pairs->array.size(), 4u);
  const util::json::Value& p01 = pairs->array[1];
  EXPECT_EQ(p01.u64("x"), 0u);
  EXPECT_EQ(p01.u64("y"), 1u);
  EXPECT_EQ(p01.u64("aborts"), 3u);
  EXPECT_EQ(p01.u64("commits"), 2u);
  EXPECT_DOUBLE_EQ(p01.num("p_cond"), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(p01.num("p_conj"), 3.0 / 10.0);
  const util::json::Value* scheme = v->find("scheme");
  ASSERT_NE(scheme, nullptr);
  ASSERT_EQ(scheme->array.size(), 2u);
  EXPECT_EQ(scheme->array[0].array.size(), 2u);
  EXPECT_EQ(scheme->array[1].array[0].as_u64(), 0u);
}

// ------------------------------------------------- scheduler integration ---

TEST(SchedulerIntegration, RebuildFeedsRecorderAndSnapshotsModel) {
  FlightRecorder rec;
  core::SeerConfig cfg;
  cfg.update_period = 8;
  core::SeerScheduler sched(cfg, 2, 2, {.recorder = &rec});

  sched.announce(1, 1);
  for (int i = 0; i < 8; ++i) {
    sched.announce(0, 0);
    sched.record_abort(0, 0);
  }
  EXPECT_TRUE(sched.maybe_update(0, 1000));
  ASSERT_EQ(rec.captured(), 1u);
  const ModelSnapshot* snap = rec.snapshots()[0];
  EXPECT_EQ(snap->rebuild, 1u);
  EXPECT_EQ(snap->now, 1000u);
  EXPECT_EQ(snap->n_types, 2u);
  EXPECT_EQ(snap->executions, sched.executions_seen());
  EXPECT_GT(snap->abort(0, 1), 0u) << "thread 1 was announced as type 1";
  EXPECT_EQ(snap->th1, sched.params().th1);
}

TEST(SchedulerIntegration, RealThreadsFeedTheRecorderEverySglFallback) {
  // Every transaction writes more distinct words than SoftHtm's write set
  // holds, so each one exhausts its five hardware attempts on capacity
  // aborts and commits on the SGL: one fallback per five executions, each
  // counted once by the scheduler the recorder snapshots.
  constexpr std::size_t kThreads = 2, kTxs = 300, kWords = 600;
  htm::SoftHtm tm;
  ASSERT_GT(kWords, tm.config().max_write_set);
  FlightRecorder rec;
  rt::PolicyConfig policy;
  policy.kind = rt::PolicyKind::kSeer;
  policy.seer.update_period = 64;
  rt::ThreadedExecutor::Options opts;
  opts.n_threads = kThreads;
  opts.n_types = 1;
  opts.physical_cores = kThreads;
  opts.recorder = &rec;
  rt::ThreadedExecutor exec(tm, policy, opts);

  std::vector<htm::TmWord> words(kThreads * kWords);  // one disjoint block per thread
  std::atomic<std::uint64_t> sgl_commits{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto h = exec.make_handle(static_cast<core::ThreadId>(t));
      for (std::size_t i = 0; i < kTxs; ++i) {
        const rt::CommitMode mode = h->run(0, [&](auto& tx) {
          for (std::size_t j = 0; j < kWords; ++j) tx.write(words[t * kWords + j], i);
        });
        if (mode == rt::CommitMode::kSglFallback) ++sgl_commits;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  ASSERT_EQ(sgl_commits.load(), kThreads * kTxs);
  core::SeerScheduler& sched = *exec.policy_shared().seer();
  EXPECT_EQ(sched.sgl_fallbacks(), sgl_commits.load());
  EXPECT_EQ(sched.make_model_snapshot(0).sgl_fallbacks, sgl_commits.load());
}

TEST(SchedulerIntegration, RecorderFollowsTheSchedulersStormThreshold) {
  // Windows of 64 executions at abort rate 0.5: above the scheduler's 0.2
  // entry threshold, below the default 0.9. The recorder records the
  // scheduler's storm whichever path feeds the one detector: the probe
  // windows of storm response, or one window per rebuild.
  for (const bool storm_response : {true, false}) {
    SCOPED_TRACE(storm_response ? "probe windows" : "rebuild windows");
    FlightRecorder rec;
    core::SeerConfig cfg;
    cfg.storm_enter = 0.2;
    cfg.storm_response = storm_response;
    cfg.update_period = 64;  // probe cadence max(64, 64/8) = 64 as well
    core::SeerScheduler sched(cfg, 2, 2, {.recorder = &rec});
    for (std::uint64_t w = 1; w <= 6; ++w) {
      for (int i = 0; i < 32; ++i) sched.record_abort(0, 0);
      for (int i = 0; i < 32; ++i) sched.record_commit(0, 0);
      EXPECT_TRUE(sched.maybe_update(0, 1000 * w));
    }
    EXPECT_EQ(sched.rebuild_count(), 6u);
    // Only an entry that forced a re-inference counts.
    EXPECT_EQ(sched.storm_entries(), storm_response ? 1u : 0u);

    ASSERT_EQ(rec.episodes().size(), 1u) << rec.to_json();
    const AnomalyEpisode& ep = rec.episodes()[0];
    EXPECT_TRUE(ep.open);
    // The first window only seeds the detector; the second enters.
    EXPECT_EQ(ep.start_rebuild, 2u);
    EXPECT_EQ(ep.start_now, 2000u);
    EXPECT_EQ(ep.end_rebuild, 6u);
    EXPECT_DOUBLE_EQ(ep.peak_rate, 0.5);
    const auto snaps = rec.snapshots();
    ASSERT_EQ(snaps.size(), 2u);
    EXPECT_EQ(snaps[1]->reason, SnapshotReason::kAnomaly);
    EXPECT_EQ(snaps[1]->rebuild, 2u);
  }
}

// --------------------------------------------------- machine integration ---

TEST(MachineIntegration, SeerRunFeedsRecorderAndFinalSnapshot) {
  sim::MachineConfig cfg;
  cfg.n_threads = 4;
  cfg.physical_cores = 2;
  cfg.txs_per_thread = 600;
  cfg.seed = 7;
  cfg.policy.kind = rt::PolicyKind::kSeer;
  cfg.policy.seer.update_period = 64;
  FlightRecorder rec;
  cfg.recorder = &rec;

  const sim::MachineStats stats =
      sim::run_machine(cfg, workload::find("intruder").make(cfg.n_threads));

  ASSERT_GE(rec.captured(), 1u);
  const auto snaps = rec.snapshots();
  EXPECT_EQ(snaps.back()->reason, SnapshotReason::kFinal);
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_GT(snaps[i]->seq, snaps[i - 1]->seq);
    EXPECT_GE(snaps[i]->now, snaps[i - 1]->now);
  }
  // The final capture agrees with the machine's own epilogue readings.
  EXPECT_EQ(snaps.back()->scheme, stats.final_scheme);
  EXPECT_EQ(snaps.back()->rebuild, stats.scheme_rebuilds);
  EXPECT_EQ(snaps.back()->th1, stats.final_params.th1);

  // And the dump parses.
  std::string err;
  const auto doc = util::json::parse(rec.to_json(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->u64("captured"), rec.captured());
}

}  // namespace
}  // namespace seer::obs
