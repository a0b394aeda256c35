// Cross-backend differential tests: the SeerScheduler's decisions must be a
// pure function of the event stream it is fed, whichever backend owns it.
// Synthetic traces replayed into schedulers constructed by the simulator
// and by the real-threads executor must yield identical lock schemes and
// hill-climber moves; a live capture from a deterministically driven
// executor must replay to the same decisions.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "runtime/threaded_executor.hpp"
#include "sim/machine.hpp"

namespace seer::check {
namespace {

// Schedulers built from it run four threads and three transaction types.
core::SeerConfig small_seer_config() {
  core::SeerConfig cfg;
  cfg.update_period = 64;
  return cfg;
}

// ------------------------------------------------------ synthetic trace ----

TEST(SyntheticTrace, DeterministicForSeed) {
  const auto a = make_synthetic_trace(7, 4, 3, 500);
  const auto b = make_synthetic_trace(7, 4, 3, 500);
  EXPECT_EQ(a, b);
  const auto c = make_synthetic_trace(8, 4, 3, 500);
  EXPECT_NE(a, c);
}

TEST(SyntheticTrace, EveryTransactionResolves) {
  const auto trace = make_synthetic_trace(11, 4, 3, 300);
  std::size_t announces = 0;
  std::size_t clears = 0;
  for (const auto& e : trace) {
    if (e.kind == core::SchedEvent::Kind::kAnnounce) ++announces;
    if (e.kind == core::SchedEvent::Kind::kClear) ++clears;
  }
  EXPECT_EQ(announces, 300u);
  EXPECT_EQ(clears, 300u) << "no transaction left announced";
}

// -------------------------------------------------------------- replay -----

TEST(Replay, SameTraceSameDecisions) {
  const auto trace = make_synthetic_trace(21, 4, 3, 3000);
  core::SeerScheduler s1(small_seer_config(), 4, 3);
  core::SeerScheduler s2(small_seer_config(), 4, 3);
  const auto d1 = replay_trace(s1, trace);
  const auto d2 = replay_trace(s2, trace);
  EXPECT_FALSE(d1.empty()) << "the trace must drive real rebuilds";
  EXPECT_EQ(diff_decisions(d1, d2), "");
}

TEST(Replay, DecisionStreamsCoverRebuildSequence) {
  const auto trace = make_synthetic_trace(22, 4, 3, 3000);
  core::SeerScheduler s(small_seer_config(), 4, 3);
  const auto decisions = replay_trace(s, trace);
  ASSERT_FALSE(decisions.empty());
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    EXPECT_EQ(decisions[i].rebuild, i + 1) << "rebuild indices are dense";
    EXPECT_EQ(decisions[i].rows.size(), 3u);
  }
  EXPECT_EQ(s.rebuild_count(), decisions.size());
}

TEST(DiffDecisions, ReportsFirstDivergence) {
  SchedDecision a;
  a.rebuild = 1;
  a.params = core::InferenceParams{.th1 = 0.3, .th2 = 0.8};
  a.rows = {{}, {}};
  SchedDecision b = a;
  EXPECT_EQ(diff_decisions({a}, {b}), "");
  b.params.th1 = 0.5;
  const std::string msg = diff_decisions({a}, {b});
  EXPECT_NE(msg, "");
  EXPECT_NE(msg.find("decision 0"), std::string::npos) << msg;
  EXPECT_EQ(diff_decisions({a}, {a, a}).find("counts differ"), 9u);
}

// -------------------------------------------------------- cross-backend ----

// A minimal workload so a Machine (and its PolicyShared) can be built; the
// machine never runs — the differential drives its scheduler directly.
class IdleWorkload final : public sim::Workload {
 public:
  const std::string& name() const override { return name_; }
  std::size_t n_types() const override { return 3; }
  const std::string& type_name(core::TxTypeId) const override { return name_; }
  void next(core::ThreadId, double, util::Xoshiro256&, sim::TxInstance& out) override {
    out.type = 0;
    out.duration = 100;
  }
  std::uint64_t think_time(core::ThreadId, util::Xoshiro256&) override { return 10; }

 private:
  std::string name_ = "idle";
};

// The tentpole assertion: a scheduler constructed through the SIM backend
// and one constructed through the THREADED backend, given the identical
// abort/commit trace, must infer the same lock schemes and take the same
// hill-climber steps.
TEST(CrossBackend, SimAndThreadedSchedulersAgreeOnIdenticalTrace) {
  rt::PolicyConfig policy;
  policy.kind = rt::PolicyKind::kSeer;
  policy.seer.update_period = 64;

  sim::MachineConfig mcfg;
  mcfg.n_threads = 4;
  mcfg.policy = policy;
  sim::Machine machine(mcfg, std::make_unique<IdleWorkload>());
  core::SeerScheduler* sim_sched = machine.policy_shared().seer();
  ASSERT_NE(sim_sched, nullptr);

  htm::SoftHtm tm;
  rt::ThreadedExecutor::Options opts;
  opts.n_threads = 4;
  opts.n_types = 3;
  opts.physical_cores = 2;
  rt::ThreadedExecutor exec(tm, policy, opts);
  core::SeerScheduler* thr_sched = exec.policy_shared().seer();
  ASSERT_NE(thr_sched, nullptr);

  // Both backends must have resolved to the same effective scheduler shape,
  // or the comparison is vacuous.
  ASSERT_EQ(sim_sched->n_threads(), thr_sched->n_threads());
  ASSERT_EQ(sim_sched->n_types(), thr_sched->n_types());
  ASSERT_EQ(sim_sched->config().update_period, thr_sched->config().update_period);

  const auto trace = make_synthetic_trace(33, 4, 3, 4000);
  const auto sim_decisions = replay_trace(*sim_sched, trace);
  const auto thr_decisions = replay_trace(*thr_sched, trace);
  ASSERT_FALSE(sim_decisions.empty()) << "trace produced no rebuilds";
  EXPECT_EQ(diff_decisions(sim_decisions, thr_decisions), "")
      << "backends disagree on an identical event stream";
}

// Live capture from a deterministically driven executor replays to the
// same decisions in a fresh scheduler: the event stream fully determines
// the scheduler's behaviour (no hidden backend state).
TEST(CrossBackend, LiveCaptureReplaysToIdenticalDecisions) {
  htm::SoftHtm tm;
  rt::PolicyConfig policy;
  policy.kind = rt::PolicyKind::kSeer;
  policy.seer.update_period = 32;
  rt::ThreadedExecutor::Options opts;
  opts.n_threads = 2;
  opts.n_types = 2;
  opts.physical_cores = 2;
  rt::ThreadedExecutor exec(tm, policy, opts);
  core::SeerScheduler* sched = exec.policy_shared().seer();
  ASSERT_NE(sched, nullptr);

  SchedTraceRecorder capture;
  sched->set_trace_sink(&capture);

  // Round-robin both handles from this one thread: a deterministic drive
  // with real conflicts (both types hammer the same word).
  auto h0 = exec.make_handle(0);
  auto h1 = exec.make_handle(1);
  htm::TmWord w{0};
  for (int i = 0; i < 600; ++i) {
    const core::TxTypeId type = static_cast<core::TxTypeId>(i % 2);
    auto& h = (i % 2 == 0) ? h0 : h1;
    (void)h->run(type, [&](auto& tx) { tx.write(w, tx.read(w) + 1); });
  }
  sched->set_trace_sink(nullptr);
  EXPECT_EQ(w.load(), 600u);

  const auto events = capture.events();
  const auto live = capture.decisions();
  ASSERT_FALSE(events.empty());
  ASSERT_FALSE(live.empty()) << "drive long enough to rebuild at least once";

  core::SeerScheduler fresh(sched->config(), sched->n_threads(), sched->n_types());
  const auto replayed = replay_trace(fresh, events);
  EXPECT_EQ(diff_decisions(live, replayed), "")
      << "capture and replay must describe the same scheduler run";
}

}  // namespace
}  // namespace seer::check
