// Serving-harness building blocks (DESIGN.md §12): the MPMC admission
// queue, exact/bucket latency accounting, the arrival schedule, open_loop
// config validation, and the serve driver's contracts — accounting
// identities, byte-identical reruns and --jobs invariance for every policy on
// the simulated machine, and the interval and stop contracts of the one step
// loop both backends share.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "util/json.hpp"
#include "util/latency_histogram.hpp"
#include "util/mpmc_queue.hpp"
#include "util/rng.hpp"
#include "workload/open_loop.hpp"
#include "workload/registry.hpp"
#include "workload/serve_driver.hpp"

namespace {

using seer::util::LatencyHistogram;
using seer::util::MpmcQueue;
using seer::workload::ArrivalSchedule;
using seer::workload::ConfigError;
using seer::workload::OpenLoopConfig;

// --- MpmcQueue --------------------------------------------------------------

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpmcQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(MpmcQueue<int>(4).capacity(), 4u);
  EXPECT_EQ(MpmcQueue<int>(100).capacity(), 128u);
}

TEST(MpmcQueue, FifoAcrossManyWraparounds) {
  MpmcQueue<int> q(4);
  int expected = 0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.try_push(2 * i));
    ASSERT_TRUE(q.try_push(2 * i + 1));
    int v = -1;
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, expected++);
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, expected++);
  }
  int v = -1;
  EXPECT_FALSE(q.try_pop(v));
}

TEST(MpmcQueue, FullQueueShedsUntilPopMakesRoom) {
  MpmcQueue<int> q(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_push(int{i}));
  EXPECT_FALSE(q.try_push(99));  // shed, not block
  EXPECT_EQ(q.approx_size(), 4u);
  int v = -1;
  ASSERT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(q.try_push(99));
  // Drain preserves order: 1, 2, 3, 99.
  std::vector<int> rest;
  while (q.try_pop(v)) rest.push_back(v);
  EXPECT_EQ(rest, (std::vector<int>{1, 2, 3, 99}));
}

// The tsan-facing stress: every pushed value is popped exactly once, no
// element is lost or duplicated, across concurrent producers and consumers
// that wrap the ring many times over.
TEST(MpmcQueue, MultiProducerMultiConsumerStress) {
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 20000;
  MpmcQueue<std::uint64_t> q(64);
  std::atomic<std::uint64_t> popped_sum{0}, popped_count{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v =
            static_cast<std::uint64_t>(p) * kPerProducer + i + 1;
        while (!q.try_push(std::uint64_t{v})) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::uint64_t v = 0;
      for (;;) {
        if (q.try_pop(v)) {
          popped_sum.fetch_add(v, std::memory_order_relaxed);
          popped_count.fetch_add(1, std::memory_order_relaxed);
        } else if (done.load(std::memory_order_acquire)) {
          if (!q.try_pop(v)) break;
          popped_sum.fetch_add(v, std::memory_order_relaxed);
          popped_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  done.store(true, std::memory_order_release);
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();

  const std::uint64_t n = std::uint64_t{kProducers} * kPerProducer;
  EXPECT_EQ(popped_count.load(), n);
  EXPECT_EQ(popped_sum.load(), n * (n + 1) / 2);  // values were 1..n
}

// --- LatencyHistogram -------------------------------------------------------

TEST(LatencyHistogram, NearestRankSmallCases) {
  LatencyHistogram h;
  for (const std::uint64_t v : {4, 1, 3, 2}) h.record(v);
  EXPECT_EQ(h.quantile(0.25), 1u);
  EXPECT_EQ(h.quantile(0.5), 2u);
  EXPECT_EQ(h.quantile(0.75), 3u);
  EXPECT_EQ(h.quantile(0.999), 4u);
  EXPECT_EQ(h.quantile(1.0), 4u);
  EXPECT_EQ(h.max(), 4u);
  EXPECT_EQ(h.count(), 4u);
}

TEST(LatencyHistogram, QuantilesMatchSortedReference) {
  seer::util::Xoshiro256 rng(7);
  LatencyHistogram h;
  std::vector<std::uint64_t> ref;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform-ish spread, like real latencies.
    const std::uint64_t v = (rng.next() % 1000) << (rng.next() % 20);
    h.record(v);
    ref.push_back(v);
  }
  std::sort(ref.begin(), ref.end());
  const double qs[] = {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0};
  const std::vector<std::uint64_t> batch = h.quantiles(qs);
  for (std::size_t i = 0; i < std::size(qs); ++i) {
    const double r = std::ceil(qs[i] * static_cast<double>(ref.size()));
    const std::size_t idx =
        r <= 1.0 ? 0
                 : std::min(ref.size() - 1, static_cast<std::size_t>(r) - 1);
    EXPECT_EQ(h.quantile(qs[i]), ref[idx]) << "q=" << qs[i];
    EXPECT_EQ(batch[i], ref[idx]) << "batch q=" << qs[i];
  }
}

TEST(LatencyHistogram, MergeEqualsConcatenation) {
  LatencyHistogram a, b, all;
  seer::util::Xoshiro256 rng(11);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t v = rng.next() % 10000;
    ((i % 2 != 0) ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(q), all.quantile(q));
  }
}

TEST(LatencyHistogram, EmptyReportsZeroes) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(LatencyBuckets, EstimateLandsInTheTrueQuantilesBucket) {
  seer::util::LatencyBuckets b;
  for (int i = 0; i < 1000; ++i) b.record(100);  // bucket 7: [64, 128)
  const auto snap = b.snapshot();
  const double est = seer::util::bucket_quantile_estimate(snap, 0.5);
  EXPECT_GE(est, 64.0);
  EXPECT_LE(est, 128.0);
  EXPECT_EQ(seer::util::bucket_quantile_estimate({}, 0.5), 0.0);
}

// --- ArrivalSchedule --------------------------------------------------------

OpenLoopConfig base_config() {
  OpenLoopConfig cfg;
  cfg.rate = 1000.0;
  cfg.process = OpenLoopConfig::Process::kConstant;
  return cfg;
}

TEST(ArrivalSchedule, ConstantGapIsInverseRate) {
  const OpenLoopConfig cfg = base_config();
  const ArrivalSchedule sched(cfg, cfg.rate);
  seer::util::Xoshiro256 rng(1);
  EXPECT_EQ(sched.next_gap_ns(0.0, rng), 1000000u);  // 1 ms at 1000/s
}

TEST(ArrivalSchedule, DiurnalModulatesAroundTheBase) {
  OpenLoopConfig cfg = base_config();
  cfg.diurnal.period_s = 1.0;
  cfg.diurnal.amplitude = 0.5;
  const ArrivalSchedule sched(cfg, cfg.rate);
  EXPECT_NEAR(sched.rate_at(0.25), 1500.0, 1e-6);  // sin peak
  EXPECT_NEAR(sched.rate_at(0.75), 500.0, 1e-6);   // sin trough
  EXPECT_NEAR(sched.rate_at(0.0), 1000.0, 1e-6);
}

TEST(ArrivalSchedule, BurstMultipliesOnlyInsideItsWindow) {
  OpenLoopConfig cfg = base_config();
  cfg.bursts.push_back({1.0, 0.5, 4.0});
  const ArrivalSchedule sched(cfg, cfg.rate);
  EXPECT_NEAR(sched.rate_at(0.99), 1000.0, 1e-6);
  EXPECT_NEAR(sched.rate_at(1.0), 4000.0, 1e-6);
  EXPECT_NEAR(sched.rate_at(1.49), 4000.0, 1e-6);
  EXPECT_NEAR(sched.rate_at(1.5), 1000.0, 1e-6);
}

TEST(ArrivalSchedule, PoissonGapsAverageTheInverseRate) {
  OpenLoopConfig cfg = base_config();
  cfg.process = OpenLoopConfig::Process::kPoisson;
  const ArrivalSchedule sched(cfg, cfg.rate);
  seer::util::Xoshiro256 rng(42);
  double sum_ns = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    sum_ns += static_cast<double>(sched.next_gap_ns(0.0, rng));
  }
  EXPECT_NEAR(sum_ns / kDraws, 1e6, 2e4);  // within 2% of the 1 ms mean
}

// --- open_loop config validation -------------------------------------------

seer::util::json::Value parse_json(const std::string& text) {
  std::string err;
  auto doc = seer::util::json::parse(text, &err);
  EXPECT_TRUE(doc) << err;
  return *doc;
}

void expect_config_error(const std::string& open_loop_json,
                         const std::string& needle) {
  try {
    (void)OpenLoopConfig::from_json(parse_json(open_loop_json), "test");
    FAIL() << "expected ConfigError mentioning \"" << needle << "\"";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(OpenLoopConfig, RateAndSweepAreMutuallyExclusive) {
  expect_config_error(
      R"({"rate": 100, "sweep": {"rates": [100, 200]}})", "mutually exclusive");
}

TEST(OpenLoopConfig, MissingRateAndSweepIsAnError) {
  expect_config_error(R"({"duration_s": 1.0})", "rate");
}

TEST(OpenLoopConfig, UnknownProcessIsNamed) {
  expect_config_error(R"({"rate": 100, "process": "bursty"})", "bursty");
}

TEST(OpenLoopConfig, DiurnalAmplitudeMustStayBelowOne) {
  expect_config_error(
      R"({"rate": 100, "diurnal": {"period_s": 1.0, "amplitude": 1.0}})",
      "amplitude");
}

TEST(OpenLoopConfig, SweepRatesMustStrictlyIncrease) {
  expect_config_error(
      R"({"sweep": {"rates": [200, 100]}})", "strictly increasing");
}

TEST(OpenLoopConfig, UnknownKeyIsRejected) {
  expect_config_error(R"({"rate": 100, "queue_cap": 64})", "queue_cap");
}

// --- serve driver (deterministic backend) ----------------------------------

// A small self-contained service config; `open_loop` is spliced in.
std::string service_config(const std::string& open_loop) {
  return std::string(R"({
    "generator": "spec",
    "name": "serve-test",
    "params": {
      "think_mean": 0,
      "regions": [{"name": "hot", "lines": 64, "zipf_skew": 0.9}],
      "types": [
        {"name": "lookup", "duration_mean": 300,
         "accesses": [{"region": "hot", "reads": 4}]},
        {"name": "update", "duration_mean": 500,
         "accesses": [{"region": "hot", "reads": 2, "writes": 2}]}
      ],
      "mix": [3, 1]
    },
    "open_loop": )") +
         open_loop + "}";
}

seer::workload::Desc desc_of(const std::string& config_json) {
  return seer::workload::from_config_json(parse_json(config_json), "test");
}

constexpr const char* kSmallOpenLoop = R"({
  "rate": 5000, "duration_s": 0.3, "warmup_s": 0.05,
  "queue_capacity": 64, "workers": 2, "emit_interval_ms": 50,
  "cycles_per_us": 1.0,
  "bursts": [{"at_s": 0.15, "duration_s": 0.05, "multiplier": 3.0}]
})";

TEST(ServeDriver, RegistryExposesTheOpenLoopSection) {
  const auto desc = desc_of(service_config(kSmallOpenLoop));
  ASSERT_TRUE(desc.open_loop != nullptr);
  EXPECT_EQ(desc.open_loop->rate, 5000.0);
  EXPECT_EQ(desc.open_loop->workers, 2u);
  // A config without the section leaves the pointer empty.
  EXPECT_TRUE(seer::workload::find("genome").open_loop == nullptr);
}

TEST(ServeDriver, DeterministicAccountingIdentitiesHold) {
  const auto desc = desc_of(service_config(kSmallOpenLoop));
  seer::workload::ServeOptions opts;
  opts.deterministic = true;
  const auto report = run_serve(desc, *desc.open_loop, opts);
  ASSERT_EQ(report.steps.size(), 1u);
  const auto& s = report.steps[0];
  EXPECT_GT(s.arrivals, 0u);
  EXPECT_EQ(s.arrivals, s.accepted + s.rejected);
  // Nothing is lost between admission and service: every accepted request
  // completes (the drain serves whatever is still queued at window close).
  EXPECT_EQ(s.completed, s.accepted);
  EXPECT_LE(s.latency_count, s.completed);
  EXPECT_GT(s.latency_count, 0u);
  EXPECT_LE(s.p50_ns, s.p90_ns);
  EXPECT_LE(s.p90_ns, s.p99_ns);
  EXPECT_LE(s.p99_ns, s.p999_ns);
  EXPECT_LE(s.p999_ns, s.max_ns);
}

TEST(ServeDriver, DeterministicRunsAreByteIdentical) {
  const auto desc = desc_of(service_config(kSmallOpenLoop));
  seer::workload::ServeOptions opts;
  opts.deterministic = true;
  opts.seed = 3;
  const auto a = run_serve(desc, *desc.open_loop, opts);
  const auto b = run_serve(desc, *desc.open_loop, opts);
  EXPECT_EQ(a.jsonl, b.jsonl);
  // A different seed samples different arrivals — the bytes must move.
  opts.seed = 4;
  const auto c = run_serve(desc, *desc.open_loop, opts);
  EXPECT_NE(a.jsonl, c.jsonl);
}

TEST(ServeDriver, SweepOutputIsJobsInvariant) {
  const auto desc = desc_of(service_config(R"({
    "sweep": {"rates": [500, 2000, 8000], "knee_p99_ms": 2.0},
    "duration_s": 0.2, "queue_capacity": 64, "workers": 1,
    "cycles_per_us": 1.0
  })"));
  seer::workload::ServeOptions opts;
  opts.deterministic = true;
  const auto serial = run_serve(desc, *desc.open_loop, opts);
  opts.jobs = 4;
  const auto parallel = run_serve(desc, *desc.open_loop, opts);
  EXPECT_EQ(serial.jsonl, parallel.jsonl);
  ASSERT_EQ(serial.steps.size(), 3u);
}

TEST(ServeDriver, SweepFindsTheSaturationKnee) {
  // One worker at ~350 cycles/request and cycles_per_us=1 serves ~2850/s;
  // 500/s keeps up, 8000/s cannot — the knee criteria must fire there.
  const auto desc = desc_of(service_config(R"({
    "sweep": {"rates": [500, 8000], "knee_p99_ms": 2.0,
              "knee_rejected_fraction": 0.01},
    "duration_s": 0.2, "queue_capacity": 32, "workers": 1,
    "cycles_per_us": 1.0
  })"));
  seer::workload::ServeOptions opts;
  opts.deterministic = true;
  const auto report = run_serve(desc, *desc.open_loop, opts);
  EXPECT_TRUE(report.saturated);
  EXPECT_EQ(report.knee_rate, 8000.0);
  EXPECT_GT(report.steps[1].rejected, 0u);
  EXPECT_GT(report.steps[1].p99_ns, report.steps[0].p99_ns);
}

// --- serve driver (deterministic backend, every policy) ----------------------

using seer::rt::PolicyKind;

constexpr PolicyKind kAllPolicies[] = {PolicyKind::kHle, PolicyKind::kRtm,
                                       PolicyKind::kScm, PolicyKind::kAts,
                                       PolicyKind::kSgl, PolicyKind::kSeer,
                                       PolicyKind::kOracle};

// Eight simulated hardware threads on the hot-region lookup/update mix:
// footprints overlap, so requests conflict, abort and retry on the machine.
constexpr const char* kContendedOpenLoop = R"({
  "rate": 4000, "duration_s": 0.3, "warmup_s": 0.05,
  "queue_capacity": 128, "workers": 8, "emit_interval_ms": 50,
  "cycles_per_us": 1.0
})";

TEST(ServeDriver, EveryPolicyIsDeterministicOnTheMachine) {
  const auto desc = desc_of(service_config(kContendedOpenLoop));
  std::uint64_t arrivals = 0;
  for (const PolicyKind kind : kAllPolicies) {
    SCOPED_TRACE(seer::rt::to_string(kind));
    seer::workload::ServeOptions opts;
    opts.deterministic = true;
    opts.policy.kind = kind;
    opts.seed = 5;
    const auto a = run_serve(desc, *desc.open_loop, opts);
    EXPECT_EQ(a.jsonl, run_serve(desc, *desc.open_loop, opts).jsonl)
        << "not run-deterministic";
    opts.jobs = 4;
    EXPECT_EQ(a.jsonl, run_serve(desc, *desc.open_loop, opts).jsonl)
        << "not jobs-invariant";
    opts.jobs = 1;

    ASSERT_EQ(a.steps.size(), 1u);
    const auto& s = a.steps[0];
    EXPECT_EQ(s.arrivals, s.accepted + s.rejected);
    EXPECT_EQ(s.completed, s.accepted);
    EXPECT_GT(s.latency_count, 0u);
    EXPECT_GT(s.p999_ns, s.p50_ns);
    if (kind == PolicyKind::kRtm) {
      EXPECT_GT(s.sgl_commits, 0u)
          << "no request exhausted its retries: footprints never conflicted";
    }
    // The arrival stream is sampled before any request reaches the
    // machine, so the policy cannot change it.
    if (arrivals == 0) arrivals = s.arrivals;
    EXPECT_EQ(s.arrivals, arrivals);

    opts.seed = 6;
    EXPECT_NE(a.jsonl, run_serve(desc, *desc.open_loop, opts).jsonl)
        << "another seed must sample other arrivals";
  }

  // Every request commits through the global lock under SGL; with no
  // warmup every one of them is counted.
  auto ol = *desc.open_loop;
  ol.warmup_s = 0.0;
  seer::workload::ServeOptions opts;
  opts.deterministic = true;
  opts.policy.kind = PolicyKind::kSgl;
  const auto sgl = run_serve(desc, ol, opts);
  EXPECT_EQ(sgl.steps[0].sgl_fraction, 1.0);
}

TEST(ServeDriver, SeerIsByteIdenticalAcrossRunsAndJobsAt64Workers) {
  const auto desc = desc_of(service_config(R"({
    "sweep": {"rates": [2000, 6000], "knee_p99_ms": 5.0},
    "duration_s": 0.2, "warmup_s": 0.05, "queue_capacity": 256,
    "workers": 64, "cycles_per_us": 1.0
  })"));
  seer::workload::ServeOptions opts;
  opts.deterministic = true;
  opts.policy.kind = PolicyKind::kSeer;
  opts.seed = 11;
  const auto a = run_serve(desc, *desc.open_loop, opts);
  const auto b = run_serve(desc, *desc.open_loop, opts);
  EXPECT_EQ(a.jsonl, b.jsonl) << "not run-deterministic";
  opts.jobs = 4;
  const auto c = run_serve(desc, *desc.open_loop, opts);
  EXPECT_EQ(a.jsonl, c.jsonl) << "not jobs-invariant";
  // Different seed, different arrivals and instances.
  opts.seed = 12;
  const auto d = run_serve(desc, *desc.open_loop, opts);
  EXPECT_NE(a.jsonl, d.jsonl);
}

// --- serve driver (real backend, kept tiny for test walltime) ---------------

TEST(ServeDriver, RealModeServesAndDrainsEverything) {
  const auto desc = desc_of(service_config(R"({
    "rate": 2000, "duration_s": 0.1, "queue_capacity": 256,
    "workers": 2, "emit_interval_ms": 20, "table_words": 4096
  })"));
  seer::workload::ServeOptions opts;  // real mode, RTM policy
  const auto report = run_serve(desc, *desc.open_loop, opts);
  ASSERT_EQ(report.steps.size(), 1u);
  const auto& s = report.steps[0];
  EXPECT_GT(s.arrivals, 0u);
  EXPECT_EQ(s.arrivals, s.accepted + s.rejected);
  EXPECT_EQ(s.completed, s.accepted);
  EXPECT_EQ(s.latency_count, s.completed);  // warmup_s = 0: all counted
  EXPECT_GT(s.max_ns, 0u);
}

// Each real step builds its own executor and so its own Seer scheduler,
// while one recorder spans the run: every step ends with a kFinal capture,
// and each episode still open then ends at its own step's final.
TEST(ServeDriver, RealModeEndsEveryStepWithAFinalSnapshot) {
  // Every request bumps one of two counters.
  const auto desc = desc_of(R"({
    "generator": "spec", "name": "bump",
    "params": {
      "think_mean": 0,
      "regions": [{"name": "counters", "lines": 2}],
      "types": [{"name": "bump", "duration_mean": 300,
                 "accesses": [{"region": "counters", "reads": 1, "writes": 1}]}]
    },
    "open_loop": {"sweep": {"rates": [200000, 400000]}, "duration_s": 0.05,
                  "queue_capacity": 256, "workers": 2, "emit_interval_ms": 50,
                  "table_words": 64}})");
  seer::obs::FlightRecorder rec;
  seer::workload::ServeOptions opts;  // real mode
  opts.policy.kind = PolicyKind::kSeer;
  // Saturating arrivals, a rebuild every 256 executions and a storm from a
  // 1% abort rate: the counters' conflicts open episodes, and one usually
  // runs hot to its step's end.
  opts.policy.seer.update_period = 256;
  opts.policy.seer.storm_enter = 0.01;
  opts.recorder = &rec;
  const auto report = run_serve(desc, *desc.open_loop, opts);
  ASSERT_EQ(report.steps.size(), 2u);
  ASSERT_EQ(rec.dropped(), 0u) << "the ring overflowed; shorten the steps";
  std::vector<std::uint64_t> final_at;
  for (const seer::obs::ModelSnapshot* s : rec.snapshots()) {
    if (s->reason == seer::obs::SnapshotReason::kFinal) final_at.push_back(s->now);
  }
  EXPECT_EQ(final_at.size(), SEER_OBS_ENABLED ? 2u : 0u) << "one final per step";
  for (const seer::obs::AnomalyEpisode& ep : rec.episodes()) {
    if (!ep.open) continue;
    const auto own = std::lower_bound(final_at.begin(), final_at.end(), ep.start_now);
    ASSERT_NE(own, final_at.end()) << "an episode opened after the last final";
    EXPECT_EQ(ep.end_now, *own) << "an episode open at its step's end";
  }
}

// --- the step loop's contract, in both backends ------------------------------

struct IntervalLine {
  double t_s = 0.0;
  std::uint64_t arrivals = 0;
};

std::vector<IntervalLine> interval_lines(const std::string& jsonl) {
  std::vector<IntervalLine> out;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    const std::size_t eol = jsonl.find('\n', pos);
    const auto line = parse_json(jsonl.substr(pos, eol - pos));
    if (line.str("kind") == "interval") {
      out.push_back({line.num("t_s"), line.u64("arrivals")});
    }
    pos = eol + 1;
  }
  return out;
}

TEST(ServeDriver, BothBackendsEmitOneIntervalLinePerBoundary) {
  // A 0.25-s window (warmup included) at 50-ms intervals has five
  // boundaries; each backend writes exactly one line at each, stamped with
  // the boundary itself, and none while the step drains.
  const auto desc = desc_of(service_config(R"({
    "rate": 2000, "duration_s": 0.2, "warmup_s": 0.05, "queue_capacity": 256,
    "workers": 2, "emit_interval_ms": 50, "table_words": 4096
  })"));
  seer::workload::ServeOptions opts;  // RTM
  opts.seed = 9;
  const auto real_a = interval_lines(run_serve(desc, *desc.open_loop, opts).jsonl);
  const auto real_b = interval_lines(run_serve(desc, *desc.open_loop, opts).jsonl);
  opts.deterministic = true;
  const auto sim = interval_lines(run_serve(desc, *desc.open_loop, opts).jsonl);

  const double boundaries[] = {0.05, 0.10, 0.15, 0.20, 0.25};
  for (const auto* run : {&sim, &real_a, &real_b}) {
    ASSERT_EQ(run->size(), std::size(boundaries));
    for (std::size_t i = 0; i < run->size(); ++i) {
      EXPECT_DOUBLE_EQ((*run)[i].t_s, boundaries[i]) << "interval " << i;
    }
  }
  // Arrivals follow the seeded schedule, not the host's timing: two real
  // runs with one seed split them across the intervals identically.
  for (std::size_t i = 0; i < real_a.size(); ++i) {
    EXPECT_EQ(real_a[i].arrivals, real_b[i].arrivals) << "interval " << i;
  }
}

TEST(ServeDriver, StopRequestEndsTheStepAndKeepsTheIdentities) {
  const auto desc = desc_of(service_config(R"({
    "sweep": {"rates": [2000, 4000]}, "duration_s": 30, "queue_capacity": 256,
    "workers": 2, "emit_interval_ms": 50, "table_words": 4096
  })"));
  std::atomic<bool> stop{false};
  seer::workload::ServeOptions opts;  // real mode
  opts.stop = &stop;
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
  });
  const auto start = std::chrono::steady_clock::now();
  const auto report = run_serve(desc, *desc.open_loop, opts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stopper.join();

  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_TRUE(report.interrupted);
  ASSERT_EQ(report.steps.size(), 1u);
  const auto& s = report.steps[0];
  EXPECT_GT(s.arrivals, 0u);
  EXPECT_EQ(s.arrivals, s.accepted + s.rejected);
  EXPECT_EQ(s.completed, s.accepted);
  EXPECT_NE(report.jsonl.find("\"interrupted\": true"), std::string::npos);
}

}  // namespace
