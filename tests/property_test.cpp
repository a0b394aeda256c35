// Property-based correctness driver: seeded random workloads crossed with
// seeded random FaultPlans, executed on the real-threads backend with
// commit logging on, then verified by the opacity checker and an exact
// final-state oracle. Every iteration is reproducible from one 64-bit
// seed; a failing run prints it in replay form.
//
// Environment knobs:
//   SEER_PROPERTY_ITERS  — iterations per ctest invocation (default 25;
//                          scripts/verify.sh runs 100)
//   SEER_PROPERTY_SEED   — replay exactly this iteration seed and stop
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "check/fault_plan.hpp"
#include "check/opacity.hpp"
#include "core/seer_scheduler.hpp"
#include "htm/soft_htm.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "runtime/threaded_executor.hpp"
#include "sim/machine.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/phased.hpp"
#include "workload/threaded_driver.hpp"

namespace seer::check {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

// One randomly shaped run, fully determined by `seed`.
struct Shape {
  std::size_t n_threads;
  std::size_t n_types;
  std::size_t n_words;
  std::size_t txs_per_thread;
  std::size_t max_words_per_tx;
  std::size_t max_pure_reads;  // reads of words the tx does NOT write
  bool yield_mid_tx;  // widen conflict windows on few-core hosts
  rt::PolicyKind policy;
  FaultPlanConfig fault;
};

Shape shape_for(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Shape s;
  s.n_threads = 1 + rng.below(4);
  s.n_types = 1 + rng.below(3);
  s.n_words = 2 + rng.below(14);
  s.txs_per_thread = 100 + rng.below(200);
  s.max_words_per_tx = 1 + rng.below(4);
  s.max_pure_reads = rng.below(4);
  s.yield_mid_tx = rng.bernoulli(0.5);
  s.policy = rng.bernoulli(0.5) ? rt::PolicyKind::kSeer : rt::PolicyKind::kRtm;
  // A hostile but not wall-to-wall injection schedule: enough to push
  // traffic through every abort cause and onto the SGL fallback.
  s.fault.p_conflict = rng.uniform01() * 0.05;
  s.fault.p_capacity = rng.uniform01() * 0.03;
  s.fault.p_other = rng.uniform01() * 0.02;
  s.fault.seed = rng.next();
  return s;
}

struct Outcome {
  OpacityReport report;
  std::uint64_t expected_total = 0;  // sum of all per-word increments
  std::uint64_t actual_total = 0;
  std::uint64_t injected = 0;
  std::uint64_t promotions = 0;  // htm.read_promote.capacity, all threads
  std::uint64_t extensions = 0;  // htm.extensions, all threads
};

Outcome run_iteration(std::uint64_t seed, htm::SoftHtm::Defect defect,
                      std::size_t max_read_set = 0) {
  const Shape shape = shape_for(seed);
  htm::SoftHtm::Config cfg{.defect = defect};
  // 0 keeps the library default; a tiny budget forces the adaptive read
  // tracking to cross the Tier-0/exact boundary mid-transaction.
  if (max_read_set != 0) cfg.max_read_set = max_read_set;
  htm::SoftHtm tm(cfg);
  rt::PolicyConfig policy;
  policy.kind = shape.policy;
  if (shape.policy == rt::PolicyKind::kSeer) {
    policy.seer.update_period = 64;
  }
  rt::ThreadedExecutor::Options opts;
  opts.n_threads = shape.n_threads;
  opts.n_types = shape.n_types;
  opts.physical_cores = 2;
  obs::MetricsRegistry metrics(shape.n_threads);
  opts.metrics = &metrics;
  rt::ThreadedExecutor exec(tm, policy, opts);
  metrics.freeze();

  std::vector<htm::TmWord> words(shape.n_words);
  MemorySnapshot initial;
  snapshot_words(initial, words.data(), words.size());

  std::vector<htm::TxLog> logs(shape.n_threads);
  std::vector<FaultPlan> plans;
  plans.reserve(shape.n_threads);
  for (std::size_t t = 0; t < shape.n_threads; ++t) {
    FaultPlanConfig fcfg = shape.fault;
    fcfg.seed += t;  // distinct per-thread injection streams
    plans.emplace_back(fcfg);
  }

  std::vector<std::uint64_t> increments(shape.n_threads, 0);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < shape.n_threads; ++t) {
    threads.emplace_back([&, t] {
      auto h = exec.make_handle(static_cast<core::ThreadId>(t));
      h->set_fault_injector(&plans[t]);
      h->set_tx_log(&logs[t]);
      // Start together: a single-core host would otherwise serialize whole
      // threads and the run would exercise no concurrency at all.
      ready.fetch_add(1);
      while (ready.load() < shape.n_threads) std::this_thread::yield();
      util::Xoshiro256 rng(seed ^ (0x9e37u + t));
      for (std::size_t i = 0; i < shape.txs_per_thread; ++i) {
        const auto type = static_cast<core::TxTypeId>(rng.below(shape.n_types));
        const std::size_t k = 1 + rng.below(shape.max_words_per_tx);
        const std::size_t r = shape.max_pure_reads == 0
                                  ? 0
                                  : rng.below(shape.max_pure_reads + 1);
        // Pick word indices up front so the body is replay-stable across
        // retries (the RNG is not drawn inside the transaction).
        std::array<std::size_t, 4> picks{};
        std::array<std::size_t, 4> read_picks{};
        for (std::size_t j = 0; j < k; ++j) picks[j] = rng.below(shape.n_words);
        for (std::size_t j = 0; j < r; ++j) read_picks[j] = rng.below(shape.n_words);
        (void)h->run(type, [&](auto& tx) {
          // Pure reads first: words read but (possibly) not written, the
          // case only commit-time read-set validation defends.
          for (std::size_t j = 0; j < r; ++j) (void)tx.read(words[read_picks[j]]);
          for (std::size_t j = 0; j < k; ++j) {
            htm::TmWord& w = words[picks[j]];
            const std::uint64_t v = tx.read(w);
            if (shape.yield_mid_tx) std::this_thread::yield();
            tx.write(w, v + 1);
          }
        });
        // run() retries until the body commits exactly once.
        increments[t] += k;
      }
    });
  }
  for (auto& th : threads) th.join();

  Outcome out;
  std::vector<const htm::TxLog*> log_ptrs;
  for (const auto& l : logs) log_ptrs.push_back(&l);
  out.report = verify_opacity(log_ptrs, initial);
  for (const std::uint64_t n : increments) out.expected_total += n;
  for (const auto& w : words) out.actual_total += w.load();
  for (const auto& p : plans) out.injected += p.total_injected();
  for (const auto& c : metrics.snapshot().counters) {
    if (c.name == "htm.read_promote.capacity") out.promotions += c.value;
    if (c.name == "htm.extensions") out.extensions += c.value;
  }
  return out;
}

std::string replay_hint(std::uint64_t seed) {
  return "replay with: SEER_PROPERTY_SEED=" + std::to_string(seed) +
         " ./build/tests/property_test";
}

// On a healthy TM, every random (workload, fault plan) pair must preserve
// opacity AND exact counts — injected aborts may cost retries, never
// updates.
TEST(PropertyHarness, RandomWorkloadsStayOpaque) {
  const std::uint64_t master = env_u64("SEER_PROPERTY_SEED", 0);
  const std::uint64_t iters = master != 0 ? 1 : env_u64("SEER_PROPERTY_ITERS", 25);
  std::uint64_t injected_somewhere = 0;
  std::uint64_t extended_somewhere = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = master != 0 ? master : 0xA11CE000u + i;
    const Outcome out = run_iteration(seed, htm::SoftHtm::Defect::kNone);
    injected_somewhere += out.injected;
    extended_somewhere += out.extensions;
    if (!out.report.ok()) {
      FAIL() << "opacity violation at seed " << seed << ": "
             << to_string(out.report.violations.front()) << "\n"
             << replay_hint(seed);
    }
    ASSERT_EQ(out.actual_total, out.expected_total)
        << "lost/phantom update at seed " << seed << "\n"
        << replay_hint(seed);
  }
  if (iters > 1) {
    EXPECT_GT(injected_somewhere, 0u)
        << "the fault plans never fired — the harness is not exercising aborts";
#if SEER_OBS_ENABLED
    EXPECT_GT(extended_somewhere, 0u)
        << "no read ever extended its snapshot — the sweep misses the slow path";
#else
    (void)extended_somewhere;  // counters are stubs under SEER_OBS=OFF
#endif
  }
}

// Tier-transition sweep: a read-set budget of 4 against bodies that log up
// to ~7 reads (plus retries' duplicates) forces a steady mix of Tier-0-only
// commits, mid-body promotions, exact-tier capacity aborts, and SGL
// fallbacks — opacity and exact counts must survive all of it. The
// promotion counters prove the sweep actually crosses the boundary rather
// than vacuously passing in Tier 0.
TEST(PropertyHarness, RandomWorkloadsStayOpaqueAcrossTierTransitions) {
  const std::uint64_t master = env_u64("SEER_PROPERTY_SEED", 0);
  const std::uint64_t iters = master != 0 ? 1 : env_u64("SEER_PROPERTY_ITERS", 25);
  std::uint64_t promoted_somewhere = 0;
  std::uint64_t extended_somewhere = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = master != 0 ? master : 0x7EE5000u + i;
    const Outcome out = run_iteration(seed, htm::SoftHtm::Defect::kNone,
                                      /*max_read_set=*/4);
    promoted_somewhere += out.promotions;
    extended_somewhere += out.extensions;
    if (!out.report.ok()) {
      FAIL() << "opacity violation at seed " << seed << ": "
             << to_string(out.report.violations.front()) << "\n"
             << replay_hint(seed);
    }
    ASSERT_EQ(out.actual_total, out.expected_total)
        << "lost/phantom update at seed " << seed << "\n"
        << replay_hint(seed);
  }
#if SEER_OBS_ENABLED
  if (iters > 1) {
    EXPECT_GT(promoted_somewhere, 0u)
        << "no transaction ever promoted — the sweep is not crossing tiers";
    EXPECT_GT(extended_somewhere, 0u)
        << "no read ever extended its snapshot — the sweep misses the slow path";
  }
#else
  (void)promoted_somewhere;  // counters are stubs under SEER_OBS=OFF
  (void)extended_somewhere;
#endif
}

// ------------------------------------------------- capacity decisions ----

// Read capacity counts distinct words (DESIGN.md §10), however the read set
// is tracked. A test-local set is the exact model for it: an attempt must
// capacity-abort iff the model's distinct count exceeds max_read_set, on
// the very read that pushes it over; once the reads are in the exact tier,
// read_set_size() is the model's count; and the capacity-exempt fallback
// path never capacity-aborts.

// Up to 3x the budget reads from a pool of up to 2x the budget words, so
// the distinct count lands on both sides of the budget and the Tier-0 log
// fills with every mix of fresh and repeated words. Some sequences open
// with a run of fresh words, so the boundary is often crossed exactly.
std::vector<std::size_t> capacity_reads(util::Xoshiro256& rng, std::size_t budget) {
  const std::size_t pool = 1 + rng.below(2 * budget);
  const std::size_t n = rng.below(3 * budget + 1);
  const std::size_t fresh_max = std::min(n, pool);
  const std::size_t fresh = rng.bernoulli(0.5) ? fresh_max : rng.below(fresh_max + 1);
  std::vector<std::size_t> reads;
  reads.reserve(n);
  for (std::size_t k = 0; k < n; ++k) reads.push_back(k < fresh ? k : rng.below(pool));
  return reads;
}

struct CapacityCheck {
  std::string error;  // the first disagreement with the model; empty if none
  bool aborted = false;
  bool promoted = false;
};

// Runs `reads` (indices into `pool`) as one attempt on `ctx` and checks
// every capacity decision against the model.
CapacityCheck check_capacity(htm::SoftHtm::ThreadContext& ctx,
                             std::vector<htm::TmWord>& pool,
                             const std::vector<std::size_t>& reads, std::size_t budget,
                             bool unbounded) {
  // The model's verdict: the index of the read whose distinct count first
  // exceeds the budget; reads.size() when none does or capacity is exempt.
  std::size_t abort_at = reads.size();
  if (!unbounded) {
    std::unordered_set<const htm::TmWord*> distinct;
    for (std::size_t k = 0; k < reads.size() && abort_at == reads.size(); ++k) {
      distinct.insert(&pool[reads[k]]);
      if (distinct.size() > budget) abort_at = k;
    }
  }
  CapacityCheck out;
  std::unordered_set<const htm::TmWord*> seen;  // the model, read by read
  std::size_t returned = 0;
  auto body = [&](htm::SoftHtm::Tx& tx) {
    for (const std::size_t r : reads) {
      (void)tx.read(pool[r]);
      ++returned;
      seen.insert(&pool[r]);
      const bool exact = ctx.read_tier_is_exact();
      const std::size_t want = exact ? seen.size() : returned;
      if (out.error.empty() && ctx.read_set_size() != want) {
        out.error = "read_set_size() " + std::to_string(ctx.read_set_size()) +
                    " after read " + std::to_string(returned) + ", want " +
                    std::to_string(want) + (exact ? " distinct" : " logged");
      }
    }
  };
  const htm::AbortStatus s = unbounded ? ctx.attempt_unbounded(body) : ctx.attempt(body);
  const bool ok = s.raw() == htm::kXBeginStarted;
  out.aborted = !ok;
  out.promoted = ctx.read_tier_is_exact();
  if (!out.error.empty()) return out;
  if (abort_at == reads.size()) {
    if (!ok) {
      out.error = "expected a commit, got a " + std::string(htm::to_string(s.cause())) +
                  " abort";
    }
  } else if (ok || s.cause() != htm::AbortCause::kCapacity) {
    out.error = "expected a capacity abort at read " + std::to_string(abort_at + 1);
  } else if (returned != abort_at) {
    out.error = "capacity abort after " + std::to_string(returned) +
                " reads returned, the model says " + std::to_string(abort_at);
  }
  return out;
}

TEST(PropertyHarness, CapacityDecisionsMatchAnExactModel) {
  constexpr std::size_t kDefaultBudget = htm::SoftHtm::Config{}.max_read_set;
  const std::uint64_t master = env_u64("SEER_PROPERTY_SEED", 0);
  const std::uint64_t iters = master != 0 ? 1 : env_u64("SEER_PROPERTY_ITERS", 25);
  std::vector<htm::TmWord> pool(2 * kDefaultBudget);
  std::uint64_t aborted = 0;
  std::uint64_t promoted_commits = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = master != 0 ? master : 0xCA9A000u + i;
    util::Xoshiro256 rng(seed);
    // A drawn budget of 1-64 words, then one pass at the default budget.
    const std::array<std::size_t, 2> budgets{1 + rng.below(64), kDefaultBudget};
    for (const std::size_t budget : budgets) {
      htm::SoftHtm tm(htm::SoftHtm::Config{.max_read_set = budget});
      htm::SoftHtm::ThreadContext ctx(tm);
      const int sequences = budget == kDefaultBudget ? 2 : 16;
      for (int q = 0; q < sequences; ++q) {
        const std::vector<std::size_t> reads = capacity_reads(rng, budget);
        for (const bool unbounded : {false, true}) {
          const CapacityCheck c = check_capacity(ctx, pool, reads, budget, unbounded);
          if (!c.error.empty()) {
            FAIL() << c.error << " (" << reads.size() << " reads, max_read_set "
                   << budget << (unbounded ? ", attempt_unbounded" : ", attempt")
                   << ") at seed " << seed << "\n"
                   << replay_hint(seed);
          }
          aborted += c.aborted ? 1 : 0;
          promoted_commits += !c.aborted && c.promoted ? 1 : 0;
        }
      }
    }
  }
  if (iters > 1) {
    EXPECT_GT(aborted, 0u) << "no sequence crossed the budget";
    EXPECT_GT(promoted_commits, 0u) << "no promoted attempt committed";
  }
}

// ------------------------------------------------ phased regime shifts ----

// A randomly shaped two-regime phased workload, built through the JSON
// config path so the sweep also exercises spec_from_json/PhasedWorkload
// validation on every seed. Both regimes write a small hot region; the
// shift moves which types carry the write traffic.
std::unique_ptr<workload::PhasedWorkload> phased_for(std::uint64_t seed,
                                                     util::Xoshiro256& rng,
                                                     std::size_t n_threads) {
  const std::uint64_t hot_lines = 2 + rng.below(6);
  const std::uint64_t cold_lines = 32 + rng.below(64);
  const std::uint64_t dur_a = 100 + rng.below(300);
  const std::uint64_t dur_b = 100 + rng.below(300);
  const double shift = 0.3 + 0.4 * rng.uniform01();
  char shift_buf[32];
  std::snprintf(shift_buf, sizeof shift_buf, "%.3f", shift);

  const auto spec = [&](const char* w1_region, const char* w2_region,
                        std::uint64_t dur) {
    return std::string(R"({
      "regions": [{"name": "hot", "lines": )") +
           std::to_string(hot_lines) + R"(}, {"name": "cold", "lines": )" +
           std::to_string(cold_lines) + R"(}],
      "types": [
        {"name": "w1", "duration_mean": )" +
           std::to_string(dur) + R"(, "accesses": [{"region": ")" + w1_region +
           R"(", "reads": 1, "writes": 2}]},
        {"name": "w2", "duration_mean": )" +
           std::to_string(dur) + R"(, "accesses": [{"region": ")" + w2_region +
           R"(", "reads": 1, "writes": 2}]}
      ]})";
  };
  // Regime A: w1 hammers the hot region while w2 stays cold; regime B swaps
  // the roles — the pairwise conflict structure flips at the boundary.
  const std::string params = std::string(R"({"think_mean": 50, "phases": [)") +
                             R"({"until": )" + shift_buf + R"(, "spec": )" +
                             spec("hot", "cold", dur_a) + "}, " +
                             R"({"until": 1.0, "spec": )" +
                             spec("cold", "hot", dur_b) + "}]}";
  std::string err;
  const auto doc = util::json::parse(params, &err);
  EXPECT_TRUE(doc.has_value()) << err;
  return workload::PhasedWorkload::from_json(
      *doc, "seed " + std::to_string(seed), "phased-prop", n_threads);
}

// Opacity and exact counts must hold ACROSS contention-regime shifts: the
// scheduler re-learns mid-run, but correctness never depends on what the
// model believes.
TEST(PropertyHarness, PhasedRegimeShiftsStayOpaqueWithExactCounts) {
  const std::uint64_t master = env_u64("SEER_PROPERTY_SEED", 0);
  const std::uint64_t iters = master != 0 ? 1 : env_u64("SEER_PROPERTY_ITERS", 25);
  std::uint64_t injected_somewhere = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = master != 0 ? master : 0x5EED5000u + i;
    util::Xoshiro256 rng(seed);
    workload::ThreadedRunOptions opts;
    opts.n_threads = 2 + rng.below(3);
    opts.physical_cores = 2;
    opts.txs_per_thread = 100 + rng.below(150);
    opts.seed = seed;
    opts.policy.kind =
        rng.bernoulli(0.5) ? rt::PolicyKind::kSeer : rt::PolicyKind::kRtm;
    if (opts.policy.kind == rt::PolicyKind::kSeer) {
      opts.policy.seer.update_period = 64;
    }
    const auto gen = phased_for(seed, rng, opts.n_threads);

    htm::SoftHtm tm;
    std::vector<htm::TmWord> words(16 + rng.below(48));
    MemorySnapshot initial;
    snapshot_words(initial, words.data(), words.size());
    std::vector<htm::TxLog> logs(opts.n_threads);
    std::vector<FaultPlan> plans;
    plans.reserve(opts.n_threads);
    for (std::size_t t = 0; t < opts.n_threads; ++t) {
      FaultPlanConfig fcfg;
      fcfg.p_conflict = rng.uniform01() * 0.05;
      fcfg.p_capacity = rng.uniform01() * 0.03;
      fcfg.p_other = rng.uniform01() * 0.02;
      fcfg.seed = seed + t;
      plans.emplace_back(fcfg);
    }
    for (auto& l : logs) opts.tx_logs.push_back(&l);
    for (auto& p : plans) opts.fault_injectors.push_back(&p);

    const workload::ThreadedRunResult res =
        workload::run_threaded(*gen, tm, words, opts);
    EXPECT_EQ(res.exhausted_threads, 0u) << "phased generators never exhaust";
    EXPECT_EQ(res.txs, opts.n_threads * opts.txs_per_thread);

    std::vector<const htm::TxLog*> log_ptrs;
    for (const auto& l : logs) log_ptrs.push_back(&l);
    const OpacityReport report = verify_opacity(log_ptrs, initial);
    if (!report.ok()) {
      FAIL() << "opacity violation across a regime shift at seed " << seed
             << ": " << to_string(report.violations.front()) << "\n"
             << replay_hint(seed);
    }
    std::uint64_t total = 0;
    for (const auto& w : words) total += w.load();
    ASSERT_EQ(total, res.total_writes)
        << "lost/phantom update across a regime shift at seed " << seed << "\n"
        << replay_hint(seed);
    for (const auto& p : plans) injected_somewhere += p.total_injected();
  }
  if (iters > 1) {
    EXPECT_GT(injected_somewhere, 0u)
        << "the fault plans never fired — the sweep is not exercising aborts";
  }
}

#if SEER_OBS_ENABLED
// After the shift, the scheduler's learned pair probabilities must move
// toward the NEW ground truth: a deterministic simulator run whose conflict
// mass flips from pair (a,b) to pair (b,c) at progress 0.5, snapshotted at
// every 8th rebuild. Early snapshots must attribute abort mass to the old hot
// pair, and the post-shift snapshot *delta* to the new one.
TEST(PropertyHarness, PhasedSnapshotsTrackTheNewConflictMatrix) {
  const std::string params = R"({
    "think_mean": 40,
    "phases": [
      {"until": 0.5, "spec": {
        "regions": [{"name": "hot", "lines": 4}, {"name": "cold", "lines": 512}],
        "types": [
          {"name": "a", "duration_mean": 500,
           "accesses": [{"region": "hot", "reads": 1, "writes": 2}]},
          {"name": "b", "duration_mean": 500,
           "accesses": [{"region": "hot", "reads": 1, "writes": 2}]},
          {"name": "c", "duration_mean": 500,
           "accesses": [{"region": "cold", "reads": 4}]}
        ]}},
      {"until": 1.0, "spec": {
        "regions": [{"name": "hot", "lines": 4}, {"name": "cold", "lines": 512}],
        "types": [
          {"name": "a", "duration_mean": 500,
           "accesses": [{"region": "cold", "reads": 4}]},
          {"name": "b", "duration_mean": 500,
           "accesses": [{"region": "hot", "reads": 1, "writes": 2}]},
          {"name": "c", "duration_mean": 500,
           "accesses": [{"region": "hot", "reads": 1, "writes": 2}]}
        ]}}
    ]})";
  std::string err;
  const auto doc = util::json::parse(params, &err);
  ASSERT_TRUE(doc.has_value()) << err;

  sim::MachineConfig cfg;
  cfg.n_threads = 4;
  cfg.txs_per_thread = 1500;
  cfg.seed = 7;
  cfg.policy.kind = rt::PolicyKind::kSeer;
  cfg.policy.seer.update_period = 64;
  obs::FlightRecorder recorder;  // every 8th rebuild: the test reads the timeline
  cfg.recorder = &recorder;
  sim::Machine machine(cfg, workload::PhasedWorkload::from_json(
                                *doc, "<phased>", "shift", cfg.n_threads));
  const sim::MachineStats stats = machine.run();
  ASSERT_GT(stats.commits, 0u);
  ASSERT_EQ(recorder.dropped(), 0u);

  const auto snaps = recorder.snapshots();
  ASSERT_GT(snaps.size(), 4u) << "too few rebuild snapshots to read a timeline";
  const obs::ModelSnapshot& last = *snaps.back();
  ASSERT_EQ(last.n_types, 3u);

  // Cross-pair abort mass (x aborted with y, both directions).
  const auto cross = [](const obs::ModelSnapshot& s, core::TxTypeId x,
                        core::TxTypeId y) {
    return s.abort(x, y) + s.abort(y, x);
  };
  // Latest all-regime-A snapshot and latest safely-post-shift baseline, by
  // commit fraction (the shift lands at roughly half of the commits).
  const obs::ModelSnapshot* early = nullptr;
  const obs::ModelSnapshot* post_base = nullptr;
  for (const obs::ModelSnapshot* s : snaps) {
    if (s->commits * 10 <= last.commits * 4) early = s;
    if (s->commits * 10 <= last.commits * 6) post_base = s;
  }
  ASSERT_NE(early, nullptr) << "no snapshot captured before the shift";
  ASSERT_NE(post_base, nullptr);

  // Pre-shift: the (a,b) pair owns the conflict mass; (b,c) has none — c
  // only reads a region nobody writes.
  EXPECT_GT(cross(*early, 0, 1), cross(*early, 1, 2))
      << "pre-shift snapshots do not reflect regime A's ground truth";
  // Post-shift delta: new conflicts accrue on (b,c), not on the retired
  // (a,b) pair.
  const std::uint64_t d_old = cross(last, 0, 1) - cross(*post_base, 0, 1);
  const std::uint64_t d_new = cross(last, 1, 2) - cross(*post_base, 1, 2);
  EXPECT_GT(d_new, d_old)
      << "post-shift snapshots are not moving toward the new conflict matrix "
      << "(old-pair delta " << d_old << ", new-pair delta " << d_new << ")";
}
#endif  // SEER_OBS_ENABLED

// Two RTM threads race over two words, each running kPerThread
// transactions `body(tx, words, t, i)` (thread t's i-th), on a TM with
// `defect`, once per seed 1..100. Returns the first seed whose committed
// history the opacity checker flags, or 0 when all 100 pass.
template <typename Body>
std::uint64_t first_flagged_seed(htm::SoftHtm::Defect defect, Body body) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    htm::SoftHtm tm(htm::SoftHtm::Config{.defect = defect});
    rt::PolicyConfig policy;
    policy.kind = rt::PolicyKind::kRtm;
    rt::ThreadedExecutor::Options opts;
    opts.n_threads = 2;
    opts.n_types = 1;
    opts.physical_cores = 2;
    rt::ThreadedExecutor exec(tm, policy, opts);
    std::array<htm::TmWord, 2> words{};
    MemorySnapshot initial;
    snapshot_words(initial, words.data(), words.size());
    std::vector<htm::TxLog> logs(2);
    constexpr std::uint64_t kPerThread = 200;
    // Without a start barrier a single-core host can run the two workers
    // back-to-back — zero overlap, nothing for the checker to catch.
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        auto h = exec.make_handle(static_cast<core::ThreadId>(t));
        h->set_tx_log(&logs[t]);
        ready.fetch_add(1);
        while (ready.load() < 2) std::this_thread::yield();
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          (void)h->run(0, [&](auto& tx) { body(tx, words, t, i); });
        }
      });
    }
    for (auto& th : threads) th.join();
    if (!verify_opacity({&logs[0], &logs[1]}, initial).ok()) return seed;
  }
  return 0;
}

// Acceptance gate: a TM that skips commit-time read-set validation must be
// caught by the checker well within 100 seeds. The workload reads one word
// and writes a DIFFERENT one (t0: A→B, t1: B→A) — when read and write sets
// coincide, the stripe-acquire version check catches conflicts even without
// read-set validation, so cross-shaped transactions are the narrowest
// workload the defect is exposed on. A mid-body yield widens the doomed
// window even on a single-core host.
TEST(PropertyHarness, CheckerCatchesBrokenHtm) {
  const std::uint64_t caught_at = first_flagged_seed(
      htm::SoftHtm::Defect::kSkipCommitValidation,
      [](auto& tx, std::array<htm::TmWord, 2>& words, std::size_t t, std::uint64_t) {
        const std::uint64_t v = tx.read(words[t]);
        std::this_thread::yield();
        tx.write(words[1 - t], v + 1);
      });
  EXPECT_NE(caught_at, 0u) << "a TM without commit validation survived 100 property seeds";
}

// The same gate for a snapshot extension that skips read-set revalidation
// (DESIGN.md §10). A transaction reads its own word, yields, reads the
// other word and writes one of the two, alternating. The defect shows when
// the other thread commits to both words between the two reads: the second
// read meets a newer stripe and extends past the overwrite of the first,
// and commit validation, which checks against the extended snapshot, lets
// the stale read through. Windows of 0–3 yields, out of phase between the
// threads, let two commits land in one window even on a single-core host.
// The healthy TM runs the same workload clean.
TEST(PropertyHarness, CheckerCatchesExtendWithoutValidation) {
  const auto body = [](auto& tx, std::array<htm::TmWord, 2>& words, std::size_t t,
                       std::uint64_t i) {
    const std::uint64_t mine = tx.read(words[t]);
    for (std::uint64_t y = (i + 2 * t) % 4; y > 0; --y) std::this_thread::yield();
    const std::uint64_t other = tx.read(words[1 - t]);
    tx.write(words[(t + i) % 2], mine + other + 1);
  };
  EXPECT_NE(first_flagged_seed(htm::SoftHtm::Defect::kExtendWithoutValidation, body), 0u)
      << "a TM that extends without revalidating survived 100 property seeds";
  EXPECT_EQ(first_flagged_seed(htm::SoftHtm::Defect::kNone, body), 0u);
}

// ------------------------------------------- scheduler statistics oracle --

bool stats_equal(const core::GlobalStats& a, const core::GlobalStats& b) {
  return a.n_types == b.n_types && a.aborts == b.aborts &&
         a.commits == b.commits && a.executions == b.executions;
}

// Alg. 3 as a plain count model: what each record adds to the merged
// statistics, given the types announced in the other slots at that moment.
void model_record(core::GlobalStats& model, const std::vector<core::TxTypeId>& active,
                  core::ThreadId self, core::TxTypeId tx, bool commit) {
  ++model.executions[static_cast<std::size_t>(tx)];
  std::vector<std::uint64_t>& matrix = commit ? model.commits : model.aborts;
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (i == self || active[i] == core::kNoTx) continue;
    ++matrix[model.idx(tx, active[i])];
  }
}

// Drives a seeded random event stream through a real SeerScheduler and
// checks every rebuild against a test-local count model: the merge equals
// the model cell for cell, and the published scheme is exactly Alg. 5 over
// the model with the thresholds the rebuild used. Hill climbing stays on, so
// those thresholds move between rebuilds.
TEST(PropertyHarness, ShardedFoldMatchesMonolithicMergeAtRebuildBoundaries) {
  const std::uint64_t master = env_u64("SEER_PROPERTY_SEED", 0);
  const std::uint64_t iters = master != 0 ? 1 : env_u64("SEER_PROPERTY_ITERS", 25);
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = master != 0 ? master : 0x5A4D000u + i;
    util::Xoshiro256 rng(seed);
    const std::size_t n_types = 1 + rng.below(6);
    const std::size_t n_threads = 1 + rng.below(64);
    core::SeerConfig cfg;
    cfg.seed = seed;
    core::SeerScheduler sched(cfg, n_threads, n_types);
    core::GlobalStats model(n_types);
    std::vector<core::TxTypeId> active(n_threads, core::kNoTx);
    std::uint64_t now = 0;

    for (int round = 0; round < 8; ++round) {
      // A burst of records with a random subset of threads concurrently
      // active (the scan path reads the whole table).
      const std::size_t burst = 50 + rng.below(200);
      for (std::size_t e = 0; e < burst; ++e) {
        const auto t = static_cast<core::ThreadId>(rng.below(n_threads));
        const auto ty = static_cast<core::TxTypeId>(rng.below(n_types));
        sched.announce(t, ty);
        active[t] = ty;
        const bool commit = !rng.bernoulli(0.4);
        if (commit) {
          sched.record_commit(t, ty);
        } else {
          sched.record_abort(t, ty);
        }
        model_record(model, active, t, ty, commit);
        if (rng.bernoulli(0.5)) {
          sched.clear(t);
          active[t] = core::kNoTx;
        }
      }
      now += 1 + rng.below(10000);
      sched.force_update(now);
      ASSERT_TRUE(stats_equal(sched.merged_stats(), model))
          << "merge diverged from the count model at seed " << seed << " round "
          << round << " (" << n_threads << " threads, " << n_types
          << " types)\n"
          << "  replay: SEER_PROPERTY_SEED=" << seed
          << " ./build/tests/property_test "
             "--gtest_filter='*ShardedFoldMatchesMonolithic*'";
      ASSERT_EQ(sched.scheme()->to_rows(),
                core::build_lock_scheme(model, sched.params())->to_rows())
          << "published scheme is not Alg. 5 over the model at seed " << seed
          << " round " << round;
    }
  }
}

// Concurrency contract (runs under the tsan preset via the SANITIZE label):
// 8 owners record through the scheduler while a maintenance thread keeps
// rebuilding, so every rebuild's merge scans slabs their owners are still
// writing (the ThreadStats::merge_into contract). The owners record against
// a fixed set of announced background slots and never announce themselves,
// so each can tally exactly what its own records add; after the join the
// merge must equal the sum of those tallies.
TEST(PropertyHarness, ConcurrentShardFoldsStayCoherentUnderTsan) {
  constexpr std::size_t kTypes = 4;
  constexpr std::size_t kWriters = 8;
  const std::vector<core::TxTypeId> background{1, 3, 3};
  const std::size_t n_threads = kWriters + background.size();
  core::SeerScheduler sched(core::SeerConfig{}, n_threads, kTypes);
  std::vector<core::TxTypeId> active(n_threads, core::kNoTx);
  for (std::size_t b = 0; b < background.size(); ++b) {
    sched.announce(static_cast<core::ThreadId>(kWriters + b), background[b]);
    active[kWriters + b] = background[b];
  }

  std::vector<core::GlobalStats> tallies(kWriters, core::GlobalStats(kTypes));
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      const auto self = static_cast<core::ThreadId>(t);
      util::Xoshiro256 rng(0xC0FFEE + t);
      for (int e = 0; e < 20000; ++e) {
        const auto ty = static_cast<core::TxTypeId>(rng.below(kTypes));
        const bool commit = !rng.bernoulli(0.3);
        if (commit) {
          sched.record_commit(self, ty);
        } else {
          sched.record_abort(self, ty);
        }
        model_record(tallies[t], active, self, ty, commit);
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  // The maintenance thread rebuilds until every owner is done, exactly the
  // production interleaving of thread 0's maintenance against recording.
  std::thread maintainer([&] {
    std::uint64_t now = 0;
    do {
      sched.force_update(now += 100);
    } while (done.load(std::memory_order_acquire) < kWriters);
  });
  for (auto& w : writers) w.join();
  maintainer.join();

  core::GlobalStats expected(kTypes);
  for (const core::GlobalStats& tally : tallies) {
    for (std::size_t c = 0; c < expected.aborts.size(); ++c) {
      expected.aborts[c] += tally.aborts[c];
      expected.commits[c] += tally.commits[c];
    }
    for (std::size_t x = 0; x < kTypes; ++x) {
      expected.executions[x] += tally.executions[x];
    }
  }
  EXPECT_TRUE(stats_equal(sched.merged_stats(), expected))
      << "the merge lost or double-counted a concurrent record";
  // One quiescent rebuild: its reused merge buffer must hold the same sum.
  sched.force_update(std::uint64_t{1} << 40);
  EXPECT_EQ(sched.scheme()->to_rows(),
            core::build_lock_scheme(expected, sched.params())->to_rows());
}

}  // namespace
}  // namespace seer::check
