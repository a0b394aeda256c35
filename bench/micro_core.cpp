// Microbenchmarks of the Seer scheduler core's hot paths (google-benchmark).
//
// These quantify the per-event costs the paper's Figure 4 argues are small:
// announcing to the active table, scanning it on commit/abort (Alg. 3), the
// probability computations, a full scheme rebuild (Alg. 5), and the whole
// per-transaction driver loop around an empty body.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/active_tx_table.hpp"
#include "core/conflict_stats.hpp"
#include "core/hill_climber.hpp"
#include "core/lock_scheme.hpp"
#include "core/seer_scheduler.hpp"
#include "htm/soft_htm.hpp"
#include "runtime/threaded_executor.hpp"
#include "util/gaussian.hpp"
#include "util/rng.hpp"

namespace {

using namespace seer;

void BM_ActiveTableAnnounce(benchmark::State& state) {
  core::ActiveTxTable table(8);
  core::TxTypeId t = 0;
  for (auto _ : state) {
    table.announce(3, t);
    t = (t + 1) % 8;
    benchmark::DoNotOptimize(table.peek(3));
  }
}
BENCHMARK(BM_ActiveTableAnnounce);

void BM_RecordAbortScan(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  core::ActiveTxTable table(n_threads);
  for (core::ThreadId i = 0; i < n_threads; ++i) {
    table.announce(i, static_cast<core::TxTypeId>(i % 4));
  }
  core::ThreadStats stats(8);
  for (auto _ : state) {
    stats.record_abort(2, 0, table);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordAbortScan)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// The stats hot path end-to-end, under genuine multi-thread recording: N
// threads each own one flattened slab (exactly the SeerScheduler layout) and
// record against one shared active table. Quantifies that the contiguous
// slab keeps per-event cost flat as recording threads are added — no false
// sharing, no shared counters.
void BM_StatsRecordHotPath(benchmark::State& state) {
  constexpr std::size_t kSlots = 8;
  static core::ActiveTxTable* table = nullptr;
  static std::vector<std::unique_ptr<core::ThreadStats>>* slabs = nullptr;
  if (state.thread_index() == 0) {
    table = new core::ActiveTxTable(kSlots);
    for (core::ThreadId i = 0; i < kSlots; ++i) {
      table->announce(i, static_cast<core::TxTypeId>(i % 4));
    }
    slabs = new std::vector<std::unique_ptr<core::ThreadStats>>();
    for (std::size_t t = 0; t < kSlots; ++t) {
      slabs->push_back(std::make_unique<core::ThreadStats>(8));
    }
  }
  // google-benchmark's loop-entry barrier orders the setup above before any
  // thread starts iterating (and the loop-exit barrier before the teardown).
  const auto self =
      static_cast<core::ThreadId>(state.thread_index() % static_cast<int>(kSlots));
  core::ThreadStats& mine = *(*slabs)[self];
  std::uint64_t i = 0;
  for (auto _ : state) {
    // 1 abort per 3 commits, roughly the shape of a contended run.
    if ((++i & 3) == 0) {
      mine.record_abort(2, self, *table);
    } else {
      mine.record_commit(static_cast<core::TxTypeId>(i & 3), self, *table);
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete slabs;
    slabs = nullptr;
    delete table;
    table = nullptr;
  }
}
BENCHMARK(BM_StatsRecordHotPath)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

void BM_MergeStats(benchmark::State& state) {
  const auto n_types = static_cast<std::size_t>(state.range(0));
  core::ThreadStats stats(n_types);
  for (auto _ : state) {
    core::GlobalStats g(n_types);
    stats.merge_into(g);
    benchmark::DoNotOptimize(g.total_executions());
  }
}
BENCHMARK(BM_MergeStats)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_BuildLockScheme(benchmark::State& state) {
  const auto n_types = static_cast<std::size_t>(state.range(0));
  core::GlobalStats g(n_types);
  util::Xoshiro256 rng(5);
  for (auto& a : g.aborts) a = rng.below(1000);
  for (auto& c : g.commits) c = rng.below(1000);
  for (auto& e : g.executions) e = 4000 + rng.below(1000);
  const core::InferenceParams params{.th1 = 0.2, .th2 = 0.7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_lock_scheme(g, params));
  }
}
BENCHMARK(BM_BuildLockScheme)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_GaussianPercentile(benchmark::State& state) {
  double p = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::gaussian_percentile(0.4, 0.05, p));
    p += 0.001;
    if (p >= 0.999) p = 0.01;
  }
}
BENCHMARK(BM_GaussianPercentile);

void BM_HillClimberFeed(benchmark::State& state) {
  core::HillClimber hc;
  double score = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hc.feed(score));
    score = score < 10.0 ? score + 0.01 : 0.1;
  }
}
BENCHMARK(BM_HillClimberFeed);

void BM_SchedulerRecordCommit(benchmark::State& state) {
  core::SeerScheduler sched(core::SeerConfig{}, 8, 8);
  for (core::ThreadId i = 1; i < 8; ++i) {
    sched.announce(i, static_cast<core::TxTypeId>(i % 4));
  }
  for (auto _ : state) {
    sched.record_commit(0, 2);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerRecordCommit);

// Rebuild cost across machine widths: one full scheme rebuild with every
// per-thread slab carrying evidence. Each rebuild re-sums every slab (the
// Alg. 5 prologue), so the cost is linear in thread count; the name keeps
// the `foldall` records of bench/baseline_htm.json comparable.
void BM_SchedulerRebuild(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  core::SeerScheduler sched(core::SeerConfig{}, n_threads, 8);
  // Conflict-rich evidence in every slab so the merge and the inference both
  // do real work: each thread records against a fully announced table.
  for (core::ThreadId t = 0; t < n_threads; ++t) {
    sched.announce(t, static_cast<core::TxTypeId>(t % 8));
  }
  for (core::ThreadId t = 0; t < n_threads; ++t) {
    for (int i = 0; i < 32; ++i) {
      sched.record_abort(t, static_cast<core::TxTypeId>(i % 8));
      sched.record_commit(t, static_cast<core::TxTypeId>((i + t) % 8));
    }
  }
  std::uint64_t now = 0;
  for (auto _ : state) {
    sched.force_update(now += 1000);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerRebuild)
    ->Name("BM_SchedulerRebuild/foldall")
    ->Arg(8)->Arg(32)->Arg(64)->Arg(128);

// The real-thread driver's cost outside the transaction body (ROADMAP
// 8(b)): ThreadHandle::run around an empty body on one thread — policy
// hooks, directives, lock waits, clock reads, the SGL subscription and a
// read-only SoftHtm commit. Seer adds the announce/clear, the Alg. 3 scan
// and thread 0's maintenance poll to RTM's retry loop.
void BM_RunEmptyBody(benchmark::State& state, rt::PolicyKind kind) {
  htm::SoftHtm tm;
  rt::PolicyConfig policy;
  policy.kind = kind;
  rt::ThreadedExecutor::Options opts;
  opts.n_threads = 1;
  opts.n_types = 1;
  opts.physical_cores = 1;
  rt::ThreadedExecutor exec(tm, policy, opts);
  const std::unique_ptr<rt::ThreadedExecutor::ThreadHandle> handle = exec.make_handle(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(handle->run(0, [](auto&) {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_RunEmptyBody, RTM, rt::PolicyKind::kRtm);
BENCHMARK_CAPTURE(BM_RunEmptyBody, Seer, rt::PolicyKind::kSeer);

}  // namespace

BENCHMARK_MAIN();
