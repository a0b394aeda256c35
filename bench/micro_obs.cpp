// Microbenchmarks of the observability layer (google-benchmark).
//
// The contract being quantified (DESIGN.md §8): an attached MetricsRegistry
// may add at most a couple of relaxed single-writer counter bumps to the
// Alg. 3 stats hot path — under 2% of the path's cost — and a TraceSink
// emit stays a handful of stores. The paired *_detached / *_metrics
// benchmarks below are the observable form of that budget; the obs_test
// suite asserts the primitive costs, this file measures them.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>

#include "core/seer_scheduler.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace seer;

// Raw primitive: one counter bump.
void BM_MetricsAdd(benchmark::State& state) {
  obs::MetricsRegistry reg(1);
  const obs::MetricId c = reg.counter("bench.counter");
  reg.freeze();
  for (auto _ : state) {
    reg.add(c, 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsAdd);

// Raw primitive: one histogram observation (bucket + count + sum bumps).
void BM_MetricsObserve(benchmark::State& state) {
  obs::MetricsRegistry reg(1);
  const obs::MetricId h = reg.histogram("bench.histogram");
  reg.freeze();
  std::uint64_t v = 0;
  for (auto _ : state) {
    reg.observe(h, 0, v++ & 1023);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsObserve);

// Raw primitive: one ring-buffer trace event.
void BM_TraceEmit(benchmark::State& state) {
  obs::TraceSink sink(1, 1u << 12);
  std::uint64_t ts = 0;
  for (auto _ : state) {
    sink.emit(0, obs::TraceKind::kTxCommit, ts++, 3);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmit);

// The claim that matters: SeerScheduler's record_commit (announce-table scan
// + per-thread stats slab, the path that runs once per transaction) with and
// without an attached registry. CI's overhead gate replays this pair and
// fails if the attached variant exceeds the detached one by more than the
// DESIGN.md §8 budget.
void BM_SchedulerRecordCommit_Detached(benchmark::State& state) {
  core::SeerScheduler sched(core::SeerConfig{}, 8, 8);
  for (core::ThreadId i = 1; i < 8; ++i) {
    sched.announce(i, static_cast<core::TxTypeId>(i % 4));
  }
  for (auto _ : state) {
    sched.record_commit(0, 2);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerRecordCommit_Detached);

void BM_SchedulerRecordCommit_Metrics(benchmark::State& state) {
  obs::MetricsRegistry reg(8);
  core::SeerScheduler sched(core::SeerConfig{}, 8, 8, {.metrics = &reg});
  reg.freeze();
  for (core::ThreadId i = 1; i < 8; ++i) {
    sched.announce(i, static_cast<core::TxTypeId>(i % 4));
  }
  for (auto _ : state) {
    sched.record_commit(0, 2);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerRecordCommit_Metrics);

// Flight recorder contract (DESIGN.md §9): attaching one must not change the
// per-transaction path at all — the recorder is fed only at rebuilds. This
// variant should measure the same as _Detached; any gap means recorder
// state leaked onto the commit path.
void BM_SchedulerRecordCommit_Recorder(benchmark::State& state) {
  obs::FlightRecorder rec;
  core::SeerScheduler sched(core::SeerConfig{}, 8, 8, {.recorder = &rec});
  for (core::ThreadId i = 1; i < 8; ++i) {
    sched.announce(i, static_cast<core::TxTypeId>(i % 4));
  }
  for (auto _ : state) {
    sched.record_commit(0, 2);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerRecordCommit_Recorder);

// The capture itself: merging 8 threads' stats slabs, copying the scheme,
// and reading the climber — the cost paid once per *retained* rebuild, off
// the transaction path entirely. Populates the slabs first so the merge
// walks real (non-zero) matrices.
void BM_ModelSnapshot(benchmark::State& state) {
  obs::FlightRecorder rec;
  core::SeerScheduler sched(core::SeerConfig{}, 8, 8, {.recorder = &rec});
  for (core::ThreadId t = 0; t < 8; ++t) {
    sched.announce(t, static_cast<core::TxTypeId>(t % 4));
    for (int i = 0; i < 64; ++i) {
      sched.record_abort(t, static_cast<core::TxTypeId>(i % 8));
      sched.record_commit(t, static_cast<core::TxTypeId>(i % 8));
    }
  }
  std::uint64_t now = 0;
  for (auto _ : state) {
    obs::ModelSnapshot snap = sched.make_model_snapshot(now++);
    benchmark::DoNotOptimize(snap.commits);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelSnapshot);

// Snapshot serialization (end-of-run / dump path only).
void BM_SnapshotToJson(benchmark::State& state) {
  core::SeerScheduler sched(core::SeerConfig{}, 8, 8);
  for (core::ThreadId t = 0; t < 8; ++t) {
    for (int i = 0; i < 64; ++i) {
      sched.record_abort(t, static_cast<core::TxTypeId>(i % 8));
      sched.record_commit(t, static_cast<core::TxTypeId>(i % 8));
    }
  }
  const obs::ModelSnapshot snap = sched.make_model_snapshot(1);
  std::string out;
  for (auto _ : state) {
    out.clear();
    snap.append_json(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotToJson);

}  // namespace

BENCHMARK_MAIN();
