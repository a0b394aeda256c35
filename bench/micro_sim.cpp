// Microbenchmarks of the machine simulator: raw event throughput, the
// whole-machine simulation rate (transactions per second), and the
// per-instance hot path — footprint sampling and the pairwise conflict test,
// reference and indexed.
#include <benchmark/benchmark.h>

#include <vector>

#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "workload/registry.hpp"

namespace {

using namespace seer;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  util::Xoshiro256 rng(3);
  // Keep a standing population, push one / pop one per iteration.
  for (int i = 0; i < 256; ++i) {
    sim::Event e;
    e.time = rng.below(100000);
    q.push(e);
  }
  for (auto _ : state) {
    sim::Event e;
    e.time = q.top().time + rng.below(1000);
    q.push(e);
    benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop);

// RTM, so the rate moves with the simulator's host cost and not with a
// scheduling rule: Seer's lock waits change how many events a run pops.
void BM_MachineRun(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const workload::Desc intruder = workload::find("intruder");
  std::uint64_t total_commits = 0;
  for (auto _ : state) {
    sim::MachineConfig cfg;
    cfg.n_threads = threads;
    cfg.txs_per_thread = 500;
    cfg.policy.kind = rt::PolicyKind::kRtm;
    cfg.seed = 7;
    const auto stats = sim::run_machine(cfg, intruder.make(threads));
    total_commits += stats.commits;
    benchmark::DoNotOptimize(stats.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_commits));
  state.SetLabel("items = simulated transactions");
}
BENCHMARK(BM_MachineRun)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// One instance per iteration. genome's cost is its Zipf draws (a guide
// bucket and a 0–1 entry scan each), yada's the canonicalisation of its
// long line vectors, vacation-high a mix of both.
void BM_WorkloadSampling(benchmark::State& state, const char* name) {
  const auto wl = workload::find(name).make(8);
  util::Xoshiro256 rng(3);
  sim::TxInstance inst;
  for (auto _ : state) {
    wl->next(0, 0.5, rng, inst);
    benchmark::DoNotOptimize(inst.footprint_lines());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_WorkloadSampling, genome, "genome");
BENCHMARK_CAPTURE(BM_WorkloadSampling, vacation_high, "vacation-high");
BENCHMARK_CAPTURE(BM_WorkloadSampling, yada, "yada");

// Sampled yada pairs, yada's being the costliest pairs the machine tests,
// with the footprint indexes Machine::begin() builds once per instance. The
// pair tests cycle through the pool, so the branch predictor cannot learn
// one pair's probe sequence as it does when a single pair repeats.
struct YadaPairs {
  static constexpr std::size_t kPairs = 256;
  std::vector<sim::TxInstance> inst = std::vector<sim::TxInstance>(2 * kPairs);
  std::vector<sim::FootprintIndex> index = std::vector<sim::FootprintIndex>(2 * kPairs);

  YadaPairs() {
    const auto wl = workload::find("yada").make(8);
    util::Xoshiro256 rng(3);
    for (std::size_t i = 0; i < inst.size(); ++i) {
      wl->next(static_cast<core::ThreadId>(i % 8), 0.5, rng, inst[i]);
      index[i].build(inst[i]);
    }
  }
};

// The reference: sorted merges over both full footprints.
void BM_ConflictCheck(benchmark::State& state) {
  const YadaPairs p;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::instances_conflict(p.inst[i], p.inst[i + 1]));
    i = (i + 2) % (2 * YadaPairs::kPairs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConflictCheck);

// The machine's test: each side's writes probed in the other's filter.
void BM_ConflictCheckIndexed(benchmark::State& state) {
  const YadaPairs p;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t j = i + 1;
    benchmark::DoNotOptimize(
        sim::FootprintIndex::conflict(p.inst[i], p.index[i], p.inst[j], p.index[j]));
    i = (i + 2) % (2 * YadaPairs::kPairs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConflictCheckIndexed);

}  // namespace

BENCHMARK_MAIN();
