// Microbenchmarks of the SoftHtm software transactional backend.
//
// The multi-threaded variants (read-heavy, write-heavy, large-write-set,
// read-own-writes at 1/2/4/8 threads) isolate the per-access bookkeeping
// cost of the speculative hot path: every thread runs its own ThreadContext
// over its own disjoint words, so conflicts are (hash collisions aside)
// absent and ops/sec measures the TM's own overhead, not contention.
// EXPERIMENTS.md records the before/after numbers for the O(1) access-path
// rewrite; CI's bench-smoke job uploads this binary's JSON output.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "htm/soft_htm.hpp"

namespace {

using namespace seer;

void BM_ReadOnlyTx(benchmark::State& state) {
  const auto n_reads = static_cast<std::size_t>(state.range(0));
  htm::SoftHtm tm;
  htm::SoftHtm::ThreadContext ctx(tm);
  std::vector<htm::TmWord> words(n_reads);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    const auto s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
      for (auto& w : words) acc += tx.read(w);
    });
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReadOnlyTx)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_WriteTx(benchmark::State& state) {
  const auto n_writes = static_cast<std::size_t>(state.range(0));
  htm::SoftHtm tm;
  htm::SoftHtm::ThreadContext ctx(tm);
  std::vector<htm::TmWord> words(n_writes);
  std::uint64_t v = 0;
  for (auto _ : state) {
    const auto s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
      for (auto& w : words) tx.write(w, ++v);
    });
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WriteTx)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_ReadModifyWriteTx(benchmark::State& state) {
  htm::SoftHtm tm;
  htm::SoftHtm::ThreadContext ctx(tm);
  htm::TmWord counter{0};
  for (auto _ : state) {
    const auto s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
      tx.write(counter, tx.read(counter) + 1);
    });
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadModifyWriteTx);

void BM_AbortRollback(benchmark::State& state) {
  htm::SoftHtm tm;
  htm::SoftHtm::ThreadContext ctx(tm);
  std::vector<htm::TmWord> words(8);
  for (auto _ : state) {
    const auto s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
      for (auto& w : words) tx.write(w, 1);
      tx.abort(0x01);
    });
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AbortRollback);

// The two ways a conflict ends an attempt, priced side by side. Context B
// commits into context A's read set inside A's body (one thread, so every
// iteration conflicts), then A writes one word. When A read the word
// before B's commit, A's commit-time validation fails and commit() returns
// the abort; when A reads it after, the read aborts in the body and the
// attempt unwinds. Each iteration also pays B's one-word commit.
template <bool kReadFirst>
void conflict_abort(benchmark::State& state) {
  htm::SoftHtm tm;
  htm::SoftHtm::ThreadContext a(tm);
  htm::SoftHtm::ThreadContext b(tm);
  htm::TmWord read{0};
  htm::TmWord written{0};
  std::uint64_t v = 0;
  auto aggressor = [&](htm::SoftHtm::Tx& tx) { tx.write(read, ++v); };
  for (auto _ : state) {
    const auto s = a.attempt([&](htm::SoftHtm::Tx& tx) {
      if constexpr (kReadFirst) (void)tx.read(read);
      (void)b.attempt(aggressor);
      if constexpr (!kReadFirst) (void)tx.read(read);
      tx.write(written, 1);
    });
    if (s.raw() == htm::kXBeginStarted) {
      state.SkipWithError("the attempt committed; expected a conflict abort");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CommitConflictAbort(benchmark::State& state) { conflict_abort<true>(state); }
BENCHMARK(BM_CommitConflictAbort);

void BM_BodyConflictAbort(benchmark::State& state) { conflict_abort<false>(state); }
BENCHMARK(BM_BodyConflictAbort);

// ------------------------------------------------- multi-threaded variants --
// One shared SoftHtm (shared clock + stripe table, as in any real embedding),
// per-thread contexts, per-thread disjoint words.

htm::SoftHtm& shared_tm() {
  static htm::SoftHtm tm;
  return tm;
}

// 256 reads of distinct words per transaction; read-only commit.
void BM_MtReadHeavy(benchmark::State& state) {
  constexpr std::size_t kWords = 256;
  htm::SoftHtm& tm = shared_tm();
  htm::SoftHtm::ThreadContext ctx(tm);
  std::vector<htm::TmWord> words(kWords);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    const auto s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
      for (auto& w : words) acc += tx.read(w);
    });
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * kWords);
}
BENCHMARK(BM_MtReadHeavy)->ThreadRange(1, 8)->UseRealTime();

// 64 writes to distinct words per transaction: the write-set dedup path.
void BM_MtWriteHeavy(benchmark::State& state) {
  constexpr std::size_t kWords = 64;
  htm::SoftHtm& tm = shared_tm();
  htm::SoftHtm::ThreadContext ctx(tm);
  std::vector<htm::TmWord> words(kWords);
  std::uint64_t v = 0;
  for (auto _ : state) {
    const auto s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
      for (auto& w : words) tx.write(w, ++v);
    });
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * kWords);
}
BENCHMARK(BM_MtWriteHeavy)->ThreadRange(1, 8)->UseRealTime();

// 256 distinct writes per transaction, near the modelled L1d write capacity.
void BM_MtLargeWriteSet(benchmark::State& state) {
  constexpr std::size_t kWords = 256;
  htm::SoftHtm& tm = shared_tm();
  htm::SoftHtm::ThreadContext ctx(tm);
  std::vector<htm::TmWord> words(kWords);
  std::uint64_t v = 0;
  for (auto _ : state) {
    const auto s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
      for (auto& w : words) tx.write(w, ++v);
    });
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * kWords);
}
BENCHMARK(BM_MtLargeWriteSet)->ThreadRange(1, 8)->UseRealTime();

// Buffer 64 writes, then read each written word 4 times: every read is
// satisfied from the write buffer (the read-own-writes probe).
void BM_MtReadOwnWrites(benchmark::State& state) {
  constexpr std::size_t kWords = 64;
  constexpr std::size_t kRereads = 4;
  htm::SoftHtm& tm = shared_tm();
  htm::SoftHtm::ThreadContext ctx(tm);
  std::vector<htm::TmWord> words(kWords);
  std::uint64_t v = 0;
  for (auto _ : state) {
    std::uint64_t acc = 0;
    const auto s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
      for (auto& w : words) tx.write(w, ++v);
      for (std::size_t r = 0; r < kRereads; ++r) {
        for (auto& w : words) acc += tx.read(w);
      }
    });
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * kWords * kRereads);
}
BENCHMARK(BM_MtReadOwnWrites)->ThreadRange(1, 8)->UseRealTime();

// ------------------------------------------------ tier-boundary variants --
// The adaptive read-tracking boundary (DESIGN.md §10.1): a wide read that
// stays in the Tier-0 log, and the one promotion that remains — a
// capacity-budget promotion every transaction — so a regression in the log
// or in promote_reads is as visible as one in the narrow Tier-0 fast path.

// 1024 distinct reads, the wide scan of perfbench's `scan` workload. They
// fit the default 4096-word log, so they stay in the log: no promotion, no
// index probe, and a read-only commit with nothing to validate.
void BM_MtReadWide(benchmark::State& state) {
  constexpr std::size_t kWords = 1024;
  htm::SoftHtm& tm = shared_tm();
  htm::SoftHtm::ThreadContext ctx(tm);
  std::vector<htm::TmWord> words(kWords);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    const auto s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
      for (auto& w : words) acc += tx.read(w);
    });
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * kWords);
}
BENCHMARK(BM_MtReadWide)->ThreadRange(1, 8)->UseRealTime();

// Reads exactly at the capacity budget, then one re-read: the log hits the
// budget boundary and every transaction promotes (replay + dedup) without
// aborting — the capacity-edge price of staying log-only up to the last
// possible read.
void BM_MtReadPromoteCapacityEdge(benchmark::State& state) {
  constexpr std::size_t kWords = 256;
  static htm::SoftHtm tm{htm::SoftHtm::Config{.max_read_set = kWords}};
  htm::SoftHtm::ThreadContext ctx(tm);
  std::vector<htm::TmWord> words(kWords);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    const auto s = ctx.attempt([&](htm::SoftHtm::Tx& tx) {
      for (auto& w : words) acc += tx.read(w);
      acc += tx.read(words[0]);  // the budget-boundary read that promotes
    });
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * (kWords + 1));
}
BENCHMARK(BM_MtReadPromoteCapacityEdge)->ThreadRange(1, 8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
