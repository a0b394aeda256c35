// Per-thread commit/abort statistics (Table 2: commitStats, abortStats,
// executions; Alg. 3 REGISTER-ABORT / REGISTER-COMMIT).
//
// Each thread owns a private slab of counters; on every commit or abort it
// scans the active-transactions table and bumps, for its own transaction
// type x and every concurrently announced type y, the (x, y) cell of the
// commit or abort matrix. Slabs are written only by their owner and read by
// the one thread that periodically merges them (Alg. 5 prologue) — relaxed
// atomics make that single-writer pattern well-defined without imposing any
// ordering cost on the hot path.
//
// Layout: the two matrices, the execution vector and the bookkeeping
// counters live in ONE contiguous cache-line-aligned allocation per thread
// (2·n² + n + 2 counters, padded to whole lines). One slab, one stream of
// lines per recording thread — no per-vector headers interleaved with other
// threads' data, no false sharing between slabs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/active_tx_table.hpp"
#include "core/types.hpp"
#include "util/cacheline.hpp"

namespace seer::core {

// Merged, plain-integer view used by the inference step.
struct GlobalStats {
  std::size_t n_types = 0;
  std::vector<std::uint64_t> aborts;      // n_types * n_types, row-major
  std::vector<std::uint64_t> commits;     // n_types * n_types, row-major
  std::vector<std::uint64_t> executions;  // n_types

  explicit GlobalStats(std::size_t types = 0)
      : n_types(types),
        aborts(types * types, 0),
        commits(types * types, 0),
        executions(types, 0) {}

  // Zeroes every counter without touching capacity (allocation-free reuse).
  void reset() noexcept {
    std::fill(aborts.begin(), aborts.end(), 0);
    std::fill(commits.begin(), commits.end(), 0);
    std::fill(executions.begin(), executions.end(), 0);
  }

  [[nodiscard]] std::uint64_t abort(TxTypeId x, TxTypeId y) const noexcept {
    return aborts[idx(x, y)];
  }
  [[nodiscard]] std::uint64_t commit(TxTypeId x, TxTypeId y) const noexcept {
    return commits[idx(x, y)];
  }
  [[nodiscard]] std::uint64_t execs(TxTypeId x) const noexcept {
    return executions[static_cast<std::size_t>(x)];
  }
  [[nodiscard]] std::size_t idx(TxTypeId x, TxTypeId y) const noexcept {
    return static_cast<std::size_t>(x) * n_types + static_cast<std::size_t>(y);
  }
  [[nodiscard]] std::uint64_t total_executions() const noexcept {
    std::uint64_t t = 0;
    for (auto e : executions) t += e;
    return t;
  }
};

class ThreadStats {
 public:
  explicit ThreadStats(std::size_t n_types)
      : n_types_(n_types),
        cells_(n_types * n_types),
        slab_(util::make_cache_aligned_slab<Counter>(2 * cells_ + n_types + 2)) {}

  // Alg. 3 lines 33-37. `self` is the slot of the recording thread, which is
  // skipped when scanning (a transaction is not concurrent with itself).
  void record_abort(TxTypeId tx, ThreadId self, const ActiveTxTable& active) noexcept {
    bump(slab_[kRawEvents + 2 * cells_ + n_types_]);
    bump(slab_[2 * cells_ + static_cast<std::size_t>(tx)]);
    scan(tx, self, active, /*matrix=*/&slab_[0]);
  }

  // Alg. 3 lines 38-42.
  void record_commit(TxTypeId tx, ThreadId self, const ActiveTxTable& active) noexcept {
    bump(slab_[kRawEvents + 2 * cells_ + n_types_]);
    bump(slab_[kRawCommits + 2 * cells_ + n_types_]);
    bump(slab_[2 * cells_ + static_cast<std::size_t>(tx)]);
    scan(tx, self, active, /*matrix=*/&slab_[cells_]);
  }

  // Adds this slab into `out` (Alg. 5: periodic merge across per-core
  // matrices). Safe to run concurrently with the owner thread recording.
  void merge_into(GlobalStats& out) const noexcept {
    assert(out.n_types == n_types_);
    for (std::size_t i = 0; i < cells_; ++i) {
      out.aborts[i] += slab_[i].load(std::memory_order_relaxed);
      out.commits[i] += slab_[cells_ + i].load(std::memory_order_relaxed);
    }
    for (std::size_t t = 0; t < n_types_; ++t) {
      out.executions[t] += slab_[2 * cells_ + t].load(std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::size_t n_types() const noexcept { return n_types_; }

  // Every recorded event / every recorded commit, whatever its type.
  // Single-writer counters like the rest of the slab; used for the rebuild
  // cadence and the hill climber's throughput signal.
  [[nodiscard]] std::uint64_t raw_events() const noexcept {
    return slab_[kRawEvents + 2 * cells_ + n_types_].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t raw_commits() const noexcept {
    return slab_[kRawCommits + 2 * cells_ + n_types_].load(std::memory_order_relaxed);
  }

  // Test hooks.
  [[nodiscard]] std::uint64_t abort_cell(TxTypeId x, TxTypeId y) const noexcept {
    return slab_[cell_idx(x, y)].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t commit_cell(TxTypeId x, TxTypeId y) const noexcept {
    return slab_[cells_ + cell_idx(x, y)].load(std::memory_order_relaxed);
  }

 private:
  using Counter = std::atomic<std::uint64_t>;

  // Offsets of the bookkeeping counters relative to 2·cells_ + n_types_.
  static constexpr std::size_t kRawEvents = 0;
  static constexpr std::size_t kRawCommits = 1;

  static void bump(Counter& c) noexcept {
    // Single-writer counter: a plain load+store beats a locked RMW.
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  void scan(TxTypeId tx, ThreadId self, const ActiveTxTable& active,
            Counter* matrix) noexcept {
    Counter* row = matrix + static_cast<std::size_t>(tx) * n_types_;
    for (ThreadId i = 0; i < active.size(); ++i) {
      if (i == self) continue;
      const TxTypeId other = active.peek(i);
      if (other == kNoTx) continue;
      bump(row[static_cast<std::size_t>(other)]);
    }
  }

  [[nodiscard]] std::size_t cell_idx(TxTypeId x, TxTypeId y) const noexcept {
    return static_cast<std::size_t>(x) * n_types_ + static_cast<std::size_t>(y);
  }

  std::size_t n_types_;
  std::size_t cells_;  // n_types_^2, size of each matrix
  // [0, cells_): aborts   [cells_, 2·cells_): commits
  // [2·cells_, +n_types_): executions   then raw events, raw commits.
  util::CacheAlignedSlab<Counter> slab_;
};

}  // namespace seer::core
