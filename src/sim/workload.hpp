// The workload interface the machine simulator executes.
//
// A workload hands the simulator, per transaction instance, the transaction
// type (static atomic block), its serial duration in cycles, and the cache
// lines it reads and writes. Footprints are sampled ONCE per instance and
// reused across retries — a restarted transaction re-executes on the same
// inputs, which is precisely why per-type conflict structure is learnable
// (and why Seer's inference works on the real benchmarks).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "util/rng.hpp"

namespace seer::sim {

struct TxInstance {
  core::TxTypeId type = 0;
  std::uint64_t duration = 0;        // cycles of useful serial work
  std::vector<std::uint32_t> reads;  // global cache-line ids, sorted, unique
  std::vector<std::uint32_t> writes; // ditto; may overlap reads

  [[nodiscard]] std::size_t footprint_lines() const noexcept;
};

// The generator contract (DESIGN.md §11). Both executors — the machine
// simulator and the real-threads driver — speak exactly this protocol, per
// thread:
//
//   init(t)                        once, before the thread's first instance;
//   loop:
//     think_time(t, rng)           inter-transaction gap (cycles);
//     exhausted(t)?                end-of-stream — the thread retires;
//     next(t, progress, rng, out)  sample the next transaction instance.
//
// Implementations must be usable from multiple threads concurrently as long
// as each ThreadId is driven by one caller at a time (the per-thread lanes
// of stateful generators — trace cursors, phase trackers — are single-
// writer). `workload::Generator` (src/workload/generator.hpp) is the same
// type; the registry and JSON config front-end trade in that alias.
class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual std::size_t n_types() const = 0;
  [[nodiscard]] virtual const std::string& type_name(core::TxTypeId t) const = 0;

  // Called once per thread before its first think_time/next call. Stateful
  // generators reset their per-thread lanes here so one instance can drive
  // several runs.
  virtual void init(core::ThreadId thread) { (void)thread; }

  // End-of-stream signal: true once `thread` has no further instances (a
  // replayed trace ran out, a finite script completed). Unbounded
  // generators — every STAMP spec — never exhaust; the executor's
  // txs_per_thread cap bounds those runs instead.
  [[nodiscard]] virtual bool exhausted(core::ThreadId thread) const {
    (void)thread;
    return false;
  }

  // Samples the next transaction instance for `thread`. `progress` is the
  // thread's completed fraction of its run in [0, 1] (drives phase mixes).
  // Must not be called for an exhausted thread.
  virtual void next(core::ThreadId thread, double progress, util::Xoshiro256& rng,
                    TxInstance& out) = 0;

  // Think time (cycles) between transactions.
  [[nodiscard]] virtual std::uint64_t think_time(core::ThreadId thread,
                                                 util::Xoshiro256& rng) = 0;
};

// True when `a.writes` intersects `b.reads ∪ b.writes` — a's speculative
// writes invalidate b. Inputs must be sorted.
[[nodiscard]] bool write_conflicts(const TxInstance& a, const TxInstance& b) noexcept;

// Symmetric transactional conflict: either side's writes intersect the
// other's footprint. The reference for FootprintIndex::conflict.
[[nodiscard]] inline bool instances_conflict(const TxInstance& a,
                                             const TxInstance& b) noexcept {
  return write_conflicts(a, b) || write_conflicts(b, a);
}

// One instance's footprint, indexed for the machine's pairwise conflict
// test: the sorted union of its reads and writes, and a one-hash bit filter
// over that union. The machine builds one per instance and reuses it across
// retries, so a pair test probes each side's writes in the other's filter —
// O(|w_a| + |w_b|) bit tests — instead of merging both full footprints four
// times. Every union line has its bit set, and a set bit is confirmed by a
// binary search of the union, so the answer is exact; at 32 or more filter
// bits per line, few probes that miss the footprint reach the search.
class FootprintIndex {
 public:
  // Indexes `inst`, reusing the storage of the previous build.
  void build(const TxInstance& inst);

  // |reads ∪ writes| of the indexed instance: its footprint_lines().
  [[nodiscard]] std::size_t lines() const noexcept { return union_.size(); }

  [[nodiscard]] bool contains(std::uint32_t line) const noexcept {
    const std::uint64_t bit = bit_of(line);
    if (((filter_[bit >> 6] >> (bit & 63)) & 1) == 0) return false;
    return std::binary_search(union_.begin(), union_.end(), line);
  }

  // True when some line of `lines` is in this footprint.
  [[nodiscard]] bool intersects(const std::vector<std::uint32_t>& lines) const noexcept {
    for (const std::uint32_t l : lines) {
      if (contains(l)) return true;
    }
    return false;
  }

  // instances_conflict(a, b), where `ia` indexes `a` and `ib` indexes `b`.
  [[nodiscard]] static bool conflict(const TxInstance& a, const FootprintIndex& ia,
                                     const TxInstance& b,
                                     const FootprintIndex& ib) noexcept {
    return ib.intersects(a.writes) || ia.intersects(b.writes);
  }

 private:
  // Filter bits per union line, at least; the filter is a power of two.
  static constexpr std::size_t kBitsPerLine = 32;

  [[nodiscard]] std::uint64_t bit_of(std::uint32_t line) const noexcept {
    // Fibonacci hashing: the top bits of the product spread clustered ids.
    return (line * 0x9E3779B97F4A7C15ull) >> shift_;
  }

  std::vector<std::uint32_t> union_;  // reads ∪ writes, sorted unique
  // Starts as one clear 64-bit word: the empty footprint.
  std::vector<std::uint64_t> filter_ = std::vector<std::uint64_t>(1, 0);
  unsigned shift_ = 58;  // 64 - log2(filter bits)
};

}  // namespace seer::sim
