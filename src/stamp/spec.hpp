// Declarative workload specifications.
//
// Each STAMP stand-in (DESIGN.md §1) is described as data: shared memory
// regions (hash tables, queues, reservation tables, meshes...), transaction
// types with durations and per-region access counts, and phases with type
// mixes. SpecWorkload turns a spec into the sim::Workload the machine
// executes, sampling concrete cache-line footprints per transaction
// instance.
//
// Why this models the real benchmarks faithfully *for scheduling purposes*:
// conflicts in the simulator arise from genuine set intersection over the
// sampled lines, so the per-type-pair conflict probabilities — the structure
// Seer's inference discovers — emerge from data-structure geometry (how hot
// a region is, how many lines a transaction touches there) exactly as they
// do in the originals.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/workload.hpp"
#include "util/cacheline.hpp"
#include "util/small_vec.hpp"
#include "util/zipf.hpp"

namespace seer::stamp {

struct Region {
  std::string name;
  std::uint32_t lines = 1;  // size in cache lines
  double zipf_skew = 0.0;   // 0 = uniform access; higher = hotter head
  // Per-thread regions model thread-private data (e.g. a kmeans worker's
  // input slice): each thread addresses a disjoint copy, so accesses there
  // never conflict across threads (but still occupy capacity).
  bool per_thread = false;
};

struct RegionAccess {
  std::uint16_t region = 0;  // index into WorkloadSpec::regions
  std::uint16_t reads = 0;   // lines read from the region
  std::uint16_t writes = 0;  // lines written in the region
};

struct TxTypeSpec {
  std::string name;
  std::uint64_t duration_mean = 1000;  // cycles of serial work
  double duration_jitter = 0.3;        // uniform +- fraction of the mean
  util::SmallVec<RegionAccess, 6> accesses;
};

struct Phase {
  double fraction = 1.0;        // share of a thread's run spent here
  std::vector<double> mix;      // relative weight per transaction type
};

struct WorkloadSpec {
  std::string name;
  std::vector<Region> regions;
  std::vector<TxTypeSpec> types;
  std::vector<Phase> phases;        // must cover fractions summing to ~1
  std::uint64_t think_mean = 300;   // exponential inter-transaction gap
};

// Line ids are 32-bit, so a spec may lay out at most 2^32 lines.
inline constexpr std::uint64_t kMaxLineSpace = std::uint64_t{1} << 32;

// Largest Zipf-skewed region: its inverse-CDF table holds one entry per
// line (the same bound `bst` puts on its keys).
inline constexpr std::uint32_t kMaxZipfLines = std::uint32_t{1} << 22;

// Lines the spec lays out at `n_threads` threads: shared regions once,
// per-thread regions once per thread.
[[nodiscard]] std::uint64_t laid_out_lines(const WorkloadSpec& spec,
                                           std::size_t n_threads);

// Sorts `v` ascending and drops duplicates: exactly std::sort followed by
// std::unique. Vectors of at least kRadixMinLines lines go through an LSD
// radix sort that uses `scratch` as its second buffer; shorter ones, where
// the radix passes' fixed cost dominates, through std::sort.
inline constexpr std::size_t kRadixMinLines = 32;
void canonicalize_lines(std::vector<std::uint32_t>& v,
                        std::vector<std::uint32_t>& scratch);

// Turns a spec into an executable workload. One instance per simulated run
// (it is stateless apart from precomputed tables and per-thread scratch
// space, so reuse is also fine).
class SpecWorkload final : public sim::Workload {
 public:
  explicit SpecWorkload(WorkloadSpec spec, std::size_t n_threads);

  [[nodiscard]] const std::string& name() const override { return spec_.name; }
  [[nodiscard]] std::size_t n_types() const override { return spec_.types.size(); }
  [[nodiscard]] const std::string& type_name(core::TxTypeId t) const override {
    return spec_.types[static_cast<std::size_t>(t)].name;
  }

  // `thread` must be below the n_threads the workload was built for.
  void next(core::ThreadId thread, double progress, util::Xoshiro256& rng,
            sim::TxInstance& out) override;

  [[nodiscard]] std::uint64_t think_time(core::ThreadId thread,
                                         util::Xoshiro256& rng) override;

  [[nodiscard]] const WorkloadSpec& spec() const noexcept { return spec_; }

 private:
  [[nodiscard]] const Phase& phase_at(double progress) const noexcept;

  WorkloadSpec spec_;
  std::size_t n_threads_;
  std::vector<std::uint64_t> region_base_;           // global line-id offsets
  std::vector<std::unique_ptr<util::Zipf>> zipf_;    // per skewed region
  // Radix-sort buffer per thread: next() for one thread touches only its
  // own lane (the generator contract's single-writer lanes).
  std::vector<util::Padded<std::vector<std::uint32_t>>> scratch_;
};

}  // namespace seer::stamp
