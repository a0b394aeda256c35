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
  // next() draws each access's lines into a slot range of its side (reads
  // or writes) chosen at construction: a side holds one group per region it
  // draws from, every access's draws from that region together, groups in
  // region order. Regions are disjoint line ranges laid out in that order,
  // so sorting each group and dropping its repeats leaves the side exactly
  // as std::sort + std::unique would, at a cost set by the group's shape.
  enum class Order : std::uint8_t {
    // A bit per region line, set per draw and read out in line order, four
    // or eight lines written per word: kBitmap8 for four or more draws per
    // word, where a word holds more lines.
    kBitmap4,
    kBitmap8,
    kRadix,  // LSD radix sort on the region-relative line, two digits
    kSort,   // std::sort
  };
  struct Group {
    std::uint64_t base = 0;    // the region's first line id
    std::uint32_t stride = 0;  // per-thread region: lines per thread's slice
    std::uint32_t lines = 0;   // lines one thread can draw here
    std::uint32_t begin = 0;   // first slot of the group in its side
    std::uint32_t draws = 0;
    std::uint16_t region = 0;
    Order order = Order::kSort;
    std::uint8_t low_bits = 0;  // kRadix: widths of the low and high digits
    std::uint8_t high_bits = 0;
  };
  struct Side {
    std::uint32_t draws = 0;
    std::vector<Group> groups;  // in region order; no empty group
  };
  struct AccessPlan {
    RegionAccess access;
    std::uint32_t read_at = 0;  // first slot of its reads in the reads side
    std::uint32_t write_at = 0;
  };
  struct TypePlan {
    util::SmallVec<AccessPlan, 6> accesses;
    Side reads;
    Side writes;
  };
  // One thread's sort buffers, sized once at construction.
  struct Lane {
    std::vector<std::uint64_t> bitmap;  // all zero between uses
    std::vector<std::uint32_t> radix;
  };

  [[nodiscard]] const Phase& phase_at(double progress) const noexcept;
  [[nodiscard]] Side plan_side(const TxTypeSpec& ts, bool writes) const;
  // Orders `v`, whose slots hold `side`'s draws for `thread`: sorted, unique.
  static void canonicalize(const Side& side, core::ThreadId thread, Lane& lane,
                           std::vector<std::uint32_t>& v);

  WorkloadSpec spec_;
  std::size_t n_threads_;
  std::vector<std::uint64_t> region_base_;           // global line-id offsets
  std::vector<std::unique_ptr<util::Zipf>> zipf_;    // per skewed region
  std::vector<TypePlan> plans_;                      // per type
  // Sort buffers per thread: next() for one thread touches only its own
  // lane (the generator contract's single-writer lanes).
  std::vector<util::Padded<Lane>> lanes_;
};

}  // namespace seer::stamp
