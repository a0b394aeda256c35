#include "stamp/spec.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

namespace seer::stamp {

namespace {

// A side with at most this many draws is put in order by one std::sort:
// below it, a group's fixed cost outweighs the comparisons it saves.
constexpr std::uint32_t kSortSideDraws = 16;
// A sparse group (more bitmap words than draws) is radix sorted when it
// has at least kRadixMinDraws draws and at least one per kBucketsPerDraw
// buckets of its two digits, and by std::sort otherwise: clearing and
// summing the buckets is the radix sort's fixed cost.
constexpr std::uint32_t kRadixMinDraws = 24;
constexpr std::uint32_t kBucketsPerDraw = 32;
// Widest radix digit: regions of more than 2^22 lines are never radix
// sorted.
constexpr unsigned kMaxDigitBits = 11;

// Appends the lines of in[0, n) at `out` in order, once each: a region
// whose lines start at `base` and whose draws are all below base + lines.
// `bitmap` holds a clear bit per region line and is left clear. `out` may
// be `in` or precede it: the input is read in full before anything is
// written, and nothing is written at or past `limit`, the end of the
// input. With room before `limit`, a word's first kUnroll lines are
// written unconditionally and as many kept as it holds, so reading a word
// out does not branch on each of its bits.
template <int kUnroll>
std::uint32_t* bitmap_order(const std::uint32_t* in, std::uint32_t n, std::uint32_t base,
                            std::uint32_t lines, std::uint64_t* bitmap, std::uint32_t* out,
                            const std::uint32_t* limit) {
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t k = in[i] - base;
    bitmap[k >> 6] |= std::uint64_t{1} << (k & 63);
  }
  const std::size_t words = (static_cast<std::size_t>(lines) + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = std::exchange(bitmap[w], 0);
    const std::uint32_t first = base + static_cast<std::uint32_t>(w * 64);
    if (limit - out >= kUnroll) {
      const int count = std::popcount(bits);
      for (int k = 0; k < kUnroll; ++k) {
        out[k] = first + static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
      }
      if (count <= kUnroll) {
        out += count;
        continue;
      }
      out += kUnroll;
    }
    for (; bits != 0; bits &= bits - 1) {
      *out++ = first + static_cast<std::uint32_t>(std::countr_zero(bits));
    }
  }
  return out;
}

// The same, by an LSD radix sort of the region-relative lines: the low
// `lo` bits, then the `hi` bits above them, through `tmp` (n slots).
std::uint32_t* radix_order(const std::uint32_t* in, std::uint32_t n, std::uint32_t base,
                           unsigned lo, unsigned hi, std::uint32_t* tmp, std::uint32_t* out) {
  std::uint32_t low[std::size_t{1} << kMaxDigitBits];
  std::uint32_t high[std::size_t{1} << kMaxDigitBits];
  const std::uint32_t n_low = 1u << lo;
  const std::uint32_t n_high = 1u << hi;
  const std::uint32_t mask = n_low - 1;
  std::fill_n(low, n_low, 0);
  std::fill_n(high, n_high, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t k = in[i] - base;
    ++low[k & mask];
    ++high[k >> lo];
  }
  std::uint32_t at = 0;
  for (std::uint32_t d = 0; d < n_low; ++d) at += std::exchange(low[d], at);
  at = 0;
  for (std::uint32_t d = 0; d < n_high; ++d) at += std::exchange(high[d], at);
  for (std::uint32_t i = 0; i < n; ++i) tmp[low[(in[i] - base) & mask]++] = in[i];
  for (std::uint32_t i = 0; i < n; ++i) out[high[(tmp[i] - base) >> lo]++] = tmp[i];
  return std::unique(out, out + n);
}

// The same, by std::sort in place.
std::uint32_t* sort_order(std::uint32_t* in, std::uint32_t n, std::uint32_t* out) {
  std::sort(in, in + n);
  std::uint32_t last = in[0];
  *out++ = last;
  for (std::uint32_t i = 1; i < n; ++i) {
    if (in[i] != last) *out++ = last = in[i];
  }
  return out;
}

}  // namespace

std::uint64_t laid_out_lines(const WorkloadSpec& spec, std::size_t n_threads) {
  std::uint64_t lines = 0;
  for (const Region& r : spec.regions) {
    lines += static_cast<std::uint64_t>(r.lines) * (r.per_thread ? n_threads : 1);
  }
  return lines;
}

SpecWorkload::SpecWorkload(WorkloadSpec spec, std::size_t n_threads)
    : spec_(std::move(spec)),
      n_threads_(n_threads),
      lanes_(std::max<std::size_t>(1, n_threads)) {
  assert(!spec_.types.empty());
  assert(!spec_.regions.empty());
  if (spec_.phases.empty()) {
    // Default: one phase, uniform mix.
    Phase p;
    p.fraction = 1.0;
    p.mix.assign(spec_.types.size(), 1.0);
    spec_.phases.push_back(std::move(p));
  }
  for (const Phase& p : spec_.phases) {
    assert(p.mix.size() == spec_.types.size());
    (void)p;
  }

  // Config front ends reject a layout past the 32-bit line ids (ConfigError).
  assert(laid_out_lines(spec_, n_threads_) <= kMaxLineSpace);

  // Lay regions out in one global line-id space; per-thread regions get one
  // disjoint slice per thread.
  region_base_.reserve(spec_.regions.size());
  std::uint64_t base = 0;
  for (const Region& r : spec_.regions) {
    region_base_.push_back(base);
    base += static_cast<std::uint64_t>(r.lines) * (r.per_thread ? n_threads_ : 1);
  }

  zipf_.resize(spec_.regions.size());
  for (std::size_t i = 0; i < spec_.regions.size(); ++i) {
    const Region& r = spec_.regions[i];
    if (r.zipf_skew > 0.0 && r.lines > 1) {
      zipf_[i] = std::make_unique<util::Zipf>(r.lines, r.zipf_skew);
    }
  }

  std::size_t bitmap_words = 0;
  std::size_t radix_slots = 0;
  plans_.reserve(spec_.types.size());
  for (const TxTypeSpec& ts : spec_.types) {
    TypePlan& plan = plans_.emplace_back();
    plan.reads = plan_side(ts, /*writes=*/false);
    plan.writes = plan_side(ts, /*writes=*/true);
    // Each access's draws go to the next free slots of its region's group.
    std::vector<std::uint32_t> read_at(spec_.regions.size());
    std::vector<std::uint32_t> write_at(spec_.regions.size());
    for (const Group& g : plan.reads.groups) read_at[g.region] = g.begin;
    for (const Group& g : plan.writes.groups) write_at[g.region] = g.begin;
    for (const RegionAccess& a : ts.accesses) {
      plan.accesses.push_back({a, read_at[a.region], write_at[a.region]});
      read_at[a.region] += a.reads;
      write_at[a.region] += a.writes;
    }
    for (const Side* side : {&plan.reads, &plan.writes}) {
      for (const Group& g : side->groups) {
        if (g.order == Order::kBitmap4 || g.order == Order::kBitmap8) {
          bitmap_words = std::max<std::size_t>(bitmap_words, (std::size_t{g.lines} + 63) / 64);
        } else if (g.order == Order::kRadix) {
          radix_slots = std::max<std::size_t>(radix_slots, g.draws);
        }
      }
    }
  }
  for (auto& lane : lanes_) {
    lane->bitmap.assign(bitmap_words, 0);
    lane->radix.resize(radix_slots);
  }
}

SpecWorkload::Side SpecWorkload::plan_side(const TxTypeSpec& ts, bool writes) const {
  std::vector<std::uint32_t> draws(spec_.regions.size());
  for (const RegionAccess& a : ts.accesses) draws[a.region] += writes ? a.writes : a.reads;
  Side side;
  for (std::size_t r = 0; r < draws.size(); ++r) {
    if (draws[r] == 0) continue;
    const Region& region = spec_.regions[r];
    Group g;
    g.base = region_base_[r];
    g.stride = region.per_thread ? region.lines : 0;
    g.lines = region.lines;
    g.begin = side.draws;
    g.draws = draws[r];
    g.region = static_cast<std::uint16_t>(r);
    const std::size_t words = (std::size_t{region.lines} + 63) / 64;
    const unsigned bits = std::bit_width(region.lines - 1);
    const unsigned low = (bits + 1) / 2;
    if (words <= g.draws) {
      g.order = g.draws >= 4 * words ? Order::kBitmap8 : Order::kBitmap4;
    } else if (g.draws >= kRadixMinDraws && low <= kMaxDigitBits &&
               (1u << low) + (1u << (bits - low)) <= kBucketsPerDraw * g.draws) {
      g.order = Order::kRadix;
      g.low_bits = static_cast<std::uint8_t>(low);
      g.high_bits = static_cast<std::uint8_t>(bits - low);
    }
    side.draws += g.draws;
    side.groups.push_back(g);
  }
  if (side.draws <= kSortSideDraws) {
    for (Group& g : side.groups) g.order = Order::kSort;
  }
  return side;
}

void SpecWorkload::canonicalize(const Side& side, core::ThreadId thread, Lane& lane,
                                std::vector<std::uint32_t>& v) {
  if (side.draws <= kSortSideDraws) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return;
  }
  std::uint32_t* const data = v.data();
  // The canonical prefix so far: it ends at or before the next group's
  // first slot, so writing it never overwrites an unread draw.
  std::uint32_t* out = data;
  for (const Group& g : side.groups) {
    std::uint32_t* const in = data + g.begin;
    const auto base =
        static_cast<std::uint32_t>(g.base + static_cast<std::uint64_t>(thread) * g.stride);
    switch (g.order) {
      case Order::kBitmap4:
        out = bitmap_order<4>(in, g.draws, base, g.lines, lane.bitmap.data(), out,
                              in + g.draws);
        break;
      case Order::kBitmap8:
        out = bitmap_order<8>(in, g.draws, base, g.lines, lane.bitmap.data(), out,
                              in + g.draws);
        break;
      case Order::kRadix:
        out = radix_order(in, g.draws, base, g.low_bits, g.high_bits, lane.radix.data(), out);
        break;
      case Order::kSort:
        out = sort_order(in, g.draws, out);
        break;
    }
  }
  v.resize(static_cast<std::size_t>(out - data));
}

const Phase& SpecWorkload::phase_at(double progress) const noexcept {
  double acc = 0.0;
  for (const Phase& p : spec_.phases) {
    acc += p.fraction;
    if (progress < acc) return p;
  }
  return spec_.phases.back();
}

void SpecWorkload::next(core::ThreadId thread, double progress, util::Xoshiro256& rng,
                        sim::TxInstance& out) {
  const Phase& phase = phase_at(progress);

  // Pick the transaction type from the phase mix.
  double total = 0.0;
  for (double w : phase.mix) total += w;
  double pick = rng.uniform01() * total;
  std::size_t type = 0;
  for (; type + 1 < phase.mix.size(); ++type) {
    pick -= phase.mix[type];
    if (pick < 0.0) break;
  }
  const TxTypeSpec& ts = spec_.types[type];

  out.type = static_cast<core::TxTypeId>(type);

  // Duration: uniform jitter around the mean.
  const double lo = 1.0 - ts.duration_jitter;
  const double span = 2.0 * ts.duration_jitter;
  out.duration = static_cast<std::uint64_t>(
      static_cast<double>(ts.duration_mean) * (lo + span * rng.uniform01()));
  if (out.duration == 0) out.duration = 1;

  // Footprint: sample concrete lines per region access, reads then writes
  // of each access in turn. Both vectors are sized once to the type's draw
  // totals, so a fresh instance allocates each at exactly its draw count
  // and a reused one not at all. Each access draws into its region's group
  // (plan_side), which canonicalize() then puts in order: reads and writes
  // end sorted/unique as the conflict detector requires.
  assert(static_cast<std::size_t>(thread) < lanes_.size());
  const TypePlan& plan = plans_[type];
  out.reads.clear();
  out.reads.resize(plan.reads.draws);
  out.writes.clear();
  out.writes.resize(plan.writes.draws);
  util::Xoshiro256 g = rng;
  std::uint32_t* const r = out.reads.data();
  std::uint32_t* const w = out.writes.data();
  for (const AccessPlan& p : plan.accesses) {
    const RegionAccess& a = p.access;
    // The region's first line id (this thread's slice of a per-thread
    // region), its line count and its Zipf table, held in locals: a store
    // through `dst` may alias a std::uint32_t such as `region.lines`, so
    // read through the spec they would be reloaded for every line.
    const Region& region = spec_.regions[a.region];
    const std::uint32_t lines = region.lines;
    const std::uint64_t base =
        region_base_[a.region] +
        (region.per_thread ? static_cast<std::uint64_t>(thread) * lines : 0);
    const util::Zipf* zipf = zipf_[a.region].get();
    const auto draw = [&](std::uint32_t* dst, std::uint16_t n) {
      for (std::uint16_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::uint32_t>(
            base + (zipf != nullptr ? zipf->sample(g) : g.below(lines)));
      }
    };
    draw(r + p.read_at, a.reads);
    draw(w + p.write_at, a.writes);
  }
  rng = g;
  Lane& lane = *lanes_[static_cast<std::size_t>(thread)];
  canonicalize(plan.reads, thread, lane, out.reads);
  canonicalize(plan.writes, thread, lane, out.writes);
}

std::uint64_t SpecWorkload::think_time(core::ThreadId /*thread*/,
                                       util::Xoshiro256& rng) {
  if (spec_.think_mean == 0) return 0;
  // Exponentially distributed inter-transaction gap.
  const double u = std::max(rng.uniform01(), 1e-12);
  return static_cast<std::uint64_t>(-static_cast<double>(spec_.think_mean) *
                                    std::log(u));
}

}  // namespace seer::stamp
