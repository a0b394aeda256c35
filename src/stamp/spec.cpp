#include "stamp/spec.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace seer::stamp {

namespace {

// LSD radix sort, one byte per pass. A pass whose byte is the same in every
// key would only copy, so it is skipped: line ids rarely use all 32 bits.
void radix_sort(std::vector<std::uint32_t>& v, std::vector<std::uint32_t>& scratch) {
  const std::size_t n = v.size();
  std::uint32_t count[4][256] = {};
  for (const std::uint32_t x : v) {
    ++count[0][x & 0xFFu];
    ++count[1][(x >> 8) & 0xFFu];
    ++count[2][(x >> 16) & 0xFFu];
    ++count[3][x >> 24];
  }
  scratch.resize(n);
  std::uint32_t* src = v.data();
  std::uint32_t* dst = scratch.data();
  for (unsigned d = 0; d < 4; ++d) {
    const unsigned shift = 8 * d;
    std::uint32_t* c = count[d];
    if (c[(src[0] >> shift) & 0xFFu] == n) continue;
    std::uint32_t offset = 0;
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint32_t k = c[b];
      c[b] = offset;
      offset += k;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t x = src[i];
      dst[c[(x >> shift) & 0xFFu]++] = x;
    }
    std::swap(src, dst);
  }
  if (src != v.data()) std::copy(src, src + n, v.data());
}

}  // namespace

std::uint64_t laid_out_lines(const WorkloadSpec& spec, std::size_t n_threads) {
  std::uint64_t lines = 0;
  for (const Region& r : spec.regions) {
    lines += static_cast<std::uint64_t>(r.lines) * (r.per_thread ? n_threads : 1);
  }
  return lines;
}

void canonicalize_lines(std::vector<std::uint32_t>& v,
                        std::vector<std::uint32_t>& scratch) {
  if (v.size() >= kRadixMinLines) {
    radix_sort(v, scratch);
  } else {
    std::sort(v.begin(), v.end());
  }
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

SpecWorkload::SpecWorkload(WorkloadSpec spec, std::size_t n_threads)
    : spec_(std::move(spec)),
      n_threads_(n_threads),
      scratch_(std::max<std::size_t>(1, n_threads)) {
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
  // and a reused one not at all. Reads and writes are then kept
  // sorted/unique as the conflict detector requires.
  assert(static_cast<std::size_t>(thread) < scratch_.size());
  std::vector<std::uint32_t>& scratch = *scratch_[static_cast<std::size_t>(thread)];
  std::size_t n_reads = 0;
  std::size_t n_writes = 0;
  for (const RegionAccess& a : ts.accesses) {
    n_reads += a.reads;
    n_writes += a.writes;
  }
  out.reads.clear();
  out.reads.resize(n_reads);
  out.writes.clear();
  out.writes.resize(n_writes);
  util::Xoshiro256 g = rng;
  std::uint32_t* r = out.reads.data();
  std::uint32_t* w = out.writes.data();
  for (const RegionAccess& a : ts.accesses) {
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
      return dst + n;
    };
    r = draw(r, a.reads);
    w = draw(w, a.writes);
  }
  assert(r == out.reads.data() + n_reads && w == out.writes.data() + n_writes);
  rng = g;
  canonicalize_lines(out.reads, scratch);
  canonicalize_lines(out.writes, scratch);
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
