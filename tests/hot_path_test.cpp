// Exactness tests for the simulator's hot path. Each fast structure must
// decide exactly what the reference it replaced decides, so every simulated
// statistic stays bit-identical:
//
//   * sim::FootprintIndex against sim::instances_conflict and
//     TxInstance::footprint_lines, on random pairs from every registered
//     generator plus hand-built edge cases, a probe that shares a
//     footprint line's filter bit, and footprints of 4 096+ lines;
//   * util::Zipf's guide-table search against a plain binary search over
//     the same CDF;
//   * stamp::SpecWorkload's grouped canonicalization (a bitmap, a radix
//     sort or std::sort per region group) against the documented draws
//     put in order by std::sort + std::unique, on a fixed grid of sizes
//     and value shapes and on random layouts.
//
// Random inputs derive from one master seed. SEER_PROPERTY_SEED=<n>
// replays a failing run; failures print the seed. The random-layout
// property runs SEER_PROPERTY_ITERS seeds (default 20; scripts/verify.sh
// property runs 100).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sim/workload.hpp"
#include "stamp/spec.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "workload/registry.hpp"

namespace seer {
namespace {

std::uint64_t master_seed() {
  const char* v = std::getenv("SEER_PROPERTY_SEED");
  return v != nullptr ? std::strtoull(v, nullptr, 10) : 0x5EE4A11u;
}

// Seeds a property runs: the master seed alone when replaying one, else
// SEER_PROPERTY_ITERS seeds from it.
std::uint64_t property_iters(std::uint64_t fallback) {
  if (std::getenv("SEER_PROPERTY_SEED") != nullptr) return 1;
  const char* v = std::getenv("SEER_PROPERTY_ITERS");
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

std::string replay_hint(std::uint64_t seed) {
  return "replay with: SEER_PROPERTY_SEED=" + std::to_string(seed) +
         " ./build/tests/hot_path_test";
}

// ------------------------------------------------------ FootprintIndex ----

sim::TxInstance make_inst(std::vector<std::uint32_t> reads,
                          std::vector<std::uint32_t> writes) {
  sim::TxInstance i;
  i.reads = std::move(reads);
  i.writes = std::move(writes);
  i.duration = 100;
  return i;
}

// Indexes both instances (reusing the caller's indexes) and checks the
// indexed pair test and cached counts against the references, both ways
// round. Returns the reference verdict.
bool expect_index_exact(const sim::TxInstance& a, const sim::TxInstance& b,
                        sim::FootprintIndex& ia, sim::FootprintIndex& ib,
                        const std::string& where) {
  ia.build(a);
  ib.build(b);
  EXPECT_EQ(ia.lines(), a.footprint_lines()) << where;
  EXPECT_EQ(ib.lines(), b.footprint_lines()) << where;
  const bool ref = sim::instances_conflict(a, b);
  EXPECT_EQ(sim::FootprintIndex::conflict(a, ia, b, ib), ref) << where;
  EXPECT_EQ(sim::FootprintIndex::conflict(b, ib, a, ia), ref) << where;
  for (const auto* side : {&a.reads, &a.writes}) {
    for (const std::uint32_t l : *side) {
      EXPECT_TRUE(ia.contains(l)) << where << ": indexed line " << l << " missing";
    }
  }
  return ref;
}

TEST(FootprintIndex, EdgeCasesMatchTheReference) {
  sim::FootprintIndex ia;
  sim::FootprintIndex ib;
  constexpr std::uint32_t kTop = 0xFFFFFFFFu;
  struct Case {
    const char* what;
    sim::TxInstance a;
    sim::TxInstance b;
    bool conflict;
  };
  const std::vector<Case> cases = {
      {"both empty", make_inst({}, {}), make_inst({}, {}), false},
      {"empty vs writer", make_inst({}, {}), make_inst({}, {1, 2}), false},
      {"empty reads: writer hits reader", make_inst({}, {5}), make_inst({5}, {}), true},
      {"reader hit by writer", make_inst({5}, {}), make_inst({}, {5}), true},
      {"empty writes: readers share", make_inst({1, 2, 3}, {}), make_inst({2, 3, 4}, {}),
       false},
      {"line 0 written", make_inst({}, {0}), make_inst({0}, {}), true},
      {"line 0 read by both", make_inst({0}, {7}), make_inst({0}, {8}), false},
      {"top line written", make_inst({}, {kTop}), make_inst({kTop}, {}), true},
      {"top line read by both", make_inst({kTop}, {1}), make_inst({kTop}, {2}), false},
      {"0 and top held, neighbours written", make_inst({0, kTop}, {}),
       make_inst({}, {1, kTop - 1}), false},
      {"top in reads and writes", make_inst({3, kTop}, {kTop}), make_inst({}, {3}), true},
      {"identical writers", make_inst({1, 4}, {2, 9}), make_inst({1, 4}, {2, 9}), true},
      {"identical readers", make_inst({1, 4, 9}, {}), make_inst({1, 4, 9}, {}), false},
      {"overlap only through writes", make_inst({1, 2}, {50, 60}),
       make_inst({3, 4}, {60, 70}), true},
      {"write-write on the last line", make_inst({}, {1, 2, kTop}),
       make_inst({}, {3, kTop}), true},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(expect_index_exact(c.a, c.b, ia, ib, c.what), c.conflict) << c.what;
  }
  // A fresh index is the empty footprint.
  EXPECT_EQ(sim::FootprintIndex{}.lines(), 0u);
  EXPECT_FALSE(sim::FootprintIndex{}.contains(0));
  EXPECT_FALSE(sim::FootprintIndex{}.contains(kTop));
  // A line both read and written counts once; the top id counts like any other.
  ia.build(make_inst({0, 5, kTop}, {5, kTop}));
  EXPECT_EQ(ia.lines(), 3u);
  EXPECT_FALSE(ia.contains(1));
  EXPECT_FALSE(ia.contains(kTop - 1));
  // Rebuilding a smaller instance forgets the previous one.
  ia.build(make_inst({7}, {}));
  EXPECT_EQ(ia.lines(), 1u);
  EXPECT_FALSE(ia.contains(0));
  EXPECT_FALSE(ia.contains(kTop));
  EXPECT_TRUE(ia.contains(7));
}

// Sorted unique lines `base + stride * k` for random k < span: strides that
// are powers of two stress the hash's spread of clustered ids.
std::vector<std::uint32_t> strided_lines(util::Xoshiro256& rng, std::size_t n,
                                         std::uint32_t base, std::uint32_t stride,
                                         std::uint32_t span) {
  std::vector<std::uint32_t> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(base + stride * static_cast<std::uint32_t>(rng.below(span)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

TEST(FootprintIndex, StridedFootprintsMatchTheReference) {
  const std::uint64_t seed = master_seed();
  util::Xoshiro256 rng(seed);
  sim::FootprintIndex ia;
  sim::FootprintIndex ib;
  int conflicts = 0;
  constexpr int kPairs = 3000;
  for (int i = 0; i < kPairs; ++i) {
    const std::uint32_t stride = std::uint32_t{1} << rng.below(24);
    const std::uint32_t base = static_cast<std::uint32_t>(rng.below(1u << 20));
    const std::uint32_t span = std::uint32_t{64} << rng.below(8);
    const auto lines = [&](std::uint64_t most) {
      return strided_lines(rng, static_cast<std::size_t>(rng.below(most + 1)), base,
                           stride, span);
    };
    const sim::TxInstance a = make_inst(lines(300), lines(60));
    const sim::TxInstance b = make_inst(lines(300), lines(60));
    if (expect_index_exact(a, b, ia, ib, "pair " + std::to_string(i))) ++conflicts;
    if (HasFailure()) FAIL() << replay_hint(seed);
  }
  EXPECT_GT(conflicts, kPairs / 20) << "the pairs never exercise a conflict";
  EXPECT_LT(conflicts, kPairs - kPairs / 20) << "the pairs never exercise a miss";
}

// A probe whose filter bit is set by a footprint line it is not must be
// turned away by the confirm step. The hash is fixed, so the test searches
// for a line whose top 20 hash bits equal the footprint line's: the two
// share a bit in every filter of up to 2^20 bits.
TEST(FootprintIndex, ProbeSharingAFilterBitIsNotInTheFootprint) {
  const auto top_bits = [](std::uint32_t l) { return (l * 0x9E3779B97F4A7C15ull) >> 44; };
  constexpr std::uint32_t kLine = 1000;
  std::uint32_t twin = kLine + 1;
  while (top_bits(twin) != top_bits(kLine)) ++twin;
  sim::FootprintIndex ia;
  sim::FootprintIndex ib;
  // Two writers: each side's write lands on the other's set bit, and the
  // pair test must find no conflict either way round.
  const sim::TxInstance a = make_inst({}, {kLine});
  const sim::TxInstance b = make_inst({}, {twin});
  EXPECT_FALSE(expect_index_exact(a, b, ia, ib, "filter-bit twins"));
  EXPECT_TRUE(ia.contains(kLine));
  EXPECT_FALSE(ia.contains(twin)) << "line " << twin << " shares line " << kLine
                                  << "'s bit but is not in its footprint";
  // The twin next to other lines of a wider footprint: still a miss.
  const sim::TxInstance wide = make_inst({kLine - 7, kLine, kLine + 7}, {twin + 1});
  EXPECT_FALSE(expect_index_exact(wide, b, ia, ib, "twin against a wider footprint"));
}

// Footprints of 4 096 lines and more: the filter grows with the union, and
// a few of the probes that miss land on a set bit and reach the confirm step.
TEST(FootprintIndex, LargeFootprintsMatchTheReference) {
  const std::uint64_t seed = master_seed();
  util::Xoshiro256 rng(seed);
  sim::FootprintIndex ia;
  sim::FootprintIndex ib;
  int conflicts = 0;
  constexpr int kPairs = 40;
  for (int i = 0; i < kPairs; ++i) {
    // a holds even lines only. Even pairs draw b's lines from odd ids, so
    // they miss a; odd pairs draw them from a's even ids.
    const std::uint32_t span = std::uint32_t{1} << (16 + rng.below(6));
    const auto draw = [&](std::size_t n, bool odd) {
      std::vector<std::uint32_t> v;
      while (v.size() < n) {
        for (std::size_t k = v.size(); k < n; ++k) {
          const auto l = static_cast<std::uint32_t>(rng.below(span));
          v.push_back(odd ? (l | 1u) : (l & ~1u));
        }
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
      }
      return v;
    };
    const bool disjoint = i % 2 == 0;
    const sim::TxInstance a =
        make_inst(draw(4096 + rng.below(4096), false), draw(400, false));
    const sim::TxInstance b =
        make_inst(draw(rng.below(300), disjoint), draw(1 + rng.below(100), disjoint));
    const std::string where = "large pair " + std::to_string(i);
    ASSERT_GE(a.footprint_lines(), 4096u) << where;
    const bool conflict = expect_index_exact(a, b, ia, ib, where);
    if (disjoint) {
      EXPECT_FALSE(conflict) << where;
    }
    if (conflict) ++conflicts;
    if (HasFailure()) FAIL() << replay_hint(seed);
  }
  EXPECT_GT(conflicts, 0) << "the pairs never exercise a conflict";
}

util::json::Value parse_or_die(const std::string& text) {
  std::string err;
  auto doc = util::json::parse(text, &err);
  EXPECT_TRUE(doc.has_value()) << err;
  return doc.has_value() ? *doc : util::json::Value{};
}

// Every registered generator that needs no file: the eight STAMP stand-ins
// by name, plus "spec", "bst" and "phased" configs. At kThreads threads the
// spec lays out the whole 2^32 line space, so its one-line "top" region is
// line 0xFFFFFFFF, next to long radix-sorted reads and a per-thread region.
constexpr std::size_t kThreads = 4;

constexpr const char* kEdgeSpec = R"({
  "generator": "spec", "name": "edge-spec",
  "params": {
    "regions": [{"name": "low", "lines": 64, "zipf_skew": 0.9},
                {"name": "own", "lines": 16, "per_thread": true},
                {"name": "wide", "lines": 4294967167},
                {"name": "top", "lines": 1}],
    "types": [
      {"name": "scan", "duration_mean": 500,
       "accesses": [{"region": "wide", "reads": 120},
                    {"region": "top", "reads": 1},
                    {"region": "low", "reads": 4, "writes": 1}]},
      {"name": "bump", "duration_mean": 200,
       "accesses": [{"region": "top", "writes": 1},
                    {"region": "own", "reads": 2, "writes": 2}]},
      {"name": "poke", "duration_mean": 100,
       "accesses": [{"region": "low", "reads": 2, "writes": 2}]}],
    "mix": [2, 1, 3]}})";

constexpr const char* kBst = R"({
  "generator": "bst", "params": {"keys": 64, "key_skew": 0.8}})";

constexpr const char* kPhased = R"({
  "generator": "phased",
  "params": {"phases": [
    {"until": 0.5, "spec": {
      "regions": [{"name": "r", "lines": 96, "zipf_skew": 0.5}],
      "types": [{"name": "t", "duration_mean": 100,
                 "accesses": [{"region": "r", "reads": 40, "writes": 3}]}]}},
    {"until": 1.0, "spec": {
      "regions": [{"name": "r", "lines": 96}],
      "types": [{"name": "t", "duration_mean": 100,
                 "accesses": [{"region": "r", "reads": 6, "writes": 1}]}]}}]}})";

std::vector<workload::Desc> every_generator() {
  std::vector<workload::Desc> out;
  for (const std::string& name : workload::stamp_names()) {
    out.push_back(workload::find(name));
  }
  for (const char* config : {kEdgeSpec, kBst, kPhased}) {
    out.push_back(workload::from_config_json(parse_or_die(config), "<config>"));
  }
  return out;
}

TEST(FootprintIndex, EveryGeneratorsPairsMatchTheReference) {
  const std::uint64_t seed = master_seed();
  constexpr int kPairs = 400;
  sim::FootprintIndex ia;
  sim::FootprintIndex ib;
  for (const workload::Desc& d : every_generator()) {
    const auto wl = d.make(kThreads);
    util::Xoshiro256 rng(seed);
    for (std::size_t t = 0; t < kThreads; ++t) wl->init(static_cast<core::ThreadId>(t));
    sim::TxInstance a;
    sim::TxInstance b;
    int conflicts = 0;
    for (int i = 0; i < kPairs; ++i) {
      const double progress = static_cast<double>(i) / kPairs;
      wl->next(static_cast<core::ThreadId>(i % kThreads), progress, rng, a);
      wl->next(static_cast<core::ThreadId>((i + 1) % kThreads), progress, rng, b);
      if (expect_index_exact(a, b, ia, ib, d.name + " pair " + std::to_string(i))) {
        ++conflicts;
      }
      if (HasFailure()) FAIL() << replay_hint(seed);
    }
    if (d.name != "ssca2") {
      EXPECT_GT(conflicts, 0) << d.name << " never conflicts";
    }
  }
}

// ---------------------------------------------------------------- Zipf ----

// The search the guide table replaced: first CDF entry >= u, else the last.
std::size_t binary_search_rank(const std::vector<double>& cdf, double u) {
  std::size_t lo = 0;
  std::size_t hi = cdf.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

class ZipfGuide : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ZipfGuide, SampleEqualsBinarySearch) {
  const auto [n, skew] = GetParam();
  const std::uint64_t seed = master_seed();
  const util::Zipf z(n, skew);
  const std::vector<double>& cdf = z.cdf();
  ASSERT_EQ(cdf.size(), n);

  // Random draws, through sample() itself.
  util::Xoshiro256 rng(seed);
  util::Xoshiro256 twin(seed);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t got = z.sample(rng);
    const double u = twin.uniform01();
    ASSERT_EQ(got, binary_search_rank(cdf, u)) << "u=" << u << "\n" << replay_hint(seed);
  }

  // Draws on and next to CDF entries and guide-bucket edges, where an
  // off-by-one in the table would show.
  std::vector<double> us = {0.0, std::nextafter(1.0, 0.0)};
  const auto around = [&us](double x) {
    for (const double v : {std::nextafter(x, 0.0), x, std::nextafter(x, 1.0)}) {
      if (v >= 0.0 && v < 1.0) us.push_back(v);
    }
  };
  const std::size_t probes = std::min<std::size_t>(cdf.size(), 4096);
  for (std::size_t k = 0; k < probes; ++k) {
    const std::size_t idx =
        cdf.size() <= 4096 ? k : static_cast<std::size_t>(rng.below(cdf.size()));
    around(cdf[idx]);
    around(static_cast<double>(idx) / static_cast<double>(cdf.size()));
  }
  around(cdf.back());
  for (const double u : us) {
    ASSERT_EQ(z.rank_of(u), binary_search_rank(cdf, u)) << "u=" << u << "\n"
                                                        << replay_hint(seed);
  }
}

// 65536 = 2^16 and 65537 sit on both sides of the guide-size cap: the last
// size with 8 buckets per rank, and the first with fewer.
constexpr std::uint64_t kZipfSizes[] = {1, 2, 3, 16, 2048, 65536, 65537, 1 << 22};
constexpr double kZipfSkews[] = {0.01, 0.5, 0.99, 2.0};

INSTANTIATE_TEST_SUITE_P(Grid, ZipfGuide,
                         ::testing::Combine(::testing::ValuesIn(kZipfSizes),
                                            ::testing::ValuesIn(kZipfSkews)));

// ------------------------------------------------------- canonicalize ----

// SpecWorkload::next's documented draws — the type from the phase mix, the
// duration, then each access's reads and its writes in turn — put in order
// by std::sort + std::unique: the reference the grouped canonicalization
// must equal. The layouts here have one phase.
class ReferenceSampler {
 public:
  ReferenceSampler(const stamp::WorkloadSpec& spec, std::size_t n_threads) : spec_(spec) {
    std::uint64_t base = 0;
    for (const stamp::Region& r : spec_.regions) {
      base_.push_back(base);
      base += std::uint64_t{r.lines} * (r.per_thread ? n_threads : 1);
      zipf_.push_back(r.zipf_skew > 0.0 && r.lines > 1
                          ? std::make_unique<util::Zipf>(r.lines, r.zipf_skew)
                          : nullptr);
    }
  }

  sim::TxInstance next(core::ThreadId thread, util::Xoshiro256& rng) const {
    const std::vector<double>& mix = spec_.phases.front().mix;
    double total = 0.0;
    for (const double w : mix) total += w;
    double pick = rng.uniform01() * total;
    std::size_t type = 0;
    for (; type + 1 < mix.size(); ++type) {
      pick -= mix[type];
      if (pick < 0.0) break;
    }
    const stamp::TxTypeSpec& ts = spec_.types[type];
    sim::TxInstance out;
    out.type = static_cast<core::TxTypeId>(type);
    const double u = rng.uniform01();
    out.duration = static_cast<std::uint64_t>(
        static_cast<double>(ts.duration_mean) *
        (1.0 - ts.duration_jitter + 2.0 * ts.duration_jitter * u));
    if (out.duration == 0) out.duration = 1;
    for (const stamp::RegionAccess& a : ts.accesses) {
      const stamp::Region& r = spec_.regions[a.region];
      const std::uint64_t base =
          base_[a.region] + (r.per_thread ? std::uint64_t{thread} * r.lines : 0);
      const auto draw = [&](std::vector<std::uint32_t>& side, std::uint16_t n) {
        for (std::uint16_t i = 0; i < n; ++i) {
          const std::uint64_t k = zipf_[a.region] != nullptr ? zipf_[a.region]->sample(rng)
                                                             : rng.below(r.lines);
          side.push_back(static_cast<std::uint32_t>(base + k));
        }
      };
      draw(out.reads, a.reads);
      draw(out.writes, a.writes);
    }
    for (auto* side : {&out.reads, &out.writes}) {
      std::sort(side->begin(), side->end());
      side->erase(std::unique(side->begin(), side->end()), side->end());
    }
    return out;
  }

 private:
  const stamp::WorkloadSpec& spec_;
  std::vector<std::uint64_t> base_;
  std::vector<std::unique_ptr<util::Zipf>> zipf_;
};

// Samples `n` instances of `spec` round-robin over its threads, each into
// one reused instance, and checks each and the RNG's end state against the
// reference. Returns the lines sampled.
std::size_t expect_canonical(const stamp::WorkloadSpec& spec, std::size_t n_threads, int n,
                             std::uint64_t seed, const std::string& where) {
  stamp::SpecWorkload wl(spec, n_threads);
  const ReferenceSampler ref(wl.spec(), n_threads);
  util::Xoshiro256 rng(seed);
  util::Xoshiro256 twin(seed);
  sim::TxInstance got;
  std::size_t lines = 0;
  for (int i = 0; i < n; ++i) {
    const auto thread = static_cast<core::ThreadId>(static_cast<std::size_t>(i) % n_threads);
    wl.next(thread, 0.5, rng, got);
    const sim::TxInstance want = ref.next(thread, twin);
    const std::string at = where + " instance " + std::to_string(i) + " (type " +
                           wl.type_name(want.type) + ", thread " + std::to_string(thread) + ")";
    EXPECT_EQ(got.type, want.type) << at;
    EXPECT_EQ(got.duration, want.duration) << at;
    EXPECT_EQ(got.reads, want.reads) << at << ": reads";
    EXPECT_EQ(got.writes, want.writes) << at << ": writes";
    if (::testing::Test::HasFailure()) return lines;
    lines += got.reads.size() + got.writes.size();
  }
  EXPECT_EQ(rng.state(), twin.state()) << where << ": the RNG's end state";
  return lines;
}

stamp::Region region(std::string name, std::uint64_t lines, double skew = 0.0,
                     bool per_thread = false) {
  return {.name = std::move(name),
          .lines = static_cast<std::uint32_t>(lines),
          .zipf_skew = skew,
          .per_thread = per_thread};
}

// The grid the radix canonicalization was checked on, restated through the
// grouped path: every side size from 0 to 96 and 500, 1000 and 4000 draws,
// over six value shapes — heavy repeats, one shared digit with an outlier
// drawn first, the widest radix-sorted region, the top 16 line ids, the
// full range with 0xFFFFFFFF forced in, and 0xFFFFFFFF alone. The regions
// fill the 32-bit line space exactly, so the last line is 0xFFFFFFFF.
TEST(GroupedCanonicalization, GridMatchesSortUnique) {
  const std::uint64_t seed = master_seed();
  constexpr std::uint64_t kDigitBase = 0x00ABCD00u;
  constexpr std::uint64_t kMidLines = std::uint64_t{1} << 22;
  constexpr std::uint64_t kOutlier = 0xFFFFFF00u;
  constexpr std::uint64_t kTop16 = 0xFFFFFFF0u;
  stamp::WorkloadSpec spec;
  spec.regions = {region("repeats", 8),
                  region("pad", kDigitBase - 8),
                  region("digit", 256),
                  region("mid", kMidLines),
                  region("wide", kOutlier - (kDigitBase + 256 + kMidLines)),
                  region("outlier", 1),
                  region("pad2", kTop16 - (kOutlier + 1)),
                  region("top15", 15),
                  region("top", 1)};
  enum : std::uint16_t { kRepeats, kPad, kDigit, kMid, kWide, kOutlierR, kPad2, kTop15, kTop };
  ASSERT_EQ(stamp::laid_out_lines(spec, 1), stamp::kMaxLineSpace);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 96; ++n) sizes.push_back(n);
  for (const std::size_t n : {500, 1000, 4000}) sizes.push_back(n);
  for (const std::size_t size : sizes) {
    const auto n = static_cast<std::uint16_t>(size);
    const auto rest = static_cast<std::uint16_t>(n > 0 ? n - 1 : 0);
    const std::uint16_t one = n > 0 ? 1 : 0;
    // Each access draws the same count of reads and writes.
    const auto acc = [](std::uint16_t r, std::uint16_t count) {
      return stamp::RegionAccess{.region = r, .reads = count, .writes = count};
    };
    const std::vector<std::pair<const char*, util::SmallVec<stamp::RegionAccess, 6>>> shapes = {
        {"repeats", {acc(kRepeats, n)}},
        {"digit+outlier", {acc(kOutlierR, one), acc(kDigit, rest)}},
        {"mid", {acc(kMid, n)}},
        {"top16", {acc(kTop, one), acc(kTop15, rest)}},
        {"wide+top", {acc(kWide, rest), acc(kTop, one)}},
        {"top", {acc(kTop, n)}},
    };
    for (const auto& [what, accesses] : shapes) {
      stamp::WorkloadSpec one_type = spec;
      one_type.types = {{.name = what, .duration_mean = 100, .accesses = accesses}};
      one_type.phases = {{.fraction = 1.0, .mix = {1.0}}};
      expect_canonical(one_type, 2, 3, seed,
                       std::string(what) + " n=" + std::to_string(size));
      if (HasFailure()) FAIL() << replay_hint(seed);
    }
  }
}

// A random layout: 1-8 regions, dense and sparse, some per-thread, some
// Zipf-skewed, sometimes filled to the top of the 32-bit line space; 1-5
// types of 1-6 accesses whose sides draw nothing, at most 16 lines or
// more. Type 0 lists its regions in descending order, and an access may
// repeat a region already drawn on the same side.
stamp::WorkloadSpec random_layout(util::Xoshiro256& rng, std::size_t n_threads) {
  stamp::WorkloadSpec spec;
  spec.name = "random";
  const std::size_t n_regions = 1 + rng.below(8);
  std::uint64_t laid_out = 0;
  for (std::size_t i = 0; i < n_regions; ++i) {
    // Line counts from 1 to 2^26, log-uniform: one-word bitmaps to
    // regions past the radix's widest digits.
    std::uint64_t lines = std::uint64_t{1} << rng.below(27);
    lines += rng.below(lines);
    const bool per_thread = rng.below(4) == 0 && lines <= 4096;
    const double skew = lines <= 4096 && rng.below(3) == 0 ? 0.2 + rng.uniform01() : 0.0;
    const bool top = i > 0 && i + 1 == n_regions && !per_thread && rng.below(3) == 0;
    if (top) lines = stamp::kMaxLineSpace - laid_out;  // ends at 0xFFFFFFFF
    spec.regions.push_back(
        region("r" + std::to_string(i), lines, top ? 0.0 : skew, per_thread));
    laid_out += lines * (per_thread ? n_threads : 1);
  }
  // A side's draws: none, a few, or many.
  const auto count = [&rng]() -> std::uint16_t {
    switch (rng.below(4)) {
      case 0: return 0;
      case 1: return static_cast<std::uint16_t>(1 + rng.below(8));
      case 2: return static_cast<std::uint16_t>(9 + rng.below(56));
      default: return static_cast<std::uint16_t>(rng.below(700));
    }
  };
  const std::size_t n_types = 1 + rng.below(5);
  std::vector<double> mix;
  for (std::size_t t = 0; t < n_types; ++t) {
    stamp::TxTypeSpec ts;
    ts.name = "t" + std::to_string(t);
    ts.duration_mean = 1 + rng.below(5000);
    ts.duration_jitter = rng.uniform01() * 0.9;
    const std::size_t n_accesses = 1 + rng.below(6);
    for (std::size_t a = 0; a < n_accesses; ++a) {
      ts.accesses.push_back({.region = static_cast<std::uint16_t>(rng.below(n_regions)),
                             .reads = count(),
                             .writes = count()});
    }
    if (t == 0) {
      std::sort(ts.accesses.begin(), ts.accesses.end(),
                [](const stamp::RegionAccess& x, const stamp::RegionAccess& y) {
                  return x.region > y.region;
                });
    }
    spec.types.push_back(std::move(ts));
    mix.push_back(0.5 + rng.uniform01());
  }
  spec.phases = {{.fraction = 1.0, .mix = mix}};
  return spec;
}

TEST(GroupedCanonicalization, RandomLayoutsMatchSortUnique) {
  const std::uint64_t master = master_seed();
  const std::uint64_t iters = property_iters(20);
  std::size_t lines = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = master + i;
    util::Xoshiro256 rng(seed);
    const std::size_t n_threads = 1 + rng.below(4);
    const stamp::WorkloadSpec spec = random_layout(rng, n_threads);
    lines += expect_canonical(spec, n_threads, 300, rng.next(),
                              "layout seed " + std::to_string(seed));
    if (HasFailure()) FAIL() << replay_hint(seed);
  }
  EXPECT_GT(lines, 0u) << "the layouts never drew a line";
}

}  // namespace
}  // namespace seer
