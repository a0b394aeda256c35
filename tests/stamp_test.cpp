// Tests for the STAMP workload specifications and the SpecWorkload sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "stamp/spec.hpp"
#include "stamp/workloads.hpp"
#include "util/json.hpp"
#include "workload/registry.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

// Counting forwarders: SpecWorkload.WarmInstanceSamplingAllocatesNothing
// reads how often the sampler reaches the global allocator. GCC cannot see
// through them and flags new/free pairs that are malloc/free end to end.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace seer::stamp {
namespace {

std::unique_ptr<sim::Workload> make_workload(const std::string& name,
                                             std::size_t n_threads) {
  return workload::find(name).make(n_threads);
}

// ----------------------------------------------------------- registry ------

TEST(Registry, HasTheEightPaperBenchmarks) {
  const auto& all = all_workloads();
  ASSERT_EQ(all.size(), 8u);
  const std::vector<std::string> expected = {
      "genome",       "intruder",      "kmeans-high", "kmeans-low",
      "ssca2",        "vacation-high", "vacation-low", "yada"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(all[i].name, expected[i]);
    EXPECT_GT(all[i].bench_txs_per_thread, 0u);
  }
}

TEST(Registry, MakeWorkloadByName) {
  const auto wl = make_workload("intruder", 8);
  EXPECT_EQ(wl->name(), "intruder");
  EXPECT_EQ(wl->n_types(), 3u);
}

TEST(Registry, UnknownNameThrows) {
  // Labyrinth is the STAMP benchmark the paper leaves out.
  EXPECT_THROW((void)make_workload("labyrinth", 8), workload::ConfigError);
}

// ---------------------------------------------------------- spec sanity ----

class SpecSanity : public ::testing::TestWithParam<std::string> {};

TEST_P(SpecSanity, StructurallyValid) {
  WorkloadSpec spec;
  for (const auto& info : all_workloads()) {
    if (info.name == GetParam()) spec = info.spec();
  }
  ASSERT_FALSE(spec.types.empty());
  ASSERT_FALSE(spec.regions.empty());
  double frac = 0.0;
  for (const Phase& p : spec.phases) {
    EXPECT_EQ(p.mix.size(), spec.types.size());
    EXPECT_GT(p.fraction, 0.0);
    double mix_total = 0.0;
    for (double m : p.mix) {
      EXPECT_GE(m, 0.0);
      mix_total += m;
    }
    EXPECT_GT(mix_total, 0.0);
    frac += p.fraction;
  }
  EXPECT_NEAR(frac, 1.0, 1e-9);
  for (const TxTypeSpec& t : spec.types) {
    EXPECT_GT(t.duration_mean, 0u);
    EXPECT_GE(t.duration_jitter, 0.0);
    EXPECT_LT(t.duration_jitter, 1.0);
    EXPECT_FALSE(t.accesses.empty());
    for (const RegionAccess& a : t.accesses) {
      ASSERT_LT(a.region, spec.regions.size());
      EXPECT_GT(a.reads + a.writes, 0);
    }
  }
  for (const Region& r : spec.regions) {
    EXPECT_GT(r.lines, 0u);
    EXPECT_GE(r.zipf_skew, 0.0);
  }
}

TEST_P(SpecSanity, SamplesAreWellFormed) {
  const auto wl = make_workload(GetParam(), 8);
  util::Xoshiro256 rng(99);
  sim::TxInstance inst;
  for (int i = 0; i < 300; ++i) {
    const double progress = i / 300.0;
    wl->next(i % 8, progress, rng, inst);
    ASSERT_GE(inst.type, 0);
    ASSERT_LT(static_cast<std::size_t>(inst.type), wl->n_types());
    EXPECT_GT(inst.duration, 0u);
    EXPECT_TRUE(std::is_sorted(inst.reads.begin(), inst.reads.end()));
    EXPECT_TRUE(std::is_sorted(inst.writes.begin(), inst.writes.end()));
    EXPECT_TRUE(std::adjacent_find(inst.reads.begin(), inst.reads.end()) ==
                inst.reads.end())
        << "duplicate read lines";
    EXPECT_TRUE(std::adjacent_find(inst.writes.begin(), inst.writes.end()) ==
                inst.writes.end())
        << "duplicate write lines";
    EXPECT_LE(inst.footprint_lines(), 1500u) << "implausibly large footprint";
  }
}

TEST_P(SpecSanity, ThinkTimesArePositiveAndBounded) {
  const auto wl = make_workload(GetParam(), 8);
  util::Xoshiro256 rng(7);
  double sum = 0.0;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    const std::uint64_t t = wl->think_time(0, rng);
    EXPECT_LT(t, 1000000u);
    sum += static_cast<double>(t);
  }
  EXPECT_GT(sum / kN, 0.0);
}

INSTANTIATE_TEST_SUITE_P(All, SpecSanity,
                         ::testing::Values("genome", "intruder", "kmeans-high",
                                           "kmeans-low", "ssca2", "vacation-high",
                                           "vacation-low", "yada"));

// ------------------------------------------------------- SpecWorkload ------

TEST(SpecWorkload, DurationWithinJitterBounds) {
  WorkloadSpec spec;
  spec.name = "jitter";
  spec.regions = {{.name = "r", .lines = 64}};
  spec.types = {{.name = "t",
                 .duration_mean = 1000,
                 .duration_jitter = 0.25,
                 .accesses = {{.region = 0, .reads = 1, .writes = 0}}}};
  SpecWorkload wl(std::move(spec), 2);
  util::Xoshiro256 rng(5);
  sim::TxInstance inst;
  for (int i = 0; i < 500; ++i) {
    wl.next(0, 0.0, rng, inst);
    EXPECT_GE(inst.duration, 750u);
    EXPECT_LE(inst.duration, 1250u);
  }
}

TEST(SpecWorkload, PerThreadRegionsAreDisjoint) {
  WorkloadSpec spec;
  spec.name = "private";
  spec.regions = {{.name = "priv", .lines = 32, .zipf_skew = 0.0, .per_thread = true}};
  spec.types = {{.name = "t",
                 .duration_mean = 100,
                 .duration_jitter = 0.0,
                 .accesses = {{.region = 0, .reads = 8, .writes = 4}}}};
  SpecWorkload wl(std::move(spec), 4);
  util::Xoshiro256 rng(5);
  std::set<std::uint32_t> seen[4];
  sim::TxInstance inst;
  for (core::ThreadId t = 0; t < 4; ++t) {
    for (int i = 0; i < 100; ++i) {
      wl.next(t, 0.0, rng, inst);
      for (auto l : inst.reads) seen[t].insert(l);
      for (auto l : inst.writes) seen[t].insert(l);
    }
  }
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      std::vector<std::uint32_t> inter;
      std::set_intersection(seen[a].begin(), seen[a].end(), seen[b].begin(),
                            seen[b].end(), std::back_inserter(inter));
      EXPECT_TRUE(inter.empty())
          << "threads " << a << " and " << b << " share private lines";
    }
  }
}

TEST(SpecWorkload, SharedRegionsDoOverlapAcrossThreads) {
  WorkloadSpec spec;
  spec.name = "shared";
  spec.regions = {{.name = "hot", .lines = 4}};
  spec.types = {{.name = "t",
                 .duration_mean = 100,
                 .duration_jitter = 0.0,
                 .accesses = {{.region = 0, .reads = 2, .writes = 2}}}};
  SpecWorkload wl(std::move(spec), 2);
  util::Xoshiro256 rng(5);
  sim::TxInstance a;
  sim::TxInstance b;
  int conflicts = 0;
  for (int i = 0; i < 200; ++i) {
    wl.next(0, 0.0, rng, a);
    wl.next(1, 0.0, rng, b);
    if (sim::instances_conflict(a, b)) ++conflicts;
  }
  EXPECT_GT(conflicts, 100) << "4-line hot region must collide often";
}

TEST(SpecWorkload, PhasesFollowProgress) {
  WorkloadSpec spec;
  spec.name = "phased";
  spec.regions = {{.name = "r", .lines = 64}};
  spec.types = {{.name = "a",
                 .duration_mean = 100,
                 .duration_jitter = 0.0,
                 .accesses = {{.region = 0, .reads = 1, .writes = 0}}},
                {.name = "b",
                 .duration_mean = 100,
                 .duration_jitter = 0.0,
                 .accesses = {{.region = 0, .reads = 1, .writes = 0}}}};
  spec.phases = {{.fraction = 0.5, .mix = {1, 0}}, {.fraction = 0.5, .mix = {0, 1}}};
  SpecWorkload wl(std::move(spec), 1);
  util::Xoshiro256 rng(5);
  sim::TxInstance inst;
  for (int i = 0; i < 100; ++i) {
    wl.next(0, 0.1, rng, inst);
    EXPECT_EQ(inst.type, 0) << "early progress must sample phase-1 types";
    wl.next(0, 0.9, rng, inst);
    EXPECT_EQ(inst.type, 1) << "late progress must sample phase-2 types";
  }
}

TEST(SpecWorkload, DefaultPhaseIsUniformMix) {
  WorkloadSpec spec;
  spec.name = "nophase";
  spec.regions = {{.name = "r", .lines = 64}};
  spec.types = {{.name = "a",
                 .duration_mean = 100,
                 .duration_jitter = 0.0,
                 .accesses = {{.region = 0, .reads = 1, .writes = 0}}},
                {.name = "b",
                 .duration_mean = 100,
                 .duration_jitter = 0.0,
                 .accesses = {{.region = 0, .reads = 1, .writes = 0}}}};
  SpecWorkload wl(std::move(spec), 1);
  util::Xoshiro256 rng(5);
  sim::TxInstance inst;
  int count_a = 0;
  constexpr int kN = 4000;
  for (int i = 0; i < kN; ++i) {
    wl.next(0, 0.5, rng, inst);
    if (inst.type == 0) ++count_a;
  }
  EXPECT_NEAR(count_a / static_cast<double>(kN), 0.5, 0.05);
}

// The generator contract lets different threads sample concurrently, one
// caller per thread. Four threads drive one workload at once — long reads
// that take the radix path through each thread's scratch lane, Zipf draws,
// a per-thread region — and each thread's stream must equal a
// single-threaded replay. Under tsan this also checks the lanes share no
// state.
TEST(SpecWorkload, ConcurrentThreadsMatchSingleThreadedReplay) {
  WorkloadSpec spec;
  spec.name = "lanes";
  spec.regions = {{.name = "mesh", .lines = 1u << 19},
                  {.name = "hot", .lines = 512, .zipf_skew = 0.8},
                  {.name = "own", .lines = 64, .zipf_skew = 0.0, .per_thread = true}};
  spec.types = {{.name = "refine",
                 .duration_mean = 4000,
                 .duration_jitter = 0.3,
                 .accesses = {{.region = 0, .reads = 300, .writes = 120},
                              {.region = 1, .reads = 40, .writes = 2}}},
                {.name = "touch",
                 .duration_mean = 300,
                 .duration_jitter = 0.3,
                 .accesses = {{.region = 1, .reads = 3, .writes = 1},
                              {.region = 2, .reads = 4, .writes = 4}}}};
  constexpr std::size_t kThreads = 4;
  constexpr int kPerThread = 400;
  const auto stream = [](SpecWorkload& wl, core::ThreadId t) {
    util::Xoshiro256 rng(1000 + t);
    std::vector<sim::TxInstance> out(kPerThread);
    for (int i = 0; i < kPerThread; ++i) {
      wl.next(t, static_cast<double>(i) / kPerThread, rng,
              out[static_cast<std::size_t>(i)]);
    }
    return out;
  };

  SpecWorkload shared(spec, kThreads);
  std::vector<std::vector<sim::TxInstance>> concurrent(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      concurrent[t] = stream(shared, static_cast<core::ThreadId>(t));
    });
  }
  for (std::thread& w : workers) w.join();

  SpecWorkload replay(spec, kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::vector<sim::TxInstance> want =
        stream(replay, static_cast<core::ThreadId>(t));
    for (std::size_t i = 0; i < want.size(); ++i) {
      const sim::TxInstance& got = concurrent[t][i];
      ASSERT_EQ(got.type, want[i].type) << "thread " << t << " instance " << i;
      ASSERT_EQ(got.duration, want[i].duration) << "thread " << t << " instance " << i;
      ASSERT_EQ(got.reads, want[i].reads) << "thread " << t << " instance " << i;
      ASSERT_EQ(got.writes, want[i].writes) << "thread " << t << " instance " << i;
    }
  }
}

// A "spec" config whose types read a region twice, write a per-thread
// region, draw from a Zipf table and from a one-line region (which takes no
// draw), with 40 + 6 and 66 draws as `hot`'s transfer and audit have, and
// two phases.
constexpr const char* kGoldenConfig = R"({"generator": "spec", "params": {
  "regions": [{"name": "table", "lines": 65536},
              {"name": "hot", "lines": 300, "zipf_skew": 0.9},
              {"name": "own", "lines": 50, "per_thread": true},
              {"name": "flag", "lines": 1}],
  "types": [{"name": "transfer", "duration_mean": 400,
             "accesses": [{"region": "table", "reads": 40},
                          {"region": "hot", "writes": 2},
                          {"region": "table", "writes": 4}]},
            {"name": "audit", "duration_mean": 600,
             "accesses": [{"region": "hot", "reads": 2},
                          {"region": "table", "reads": 64}]},
            {"name": "refine", "duration_mean": 3000, "duration_jitter": 0.5,
             "accesses": [{"region": "table", "reads": 45, "writes": 7},
                          {"region": "own", "reads": 5, "writes": 5},
                          {"region": "flag", "reads": 1, "writes": 1},
                          {"region": "table", "reads": 20},
                          {"region": "hot", "reads": 3, "writes": 1},
                          {"region": "own", "writes": 2}]},
            {"name": "poke", "duration_mean": 200,
             "accesses": [{"region": "own", "writes": 2},
                          {"region": "flag", "reads": 1}]}],
  "phases": [{"fraction": 0.5, "mix": [6, 1, 2, 1]},
             {"fraction": 0.5, "mix": [1, 1, 3, 2]}]}})";

std::unique_ptr<sim::Workload> make_golden_config(std::size_t n_threads) {
  std::string err;
  const auto doc = util::json::parse(kGoldenConfig, &err);
  EXPECT_TRUE(doc.has_value()) << err;
  return workload::from_config_json(doc.value_or(util::json::Value{}), "<golden>")
      .make(n_threads);
}

// FNV-1a over every field of `n` instances sampled round-robin over the
// workload's 4 threads into one reused instance, then over the RNG's end
// state.
std::uint64_t stream_hash(sim::Workload& wl, std::uint64_t seed, int n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  util::Xoshiro256 rng(seed);
  sim::TxInstance inst;
  for (int i = 0; i < n; ++i) {
    wl.next(static_cast<core::ThreadId>(i % 4), static_cast<double>(i) / n, rng, inst);
    mix(static_cast<std::uint64_t>(inst.type));
    mix(inst.duration);
    for (const auto* lines : {&inst.reads, &inst.writes}) {
      mix(lines->size());
      for (const std::uint32_t l : *lines) mix(l);
    }
  }
  for (const std::uint64_t w : rng.state()) mix(w);
  return h;
}

// Every exhibit, both backends and seer_serve take their instances from
// SpecWorkload::next, so a sampler change that moves one line, one draw or
// the RNG's end state moves every simulated number. These hashes pin the
// streams of 2 000 instances per stand-in at two seeds, and of the config
// above.
TEST(GoldenStream, InstanceStreamsMatchPinnedHashes) {
  struct Golden {
    const char* name;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Golden golden[] = {
      {"genome", 1, 8874499589807335471ULL},
      {"genome", 7, 4012266007594098805ULL},
      {"intruder", 1, 15967146193125653892ULL},
      {"intruder", 7, 5071999716284149379ULL},
      {"kmeans-high", 1, 11100139003935350412ULL},
      {"kmeans-high", 7, 2828345684979373845ULL},
      {"kmeans-low", 1, 12348168318125087895ULL},
      {"kmeans-low", 7, 12806197762386428523ULL},
      {"ssca2", 1, 1211697677774997896ULL},
      {"ssca2", 7, 3098401301756489828ULL},
      {"vacation-high", 1, 761952084351805540ULL},
      {"vacation-high", 7, 6197777455815046940ULL},
      {"vacation-low", 1, 12161265955418102021ULL},
      {"vacation-low", 7, 17123589810257172442ULL},
      {"yada", 1, 18033084895341145272ULL},
      {"yada", 7, 4334190709012555198ULL},
      {"<golden>", 1, 13747043944773107366ULL},
      {"<golden>", 7, 6331706100191139044ULL},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(std::string(g.name) + " seed " + std::to_string(g.seed));
    const std::unique_ptr<sim::Workload> wl = std::string(g.name) == "<golden>"
                                                  ? make_golden_config(4)
                                                  : make_workload(g.name, 4);
    EXPECT_EQ(stream_hash(*wl, g.seed, 2000), g.hash);
  }
}

// The 8 stand-ins and the config above, each at 4 threads.
std::vector<std::unique_ptr<sim::Workload>> stand_ins_and_golden_config() {
  std::vector<std::unique_ptr<sim::Workload>> wls;
  for (const std::string& name : workload::stamp_names()) {
    wls.push_back(make_workload(name, 4));
  }
  wls.push_back(make_golden_config(4));
  return wls;
}

// The type's total read and write draws: what next() sizes an instance to.
std::pair<std::size_t, std::size_t> draw_totals(const sim::Workload& wl,
                                                core::TxTypeId type) {
  const auto& spec = dynamic_cast<const SpecWorkload&>(wl).spec();
  std::size_t reads = 0;
  std::size_t writes = 0;
  for (const RegionAccess& a : spec.types[static_cast<std::size_t>(type)].accesses) {
    reads += a.reads;
    writes += a.writes;
  }
  return {reads, writes};
}

// A fresh instance is allocated once, at exactly its type's draw counts,
// so a caller that keeps fresh instances (perfbench's pools, the serving
// queue) holds no slack.
TEST(SpecWorkload, FreshInstanceStorageIsSizedToTheTypeDraws) {
  for (const auto& wl : stand_ins_and_golden_config()) {
    SCOPED_TRACE(wl->name());
    util::Xoshiro256 rng(3);
    for (int i = 0; i < 200; ++i) {
      sim::TxInstance inst;
      wl->next(static_cast<core::ThreadId>(i % 4), i / 200.0, rng, inst);
      const auto [reads, writes] = draw_totals(*wl, inst.type);
      ASSERT_EQ(inst.reads.capacity(), reads) << wl->type_name(inst.type);
      ASSERT_EQ(inst.writes.capacity(), writes) << wl->type_name(inst.type);
    }
  }
}

// An instance the caller reuses (the machine's per-thread instance) is
// refilled in place: once it and the thread's sort buffer have held the
// largest type, sampling reaches the allocator no more.
TEST(SpecWorkload, WarmInstanceSamplingAllocatesNothing) {
  const std::uint64_t before_probe = g_news.load();
  void* p = ::operator new(8);
  ::operator delete(p);
  ASSERT_GT(g_news.load(), before_probe) << "the counting operator new is not linked in";

  for (const auto& wl : stand_ins_and_golden_config()) {
    SCOPED_TRACE(wl->name());
    util::Xoshiro256 rng(11);
    sim::TxInstance inst;
    // Warm-up: every type, so both vectors reach the largest draw counts.
    std::vector<bool> seen(wl->n_types());
    for (int i = 0; i < 20000 && std::count(seen.begin(), seen.end(), false) > 0; ++i) {
      wl->next(1, i % 2 == 0 ? 0.25 : 0.75, rng, inst);
      seen[static_cast<std::size_t>(inst.type)] = true;
    }
    ASSERT_EQ(std::count(seen.begin(), seen.end(), false), 0);
    const std::uint64_t before = g_news.load();
    for (int i = 0; i < 2000; ++i) wl->next(1, i / 2000.0, rng, inst);
    EXPECT_EQ(g_news.load(), before) << "a warm instance reached the allocator";
  }
}

TEST(SpecWorkload, TypeNamesExposed) {
  const auto wl = make_workload("intruder", 4);
  EXPECT_EQ(wl->type_name(0), "capture");
  EXPECT_EQ(wl->type_name(1), "reassemble");
  EXPECT_EQ(wl->type_name(2), "detect");
}

// Domain-structure checks on the calibrated specs --------------------------

TEST(WorkloadStructure, IntruderCapturesSelfConflict) {
  const auto wl = make_workload("intruder", 8);
  util::Xoshiro256 rng(31);
  sim::TxInstance a;
  sim::TxInstance b;
  int conflicts = 0;
  int trials = 0;
  for (int i = 0; i < 3000 && trials < 300; ++i) {
    wl->next(0, 0.5, rng, a);
    if (a.type != 0) continue;
    wl->next(1, 0.5, rng, b);
    if (b.type != 0) continue;
    ++trials;
    if (sim::instances_conflict(a, b)) ++conflicts;
  }
  ASSERT_GT(trials, 50);
  EXPECT_GT(conflicts, trials / 10) << "queue head must make captures collide";
}

TEST(WorkloadStructure, Ssca2IsNearlyConflictFree) {
  const auto wl = make_workload("ssca2", 8);
  util::Xoshiro256 rng(31);
  sim::TxInstance a;
  sim::TxInstance b;
  int conflicts = 0;
  for (int i = 0; i < 2000; ++i) {
    wl->next(0, 0.5, rng, a);
    wl->next(1, 0.5, rng, b);
    if (sim::instances_conflict(a, b)) ++conflicts;
  }
  EXPECT_LT(conflicts, 20);
}

TEST(WorkloadStructure, YadaCavitiesPressSmtCapacity) {
  const auto wl = make_workload("yada", 8);
  util::Xoshiro256 rng(31);
  sim::TxInstance inst;
  std::size_t big = 0;
  std::size_t trials = 0;
  for (int i = 0; i < 2000; ++i) {
    wl->next(0, 0.5, rng, inst);
    if (inst.type != 0) continue;  // refine_cavity
    ++trials;
    // Fits a full core budget (448) but not the SMT-shared half (224).
    if (inst.footprint_lines() > 224 && inst.footprint_lines() <= 448) ++big;
  }
  ASSERT_GT(trials, 100);
  EXPECT_GT(big, trials * 9 / 10);
}

TEST(WorkloadStructure, KmeansHighHotterThanLow) {
  const auto probe = [](const char* name) {
    const auto wl = make_workload(name, 8);
    util::Xoshiro256 rng(13);
    sim::TxInstance a;
    sim::TxInstance b;
    int conflicts = 0;
    int trials = 0;
    while (trials < 400) {
      wl->next(0, 0.5, rng, a);
      if (a.type != 1) continue;  // update_centers
      wl->next(1, 0.5, rng, b);
      if (b.type != 1) continue;
      ++trials;
      if (sim::instances_conflict(a, b)) ++conflicts;
    }
    return conflicts;
  };
  EXPECT_GT(probe("kmeans-high"), 2 * probe("kmeans-low"));
}

}  // namespace
}  // namespace seer::stamp
