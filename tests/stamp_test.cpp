// Tests for the STAMP workload specifications and the SpecWorkload sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "stamp/spec.hpp"
#include "stamp/workloads.hpp"
#include "workload/registry.hpp"

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
