// Figure 4 — "Overhead of Seer when profiling and calculating locks to
// acquire": a Seer variant that pays for ALL of its mechanisms (announce,
// active-table scans, periodic merge + inference, self-tuning) but never
// acquires any lock, shown relative to RTM at 1..8 threads. The paper
// reports a geometric-mean slowdown under 5%, at most 8%, and at most 4% on
// a low-contention hash-map microbenchmark — which is also reproduced here.
#include <cstdio>
#include <memory>

#include "bench/runner.hpp"
#include "stamp/spec.hpp"

namespace {

using namespace seer;
using bench::Options;

constexpr std::size_t kThreadCounts[] = {1, 2, 3, 4, 5, 6, 7, 8};

// The paper's §5.3 stress case: a small low-contention hash map (4k
// elements, 1k buckets) with short read-modify-write transactions — tiny
// transactions make fixed per-event instrumentation proportionally largest.
stamp::WorkloadSpec hashmap_spec() {
  stamp::WorkloadSpec w;
  w.name = "hashmap-4k";
  w.regions = {
      {.name = "buckets", .lines = 1024, .zipf_skew = 0.0},
      {.name = "elements", .lines = 4096, .zipf_skew = 0.0},
  };
  w.types = {
      {.name = "get",
       .duration_mean = 220,
       .duration_jitter = 0.25,
       .accesses = {{.region = 0, .reads = 1, .writes = 0},
                    {.region = 1, .reads = 2, .writes = 0}}},
      {.name = "put",
       .duration_mean = 300,
       .duration_jitter = 0.25,
       .accesses = {{.region = 0, .reads = 1, .writes = 0},
                    {.region = 1, .reads = 2, .writes = 1}}},
  };
  w.phases = {{.fraction = 1.0, .mix = {8, 2}}};
  w.think_mean = 150;
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  auto workloads = opts.selected();

  const rt::PolicyConfig profile_only = bench::seer_variant(false, false, false, true);
  const rt::PolicyConfig rtm = bench::policy_of(rt::PolicyKind::kRtm);
  const workload::Desc hm("hashmap-4k", 8000, [](std::size_t n_threads) {
    return std::unique_ptr<workload::Generator>(
        std::make_unique<stamp::SpecWorkload>(hashmap_spec(), n_threads));
  });

  // Cells: the STAMP block [(ti, wi) × {Seer-profile, RTM}] followed by the
  // hash-map block [ti × {RTM, Seer-profile}].
  std::vector<bench::Cell> cells;
  for (std::size_t threads : kThreadCounts) {
    for (const auto& info : workloads) {
      cells.push_back({info, profile_only, threads, "Seer-profile-only"});
      cells.push_back({info, rtm, threads, {}});
    }
  }
  const std::size_t hm_base = cells.size();
  for (std::size_t threads : kThreadCounts) {
    cells.push_back({hm, rtm, threads, {}});
    cells.push_back({hm, profile_only, threads, "Seer-profile-only"});
  }
  const auto results = bench::run_cells(cells, opts);

  std::printf("=== Figure 4: overhead of profile-only Seer relative to RTM ===\n");
  std::printf("(Seer with statistics, inference and tuning enabled but no lock\n");
  std::printf(" acquisition; values < 1.0 are slowdown)\n\n");

  std::printf("%-6s  %10s\n", "thr", "geo-mean");
  double worst = 1.0;
  for (std::size_t ti = 0; ti < std::size(kThreadCounts); ++ti) {
    util::GeoMean ratio;
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
      const std::size_t idx = (ti * workloads.size() + wi) * 2;
      const double seer = results[idx].summary.speedup;
      const double base = results[idx + 1].summary.speedup;
      if (base > 0.0) ratio.add(seer / base);
    }
    std::printf("%-6zu  %10.3f\n", kThreadCounts[ti], ratio.value());
    if (ratio.value() < worst) worst = ratio.value();
  }
  std::printf("\nworst geo-mean point: %.1f%% slowdown  [paper: <5%% mean, <=8%% max]\n",
              100.0 * (1.0 - worst));

  // Low-contention hash map stress (paper: at most 4% overhead).
  std::printf("\n--- low-contention hash-map (4k elements / 1k buckets) ---\n");
  std::printf("%-6s  %10s  %10s  %10s\n", "thr", "RTM", "Seer-prof", "ratio");
  for (std::size_t ti = 0; ti < std::size(kThreadCounts); ++ti) {
    const double base = results[hm_base + 2 * ti].summary.speedup;
    const double seer = results[hm_base + 2 * ti + 1].summary.speedup;
    std::printf("%-6zu  %10.2f  %10.2f  %9.1f%%\n", kThreadCounts[ti], base, seer,
                100.0 * (seer / base - 1.0));
  }

  bench::write_outputs("fig4_overhead", cells, results, opts);
  return 0;
}
