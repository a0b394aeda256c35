// policy_faceoff — compare every scheduling policy on one workload.
//
// Thread-count sweep of HLE / RTM / SCM / ATS / SGL / Seer on a chosen
// STAMP stand-in, printing the Figure-3-style speedup curves plus fallback
// rates side by side.
//
//   usage: policy_faceoff [workload=genome] [txs=3000] [seed=7]
//
// `workload` is any registered generator name; txs (per thread) is
// 1-1000000 and seed any 64-bit unsigned value.
#include <cstdio>
#include <string>

#include "sim/machine.hpp"
#include "util/cli.hpp"
#include "workload/registry.hpp"

using namespace seer;

int main(int argc, char** argv) {
  using util::cli::parse_flag;
  const std::string name = argc > 1 ? argv[1] : "genome";
  const std::uint64_t txs =
      argc > 2 ? parse_flag<std::uint64_t>("txs", argv[2], 1, 1000000) : 3000;
  const std::uint64_t seed =
      argc > 3 ? parse_flag<std::uint64_t>("seed", argv[3], 0, UINT64_MAX) : 7;

  constexpr rt::PolicyKind kPolicies[] = {rt::PolicyKind::kHle, rt::PolicyKind::kRtm,
                                          rt::PolicyKind::kScm, rt::PolicyKind::kAts,
                                          rt::PolicyKind::kSgl, rt::PolicyKind::kSeer};
  constexpr std::size_t kThreads[] = {1, 2, 4, 6, 8};

  workload::Desc desc;
  try {
    desc = workload::find(name);
  } catch (const workload::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::printf("workload %s, %llu txs/thread, seed %llu\n\n", name.c_str(),
              static_cast<unsigned long long>(txs),
              static_cast<unsigned long long>(seed));
  std::printf("speedup vs sequential:\n%-6s", "thr");
  for (auto kind : kPolicies) std::printf("  %8s", rt::to_string(kind));
  std::printf("\n");

  double sgl_at_8[std::size(kPolicies)] = {};
  double abcm_at_8[std::size(kPolicies)] = {};

  for (std::size_t threads : kThreads) {
    std::printf("%-6zu", threads);
    for (std::size_t pi = 0; pi < std::size(kPolicies); ++pi) {
      sim::MachineConfig cfg;
      cfg.n_threads = threads;
      cfg.txs_per_thread = txs;
      cfg.policy.kind = kPolicies[pi];
      cfg.seed = seed;
      const sim::MachineStats s = sim::run_machine(cfg, desc.make(threads));
      std::printf("  %8.2f", s.speedup());
      if (threads == 8) {
        sgl_at_8[pi] = s.mode_fraction(rt::CommitMode::kSglFallback);
        abcm_at_8[pi] =
            static_cast<double>(s.aborts()) / static_cast<double>(s.commits);
      }
    }
    std::printf("\n");
  }

  std::printf("\nat 8 threads:\n%-18s", "SGL fallback %");
  for (std::size_t pi = 0; pi < std::size(kPolicies); ++pi) {
    std::printf("  %8.1f", 100.0 * sgl_at_8[pi]);
  }
  std::printf("\n%-18s", "aborts/commit");
  for (std::size_t pi = 0; pi < std::size(kPolicies); ++pi) {
    std::printf("  %8.2f", abcm_at_8[pi]);
  }
  std::printf("\n");
  return 0;
}
