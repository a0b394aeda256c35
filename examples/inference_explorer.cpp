// inference_explorer — look inside Seer's probabilistic inference.
//
// Runs one simulated experiment (workload and thread count from the command
// line) under Seer and dumps everything the scheduler knows at the end:
// the merged commit/abort matrices, the conditional and conjunctive
// probabilities of Alg. 5, the self-tuned thresholds, and the resulting
// locking scheme — annotated with the workload's actual atomic-block names.
//
//   usage: inference_explorer [workload=intruder] [threads=8] [txs=4000]
//
// `workload` is any registered generator name; threads is 1-256 and txs
// (per thread) 1-1000000.
#include <cstdio>

#include "core/probability.hpp"
#include "sim/machine.hpp"
#include "util/cli.hpp"
#include "workload/registry.hpp"

using namespace seer;

int main(int argc, char** argv) {
  using util::cli::parse_flag;
  const std::string name = argc > 1 ? argv[1] : "intruder";
  const std::size_t threads =
      argc > 2 ? parse_flag<std::size_t>("threads", argv[2], 1, core::kMaxThreads) : 8;
  const std::uint64_t txs =
      argc > 3 ? parse_flag<std::uint64_t>("txs", argv[3], 1, 1000000) : 4000;

  sim::MachineConfig cfg;
  cfg.n_threads = threads;
  cfg.txs_per_thread = txs;
  cfg.policy.kind = rt::PolicyKind::kSeer;
  cfg.seed = 42;

  std::unique_ptr<sim::Workload> wl;
  try {
    wl = workload::find(name).make(threads);
  } catch (const workload::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  sim::Machine machine(cfg, std::move(wl));
  const sim::MachineStats stats = machine.run();
  core::SeerScheduler* seer = machine.policy_shared().seer();

  std::printf("workload %s, %zu threads, %llu txs/thread -> speedup %.2f\n",
              name.c_str(), threads, static_cast<unsigned long long>(txs),
              stats.speedup());
  std::printf("commit modes:");
  for (int m = 0; m < static_cast<int>(rt::CommitMode::kModeCount); ++m) {
    const auto mode = static_cast<rt::CommitMode>(m);
    if (stats.mode_fraction(mode) > 0.0005) {
      std::printf("  [%s %.1f%%]", rt::to_string(mode), 100.0 * stats.mode_fraction(mode));
    }
  }
  std::printf("\naborts per commit: %.2f   (conflict %llu / capacity %llu / "
              "explicit %llu / other %llu)\n\n",
              static_cast<double>(stats.aborts()) / static_cast<double>(stats.commits),
              static_cast<unsigned long long>(stats.aborts_by_cause[0]),
              static_cast<unsigned long long>(stats.aborts_by_cause[1]),
              static_cast<unsigned long long>(stats.aborts_by_cause[2]),
              static_cast<unsigned long long>(stats.aborts_by_cause[3]));

  const core::GlobalStats g = seer->merged_stats();
  const core::ProbabilityModel prob(g);
  const auto& workload_ref = machine.workload();
  const auto n = static_cast<core::TxTypeId>(g.n_types);

  std::printf("merged statistics (a=aborts of x with y active, c=commits):\n");
  for (core::TxTypeId x = 0; x < n; ++x) {
    std::printf("  %-18s e=%-9llu", workload_ref.type_name(x).c_str(),
                static_cast<unsigned long long>(g.execs(x)));
    for (core::TxTypeId y = 0; y < n; ++y) {
      std::printf("  | vs %-12s a=%-8llu c=%-8llu", workload_ref.type_name(y).c_str(),
                  static_cast<unsigned long long>(g.abort(x, y)),
                  static_cast<unsigned long long>(g.commit(x, y)));
    }
    std::printf("\n");
  }

  std::printf("\nAlg. 5 probabilities:\n");
  std::printf("  %-18s", "P(x ab | x||y)");
  for (core::TxTypeId y = 0; y < n; ++y) {
    std::printf("  %12s", workload_ref.type_name(y).c_str());
  }
  std::printf("\n");
  for (core::TxTypeId x = 0; x < n; ++x) {
    std::printf("  %-18s", workload_ref.type_name(x).c_str());
    for (core::TxTypeId y = 0; y < n; ++y) {
      std::printf("  %6.3f/%5.3f", prob.conditional_abort(x, y),
                  prob.conjunctive_abort(x, y));
    }
    std::printf("   (cond/conj)\n");
  }

  std::printf("\nself-tuned thresholds: Th1=%.3f Th2=%.3f  (%llu rebuilds, %llu tuning epochs)\n",
              stats.final_params.th1, stats.final_params.th2,
              static_cast<unsigned long long>(stats.scheme_rebuilds),
              static_cast<unsigned long long>(seer->tuning_epochs()));

  std::printf("\ninferred locking scheme (locksToAcquire):\n");
  for (core::TxTypeId x = 0; x < n; ++x) {
    std::printf("  %-18s ->", workload_ref.type_name(x).c_str());
    const auto& row = stats.final_scheme[static_cast<std::size_t>(x)];
    if (row.empty()) std::printf(" (runs free)");
    for (core::TxTypeId y : row) std::printf(" L[%s]", workload_ref.type_name(y).c_str());
    std::printf("\n");
  }
  return 0;
}
