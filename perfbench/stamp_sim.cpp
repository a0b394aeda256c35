// The `stamp-sim` workload: the paper's Fig. 3 cell at 8 simulated threads.
// All eight STAMP stand-ins run under Seer and under RTM, one Machine::run
// after another on the calling thread; the simulator samples its instances
// inline through Generator::next.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "harness.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace seer;

namespace {

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
// Warm-up: one Seer run per stand-in at this many transactions per thread.
constexpr std::uint64_t kWarmTxs = 50;
// Instances timed per stand-in for workload.sample_ns.
constexpr std::uint64_t kSampleInstances = 4000;
// Fig. 3 of the paper: Seer over RTM, geomean over STAMP at 8 threads.
constexpr double kPaperSeerOverRtm = 1.62;

std::vector<workload::Desc> set_up(std::uint64_t seed) {
  std::vector<workload::Desc> stamps;
  for (const std::string& name : workload::stamp_names()) {
    stamps.push_back(workload::find(name));
  }
  for (const workload::Desc& d : stamps) {
    sim::Machine m(sim_config(rt::PolicyKind::kSeer, kWarmTxs, seed), d.make(kSimThreads));
    (void)m.run();
  }
  return stamps;
}

struct Pass {
  std::vector<SimCell> cells;  // stand-in major, then kSimPolicies order
  double seconds = 0.0;
  [[nodiscard]] std::uint64_t commits() const {
    std::uint64_t n = 0;
    for (const SimCell& c : cells) n += c.stats.commits;
    return n;
  }
  [[nodiscard]] double rate() const { return static_cast<double>(commits()) / seconds; }
};

// One pass over the 16 cells. With `spans`, each cell gets a `machine.run`
// span; with `sink`, the Seer cells' scheduler is observed.
Pass run_pass(const std::vector<workload::Desc>& stamps, std::uint64_t seed,
              SchedSink* sink, SpanBuffer* spans) {
  Pass p;
  std::uint64_t seq = 0;
  const Clock::time_point t0 = Clock::now();
  for (const workload::Desc& d : stamps) {
    for (const rt::PolicyKind kind : kSimPolicies) {
      std::uint64_t s0 = 0;
      if (spans != nullptr) {
        spans->open_id = ++seq;
        spans->open_child_ns = 0;
        s0 = span_clock();
      }
      p.cells.push_back(run_sim_cell(d, kind, seed, sink));
      if (spans != nullptr) {
        const std::uint64_t s1 = span_clock();
        spans->add({s0, s1, spans->open_id, 0, SpanName::kMachineRun, false},
                   (s1 - s0) - std::min(s1 - s0, spans->open_child_ns));
      }
    }
  }
  p.seconds = seconds_between(t0, Clock::now());
  return p;
}

bool same_run(const sim::MachineStats& a, const sim::MachineStats& b) {
  return a.commits == b.commits && a.makespan == b.makespan &&
         a.hw_attempts == b.hw_attempts && a.aborts_by_cause == b.aborts_by_cause &&
         a.commits_by_mode == b.commits_by_mode;
}

// Every cell must commit threads x txs_per_thread; a repeated pass must
// reproduce the first exactly, since the simulator is deterministic per seed.
void check_pass(Report& r, const std::vector<workload::Desc>& stamps, const Pass& p,
                const Pass* first) {
  for (std::size_t i = 0; i < p.cells.size(); ++i) {
    const SimCell& c = p.cells[i];
    ++r.attempted;
    const std::string label = c.stamp + "/" + rt::to_string(c.policy);
    const std::uint64_t expected = sim_expected_commits(stamps[i / std::size(kSimPolicies)]);
    if (c.stats.commits != expected) {
      ++r.failed;
      r.check_failed(label + " committed " + std::to_string(c.stats.commits) +
                     ", expected " + std::to_string(expected));
    } else if (first != nullptr && !same_run(c.stats, first->cells[i].stats)) {
      ++r.failed;
      r.check_failed(label + " did not repeat the first pass exactly");
    }
  }
}

// Geomean over the stand-ins of each policy's speedup.
void geomeans(const Pass& p, double& seer, double& rtm) {
  util::GeoMean g[2];
  for (std::size_t i = 0; i < p.cells.size(); ++i) {
    g[i % 2].add(p.cells[i].stats.speedup());
  }
  seer = g[0].value();
  rtm = g[1].value();
}

Report measure(const Args& args) {
  Report r;
  std::vector<double> setup_s;
  std::vector<workload::Desc> stamps;
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = k == 0 ? kProcessStart : Clock::now();
    stamps = set_up(args.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Whole passes only, as many as fill --seconds (at least one). A pass is
  // this workload's operation: the user waits for all 16 cells to get the
  // Fig. 3 numbers, and every pass is the same work.
  const Clock::time_point t0 = Clock::now();
  const Pass first = run_pass(stamps, args.seed, nullptr, nullptr);
  check_pass(r, stamps, first, nullptr);
  std::uint64_t commits = first.commits();
  std::vector<double> pass_us = {first.seconds * 1e6};
  const auto n_passes = std::max<long>(1, std::lround(args.seconds / first.seconds));
  for (long i = 1; i < n_passes; ++i) {
    const Pass p = run_pass(stamps, args.seed, nullptr, nullptr);
    check_pass(r, stamps, p, &first);
    commits += p.commits();
    pass_us.push_back(p.seconds * 1e6);
  }
  const double window_s = seconds_between(t0, Clock::now());
  std::string pass_line = "pass host seconds:";
  for (const double us : pass_us) pass_line += " " + std::to_string(us / 1e6).substr(0, 5);
  r.note(pass_line);

  double seer = 0.0;
  double rtm = 0.0;
  geomeans(first, seer, rtm);

  r.note("cell                   speedup   host_s  (first pass)");
  for (const SimCell& c : first.cells) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-14s %-5s %7.2f %8.3f", c.stamp.c_str(),
                  rt::to_string(c.policy), c.stats.speedup(), c.host_s);
    r.note(line);
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "seer_over_rtm %.3fx vs the paper's %.2fx (Fig. 3, STAMP geomean at 8 "
                "threads, Haswell): difference %+.3fx (%+.1f%%)",
                seer / rtm, kPaperSeerOverRtm, seer / rtm - kPaperSeerOverRtm,
                100.0 * (seer / rtm / kPaperSeerOverRtm - 1.0));
  r.note(line);
  r.note("the STAMP stand-ins were calibrated toward these same paper numbers, so this "
         "is not held-out validation");
  r.note("speedup_seer has no hardware reference");

  r.add("commit_rate", static_cast<double>(commits) / window_s, "tx/s", commits);
  r.add("op_p50_us", nearest_rank(pass_us, 0.5), "us", pass_us.size());
  r.add("op_p99_us", nearest_rank(pass_us, 0.99), "us", pass_us.size());
  r.add("speedup_seer", seer, "x", stamps.size());
  r.add("seer_over_rtm", seer / rtm, "x", stamps.size());
  r.add("setup_s", nearest_rank(setup_s, 0.5), "s", setup_s.size());
  r.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  return r;
}

// The traced run: one untraced pass, then one traced pass (machine.run and
// rebuild spans, scheduler sink), then the sampling probe per stand-in.
Report measure_traced(const Args& args) {
  Report r;
  const std::vector<workload::Desc> stamps = set_up(args.seed);
  const Pass untraced = run_pass(stamps, args.seed, nullptr, nullptr);
  check_pass(r, stamps, untraced, nullptr);

  SpanBuffer spans(1u << 16);
  SchedSink sink(kSimThreads, &spans);
  const Pass traced = run_pass(stamps, args.seed, &sink, &spans);
  check_pass(r, stamps, traced, &untraced);

  spans.open_id = 0;  // the sampling probes are roots, not children of a cell
  std::vector<SampleCost> sample;
  for (const workload::Desc& d : stamps) {
    sample.push_back(measure_sampling(d, kSimThreads, args.seed, kSampleInstances, &spans));
  }

  double host_s = 0.0;
  std::uint64_t attempts = 0;
  sim::MachineStats seer;  // the Seer cells, summed
  double seer_host_s = 0.0;
  std::uint64_t rebuilds = 0;
  std::uint64_t edges = 0;
  std::uint64_t epochs = 0;
  std::uint64_t storms = 0;
  std::size_t seer_cells = 0;
  double sample_ns = 0.0;
  double sample_lines = 0.0;
  for (std::size_t i = 0; i < traced.cells.size(); ++i) {
    const SimCell& c = traced.cells[i];
    const SampleCost& s = sample[i / std::size(kSimPolicies)];
    host_s += c.host_s;
    attempts += c.stats.hw_attempts;
    sample_ns += s.ns_per_instance * static_cast<double>(c.stats.commits);
    sample_lines += s.footprint_lines * static_cast<double>(c.stats.commits);
    r.add("sim.host_s." + c.stamp + "." + rt::to_string(c.policy), c.host_s, "s", 1);
    if (c.policy != rt::PolicyKind::kSeer) continue;
    ++seer_cells;
    seer.commits += c.stats.commits;
    seer.hw_attempts += c.stats.hw_attempts;
    for (std::size_t m = 0; m < seer.commits_by_mode.size(); ++m) {
      seer.commits_by_mode[m] += c.stats.commits_by_mode[m];
    }
    seer_host_s += c.host_s;
    rebuilds += c.rebuilds;
    edges += c.scheme_edges;
    epochs += c.tuning_epochs;
    storms += c.storm_entries;
  }
  for (const SimCell& c : traced.cells) {
    r.add("sim.speedup." + c.stamp + "." + rt::to_string(c.policy), c.stats.speedup(), "x",
          1);
  }
  const double commits = static_cast<double>(traced.commits());
  const double seer_commits = static_cast<double>(seer.commits);
  double locked = 0.0;
  for (std::size_t m = 0; m < seer.commits_by_mode.size(); ++m) {
    const auto mode = static_cast<rt::CommitMode>(m);
    if (mode != rt::CommitMode::kHtmNoLocks && mode != rt::CommitMode::kSglFallback) {
      locked += seer.mode_fraction(mode);
    }
  }

  r.add("sim.host_ns_per_attempt", 1e9 * host_s / static_cast<double>(attempts), "ns",
        attempts);
  r.add("sim.attempts_per_commit", static_cast<double>(seer.hw_attempts) / seer_commits,
        "1/tx", seer.commits);
  r.add("sim.sgl_frac", seer.mode_fraction(rt::CommitMode::kSglFallback), "ratio",
        seer.commits);
  r.add("sim.locked_frac", locked, "ratio", seer.commits);

  const auto per_cell = [seer_cells](std::uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(seer_cells);
  };
  r.add("core.rebuilds_per_s", static_cast<double>(rebuilds) / seer_host_s, "1/s", rebuilds);
  r.add("core.rebuild_p50_us", sink.rebuild_ns().quantile(0.5) / 1e3, "us",
        sink.rebuild_ns().count());
  r.add("core.rebuild_p99_us", sink.rebuild_ns().quantile(0.99) / 1e3, "us",
        sink.rebuild_ns().count());
  r.add("core.events_per_tx", static_cast<double>(sink.events()) / seer_commits, "1/tx",
        seer.commits);
  r.add("core.scheme_edges", per_cell(edges), "count", seer_cells);
  r.add("core.tuning_epochs", per_cell(epochs), "count", seer_cells);
  r.add("core.storm_entries", per_cell(storms), "count", seer_cells);

  r.add("workload.sample_ns", sample_ns / commits, "ns", stamps.size() * kSampleInstances);
  r.add("workload.footprint_lines", sample_lines / commits, "lines",
        stamps.size() * kSampleInstances);
  r.add("workload.sample_share", sample_ns / (1e9 * host_s), "ratio", traced.cells.size());
  r.add("trace.overhead_frac", 1.0 - traced.rate() / untraced.rate(), "ratio", 2);

  char line[160];
  std::snprintf(line, sizeof line, "untraced pass %.3f s (%.0f tx/s), traced pass %.3f s",
                untraced.seconds, untraced.rate(), traced.seconds);
  r.note(line);
  note_self_times(r, {&spans});
  if (!write_span_file(args.spans_path, {&spans}, args.workload, args.seed)) {
    r.check_failed("cannot write span file " + args.spans_path);
  } else {
    r.note("span file: " + args.spans_path);
  }
  return r;
}

}  // namespace

Report run_stamp_sim(const Args& args) {
  return args.trace ? measure_traced(args) : measure(args);
}

}  // namespace perfbench
