// perfbench — the repository's end-to-end benchmark (README.md here).
//
//   perfbench --workload hot|scan|stamp-sim --seed N --seconds S --trace 0|1
//             --workload-dir DIR --spans FILE
//
// Prints the run's notes, a table of every metric with its unit and sample
// count, the host-noise columns, and, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics of a traced run. Exits
// 1 when a correctness check fails, 2 on a usage or config error.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload hot|scan|stamp-sim --seed N "
               "--seconds S --trace 0|1 --workload-dir DIR --spans FILE\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
      have[0] = true;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') usage("bad --seed " + v);
      have[1] = true;
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !std::isfinite(a.seconds) || a.seconds <= 0.0 ||
          a.seconds > 600.0) {
        usage("bad --seconds " + v);
      }
      have[2] = true;
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have[3] = true;
    } else if (arg == "--workload-dir") {
      a.workload_dir = v;
    } else if (arg == "--spans") {
      a.spans_path = v;
    } else {
      usage("unknown option " + arg);
    }
  }
  for (bool h : have) {
    if (!h) usage("--workload, --seed, --seconds and --trace are required");
  }
  if (a.workload != "hot" && a.workload != "scan" && a.workload != "stamp-sim") {
    usage("unknown workload " + a.workload);
  }
  if (a.workload != "stamp-sim" && a.workload_dir.empty()) usage("--workload-dir is required");
  if (a.trace && a.spans_path.empty()) usage("--spans is required with --trace 1");
  return a;
}

// The reported metrics must be exactly the listed ones, in order. With
// `fill`, per-layer metrics of a layer the workload does not exercise read 0
// with 0 samples.
bool conform(Report& r, const std::vector<perfbench::MetricSpec>& specs, bool fill) {
  std::vector<perfbench::Metric> out;
  std::size_t matched = 0;
  for (const perfbench::MetricSpec& s : specs) {
    const perfbench::Metric* found = nullptr;
    for (const perfbench::Metric& m : r.metrics) {
      if (m.name == s.name) found = &m;
    }
    if (found == nullptr && !fill) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", s.name.c_str());
      return false;
    }
    matched += found != nullptr ? 1 : 0;
    perfbench::Metric m = found != nullptr ? *found : perfbench::Metric{s.name, 0.0, s.unit, 0};
    if (m.unit != s.unit) {
      std::fprintf(stderr, "perfbench: metric %s has unit %s, expected %s\n", s.name.c_str(),
                   m.unit.c_str(), s.unit.c_str());
      return false;
    }
    if (!std::isfinite(m.value)) {
      r.check_failed("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
    out.push_back(std::move(m));
  }
  if (matched != r.metrics.size()) {
    std::fprintf(stderr, "perfbench: a measured metric is not in the list\n");
    return false;
  }
  r.metrics = std::move(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const perfbench::HostSample host0 = perfbench::host_sample();
  Report r;
  try {
    r = args.workload == "stamp-sim" ? perfbench::run_stamp_sim(args)
                                     : perfbench::run_real_threads(args);
  } catch (const seer::workload::ConfigError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const perfbench::HostSample host1 = perfbench::host_sample();
  if (!conform(r, args.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics(),
               args.trace)) {
    return 1;
  }

  if (r.attempted == 0) r.check_failed("no operation was attempted");
  // A table off by more increments than there were calls fails every call.
  r.failed = std::min(r.failed, r.attempted);
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n", args.workload.c_str(),
              args.seed, args.seconds, args.trace ? 1 : 0);
  for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
  std::printf("%-40s %16s  %-6s %12s\n", "metric", "value", "unit", "samples");
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("%-40s %16.6g  %-6s %12" PRIu64 "%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.samples == 0 ? "  (layer not exercised)" : "");
  }
  std::printf("fail_frac %.6g (%" PRIu64 " of %" PRIu64 " operations failed)\n",
              r.attempted == 0 ? 0.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
              r.failed, r.attempted);
  if (host0.have_stat && host1.have_stat && host1.total > host0.total) {
    const double steal = static_cast<double>(host1.steal - host0.steal) /
                         static_cast<double>(host1.total - host0.total);
    std::printf("host: steal %.3f%% of CPU time", 100.0 * steal);
  } else {
    std::printf("host: steal n/a");
  }
  std::printf(", %" PRIu64 " involuntary and %" PRIu64 " voluntary context switches\n",
              host1.invol_csw, host1.vol_csw);

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return r.correct ? 0 : 1;
}
