// seer-serve — the open-loop latency service harness (DESIGN.md §12).
//
// Runs a workload config's generator as a long-lived transactional service
// under a scheduling policy and an `open_loop` traffic schedule, and writes
// the JSONL measurement stream run_serve produces (header, periodic
// intervals, one step per swept rate, summary with the saturation knee).
// scripts/process_serve_logs.py turns that stream into summaries and graphs;
// CI gates the deterministic run against bench/baseline_serve.json.
//
// Two backends, selected by --deterministic:
//   real           measure THIS machine: wall-clock arrivals, real threads,
//                  real SoftHtm transactions;
//   deterministic  the same schedule served by sim::Machine, the simulated
//                  HTM multiprocessor of the paper exhibits, under the
//                  selected policy — byte-identical output for a (config,
//                  policy, seed) triple at any --jobs, which is what makes
//                  it CI-gateable.
//
// --listen PORT raises the live telemetry plane (DESIGN.md §13): an HTTP
// endpoint on 127.0.0.1 serving /metrics (Prometheus exposition), /status
// (counters + gauges + rolling latency estimates as JSON), /snapshot (the
// latest flight-recorder model capture), /healthz (stall watchdog; non-200
// when the producer or the workers go silent mid-run) and /buildinfo.
// Feeding the plane never changes the JSONL bytes — a deterministic run
// with --listen is byte-identical to one without. Scrapes only read
// wait-free structures, so they never delay a producer or worker.
//
// SIGINT/SIGTERM stop the run gracefully: the current step stops producing
// and writing interval lines, drains its queue, and finalizes; remaining
// steps are skipped and the summary line carries "interrupted": true. The
// JSONL therefore stays parseable however early the signal lands.
//
// Exit codes: 0 run completed (interrupted-but-drained counts as
// completed), 2 usage/config error (including a workload config without an
// `open_loop` section, and --listen on a SEER_OBS=OFF build).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "obs/http_exporter.hpp"
#include "obs/obs_config.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "runtime/policies.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/thread_pool.hpp"
#include "workload/registry.hpp"
#include "workload/serve_driver.hpp"
#include "workload/serve_telemetry.hpp"

#ifndef SEER_GIT_SHA
#define SEER_GIT_SHA "unknown"
#endif
#ifndef SEER_BUILD_TYPE
#define SEER_BUILD_TYPE "unknown"
#endif

namespace {

using seer::workload::ServeOptions;
using seer::workload::ServeTelemetry;

// SIGINT/SIGTERM flip this; the driver polls it via ServeOptions::stop.
// (A lock-free atomic store is async-signal-safe; nothing else happens in
// the handler.)
std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

// A producer or worker heartbeat older than this while the run is in state
// "running" turns /healthz red. Generous on purpose: the producer beats
// every sleep chunk (<= 50ms) and workers on every completion, so seconds
// of silence mean a genuine wedge, not scheduling jitter.
constexpr std::uint64_t kStallNs = 5ULL * 1000 * 1000 * 1000;

// Accepted flag ranges (usage() states them). Workers match the config key
// `workers`, jobs the exhibits' --jobs; the rate and duration ceilings only
// turn a typo into a usage error instead of a run that never ends.
constexpr std::size_t kMaxWorkers = 256;
constexpr int kMaxJobs = 1024;
constexpr double kMaxRate = 1e8;         // requests per second
constexpr double kMaxDurationS = 86400;  // one day

// One body for --buildinfo and GET /buildinfo.
std::string buildinfo_json() {
  std::string out;
  seer::util::json::Writer w(out);
  w.begin_object()
      .str("tool", "seer-serve")
      .str("commit", SEER_GIT_SHA)
      .str("build_type", SEER_BUILD_TYPE)
      .boolean("seer_obs", SEER_OBS_ENABLED)
      .u64("snapshot_version", seer::obs::kModelSnapshotVersion)
      .end_object();
  out += '\n';
  return out;
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --workload FILE.json [options]\n"
      "\n"
      "Serves the config's generator under its open_loop traffic schedule\n"
      "and writes the JSONL measurement stream to stdout (or --out).\n"
      "\n"
      "  --workload FILE.json   workload config with an open_loop section\n"
      "  --policy NAME          HLE|RTM|SCM|ATS|SGL|Seer|Oracle (default RTM)\n"
      "  --workers N            override the config's service thread count (1-256)\n"
      "  --deterministic        serve on the simulated HTM machine in\n"
      "                         virtual time (byte-stable output)\n"
      "  --jobs N               deterministic only: parallel rate steps\n"
      "                         (0-1024, 0 = all cores); output bytes are identical\n"
      "  --seed N               arrival/instance RNG seed (uint64, default 1)\n"
      "  --rate R               override: serve only this rate (no sweep),\n"
      "                         in req/s, above 0 and up to 1e8\n"
      "  --duration S           override the per-step measured window, in\n"
      "                         seconds, above 0 and up to 86400\n"
      "  --metrics              real mode: runtime counter deltas on\n"
      "                         interval lines (needs SEER_OBS=ON)\n"
      "  --storm-response       Seer scheduler: decay stats and re-infer\n"
      "                         immediately on abort-storm entry\n"
      "  --storm-enter R        abort-rate threshold in (0, 1] that opens a storm\n"
      "                         episode (default 0.90; exit follows at 2/3)\n"
      "  --storm-decay F        history multiplier in [0, 1] applied on storm\n"
      "                         entry (default 0.25; 1 = re-infer without decay)\n"
      "  --update-period N      Seer scheduler: executions per scheme\n"
      "                         rebuild (default 512; at least 1)\n"
      "  --out FILE             write JSONL here instead of stdout\n"
      "  --listen PORT          live telemetry on http://127.0.0.1:PORT\n"
      "                         (0-65535; 0 = ephemeral, the bound port is\n"
      "                         printed on stderr; needs SEER_OBS=ON)\n"
      "  --linger               after the run, keep serving the telemetry\n"
      "                         endpoints until SIGINT/SIGTERM\n"
      "  --metrics-out FILE     write the final Prometheus exposition (the\n"
      "                         exact bytes a last /metrics scrape returns)\n"
      "  --buildinfo            print build identity as JSON and exit\n",
      argv0);
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "seer-serve: %s\n", msg.c_str());
  std::exit(2);
}

bool parse_policy(const std::string& name, seer::rt::PolicyKind& out) {
  using seer::rt::PolicyKind;
  const PolicyKind kinds[] = {PolicyKind::kHle, PolicyKind::kRtm,
                              PolicyKind::kScm, PolicyKind::kAts,
                              PolicyKind::kSgl, PolicyKind::kSeer,
                              PolicyKind::kOracle};
  for (const PolicyKind k : kinds) {
    if (name == seer::rt::to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using seer::util::cli::parse_flag;
  using seer::util::cli::parse_positive;
  std::string workload_path;
  std::string out_path;
  std::string metrics_out_path;
  ServeOptions opts;
  int listen_port = -1;  // -1 = no telemetry plane
  bool linger = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_path = next();
    } else if (arg == "--policy") {
      const std::string name = next();
      if (!parse_policy(name, opts.policy.kind)) {
        die("unknown policy \"" + name +
            "\" (known: HLE, RTM, SCM, ATS, SGL, Seer, Oracle)");
      }
    } else if (arg == "--workers") {
      opts.workers_override = parse_flag<std::size_t>(arg, next(), 1, kMaxWorkers);
    } else if (arg == "--deterministic") {
      opts.deterministic = true;
    } else if (arg == "--jobs") {
      const int v = parse_flag(arg, next(), 0, kMaxJobs);
      opts.jobs = v == 0 ? seer::util::hardware_jobs() : static_cast<std::size_t>(v);
    } else if (arg == "--seed") {
      opts.seed = parse_flag<std::uint64_t>(arg, next(), 0, UINT64_MAX);
    } else if (arg == "--rate") {
      opts.rate_override = parse_positive(arg, next(), kMaxRate);
    } else if (arg == "--duration") {
      opts.duration_override_s = parse_positive(arg, next(), kMaxDurationS);
    } else if (arg == "--storm-response") {
      opts.policy.seer.storm_response = true;
    } else if (arg == "--storm-enter") {
      opts.policy.seer.storm_enter = parse_positive(arg, next(), 1.0);
    } else if (arg == "--storm-decay") {
      opts.policy.seer.storm_decay = parse_flag(arg, next(), 0.0, 1.0);
    } else if (arg == "--update-period") {
      opts.policy.seer.update_period =
          parse_flag<std::uint64_t>(arg, next(), 1, UINT64_MAX);
    } else if (arg == "--metrics") {
      opts.emit_metrics = true;
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--listen") {
      listen_port = parse_flag(arg, next(), 0, 65535);
    } else if (arg == "--linger") {
      linger = true;
    } else if (arg == "--metrics-out") {
      metrics_out_path = next();
    } else if (arg == "--buildinfo") {
      const std::string info = buildinfo_json();
      std::fwrite(info.data(), 1, info.size(), stdout);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (workload_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  opts.stop = &g_stop;

  seer::workload::ServeReport report;
  seer::obs::FlightRecorder recorder;
  seer::obs::HttpExporter exporter;
  std::unique_ptr<ServeTelemetry> telemetry;
  try {
    const seer::workload::Desc desc = seer::workload::resolve(workload_path);
    if (!desc.open_loop) {
      die("workload config " + workload_path +
          " has no \"open_loop\" section — seer-serve needs a traffic "
          "schedule (see bench/workloads/serve_smoke.json)");
    }
    const seer::workload::OpenLoopConfig& ol = *desc.open_loop;

    if (listen_port >= 0 || !metrics_out_path.empty()) {
      // Lane sizing covers both backends: real worker t -> lane t with the
      // producer on lane `workers`; deterministic step i -> lane i (steps
      // run concurrently under --jobs).
      const std::size_t workers = opts.workers_override != 0
                                      ? opts.workers_override
                                      : static_cast<std::size_t>(ol.workers);
      const std::size_t n_steps =
          opts.rate_override > 0.0 ? 1 : ol.rates().size();
      telemetry = std::make_unique<ServeTelemetry>(
          std::max(n_steps, workers + 1));
      opts.telemetry = telemetry.get();

      // Real mode + Seer policy: route every retained model capture to
      // /snapshot. The hook runs on the rebuild maintenance path, which
      // already allocates; rendering there keeps scrapes to a pointer copy.
      opts.recorder = &recorder;
      recorder.set_publish([tel = telemetry.get()](
                               const seer::obs::ModelSnapshot& snap) {
        std::string json;
        seer::util::json::Writer w(json);
        w.begin_object()
            .u64("version", seer::obs::kModelSnapshotVersion)
            .key("snapshot");
        snap.append_json(w);
        w.end_object();
        json += '\n';
        tel->publish_model_json(std::move(json));
      });
    }

    if (listen_port >= 0) {
      ServeTelemetry* tel = telemetry.get();
      exporter.route("/metrics", [tel] {
        return seer::obs::HttpResponse{
            200, "text/plain; version=0.0.4; charset=utf-8",
            tel->metrics_exposition()};
      });
      exporter.route("/status", [tel] {
        return seer::obs::HttpResponse{200, "application/json",
                                       tel->status_json()};
      });
      exporter.route("/snapshot", [tel] {
        if (auto json = tel->model_json()) {
          return seer::obs::HttpResponse{200, "application/json", *json};
        }
        return seer::obs::HttpResponse{
            503, "application/json",
            "{\"error\": \"no model snapshot captured yet (snapshots need a "
            "real-mode run with --policy Seer)\"}\n"};
      });
      exporter.route("/healthz", [tel] {
        ServeTelemetry::Health h = tel->healthz(seer::obs::steady_ns(), kStallNs);
        return seer::obs::HttpResponse{h.ok ? 200 : 503, "application/json",
                                       std::move(h.body)};
      });
      exporter.route("/buildinfo", [] {
        return seer::obs::HttpResponse{200, "application/json",
                                       buildinfo_json()};
      });
      std::string err;
      if (!exporter.start(static_cast<std::uint16_t>(listen_port), &err)) {
        die("--listen " + std::to_string(listen_port) + ": " + err);
      }
      std::fprintf(stderr, "seer-serve: listening on http://127.0.0.1:%u\n",
                   static_cast<unsigned>(exporter.port()));
    }

    report = seer::workload::run_serve(desc, ol, opts);
  } catch (const seer::workload::ConfigError& e) {
    die(e.what());
  }

  if (out_path.empty()) {
    std::fwrite(report.jsonl.data(), 1, report.jsonl.size(), stdout);
    std::fflush(stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) die("cannot open " + out_path + " for writing");
    std::fwrite(report.jsonl.data(), 1, report.jsonl.size(), f);
    std::fclose(f);
  }

  // The final exposition is written after the run quiesces and the step
  // registry detaches, so a /metrics scrape during --linger returns these
  // exact bytes — the scrape-equals-file contract the tests pin down.
  if (!metrics_out_path.empty()) {
    const std::string text = telemetry->metrics_exposition();
    std::FILE* f = std::fopen(metrics_out_path.c_str(), "w");
    if (f == nullptr) {
      die("cannot open " + metrics_out_path + " for writing");
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  // Human-readable digest on stderr so stdout stays pure JSONL.
  for (std::size_t i = 0; i < report.steps.size(); ++i) {
    const seer::workload::StepStats& s = report.steps[i];
    std::fprintf(stderr,
                 "step %zu: rate %.0f/s  completed %llu  rejected %.2f%%  "
                 "p50 %.1fus  p99 %.1fus  p999 %.1fus\n",
                 i, s.offered_rate,
                 static_cast<unsigned long long>(s.completed),
                 100.0 * s.rejected_fraction,
                 static_cast<double>(s.p50_ns) / 1000.0,
                 static_cast<double>(s.p99_ns) / 1000.0,
                 static_cast<double>(s.p999_ns) / 1000.0);
  }
  if (report.interrupted) {
    std::fprintf(stderr, "interrupted: sweep cut short after %zu step(s), "
                         "queue drained, log finalized\n",
                 report.steps.size());
  } else if (report.saturated) {
    std::fprintf(stderr, "saturation knee: %.0f req/s\n", report.knee_rate);
  } else {
    std::fprintf(stderr, "no saturation within the swept rates\n");
  }

  if (linger && exporter.running() && !g_stop.load()) {
    telemetry->set_state(ServeTelemetry::State::kLinger);
    std::fprintf(stderr,
                 "seer-serve: run done, lingering on http://127.0.0.1:%u "
                 "until SIGINT/SIGTERM\n",
                 static_cast<unsigned>(exporter.port()));
    while (!g_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    telemetry->set_state(ServeTelemetry::State::kDone);
  }
  exporter.stop();
  return 0;
}
