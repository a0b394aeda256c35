#include "workload/serve_driver.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "htm/soft_htm.hpp"
#include "obs/metrics.hpp"
#include "obs/periodic.hpp"
#include "sim/machine.hpp"
#include "util/json_writer.hpp"
#include "util/latency_histogram.hpp"
#include "util/mpmc_queue.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/serve_telemetry.hpp"
#include "workload/threaded_driver.hpp"

namespace seer::workload {

namespace {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Telemetry bumps are guarded per-call: a null hub means no telemetry, and a
// lane beyond the hub's sizing (a misconfigured embedding) degrades to
// partial counts instead of indexing out of the registry.
bool tel_lane_ok(const ServeTelemetry* tel, std::size_t lane) {
  return tel != nullptr && lane < tel->lanes();
}

bool stop_requested(const ServeOptions& opts) {
  return opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed);
}

// Per-step seed: decorrelated from sibling steps the same way the threaded
// driver seeds sibling threads, and independent of step execution order.
std::uint64_t step_seed(std::uint64_t base, std::size_t step) {
  return base ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(step) + 1));
}

std::uint64_t seconds_to_ns(double s) {
  return static_cast<std::uint64_t>(s * 1e9 + 0.5);
}

// --- shared accounting ------------------------------------------------------

// Counted-traffic totals, snapshotted for interval deltas.
struct Totals {
  std::uint64_t arrivals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
};

void append_interval_line(std::string& out, std::size_t step, double t_s,
                          double rate_now, const Totals& cur, Totals& prev,
                          std::size_t queue_depth,
                          const util::LatencyBucketCounts& bcur,
                          util::LatencyBucketCounts& bprev,
                          const std::string& metric_fields) {
  util::LatencyBucketCounts delta{};
  for (std::size_t i = 0; i < util::kLatencyBucketCount; ++i) {
    delta[i] = bcur[i] - bprev[i];
  }
  // Deterministic mode promises byte-identical output for a (config, seed)
  // pair: every number goes through util/json_writer.hpp's %.9g or decimal.
  util::json::Writer w(out);
  w.begin_object()
      .str("kind", "interval")
      .u64("step", step)
      .g9("t_s", t_s)
      .g9("offered_rate", rate_now)
      .u64("arrivals", cur.arrivals - prev.arrivals)
      .u64("accepted", cur.accepted - prev.accepted)
      .u64("rejected", cur.rejected - prev.rejected)
      .u64("completed", cur.completed - prev.completed)
      .u64("queue_depth", queue_depth)
      .g9("p50_est_us", util::bucket_quantile_estimate(delta, 0.5) / 1000.0)
      .g9("p99_est_us", util::bucket_quantile_estimate(delta, 0.99) / 1000.0)
      .raw(metric_fields)
      .end_object();
  out += '\n';
  prev = cur;
  bprev = bcur;
}

StepStats finalize_step(double rate, double duration_s, const Totals& totals,
                        const util::LatencyHistogram& hist,
                        std::uint64_t queue_peak, std::uint64_t sgl_commits) {
  StepStats s;
  s.offered_rate = rate;
  s.duration_s = duration_s;
  s.arrivals = totals.arrivals;
  s.accepted = totals.accepted;
  s.rejected = totals.rejected;
  s.completed = totals.completed;
  s.rejected_fraction =
      totals.arrivals == 0
          ? 0.0
          : static_cast<double>(totals.rejected) / static_cast<double>(totals.arrivals);
  s.throughput_rps =
      duration_s <= 0.0 ? 0.0 : static_cast<double>(totals.completed) / duration_s;
  s.latency_count = hist.count();
  s.latency_mean_ns = hist.mean();
  const double qs[] = {0.5, 0.9, 0.99, 0.999};
  const std::vector<std::uint64_t> v = hist.quantiles(qs);
  s.p50_ns = v[0];
  s.p90_ns = v[1];
  s.p99_ns = v[2];
  s.p999_ns = v[3];
  s.max_ns = hist.max();
  s.queue_depth_peak = queue_peak;
  s.sgl_commits = sgl_commits;
  s.sgl_fraction = totals.completed == 0
                       ? 0.0
                       : static_cast<double>(sgl_commits) /
                             static_cast<double>(totals.completed);
  return s;
}

void append_step_line(std::string& out, std::size_t step, const StepStats& s) {
  util::json::Writer w(out);
  w.begin_object()
      .str("kind", "step")
      .u64("step", step)
      .g9("offered_rate", s.offered_rate)
      .g9("duration_s", s.duration_s)
      .u64("arrivals", s.arrivals)
      .u64("accepted", s.accepted)
      .u64("rejected", s.rejected)
      .g9("rejected_fraction", s.rejected_fraction)
      .u64("completed", s.completed)
      .g9("throughput_rps", s.throughput_rps)
      .begin_object("latency_ns")
      .u64("count", s.latency_count)
      .g9("mean", s.latency_mean_ns)
      .u64("p50", s.p50_ns)
      .u64("p90", s.p90_ns)
      .u64("p99", s.p99_ns)
      .u64("p999", s.p999_ns)
      .u64("max", s.max_ns)
      .end_object()
      .u64("queue_depth_peak", s.queue_depth_peak)
      .g9("sgl_fraction", s.sgl_fraction)
      .end_object();
  out += '\n';
}

struct StepOutput {
  StepStats stats;
  std::string jsonl;  // interval lines then the step line
};

// --- deterministic backend: open-loop sim::Machine --------------------------
//
// One rate step on the machine simulator's open-loop entry: the HTM model,
// cost model and Policy objects of the paper exhibits, with requests
// arriving on the ArrivalSchedule instead of each thread running a closed
// loop. Gaps and instances come from one per-step RNG, so the arrival
// stream is the same for every policy; the machine's own RNG (conflict
// timing, background aborts) is seeded from it. Machine time is cycles,
// converted to and from nanoseconds at the edges with cycles_per_us. The
// output is a pure function of (config, policy, seed).

StepOutput run_step_virtual(const Desc& desc, const OpenLoopConfig& ol,
                            const ServeOptions& opts, std::size_t step,
                            double rate, double duration_s,
                            std::size_t workers) {
  util::Xoshiro256 rng(step_seed(opts.seed, step));
  const ArrivalSchedule sched(ol, rate);

  sim::MachineConfig mcfg;
  mcfg.n_threads = workers;
  mcfg.physical_cores = workers;  // one core per worker, unless a topology
  if (desc.topology) mcfg.topology = *desc.topology;
  mcfg.seed = rng.next();
  mcfg.policy = opts.policy;
  mcfg.policy.seer.seed = mcfg.seed;
  // Deterministic bytes cannot depend on observability wiring.
  mcfg.policy.seer.metrics = nullptr;
  mcfg.policy.seer.obs_trace = nullptr;
  mcfg.policy.seer.recorder = nullptr;
  mcfg.policy.seer.measure_rebuild_ns = false;
  sim::Machine machine(mcfg, desc.make(1));
  sim::Workload& gen = machine.workload();
  gen.init(0);

  const std::uint64_t end_ns = seconds_to_ns(ol.warmup_s + duration_s);
  const std::uint64_t emit_ns = ol.emit_interval_ms * 1000000ULL;
  const double cycles_per_ns = ol.cycles_per_us / 1000.0;
  const auto to_cycles = [&](std::uint64_t ns) {
    return static_cast<sim::Time>(std::ceil(static_cast<double>(ns) * cycles_per_ns));
  };
  const sim::Time warmup_c = to_cycles(seconds_to_ns(ol.warmup_s));

  util::LatencyHistogram hist;
  util::LatencyBuckets buckets;
  util::LatencyBucketCounts bprev{};
  Totals totals, tprev;
  std::uint64_t queue_peak = 0, sgl_commits = 0;
  StepOutput out;

  // Virtual lane = step index: concurrent --jobs steps each own a lane, so
  // hub counters stay single-writer. Gauges race across steps (last writer
  // wins) — acceptable for point-in-time values by definition.
  ServeTelemetry* const tel = opts.telemetry;
  const auto tid = static_cast<core::ThreadId>(step);
  const bool tl = tel_lane_ok(tel, step);
  if (tel != nullptr) {
    tel->set_offered_rate(rate);
    tel->registry().set_gauge(tel->step, step);
    tel->registry().set_gauge(tel->workers, workers);
    tel->registry().set_gauge(tel->offered_rate_millirps,
                              static_cast<std::uint64_t>(rate * 1000.0 + 0.5));
  }

  machine.serve(ol.queue_capacity, [&](const sim::Served& s) {
    ++totals.completed;
    if (tl) tel->registry().add(tel->completed, tid);
    if (s.arrival < warmup_c) return;
    const auto lat = static_cast<std::uint64_t>(
        static_cast<double>(s.commit - s.arrival) / cycles_per_ns + 0.5);
    hist.record(lat);
    buckets.record(lat);
    if (tel != nullptr) tel->latency().record(lat);
    if (s.mode == rt::CommitMode::kSglFallback) ++sgl_commits;
  });

  // Interval lines for every boundary up to `t_ns` (and inside the window),
  // each after the machine has run through it.
  std::uint64_t next_emit = emit_ns;
  const auto emit_through = [&](std::uint64_t t_ns) {
    while (next_emit <= t_ns && next_emit <= end_ns) {
      machine.advance(to_cycles(next_emit));
      const double t_s = static_cast<double>(next_emit) / 1e9;
      const std::size_t depth = machine.queue_depth();
      append_interval_line(out.jsonl, step, t_s, sched.rate_at(t_s), totals,
                           tprev, depth, buckets.snapshot(), bprev, "");
      next_emit += emit_ns;
    }
  };

  sim::TxInstance inst;
  std::uint64_t now = sched.next_gap_ns(0.0, rng);
  // A stop request ends arrivals early; either way the step then runs out
  // its window and drains exactly as if the window had closed.
  while (now < end_ns && !gen.exhausted(0) && !stop_requested(opts)) {
    emit_through(now);
    gen.next(0, static_cast<double>(now) / static_cast<double>(end_ns), rng, inst);
    ++totals.arrivals;
    if (tl) tel->registry().add(tel->arrivals, tid);
    if (machine.arrive(to_cycles(now), std::move(inst))) {
      ++totals.accepted;
      if (tl) tel->registry().add(tel->accepted, tid);
      queue_peak = std::max<std::uint64_t>(queue_peak, machine.queue_depth());
    } else {
      ++totals.rejected;
      if (tl) tel->registry().add(tel->rejected, tid);
    }
    if (tel != nullptr && (totals.arrivals & 0xFFF) == 0) {
      const std::uint64_t w = wall_ns();
      tel->producer_beat(w);
      tel->worker_beat(w);
      tel->registry().set_gauge(tel->queue_depth, machine.queue_depth());
    }
    now += sched.next_gap_ns(static_cast<double>(now) / 1e9, rng);
  }
  // The interval cadence runs to the end of the window even when the step
  // quiesced early, so both backends emit the same line count.
  emit_through(end_ns);
  machine.drain();

  out.stats = finalize_step(rate, duration_s, totals, hist, queue_peak, sgl_commits);
  append_step_line(out.jsonl, step, out.stats);
  return out;
}

// --- real backend: wall-clock producer, real transactions -------------------

struct Request {
  std::uint64_t enqueue_ns = 0;
  bool counted = false;
  sim::TxInstance inst;
};

using Clock = std::chrono::steady_clock;

StepOutput run_step_real(const Desc& desc, const OpenLoopConfig& ol,
                         const ServeOptions& opts, std::size_t step,
                         double rate, double duration_s, std::size_t workers) {
  auto gen = desc.make(1);  // one lane: the producer samples all instances
  const ArrivalSchedule sched(ol, rate);
  const std::uint64_t warmup_ns = seconds_to_ns(ol.warmup_s);
  const std::uint64_t end_ns = seconds_to_ns(ol.warmup_s + duration_s);

  std::vector<htm::TmWord> words(ol.table_words);
  htm::SoftHtm tm;
  obs::MetricsRegistry metrics(workers);
  rt::ThreadedExecutor::Options eopts;
  eopts.n_threads = workers;
  eopts.n_types = gen->n_types();
  // Cores, as in the deterministic backend: the config's topology, else
  // one per worker.
  eopts.physical_cores = desc.topology ? desc.topology->physical_cores() : workers;
  // A live telemetry hub wants the rt./htm./seer. counters on /metrics even
  // when the interval lines don't carry them, so collection follows either
  // flag.
  ServeTelemetry* const tel = opts.telemetry;
  eopts.metrics = opts.emit_metrics || tel != nullptr ? &metrics : nullptr;
  rt::ThreadedExecutor exec(tm, opts.policy, eopts);
  metrics.freeze();

  const auto pid = static_cast<core::ThreadId>(workers);  // producer's lane
  const bool tlp = tel_lane_ok(tel, workers);
  if (tel != nullptr) {
    tel->attach_step_registry(&metrics);
    tel->set_offered_rate(rate);
    tel->registry().set_gauge(tel->step, step);
    tel->registry().set_gauge(tel->workers, workers);
    tel->registry().set_gauge(tel->offered_rate_millirps,
                              static_cast<std::uint64_t>(rate * 1000.0 + 0.5));
  }
  std::atomic<std::size_t> active_workers{0};

  util::MpmcQueue<Request> queue(ol.queue_capacity);
  util::LatencyBuckets buckets;
  std::vector<util::LatencyHistogram> hists(workers);
  std::atomic<std::uint64_t> arrivals{0}, accepted{0}, rejected{0}, completed{0};
  std::atomic<std::uint64_t> sgl_commits{0}, queue_peak{0};
  std::atomic<bool> producer_done{false}, emitter_stop{false};
  std::atomic<std::size_t> ready{0};
  const std::size_t participants = workers + 1;  // workers + producer
  const auto t0_ready = [&] {
    ready.fetch_add(1);
    while (ready.load() < participants) std::this_thread::yield();
  };
  // t0 is set by the producer once everyone is spinning; the emitter only
  // reads it after the producer published it.
  std::atomic<std::int64_t> t0_ns{0};

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      auto h = exec.make_handle(static_cast<core::ThreadId>(t));
      const bool tlw = tel_lane_ok(tel, t);
      if (tel != nullptr) {
        tel->registry().set_gauge(
            tel->active_workers, active_workers.fetch_add(1) + 1);
      }
      t0_ready();
      Request r;
      const auto serve_one = [&] {
        const rt::CommitMode mode = run_instance(*h, words, r.inst);
        const std::uint64_t now = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now().time_since_epoch())
                .count());
        completed.fetch_add(1, std::memory_order_relaxed);
        if (tlw) tel->registry().add(tel->completed, static_cast<core::ThreadId>(t));
        if (tel != nullptr) tel->worker_beat(now);
        if (r.counted) {
          const std::uint64_t lat = now > r.enqueue_ns ? now - r.enqueue_ns : 0;
          hists[t].record(lat);
          buckets.record(lat);
          if (tel != nullptr) tel->latency().record(lat);
          if (mode == rt::CommitMode::kSglFallback) {
            sgl_commits.fetch_add(1, std::memory_order_relaxed);
          }
        }
      };
      for (;;) {
        if (queue.try_pop(r)) {
          serve_one();
          continue;
        }
        if (producer_done.load(std::memory_order_acquire)) {
          // The producer stopped pushing before setting the flag, so one
          // more failed pop after observing it means the queue is drained
          // (a pop-miss against an empty queue, not a half-pushed cell).
          if (!queue.try_pop(r)) break;
          serve_one();
          continue;
        }
        std::this_thread::yield();
      }
      if (tel != nullptr) {
        tel->registry().set_gauge(tel->active_workers,
                                  active_workers.fetch_sub(1) - 1);
      }
    });
  }

  std::thread producer([&] {
    gen->init(0);
    util::Xoshiro256 rng(step_seed(opts.seed, step));
    t0_ready();
    const auto t0 = Clock::now();
    t0_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t0.time_since_epoch())
                    .count(),
                std::memory_order_release);
    sim::TxInstance inst;
    std::uint64_t next_ns = sched.next_gap_ns(0.0, rng);
    while (next_ns < end_ns && !gen->exhausted(0) && !stop_requested(opts)) {
      const auto target =
          t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(next_ns));
      for (;;) {  // sleep coarsely, then yield-spin the last stretch
        const auto now = Clock::now();
        if (now >= target || stop_requested(opts)) break;
        if (tel != nullptr) {
          tel->producer_beat(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  now.time_since_epoch())
                  .count()));
        }
        if (target - now > std::chrono::microseconds(200)) {
          // Chunked so the heartbeat keeps ticking and a stop request is
          // honoured promptly even between low-rate arrivals.
          const auto nap =
              std::min<Clock::duration>(target - now -
                                            std::chrono::microseconds(100),
                                        std::chrono::milliseconds(50));
          std::this_thread::sleep_for(nap);
        } else {
          std::this_thread::yield();
        }
      }
      if (stop_requested(opts)) break;
      const double progress =
          static_cast<double>(next_ns) / static_cast<double>(end_ns);
      gen->next(0, progress, rng, inst);
      Request r;
      r.enqueue_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Clock::now().time_since_epoch())
              .count());
      r.counted = next_ns >= warmup_ns;
      r.inst = std::move(inst);
      arrivals.fetch_add(1, std::memory_order_relaxed);
      if (tlp) tel->registry().add(tel->arrivals, pid);
      if (queue.try_push(std::move(r))) {
        accepted.fetch_add(1, std::memory_order_relaxed);
        if (tlp) tel->registry().add(tel->accepted, pid);
        const std::uint64_t depth = queue.approx_size();
        std::uint64_t cur = queue_peak.load(std::memory_order_relaxed);
        while (depth > cur && !queue_peak.compare_exchange_weak(
                                  cur, depth, std::memory_order_relaxed)) {
        }
      } else {
        rejected.fetch_add(1, std::memory_order_relaxed);
        if (tlp) tel->registry().add(tel->rejected, pid);
      }
      next_ns += sched.next_gap_ns(static_cast<double>(next_ns) / 1e9, rng);
    }
    producer_done.store(true, std::memory_order_release);
  });

  // Interval emitter: the monitor thread. Samples the shared counters and
  // the coarse bucket histogram on a wall-clock cadence; exact numbers come
  // from the per-worker histograms after the step quiesces.
  std::string interval_jsonl;
  std::thread emitter([&] {
    obs::PeriodicMetricsDelta deltas(opts.emit_metrics ? &metrics : nullptr);
    util::LatencyBucketCounts bprev{};
    Totals tprev;
    while (t0_ns.load(std::memory_order_acquire) == 0 &&
           !emitter_stop.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    const auto t0 = std::chrono::time_point<Clock>(
        std::chrono::nanoseconds(t0_ns.load(std::memory_order_acquire)));
    std::uint64_t tick = 1;
    while (!emitter_stop.load(std::memory_order_acquire)) {
      const auto target =
          t0 + std::chrono::milliseconds(
                   static_cast<std::int64_t>(tick * ol.emit_interval_ms));
      std::this_thread::sleep_until(target);
      if (emitter_stop.load(std::memory_order_acquire)) break;
      const double t_s =
          std::chrono::duration<double>(Clock::now() - t0).count();
      const Totals cur{arrivals.load(std::memory_order_relaxed),
                       accepted.load(std::memory_order_relaxed),
                       rejected.load(std::memory_order_relaxed),
                       completed.load(std::memory_order_relaxed)};
      if (tel != nullptr) {
        tel->registry().set_gauge(tel->queue_depth, queue.approx_size());
      }
      append_interval_line(
          interval_jsonl, step, t_s, sched.rate_at(t_s), cur, tprev,
          queue.approx_size(), buckets.snapshot(), bprev,
          opts.emit_metrics ? deltas.delta_fields({"rt.", "htm.", "seer."})
                            : std::string());
      ++tick;
    }
  });

  producer.join();
  for (auto& th : threads) th.join();
  emitter_stop.store(true, std::memory_order_release);
  emitter.join();

  if (tel != nullptr) {
    // The per-step registry dies with this frame; an in-flight scrape holds
    // the hub lock until its snapshot completes, so detaching here is safe.
    tel->attach_step_registry(nullptr);
    tel->registry().set_gauge(tel->queue_depth, 0);
  }

  util::LatencyHistogram hist;
  for (const util::LatencyHistogram& h : hists) hist.merge(h);
  Totals totals{arrivals.load(), accepted.load(), rejected.load(),
                completed.load()};
  StepOutput out;
  out.jsonl = std::move(interval_jsonl);
  out.stats = finalize_step(rate, duration_s, totals, hist, queue_peak.load(),
                            sgl_commits.load());
  append_step_line(out.jsonl, step, out.stats);
  return out;
}

}  // namespace

ServeReport run_serve(const Desc& desc, const OpenLoopConfig& ol,
                      const ServeOptions& opts) {
  const double duration_s =
      opts.duration_override_s > 0.0 ? opts.duration_override_s : ol.duration_s;
  const std::vector<double> rates = opts.rate_override > 0.0
                                        ? std::vector<double>{opts.rate_override}
                                        : ol.rates();
  const std::size_t workers = opts.workers_override != 0
                                  ? opts.workers_override
                                  : static_cast<std::size_t>(ol.workers);
  if (desc.topology && workers > desc.topology->hw_threads()) {
    throw ConfigError("workers = " + std::to_string(workers) +
                      " exceeds the configured topology's " +
                      std::to_string(desc.topology->hw_threads()) +
                      " hardware threads");
  }

  if (opts.telemetry != nullptr) {
    opts.telemetry->set_state(ServeTelemetry::State::kRunning);
    opts.telemetry->registry().set_gauge(opts.telemetry->workers, workers);
  }

  ServeReport report;
  std::string& out = report.jsonl;
  util::json::Writer header(out);
  header.begin_object()
      .str("kind", "serve_header")
      .u64("version", 1)
      .str("workload", desc.name)
      .str("policy", rt::to_string(opts.policy.kind))
      .str("mode", opts.deterministic ? "deterministic" : "real")
      .str("process", to_string(ol.process))
      .u64("workers", workers)
      .u64("queue_capacity", ol.queue_capacity)
      .u64("table_words", ol.table_words)
      .begin_array("rates");
  for (const double r : rates) header.g9(r);
  header.end_array()
      .g9("duration_s", duration_s)
      .g9("warmup_s", ol.warmup_s)
      .u64("emit_interval_ms", ol.emit_interval_ms)
      .u64("seed", opts.seed)
      .end_object();
  out += '\n';

  std::vector<StepOutput> steps;
  if (opts.deterministic) {
    // Steps are independent simulations; fan out and reassemble in step
    // order. parallel_for_indexed keeps the observable result identical to
    // a serial sweep, which is the --jobs byte-identity contract.
    steps = util::parallel_for_indexed(
        opts.jobs, rates.size(), [&](std::size_t i) {
          return run_step_virtual(desc, ol, opts, i, rates[i], duration_s,
                                  workers);
        });
  } else {
    // Real steps share the machine; running two at once would corrupt both
    // measurements. Always serial.
    for (std::size_t i = 0; i < rates.size(); ++i) {
      if (stop_requested(opts)) break;  // skip remaining steps, keep the log
      steps.push_back(
          run_step_real(desc, ol, opts, i, rates[i], duration_s, workers));
    }
  }
  report.interrupted = stop_requested(opts);

  Totals grand;
  std::uint64_t worst_p99 = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    out += steps[i].jsonl;
    const StepStats& s = steps[i].stats;
    report.steps.push_back(s);
    grand.arrivals += s.arrivals;
    grand.rejected += s.rejected;
    grand.completed += s.completed;
    if (s.p99_ns > worst_p99) worst_p99 = s.p99_ns;
    const bool p99_over =
        ol.knee_p99_ms > 0.0 &&
        static_cast<double>(s.p99_ns) > ol.knee_p99_ms * 1e6;
    const bool shed_over = s.rejected_fraction > ol.knee_rejected_fraction;
    if (!report.saturated && (p99_over || shed_over)) {
      report.saturated = true;
      report.knee_rate = s.offered_rate;
    }
  }
  report.knee_rate = report.saturated ? report.knee_rate : 0.0;

  util::json::Writer summary(out);
  summary.begin_object()
      .str("kind", "summary")
      .u64("steps", steps.size())
      .g9("knee_rate", report.knee_rate)
      .boolean("saturated", report.saturated)
      .u64("worst_p99_ns", worst_p99)
      .u64("arrivals", grand.arrivals)
      .u64("rejected", grand.rejected)
      .u64("completed", grand.completed);
  if (report.interrupted) summary.boolean("interrupted", true);
  summary.end_object();
  out += '\n';

  if (opts.telemetry != nullptr) {
    opts.telemetry->set_state(ServeTelemetry::State::kDone);
  }
  return report;
}

}  // namespace seer::workload
