#include "workload/serve_driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "htm/soft_htm.hpp"
#include "obs/metrics.hpp"
#include "obs/periodic.hpp"
#include "obs/trace.hpp"
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

using namespace std::chrono_literals;

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

// Step-window totals, snapshotted for interval deltas.
struct Totals {
  std::uint64_t arrivals = 0, accepted = 0, rejected = 0, completed = 0;
};

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

// Cores for either backend: the config's topology, else one per worker.
std::size_t physical_cores(const Desc& desc, std::size_t workers) {
  return desc.topology ? desc.topology->physical_cores() : workers;
}

// Completion accounting, the same for both backends and safe from any
// serving thread: `worker` picks the exact histogram (merged once the step
// quiesces), `lane` the hub counter lane. Only counted requests — those
// that arrived after warmup_s — reach the latency and SGL figures.
struct Completions {
  Completions(std::size_t workers, ServeTelemetry* t) : hists(workers), tel(t) {}

  void record(std::size_t worker, core::ThreadId lane, bool counted,
              std::uint64_t latency_ns, rt::CommitMode mode) {
    ++completed;
    if (tel_lane_ok(tel, lane)) tel->registry().add(tel->completed, lane);
    if (!counted) return;
    hists[worker].record(latency_ns);
    buckets.record(latency_ns);
    if (tel != nullptr) tel->latency().record(latency_ns);
    if (mode == rt::CommitMode::kSglFallback) ++sgl_commits;
  }

  std::vector<util::LatencyHistogram> hists;
  util::LatencyBuckets buckets;  // sampled by the interval lines
  std::atomic<std::uint64_t> completed{0}, sgl_commits{0};
  ServeTelemetry* tel;
};

// --- the step loop ----------------------------------------------------------
//
// One rate step, whichever backend serves it. The loop owns the per-step RNG
// and ArrivalSchedule, the arrival/accepted/rejected accounting and its hub
// lane, an interval line at every boundary k x emit_interval_ms inside
// [0, warmup_s + duration_s], the stop check, the drain and the step line.
// The backend supplies only what differs: gen() and lane(), advance(t_ns)
// (run or wait through step time t_ns), offer(t_ns, inst) (false = shed),
// queue_depth(), interval_fields() (extra interval members) and drain()
// (serve everything accepted, then quiesce); completions come back through
// Completions::record. A stop request ends arrivals and interval lines, then
// the step drains and finalizes as if its window had closed.
template <typename Backend>
StepOutput run_step(const Desc& desc, const OpenLoopConfig& ol,
                    const ServeOptions& opts, std::size_t step, double rate,
                    double duration_s, std::size_t workers) {
  util::Xoshiro256 rng(step_seed(opts.seed, step));
  const ArrivalSchedule sched(ol, rate);
  const std::uint64_t end_ns = seconds_to_ns(ol.warmup_s + duration_s);
  const std::uint64_t emit_ns = ol.emit_interval_ms * 1000000ULL;

  ServeTelemetry* const tel = opts.telemetry;
  if (tel != nullptr) {
    tel->set_offered_rate(rate);
    tel->registry().set_gauge(tel->step, step);
    tel->registry().set_gauge(tel->workers, workers);
    tel->registry().set_gauge(tel->offered_rate_millirps,
                              static_cast<std::uint64_t>(rate * 1000.0 + 0.5));
  }
  Completions done(workers, tel);
  Backend b(desc, ol, opts, step, workers, rng, done);
  const core::ThreadId lane = b.lane();
  const bool tl = tel_lane_ok(tel, lane);

  Totals totals, tprev;
  util::LatencyBucketCounts bprev{};
  std::uint64_t queue_peak = 0;
  StepOutput out;

  std::uint64_t next_emit = emit_ns;
  const auto emit_through = [&](std::uint64_t t_ns) {
    for (; next_emit <= std::min(t_ns, end_ns); next_emit += emit_ns) {
      b.advance(next_emit);
      if (stop_requested(opts)) return;
      const double t_s = static_cast<double>(next_emit) / 1e9;
      const std::size_t depth = b.queue_depth();
      if (tel != nullptr) tel->registry().set_gauge(tel->queue_depth, depth);
      totals.completed = done.completed.load(std::memory_order_relaxed);
      const util::LatencyBucketCounts bcur = done.buckets.snapshot();
      util::LatencyBucketCounts delta{};
      for (std::size_t i = 0; i < delta.size(); ++i) delta[i] = bcur[i] - bprev[i];
      // Deterministic mode promises byte-identical output for a (config,
      // seed) pair: every number goes through util/json_writer.hpp.
      util::json::Writer w(out.jsonl);
      w.begin_object()
          .str("kind", "interval")
          .u64("step", step)
          .g9("t_s", t_s)
          .g9("offered_rate", sched.rate_at(t_s))
          .u64("arrivals", totals.arrivals - tprev.arrivals)
          .u64("accepted", totals.accepted - tprev.accepted)
          .u64("rejected", totals.rejected - tprev.rejected)
          .u64("completed", totals.completed - tprev.completed)
          .u64("queue_depth", depth)
          .g9("p50_est_us", util::bucket_quantile_estimate(delta, 0.5) / 1000.0)
          .g9("p99_est_us", util::bucket_quantile_estimate(delta, 0.99) / 1000.0)
          .raw(b.interval_fields())
          .end_object();
      out.jsonl += '\n';
      tprev = totals;
      bprev = bcur;
    }
  };

  sim::Workload& gen = b.gen();
  sim::TxInstance inst;
  std::uint64_t now = sched.next_gap_ns(0.0, rng);
  while (now < end_ns && !gen.exhausted(0) && !stop_requested(opts)) {
    emit_through(now);
    b.advance(now);
    if (stop_requested(opts)) break;
    gen.next(0, static_cast<double>(now) / static_cast<double>(end_ns), rng, inst);
    ++totals.arrivals;
    if (tl) tel->registry().add(tel->arrivals, lane);
    if (b.offer(now, std::move(inst))) {
      ++totals.accepted;
      if (tl) tel->registry().add(tel->accepted, lane);
      queue_peak = std::max<std::uint64_t>(queue_peak, b.queue_depth());
    } else {
      ++totals.rejected;
      if (tl) tel->registry().add(tel->rejected, lane);
    }
    now += sched.next_gap_ns(static_cast<double>(now) / 1e9, rng);
  }
  // The interval cadence runs to the end of the window even when the step
  // quiesced early, so every step of a config writes the same line count.
  emit_through(end_ns);
  b.drain();
  if (tel != nullptr) tel->registry().set_gauge(tel->queue_depth, 0);

  totals.completed = done.completed.load();
  util::LatencyHistogram hist;
  for (const util::LatencyHistogram& h : done.hists) hist.merge(h);
  out.stats = finalize_step(rate, duration_s, totals, hist, queue_peak,
                            done.sgl_commits.load());
  append_step_line(out.jsonl, step, out.stats);
  return out;
}

// --- deterministic backend: open-loop sim::Machine --------------------------
//
// The machine simulator's open-loop entry: the HTM model, cost model and
// Policy objects of the paper exhibits, with requests arriving on the
// ArrivalSchedule instead of each thread running a closed loop. Gaps and
// instances come from the step RNG, so the arrival stream is the same for
// every policy; the machine's own RNG (conflict timing, background aborts)
// is seeded from it. Machine time is cycles, converted to and from
// nanoseconds at the edges with cycles_per_us. The output is a pure
// function of (config, policy, seed).
class SimBackend {
 public:
  SimBackend(const Desc& desc, const OpenLoopConfig& ol, const ServeOptions& opts,
             std::size_t step, std::size_t workers, util::Xoshiro256& rng,
             Completions& done)
      : machine_(config(desc, opts, workers, rng), desc.make(1)),
        cycles_per_ns_(ol.cycles_per_us / 1000.0),
        tel_(opts.telemetry),
        lane_(static_cast<core::ThreadId>(step)) {  // one hub lane per --jobs step
    machine_.workload().init(0);
    const sim::Time warmup_c = to_cycles(seconds_to_ns(ol.warmup_s));
    // The machine is single-threaded: every completion lands in the first
    // histogram, on the step's lane.
    machine_.serve(ol.queue_capacity, [this, &done, warmup_c](const sim::Served& s) {
      const auto lat = static_cast<std::uint64_t>(
          static_cast<double>(s.commit - s.arrival) / cycles_per_ns_ + 0.5);
      done.record(0, lane_, s.arrival >= warmup_c, lat, s.mode);
    });
  }
  SimBackend(const SimBackend&) = delete;  // the machine's callback holds `this`
  SimBackend& operator=(const SimBackend&) = delete;

  sim::Workload& gen() { return machine_.workload(); }
  [[nodiscard]] core::ThreadId lane() const { return lane_; }
  void advance(std::uint64_t t_ns) { machine_.advance(to_cycles(t_ns)); }
  bool offer(std::uint64_t t_ns, sim::TxInstance&& inst) {
    if (tel_ != nullptr && (++offered_ & 0xFFF) == 0) {
      tel_->producer_beat(obs::steady_ns());
      tel_->worker_beat(obs::steady_ns());
    }
    return machine_.arrive(to_cycles(t_ns), std::move(inst));
  }
  [[nodiscard]] std::size_t queue_depth() const { return machine_.queue_depth(); }
  [[nodiscard]] std::string interval_fields() const { return {}; }
  void drain() { machine_.drain(); }

 private:
  static sim::MachineConfig config(const Desc& desc, const ServeOptions& opts,
                                   std::size_t workers, util::Xoshiro256& rng) {
    sim::MachineConfig mcfg;
    mcfg.n_threads = workers;
    mcfg.physical_cores = physical_cores(desc, workers);
    mcfg.seed = rng.next();
    mcfg.policy = opts.policy;
    mcfg.policy.seer.seed = mcfg.seed;
    return mcfg;
  }
  [[nodiscard]] sim::Time to_cycles(std::uint64_t ns) const {
    return static_cast<sim::Time>(std::ceil(static_cast<double>(ns) * cycles_per_ns_));
  }

  sim::Machine machine_;
  double cycles_per_ns_;
  ServeTelemetry* tel_;
  core::ThreadId lane_;
  std::uint64_t offered_ = 0;  // heartbeats every 4096 arrivals
};

// --- real backend: wall-clock pacing, real transactions ---------------------
//
// The step loop's thread is the producer: advance() sleeps coarsely, then
// yield-spins to t0 + t_ns, and offer() stamps the request with its enqueue
// time and pushes it into the MpmcQueue without ever blocking. Workers pop,
// run the instance through the ThreadedExecutor over SoftHtm and record
// completion - enqueue, queue wait included.

struct Request {
  std::uint64_t enqueue_ns = 0;
  bool counted = false;
  sim::TxInstance inst;
};

class RealBackend {
 public:
  RealBackend(const Desc& desc, const OpenLoopConfig& ol, const ServeOptions& opts,
              std::size_t /*step*/, std::size_t workers, util::Xoshiro256& /*rng*/,
              Completions& done)
      : opts_(opts),
        tel_(opts.telemetry),
        gen_(desc.make(1)),  // one lane: the producer samples all instances
        words_(ol.table_words),
        metrics_(workers),
        // A live telemetry hub wants the rt./htm./seer. counters on /metrics
        // even when the interval lines don't carry them.
        exec_(tm_, opts.policy,
              {.n_threads = workers,
               .n_types = gen_->n_types(),
               .physical_cores = physical_cores(desc, workers),
               .metrics = opts.emit_metrics || tel_ != nullptr ? &metrics_ : nullptr,
               .recorder = opts.recorder}),
        queue_(ol.queue_capacity),
        deltas_(opts.emit_metrics ? &metrics_ : nullptr),
        warmup_ns_(seconds_to_ns(ol.warmup_s)),
        lane_(static_cast<core::ThreadId>(workers)) {
    metrics_.freeze();
    if (tel_ != nullptr) tel_->attach_step_registry(&metrics_);
    gen_->init(0);
    threads_.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) {
      threads_.emplace_back([this, t, &done] { work(t, done); });
    }
    t0_ns_ = obs::steady_ns();
  }
  RealBackend(const RealBackend&) = delete;  // the workers hold `this`
  RealBackend& operator=(const RealBackend&) = delete;
  ~RealBackend() { drain(); }

  sim::Workload& gen() { return *gen_; }
  [[nodiscard]] core::ThreadId lane() const { return lane_; }  // past the workers'

  // Chunked sleeps keep the producer heartbeat ticking and honour a stop
  // request promptly even between low-rate arrivals.
  void advance(std::uint64_t t_ns) {
    const std::uint64_t target = t0_ns_ + t_ns;
    for (;;) {
      const std::uint64_t now = obs::steady_ns();
      if (now >= target || stop_requested(opts_)) return;
      if (tel_ != nullptr) tel_->producer_beat(now);
      const std::chrono::nanoseconds left(static_cast<std::int64_t>(target - now));
      if (left > 200us) {
        std::this_thread::sleep_for(
            std::min<std::chrono::nanoseconds>(left - 100us, 50ms));
      } else {
        std::this_thread::yield();
      }
    }
  }
  bool offer(std::uint64_t t_ns, sim::TxInstance&& inst) {
    return queue_.try_push(
        Request{obs::steady_ns(), t_ns >= warmup_ns_, std::move(inst)});
  }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.approx_size(); }
  std::string interval_fields() { return deltas_.delta_fields({"rt.", "htm.", "seer."}); }
  // Idempotent: the destructor drains too, so an exception out of the step
  // loop still joins the workers.
  void drain() {
    producer_done_.store(true, std::memory_order_release);
    if (threads_.empty()) return;
    for (std::thread& th : threads_) th.join();
    threads_.clear();
    // Each step runs its own scheduler: its final capture ends the step's
    // model record and closes the anomaly episodes still open in it.
    if (core::SeerScheduler* seer = exec_.policy_shared().seer();
        seer != nullptr && opts_.recorder != nullptr) {
      opts_.recorder->record_final(seer->make_model_snapshot(obs::now_ticks()));
    }
    // The per-step registry dies with this backend; an in-flight scrape
    // holds the hub lock, so it finishes before detach returns.
    if (tel_ != nullptr) tel_->attach_step_registry(nullptr);
  }

 private:
  void work(std::size_t t, Completions& done) {
    const auto id = static_cast<core::ThreadId>(t);
    auto h = exec_.make_handle(id);
    if (tel_ != nullptr) {
      tel_->registry().set_gauge(tel_->active_workers, active_workers_.fetch_add(1) + 1);
    }
    for (Request r;;) {
      // The producer stops pushing before it sets the flag, so a pop that
      // fails after the flag was seen misses an empty queue, not a
      // half-pushed cell: the queue is drained.
      const bool producer_done = producer_done_.load(std::memory_order_acquire);
      if (!queue_.try_pop(r)) {
        if (producer_done) break;
        std::this_thread::yield();
        continue;
      }
      const rt::CommitMode mode = run_instance(*h, words_, r.inst);
      const std::uint64_t now = obs::steady_ns();
      if (tel_ != nullptr) tel_->worker_beat(now);
      done.record(t, id, r.counted, now > r.enqueue_ns ? now - r.enqueue_ns : 0, mode);
    }
    if (tel_ != nullptr) {
      tel_->registry().set_gauge(tel_->active_workers, active_workers_.fetch_sub(1) - 1);
    }
  }

  const ServeOptions& opts_;
  ServeTelemetry* tel_;
  std::unique_ptr<sim::Workload> gen_;
  std::vector<htm::TmWord> words_;
  htm::SoftHtm tm_;
  obs::MetricsRegistry metrics_;
  rt::ThreadedExecutor exec_;
  util::MpmcQueue<Request> queue_;
  obs::PeriodicMetricsDelta deltas_;
  std::uint64_t warmup_ns_;
  core::ThreadId lane_;
  std::atomic<std::size_t> active_workers_{0};
  std::atomic<bool> producer_done_{false};
  std::vector<std::thread> threads_;
  std::uint64_t t0_ns_ = 0;
};

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
          return run_step<SimBackend>(desc, ol, opts, i, rates[i], duration_s,
                                      workers);
        });
  } else {
    // Real steps share the machine; running two at once would corrupt both
    // measurements. Always serial.
    for (std::size_t i = 0; i < rates.size(); ++i) {
      if (stop_requested(opts)) break;  // skip remaining steps, keep the log
      steps.push_back(
          run_step<RealBackend>(desc, ol, opts, i, rates[i], duration_s, workers));
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
