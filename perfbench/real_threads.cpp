// The real-thread workloads, `hot` and `scan`: three worker threads drive
// ThreadedExecutor::ThreadHandle::run over a SoftHtm, closed loop, on
// instances sampled from the workload's spec config during set-up.
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <span>
#include <thread>

#include "harness.hpp"
#include "htm/soft_htm.hpp"
#include "obs/metrics.hpp"
#include "runtime/threaded_executor.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace seer;

namespace {

// nproc is 4 on the reference host: three workers, and the main thread only
// sleeps and closes the timed window.
constexpr std::size_t kThreads = 3;
// The reference host's cores (no SMT); Seer's core locks use thread % this.
constexpr std::size_t kPhysicalCores = 4;
// Instances sampled per worker during set-up; the window cycles through
// them. A warm-up of one pass over the pool runs before the window.
constexpr std::size_t kPoolPerThread = 16384;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
// Spans per thread written to the span file (all of them are aggregated).
constexpr std::size_t kKeepSpans = 20000;
// Seeds of the simulated cell that gives speedup_seer and seer_over_rtm.
constexpr std::uint64_t kSimSeeds = 4;
// Instances timed for workload.sample_ns.
constexpr std::uint64_t kSampleInstances = 30000;

constexpr std::size_t kModes = static_cast<std::size_t>(rt::CommitMode::kModeCount);

using Pool = std::vector<workload::TxInstance>;
using Handle = rt::ThreadedExecutor::ThreadHandle;

struct Inputs {
  workload::Desc desc;
  std::size_t n_types = 0;
  std::vector<Pool> pools;  // one per worker
  std::size_t table_words = 0;
  double sample_s = 0.0;
};

// Loads the spec config and samples every worker's pool. Line ids index the
// table directly, so the table is sized to the largest sampled line.
Inputs sample_inputs(const std::string& path, std::uint64_t seed) {
  Inputs in;
  in.desc = workload::from_config(path);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<workload::Generator> gen = in.desc.make(kThreads);
  in.n_types = gen->n_types();
  std::uint32_t max_line = 0;
  in.pools.resize(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const auto id = static_cast<core::ThreadId>(t);
    util::Xoshiro256 rng(mix_seed(seed, t));
    gen->init(id);
    Pool& pool = in.pools[t];
    pool.resize(kPoolPerThread);
    for (std::size_t i = 0; i < kPoolPerThread; ++i) {
      if (gen->exhausted(id)) {
        throw workload::ConfigError(path + ": generator ran out of instances");
      }
      (void)gen->think_time(id, rng);
      gen->next(id, static_cast<double>(i) / kPoolPerThread, rng, pool[i]);
      for (const auto* lines : {&pool[i].reads, &pool[i].writes}) {
        if (!lines->empty()) max_line = std::max(max_line, lines->back());
      }
    }
  }
  in.table_words = static_cast<std::size_t>(max_line) + 1;
  in.sample_s = seconds_between(t0, Clock::now());
  return in;
}

// Per-worker state; each on its own cache lines.
struct alignas(util::kCacheLineBytes) Worker {
  std::unique_ptr<Handle> handle;
  std::size_t cursor = 0;
  std::uint64_t increments = 0;  // writes of every committed run(), all phases
  std::uint64_t calls = 0;       // run() calls completed inside the window
  std::uint64_t throws = 0;
  std::array<std::uint64_t, kModes> modes{};
  LatencyHist latency;
  // Traced runs only.
  std::unique_ptr<SpanBuffer> spans;
  std::uint64_t tx_seq = 0;
  std::uint64_t committed_accesses = 0;
  std::uint64_t committed_body_ns = 0;
  std::uint64_t aborted_body_ns = 0;
};

// One executor over one fresh table, with one handle per worker.
class Engine {
 public:
  Engine(const Inputs& in, rt::PolicyKind kind, obs::MetricsRegistry* metrics)
      : table_(new htm::TmWord[in.table_words]()),
        words_(table_.get(), in.table_words),
        exec_(tm_, policy(kind), options(in, metrics)) {
    if (metrics != nullptr) metrics->freeze();
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers_[t].handle = exec_.make_handle(static_cast<core::ThreadId>(t));
    }
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] std::span<htm::TmWord> words() noexcept { return words_; }
  [[nodiscard]] Worker& worker(std::size_t t) noexcept { return workers_[t]; }
  [[nodiscard]] core::SeerScheduler* seer() noexcept {
    return exec_.policy_shared().seer();
  }

  // Every write is an increment, so the table must sum to the increments of
  // the committed transactions. Adds the mismatch and any throwing run() to
  // the report's failures; a throwing run() also counts as attempted.
  void check(Report& r, const char* phase) const {
    std::uint64_t sum = 0;
    for (const htm::TmWord& w : words_) sum += w.load(std::memory_order_relaxed);
    std::uint64_t expected = 0;
    std::uint64_t throws = 0;
    for (const Worker& w : workers_) {
      expected += w.increments;
      throws += w.throws;
    }
    const std::uint64_t diff = sum > expected ? sum - expected : expected - sum;
    r.attempted += throws;
    r.failed += diff + throws;
    if (diff != 0) {
      r.check_failed(std::string(phase) + ": table sums to " + std::to_string(sum) +
                     ", committed increments " + std::to_string(expected));
    }
    if (throws != 0) {
      r.check_failed(std::string(phase) + ": " + std::to_string(throws) +
                     " run() calls threw");
    }
  }

 private:
  static rt::PolicyConfig policy(rt::PolicyKind kind) {
    rt::PolicyConfig p;
    p.kind = kind;
    return p;
  }
  static rt::ThreadedExecutor::Options options(const Inputs& in,
                                               obs::MetricsRegistry* metrics) {
    rt::ThreadedExecutor::Options o;
    o.n_threads = kThreads;
    o.n_types = in.n_types;
    o.physical_cores = kPhysicalCores;
    o.metrics = metrics;
    return o;
  }

  htm::SoftHtm tm_;
  std::unique_ptr<htm::TmWord[]> table_;
  std::span<htm::TmWord> words_;
  rt::ThreadedExecutor exec_;
  std::array<Worker, kThreads> workers_;
};

// The transaction body: every read line is a tx.read, every write line a
// read-modify-write increment (the repo's run_instance shape).
template <typename Tx>
void body(Tx& tx, std::span<htm::TmWord> words, const workload::TxInstance& inst) {
  for (const std::uint32_t line : inst.reads) (void)tx.read(words[line]);
  for (const std::uint32_t line : inst.writes) {
    htm::TmWord& w = words[line];
    tx.write(w, tx.read(w) + 1);
  }
}

void attempt_done(Worker& w, std::uint64_t start, std::uint64_t end, bool committed,
                  std::uint64_t accesses) {
  SpanBuffer& sb = *w.spans;
  sb.add({start, end, sb.open_id, sb.open_id, SpanName::kAttempt, committed}, end - start);
  sb.open_child_ns += end - start;
  if (committed) {
    w.committed_body_ns += end - start;
    w.committed_accesses += accesses;
  } else {
    w.aborted_body_ns += end - start;
  }
}

// Closes an attempt span when the body unwinds on an abort.
struct AttemptScope {
  Worker& w;
  std::uint64_t start;
  bool finished = false;
  ~AttemptScope() {
    if (!finished) attempt_done(w, start, span_clock(), false, 0);
  }
};

// One run() call. The traced variant records a `tx` span around it and an
// `attempt` child around each body call: an attempt is aborted when the body
// unwinds or when run() calls the body again, committed otherwise.
template <bool kTraced>
rt::CommitMode run_one(Worker& w, std::span<htm::TmWord> words,
                       const workload::TxInstance& inst) {
  if constexpr (!kTraced) {
    return w.handle->run(inst.type, [&](auto& tx) { body(tx, words, inst); });
  } else {
    SpanBuffer& sb = *w.spans;
    sb.open_id = ++w.tx_seq;
    sb.open_child_ns = 0;
    bool pending = false;
    std::uint64_t p_start = 0;
    std::uint64_t p_end = 0;
    const std::uint64_t t0 = span_clock();
    const rt::CommitMode mode = w.handle->run(inst.type, [&](auto& tx) {
      if (pending) {
        attempt_done(w, p_start, p_end, false, 0);
        pending = false;
      }
      AttemptScope scope{w, span_clock()};
      body(tx, words, inst);
      scope.finished = true;
      p_start = scope.start;
      p_end = span_clock();
      pending = true;
    });
    const std::uint64_t t1 = span_clock();
    if (pending) {
      attempt_done(w, p_start, p_end, true, inst.reads.size() + 2 * inst.writes.size());
    }
    const std::uint64_t dur = t1 - t0;
    sb.add({t0, t1, sb.open_id, 0, SpanName::kTx, false},
           dur - std::min(dur, sb.open_child_ns));
    return mode;
  }
}

// Runs `count` instances (warm-up), or until `stop` is set (the window).
template <bool kTraced>
void work(Worker& w, const Pool& pool, std::span<htm::TmWord> words, std::uint64_t count,
          const std::atomic<bool>* stop) {
  for (std::uint64_t i = 0; stop != nullptr || i < count; ++i) {
    const workload::TxInstance& inst = pool[w.cursor];
    if (++w.cursor == pool.size()) w.cursor = 0;
    const Clock::time_point t0 = Clock::now();
    rt::CommitMode mode{};
    try {
      mode = run_one<kTraced>(w, words, inst);
    } catch (const std::exception&) {
      ++w.throws;
      return;
    }
    const Clock::time_point t1 = Clock::now();
    w.increments += inst.writes.size();
    if (stop == nullptr) continue;
    // A call that ends after the window closed is not counted.
    if (stop->load(std::memory_order_relaxed)) return;
    ++w.calls;
    ++w.modes[static_cast<std::size_t>(mode)];
    w.latency.record(ns_between(t0, t1));
  }
}

void warm_up(Engine& e, const Inputs& in) {
  std::vector<std::jthread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&e, &in, t] {
      work<false>(e.worker(t), in.pools[t], e.words(), kPoolPerThread, nullptr);
    });
  }
}

// What the window's run() calls returned, summed over workers.
struct Window {
  double seconds = 0.0;
  std::uint64_t commits = 0;
  std::array<std::uint64_t, kModes> modes{};
  LatencyHist latency;

  [[nodiscard]] double rate() const { return static_cast<double>(commits) / seconds; }
  [[nodiscard]] double mode_frac(bool locked) const {
    std::uint64_t n = 0;
    for (std::size_t m = 0; m < kModes; ++m) {
      const auto mode = static_cast<rt::CommitMode>(m);
      const bool is_locked = mode != rt::CommitMode::kHtmNoLocks &&
                             mode != rt::CommitMode::kSglFallback;
      if (locked ? is_locked : mode == rt::CommitMode::kSglFallback) n += modes[m];
    }
    return commits == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(commits);
  }
};

// The timed window: workers start together, the main thread sleeps for
// `seconds` and closes it.
template <bool kTraced>
Window run_window(Engine& e, const Inputs& in, double seconds) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  Clock::time_point t0;
  Clock::time_point t1;
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&e, &in, &go, &stop, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        work<kTraced>(e.worker(t), in.pools[t], e.words(), 0, &stop);
      });
    }
    t0 = Clock::now();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
    t1 = Clock::now();
  }
  Window out;
  out.seconds = seconds_between(t0, t1);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const Worker& w = e.worker(t);
    out.commits += w.calls;
    for (std::size_t m = 0; m < kModes; ++m) out.modes[m] += w.modes[m];
    out.latency.merge(w.latency);
  }
  return out;
}

// Sum of the handles' outcome counters.
rt::ThreadCounters counters(Engine& e) {
  rt::ThreadCounters sum;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const rt::ThreadCounters& c = e.worker(t).handle->counters();
    for (std::size_t m = 0; m < sum.commits_by_mode.size(); ++m) {
      sum.commits_by_mode[m] += c.commits_by_mode[m];
    }
    for (std::size_t a = 0; a < sum.aborts_by_cause.size(); ++a) {
      sum.aborts_by_cause[a] += c.aborts_by_cause[a];
    }
    sum.hw_attempts += c.hw_attempts;
  }
  return sum;
}

std::uint64_t commits_of(const rt::ThreadCounters& c) {
  std::uint64_t n = 0;
  for (const std::uint64_t m : c.commits_by_mode) n += m;
  return n;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const obs::CounterSnapshot& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

void note_window(Report& r, const char* label, const Window& w,
                 const rt::ThreadCounters& before, const rt::ThreadCounters& after) {
  const std::uint64_t commits = commits_of(after) - commits_of(before);
  const double attempts =
      commits == 0 ? 0.0
                   : static_cast<double>(after.hw_attempts - before.hw_attempts) /
                         static_cast<double>(commits);
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: %" PRIu64 " commits in %.3f s = %.0f tx/s; p50 %.2f us, p99 %.2f us; "
                "%.3f attempts/commit; SGL %.2f%%, locked %.2f%% of commits",
                label, w.commits, w.seconds, w.rate(), w.latency.quantile(0.5) / 1e3,
                w.latency.quantile(0.99) / 1e3, attempts, 100.0 * w.mode_frac(false),
                100.0 * w.mode_frac(true));
  r.note(line);
  std::string ladder = std::string(label) + " latency ladder (us):";
  for (const double q : {0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99, 0.999}) {
    char step[48];
    std::snprintf(step, sizeof step, " p%g %.2f", 100.0 * q, w.latency.quantile(q) / 1e3);
    ladder += step;
  }
  r.note(ladder);
}

// One untraced window on a warmed-up engine, noted and checked.
Window untraced_window(Report& r, Engine& e, const Inputs& in, double seconds,
                       const char* label) {
  const rt::ThreadCounters before = counters(e);
  Window w = run_window<false>(e, in, seconds);
  note_window(r, label, w, before, counters(e));
  e.check(r, label);
  r.attempted += w.commits;
  return w;
}

Report measure(const Args& args, const std::string& path) {
  Report r;
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> in;
  std::unique_ptr<Engine> engine;
  for (int k = 0; k < kSetups; ++k) {
    if (engine != nullptr) {
      engine->check(r, "warm-up");
      engine.reset();
      in.reset();
    }
    const Clock::time_point t0 = k == 0 ? kProcessStart : Clock::now();
    in = std::make_unique<Inputs>(sample_inputs(path, args.seed));
    engine = std::make_unique<Engine>(*in, rt::PolicyKind::kSeer, nullptr);
    warm_up(*engine, *in);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const Window w = untraced_window(r, *engine, *in, args.seconds, "window (Seer)");

  // The simulator's 8-thread Fig. 3 cell of the same mix, after the window,
  // over several seeds: it gives this workload its speedup_seer and
  // seer_over_rtm. Seer's learning makes one seed's speedup vary by a few
  // percent, so the geomean over seeds is reported.
  util::GeoMean speedup[2];
  double sim_s = 0.0;
  for (std::uint64_t k = 0; k < kSimSeeds; ++k) {
    for (std::size_t p = 0; p < 2; ++p) {
      const SimCell c = run_sim_cell(in->desc, kSimPolicies[p], mix_seed(args.seed, k), nullptr);
      ++r.attempted;
      sim_s += c.host_s;
      if (c.stats.commits != sim_expected_commits(in->desc)) {
        ++r.failed;
        r.check_failed("simulated " + std::string(rt::to_string(c.policy)) +
                       " cell committed " + std::to_string(c.stats.commits));
      }
      speedup[p].add(c.stats.speedup());
    }
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "simulated 8-thread cell of this mix, geomean of %d seeds: Seer %.4fx, RTM "
                "%.4fx (%.2f s of host time; no paper reference for this mix)",
                static_cast<int>(kSimSeeds), speedup[0].value(), speedup[1].value(), sim_s);
  r.note(line);

  r.add("commit_rate", w.rate(), "tx/s", w.commits);
  r.add("op_p50_us", w.latency.quantile(0.5) / 1e3, "us", w.latency.count());
  r.add("op_p99_us", w.latency.quantile(0.99) / 1e3, "us", w.latency.count());
  r.add("speedup_seer", speedup[0].value(), "x", kSimSeeds);
  r.add("seer_over_rtm", speedup[0].value() / speedup[1].value(), "x", kSimSeeds);
  r.add("setup_s", nearest_rank(setup_s, 0.5), "s", setup_s.size());
  r.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  return r;
}

// The traced run: Seer untraced, RTM untraced, and Seer traced (spans,
// registry, scheduler sink), each a third of --seconds on the same inputs.
Report measure_traced(const Args& args, const std::string& path) {
  Report r;
  const Inputs in = sample_inputs(path, args.seed);
  const double third = args.seconds / 3.0;
  double setup_s = 0.0;

  double rate_untraced = 0.0;
  {
    Engine e(in, rt::PolicyKind::kSeer, nullptr);
    warm_up(e, in);
    setup_s = seconds_between(kProcessStart, Clock::now());
    rate_untraced = untraced_window(r, e, in, third, "Seer untraced").rate();
  }
  double rate_rtm = 0.0;
  {
    Engine e(in, rt::PolicyKind::kRtm, nullptr);
    warm_up(e, in);
    rate_rtm = untraced_window(r, e, in, third, "RTM untraced").rate();
  }

  obs::MetricsRegistry registry(kThreads);
  Engine e(in, rt::PolicyKind::kSeer, &registry);
  warm_up(e, in);
  std::vector<const SpanBuffer*> buffers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    e.worker(t).spans = std::make_unique<SpanBuffer>(kKeepSpans);
    buffers.push_back(e.worker(t).spans.get());
  }
  SchedSink sink(kThreads, e.worker(0).spans.get());
  core::SeerScheduler& seer = *e.seer();
  seer.set_trace_sink(&sink);
  const rt::ThreadCounters before = counters(e);
  const obs::MetricsSnapshot reg_before = registry.snapshot();
  const std::uint64_t rebuilds_before = seer.rebuild_count();
  const Window w = run_window<true>(e, in, third);
  seer.set_trace_sink(nullptr);
  const rt::ThreadCounters after = counters(e);
  const obs::MetricsSnapshot reg_after = registry.snapshot();
  note_window(r, "Seer traced", w, before, after);
  e.check(r, "Seer traced");
  r.attempted += w.commits;

  SpanBuffer main_spans(kKeepSpans);
  const SampleCost sample =
      measure_sampling(in.desc, kThreads, args.seed, kSampleInstances, &main_spans);
  buffers.push_back(&main_spans);

  const std::uint64_t commits = commits_of(after) - commits_of(before);
  const auto per_tx = [commits](double n) {
    return commits == 0 ? 0.0 : n / static_cast<double>(commits);
  };
  const auto delta = [&](const char* name) {
    return static_cast<double>(counter_value(reg_after, name) -
                               counter_value(reg_before, name));
  };
  static constexpr const char* kCauses[] = {"conflict", "capacity", "explicit", "other"};

  r.add("runtime.attempts_per_tx",
        per_tx(static_cast<double>(after.hw_attempts - before.hw_attempts)), "1/tx", commits);
  for (std::size_t c = 0; c < 4; ++c) {
    r.add(std::string("runtime.aborts_per_tx.") + kCauses[c],
          per_tx(static_cast<double>(after.aborts_by_cause[c] - before.aborts_by_cause[c])),
          "1/tx", commits);
  }
  r.add("runtime.sgl_frac", w.mode_frac(false), "ratio", w.commits);
  r.add("runtime.locked_frac", w.mode_frac(true), "ratio", w.commits);

  SpanBuffer::Totals tx;
  std::uint64_t body_committed = 0;
  std::uint64_t body_aborted = 0;
  std::uint64_t accesses = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const Worker& wk = e.worker(t);
    tx.count += wk.spans->totals(SpanName::kTx).count;
    tx.self_ns += wk.spans->totals(SpanName::kTx).self_ns;
    body_committed += wk.committed_body_ns;
    body_aborted += wk.aborted_body_ns;
    accesses += wk.committed_accesses;
  }
  r.add("runtime.outside_body_ns",
        tx.count == 0 ? 0.0 : static_cast<double>(tx.self_ns) / static_cast<double>(tx.count),
        "ns", tx.count);
  r.add("htm.ns_per_access",
        accesses == 0 ? 0.0
                      : static_cast<double>(body_committed) / static_cast<double>(accesses),
        "ns", accesses);
  const std::uint64_t body = body_committed + body_aborted;
  r.add("htm.wasted_frac",
        body == 0 ? 0.0 : static_cast<double>(body_aborted) / static_cast<double>(body),
        "ratio", tx.count);
  r.add("htm.read_promote_per_tx.capacity", per_tx(delta("htm.read_promote.capacity")),
        "1/tx", commits);
  r.add("htm.read_promote_per_tx.saturation", per_tx(delta("htm.read_promote.saturation")),
        "1/tx", commits);
  r.add("htm.capacity_aborts.sig_only", per_tx(delta("htm.aborts.capacity.sig_only")),
        "1/tx", commits);
  r.add("htm.capacity_aborts.exact", per_tx(delta("htm.aborts.capacity.exact")), "1/tx",
        commits);

  const std::uint64_t rebuilds = seer.rebuild_count() - rebuilds_before;
  const auto scheme = seer.scheme();
  r.add("core.rebuilds_per_s", static_cast<double>(rebuilds) / w.seconds, "1/s", rebuilds);
  r.add("core.rebuild_p50_us", sink.rebuild_ns().quantile(0.5) / 1e3, "us",
        sink.rebuild_ns().count());
  r.add("core.rebuild_p99_us", sink.rebuild_ns().quantile(0.99) / 1e3, "us",
        sink.rebuild_ns().count());
  r.add("core.events_per_tx", per_tx(static_cast<double>(sink.events())), "1/tx", commits);
  r.add("core.scheme_edges",
        static_cast<double>(scheme != nullptr ? scheme->edge_count() : 0), "count", 1);
  r.add("core.tuning_epochs", static_cast<double>(seer.tuning_epochs()), "count", 1);
  r.add("core.storm_entries", static_cast<double>(seer.storm_entries()), "count", 1);
  r.add("core.overhead_frac", rate_rtm > 0.0 ? 1.0 - rate_untraced / rate_rtm : 0.0,
        "ratio", 2);

  r.add("workload.sample_ns", sample.ns_per_instance, "ns", sample.instances);
  r.add("workload.footprint_lines", sample.footprint_lines, "lines", sample.instances);
  r.add("workload.sample_share", setup_s > 0.0 ? in.sample_s / setup_s : 0.0, "ratio", 1);
  r.add("trace.overhead_frac", rate_untraced > 0.0 ? 1.0 - w.rate() / rate_untraced : 0.0,
        "ratio", 2);

  note_self_times(r, buffers);
  if (!write_span_file(args.spans_path, buffers, args.workload, args.seed)) {
    r.check_failed("cannot write span file " + args.spans_path);
  } else {
    r.note("span file: " + args.spans_path);
  }
  return r;
}

}  // namespace

Report run_real_threads(const Args& args) {
  const std::string path = args.workload_dir + "/" + args.workload + ".json";
  return args.trace ? measure_traced(args, path) : measure(args, path);
}

}  // namespace perfbench
