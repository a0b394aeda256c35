#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/rng.hpp"

namespace perfbench {

using namespace seer;

const Clock::time_point kProcessStart = Clock::now();

void Report::add(std::string name, double value, std::string unit,
                 std::uint64_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::check_failed(const std::string& why) {
  correct = false;
  lines.push_back("CHECK FAILED: " + why);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"commit_rate", "tx/s"},   {"op_p50_us", "us"},     {"op_p99_us", "us"},
      {"speedup_seer", "x"},     {"seer_over_rtm", "x"},  {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

namespace {

std::vector<MetricSpec> make_per_layer() {
  std::vector<MetricSpec> v = {
      {"runtime.attempts_per_tx", "1/tx"},
      {"runtime.aborts_per_tx.conflict", "1/tx"},
      {"runtime.aborts_per_tx.capacity", "1/tx"},
      {"runtime.aborts_per_tx.explicit", "1/tx"},
      {"runtime.aborts_per_tx.other", "1/tx"},
      {"runtime.sgl_frac", "ratio"},
      {"runtime.locked_frac", "ratio"},
      {"runtime.outside_body_ns", "ns"},
      {"htm.ns_per_access", "ns"},
      {"htm.wasted_frac", "ratio"},
      {"htm.read_promote_per_tx.capacity", "1/tx"},
      {"htm.read_promote_per_tx.saturation", "1/tx"},
      {"htm.capacity_aborts.sig_only", "1/tx"},
      {"htm.capacity_aborts.exact", "1/tx"},
      {"core.rebuilds_per_s", "1/s"},
      {"core.rebuild_p50_us", "us"},
      {"core.rebuild_p99_us", "us"},
      {"core.events_per_tx", "1/tx"},
      {"core.scheme_edges", "count"},
      {"core.tuning_epochs", "count"},
      {"core.storm_entries", "count"},
      {"core.overhead_frac", "ratio"},
      {"sim.host_ns_per_attempt", "ns"},
      {"sim.attempts_per_commit", "1/tx"},
      {"sim.sgl_frac", "ratio"},
      {"sim.locked_frac", "ratio"},
      {"workload.sample_ns", "ns"},
      {"workload.footprint_lines", "lines"},
      {"workload.sample_share", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  for (const char* prefix : {"sim.host_s.", "sim.speedup."}) {
    const bool host = prefix[4] == 'h';
    for (const std::string& stamp : workload::stamp_names()) {
      for (const rt::PolicyKind kind : kSimPolicies) {
        v.push_back({prefix + stamp + "." + rt::to_string(kind), host ? "s" : "x"});
      }
    }
  }
  return v;
}

}  // namespace

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kSpecs = make_per_layer();
  return kSpecs;
}

std::uint64_t sim_txs_per_thread(std::uint64_t bench_txs_per_thread) {
  return std::max<std::uint64_t>(
      200, static_cast<std::uint64_t>(static_cast<double>(bench_txs_per_thread) *
                                      kSimTxsScale));
}

// --- LatencyHist ------------------------------------------------------------

std::size_t LatencyHist::index(std::uint64_t v) noexcept {
  constexpr std::uint64_t kExact = std::uint64_t{2} << kSubBits;  // 256
  if (v < kExact) return static_cast<std::size_t>(v);
  const unsigned shift = static_cast<unsigned>(std::bit_width(v)) - (kSubBits + 1);
  const std::uint64_t top = v >> shift;  // in [128, 256)
  return static_cast<std::size_t>(kExact + (shift - 1) * (std::uint64_t{1} << kSubBits) +
                                  (top - (std::uint64_t{1} << kSubBits)));
}

double LatencyHist::midpoint(std::size_t i) noexcept {
  constexpr std::size_t kExact = std::size_t{2} << kSubBits;
  if (i < kExact) return static_cast<double>(i);
  const std::size_t k = i - kExact;
  const unsigned shift = static_cast<unsigned>(k >> kSubBits) + 1;
  const std::uint64_t top = (std::uint64_t{1} << kSubBits) + (k & ((1u << kSubBits) - 1));
  return static_cast<double>(top << shift) +
         static_cast<double>(std::uint64_t{1} << shift) / 2.0;
}

void LatencyHist::merge(const LatencyHist& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  n_ += other.n_;
}

double LatencyHist::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))), 1, n_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) return midpoint(i);
  }
  return midpoint(kBuckets - 1);
}

// --- spans ------------------------------------------------------------------

const char* to_string(SpanName n) noexcept {
  switch (n) {
    case SpanName::kTx: return "tx";
    case SpanName::kAttempt: return "attempt";
    case SpanName::kRebuild: return "rebuild";
    case SpanName::kMachineRun: return "machine.run";
    case SpanName::kSample: return "sample";
  }
  return "?";
}

bool write_span_file(const std::string& path,
                     const std::vector<const SpanBuffer*>& buffers,
                     const std::string& workload, std::uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"workload\": \"%s\", "
                  "\"seed\": %" PRIu64 ", \"dropped_per_thread\": [",
               workload.c_str(), seed);
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    std::fprintf(f, "%s%" PRIu64, t > 0 ? ", " : "", buffers[t]->dropped());
  }
  std::fprintf(f, "]}, \"traceEvents\": [\n");
  bool first = true;
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    for (const Span& s : buffers[t]->spans()) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %zu, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                   ", \"parent\": %" PRIu64 "%s}}",
                   first ? "" : ",\n", to_string(s.name), t,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id, s.parent,
                   s.name == SpanName::kAttempt
                       ? (s.committed ? ", \"committed\": true" : ", \"committed\": false")
                       : "");
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void note_self_times(Report& r, const std::vector<const SpanBuffer*>& buffers) {
  r.note("self time by span (all threads):");
  r.note("  span          count      total_ms    self_ms   self_ns/span");
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    SpanBuffer::Totals sum;
    for (const SpanBuffer* b : buffers) {
      const SpanBuffer::Totals& t = b->totals(static_cast<SpanName>(i));
      sum.count += t.count;
      sum.total_ns += t.total_ns;
      sum.self_ns += t.self_ns;
    }
    if (sum.count == 0) continue;
    char line[160];
    std::snprintf(line, sizeof line, "  %-12s %9" PRIu64 " %12.1f %10.1f %12.1f",
                  to_string(static_cast<SpanName>(i)), sum.count,
                  static_cast<double>(sum.total_ns) / 1e6,
                  static_cast<double>(sum.self_ns) / 1e6,
                  static_cast<double>(sum.self_ns) / static_cast<double>(sum.count));
    r.note(line);
  }
}

void SchedSink::on_event(const core::SchedEvent& e) noexcept {
  if (e.thread < events_.size()) ++events_[e.thread].value;
  if (e.kind == core::SchedEvent::Kind::kMaybeUpdate ||
      e.kind == core::SchedEvent::Kind::kForceUpdate) {
    update_start_ns_ = span_clock();
  }
}

void SchedSink::on_rebuild(std::uint64_t /*rebuild_index*/,
                           const core::InferenceParams& /*params*/,
                           const core::LockScheme& /*scheme*/) noexcept {
  const std::uint64_t end = span_clock();
  const std::uint64_t dur = end - update_start_ns_;
  rebuild_ns_.record(dur);
  if (thread0_ != nullptr) {
    thread0_->add({update_start_ns_, end, thread0_->open_id, thread0_->open_id,
                   SpanName::kRebuild, false},
                  dur);
    thread0_->open_child_ns += dur;
  }
}

std::uint64_t SchedSink::events() const noexcept {
  std::uint64_t n = 0;
  for (const auto& e : events_) n += e.value;
  return n;
}

// --- simulator cells --------------------------------------------------------

sim::MachineConfig sim_config(rt::PolicyKind policy, std::uint64_t txs_per_thread,
                              std::uint64_t seed) {
  sim::MachineConfig cfg;  // fig3_speedup's machine: 8 threads on 4 SMT cores
  cfg.n_threads = kSimThreads;
  cfg.txs_per_thread = txs_per_thread;
  cfg.policy.kind = policy;
  cfg.seed = seed;
  return cfg;
}

std::uint64_t sim_expected_commits(const workload::Desc& desc) {
  return kSimThreads * sim_txs_per_thread(desc.bench_txs_per_thread);
}

SimCell run_sim_cell(const workload::Desc& desc, rt::PolicyKind policy,
                     std::uint64_t seed, SchedSink* sink) {
  SimCell cell;
  cell.stamp = desc.name;
  cell.policy = policy;
  const Clock::time_point t0 = Clock::now();
  sim::Machine machine(
      sim_config(policy, sim_txs_per_thread(desc.bench_txs_per_thread), seed),
      desc.make(kSimThreads));
  core::SeerScheduler* seer = machine.policy_shared().seer();
  if (seer != nullptr && sink != nullptr) seer->set_trace_sink(sink);
  cell.stats = machine.run();
  cell.host_s = seconds_between(t0, Clock::now());
  if (seer != nullptr) {
    seer->set_trace_sink(nullptr);
    cell.rebuilds = seer->rebuild_count();
    const auto scheme = seer->scheme();
    cell.scheme_edges = scheme != nullptr ? scheme->edge_count() : 0;
    cell.tuning_epochs = seer->tuning_epochs();
    cell.storm_entries = seer->storm_entries();
  }
  return cell;
}

SampleCost measure_sampling(const workload::Desc& desc, std::size_t n_threads,
                            std::uint64_t seed, std::uint64_t instances,
                            SpanBuffer* spans) {
  std::unique_ptr<workload::Generator> gen = desc.make(n_threads);
  std::vector<util::Xoshiro256> rngs;
  for (std::size_t t = 0; t < n_threads; ++t) {
    gen->init(static_cast<core::ThreadId>(t));
    rngs.emplace_back(mix_seed(seed, t));
  }
  const std::uint64_t per_thread = std::max<std::uint64_t>(1, instances / n_threads);
  workload::TxInstance inst;
  std::uint64_t lines = 0;
  std::uint64_t n = 0;
  const std::uint64_t t0 = span_clock();
  for (std::uint64_t i = 0; i < per_thread; ++i) {
    const double progress = static_cast<double>(i) / static_cast<double>(per_thread);
    for (std::size_t t = 0; t < n_threads; ++t) {
      const auto id = static_cast<core::ThreadId>(t);
      if (gen->exhausted(id)) continue;
      (void)gen->think_time(id, rngs[t]);
      gen->next(id, progress, rngs[t], inst);
      lines += inst.footprint_lines();
      ++n;
    }
  }
  const std::uint64_t t1 = span_clock();
  if (spans != nullptr) {
    spans->add({t0, t1, spans->open_id, spans->open_id, SpanName::kSample, false},
               t1 - t0);
    spans->open_child_ns += t1 - t0;
  }
  SampleCost c;
  c.instances = n;
  if (n > 0) {
    c.ns_per_instance = static_cast<double>(t1 - t0) / static_cast<double>(n);
    c.footprint_lines = static_cast<double>(lines) / static_cast<double>(n);
  }
  return c;
}

// --- host noise -------------------------------------------------------------

HostSample host_sample() {
  HostSample s;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (stat && std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream in(line.substr(4));
    std::uint64_t v = 0;
    for (int field = 0; in >> v; ++field) {
      s.total += v;
      if (field == 7) {
        s.steal = v;
        s.have_stat = true;
      }
    }
  }
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    s.invol_csw = static_cast<std::uint64_t>(ru.ru_nivcsw);
    s.vol_csw = static_cast<std::uint64_t>(ru.ru_nvcsw);
  }
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double nearest_rank(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  util::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return sm.next();
}

}  // namespace perfbench
