// Shared pieces of the end-to-end benchmark (README.md in this directory):
// the command line, the report every workload fills, a fixed-memory latency
// histogram, the in-memory span buffers of the traced run, the scheduler
// trace sink, and the host-noise probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/seer_scheduler.hpp"
#include "runtime/policies.hpp"
#include "sim/machine.hpp"
#include "util/cacheline.hpp"
#include "workload/registry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Captured during static initialisation, before main: set-up time is
// measured from here for the first set-up of a run.
extern const Clock::time_point kProcessStart;

[[nodiscard]] inline std::uint64_t ns_between(Clock::time_point a,
                                              Clock::time_point b) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workload_dir;  // holds hot.json and scan.json
  std::string spans_path;    // span file of the traced run
};

// One reported number: value, unit, and how many samples stand behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

// What one workload run hands back to main: the correctness verdict, the
// operation counts, the metrics, and free-form lines printed before them.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;

  void add(std::string name, double value, std::string unit, std::uint64_t samples);
  void note(std::string line) { lines.push_back(std::move(line)); }
  // Records a failed correctness check; the command exits non-zero.
  void check_failed(const std::string& why);
};

// Names and units of every metric the benchmark reports, in print order.
// BENCHMARK.json lists the same names; run.py checks that they agree.
struct MetricSpec {
  std::string name;
  std::string unit;
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

// The eight STAMP stand-ins and the two policies of the Fig. 3 cell.
inline constexpr seer::rt::PolicyKind kSimPolicies[] = {seer::rt::PolicyKind::kSeer,
                                                        seer::rt::PolicyKind::kRtm};
inline constexpr std::size_t kSimThreads = 8;
// Fraction of each stand-in's bench_txs_per_thread simulated per cell; the
// fig3_speedup exhibit's default, so the cells match that exhibit at 8
// threads.
inline constexpr double kSimTxsScale = 0.5;

[[nodiscard]] std::uint64_t sim_txs_per_thread(std::uint64_t bench_txs_per_thread);

// Latency histogram with fixed memory and O(1) recording: exact below 256 ns,
// then 128 sub-buckets per power of two (relative error under 0.8%).
// Quantiles are nearest-rank and return the bucket midpoint.
class LatencyHist {
 public:
  LatencyHist() : counts_(kBuckets, 0) {}

  void record(std::uint64_t ns) noexcept {
    ++counts_[index(ns)];
    ++n_;
  }
  void merge(const LatencyHist& other);
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::size_t kBuckets = 256 + 56 * 128;
  [[nodiscard]] static std::size_t index(std::uint64_t v) noexcept;
  [[nodiscard]] static double midpoint(std::size_t i) noexcept;

  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

// --- spans of the traced run ---------------------------------------------

enum class SpanName : std::uint8_t { kTx, kAttempt, kRebuild, kMachineRun, kSample };
inline constexpr std::size_t kSpanNames = 5;
[[nodiscard]] const char* to_string(SpanName n) noexcept;

struct Span {
  std::uint64_t start_ns = 0;  // since kProcessStart
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;        // the request (transaction or cell) it belongs to
  std::uint64_t parent = 0;    // 0 = root span
  SpanName name = SpanName::kTx;
  bool committed = false;      // attempts only
};

// Per-thread span store: keeps the first `keep` spans for the span file and
// accumulates count, total and self time per span name over all of them.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t keep) : keep_(keep) { spans_.reserve(keep); }

  void add(const Span& s, std::uint64_t self_ns) {
    Totals& t = totals_[static_cast<std::size_t>(s.name)];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += self_ns;
    if (spans_.size() < keep_) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  [[nodiscard]] const Totals& totals(SpanName n) const noexcept {
    return totals_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  // The request currently open on this thread and the time its children
  // (attempts, rebuilds, samples) covered, for the parent's self time.
  std::uint64_t open_id = 0;
  std::uint64_t open_child_ns = 0;

 private:
  std::size_t keep_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  Totals totals_[kSpanNames];
};

[[nodiscard]] inline std::uint64_t span_clock() noexcept {
  return ns_between(kProcessStart, Clock::now());
}

// Writes every kept span as Chrome trace_event JSON ("X" events, one tid per
// buffer). Returns false when the file cannot be written.
[[nodiscard]] bool write_span_file(const std::string& path,
                                   const std::vector<const SpanBuffer*>& buffers,
                                   const std::string& workload, std::uint64_t seed);

// Prints the self-time table of the traced run into the report.
void note_self_times(Report& r, const std::vector<const SpanBuffer*>& buffers);

// Scheduler observer for the traced run. It counts scheduler events per
// thread. It also records a `rebuild` span from thread 0's kMaybeUpdate (or
// kForceUpdate) event to the rebuild it triggered, into thread 0's buffer.
class SchedSink final : public seer::core::SchedulerTraceSink {
 public:
  SchedSink(std::size_t n_threads, SpanBuffer* thread0)
      : events_(n_threads), thread0_(thread0) {}
  SchedSink(const SchedSink&) = delete;
  SchedSink& operator=(const SchedSink&) = delete;

  void on_event(const seer::core::SchedEvent& e) noexcept override;
  void on_rebuild(std::uint64_t rebuild_index,
                  const seer::core::InferenceParams& params,
                  const seer::core::LockScheme& scheme) noexcept override;

  // Read only while no thread drives the scheduler.
  [[nodiscard]] std::uint64_t events() const noexcept;
  [[nodiscard]] const LatencyHist& rebuild_ns() const noexcept { return rebuild_ns_; }

 private:
  std::vector<seer::util::Padded<std::uint64_t>> events_;
  SpanBuffer* thread0_;
  std::uint64_t update_start_ns_ = 0;
  LatencyHist rebuild_ns_;
};

// --- simulator cells --------------------------------------------------------

// One Machine::run of a generator under a policy at 8 simulated threads.
struct SimCell {
  std::string stamp;
  seer::rt::PolicyKind policy = seer::rt::PolicyKind::kSeer;
  seer::sim::MachineStats stats;
  double host_s = 0.0;
  // Seer cells: scheduler state at the end of the run.
  std::uint64_t rebuilds = 0;
  std::uint64_t scheme_edges = 0;
  std::uint64_t tuning_epochs = 0;
  std::uint64_t storm_entries = 0;
};

[[nodiscard]] seer::sim::MachineConfig sim_config(seer::rt::PolicyKind policy,
                                                  std::uint64_t txs_per_thread,
                                                  std::uint64_t seed);

// Builds a Machine over a fresh generator and runs it. `sink` (Seer only,
// may be null) observes the scheduler.
[[nodiscard]] SimCell run_sim_cell(const seer::workload::Desc& desc,
                                   seer::rt::PolicyKind policy, std::uint64_t seed,
                                   SchedSink* sink);

// The committed-transaction count every cell must reach.
[[nodiscard]] std::uint64_t sim_expected_commits(const seer::workload::Desc& desc);

// Host time per generated instance and mean footprint, from a fresh
// generator driven round-robin over `n_threads` threads.
struct SampleCost {
  double ns_per_instance = 0.0;
  double footprint_lines = 0.0;
  std::uint64_t instances = 0;
};
[[nodiscard]] SampleCost measure_sampling(const seer::workload::Desc& desc,
                                          std::size_t n_threads, std::uint64_t seed,
                                          std::uint64_t instances, SpanBuffer* spans);

// --- host noise -------------------------------------------------------------

// Steal ticks from /proc/stat and context switches from getrusage, so an
// A/A spread can be traced to the host.
struct HostSample {
  bool have_stat = false;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  std::uint64_t invol_csw = 0;
  std::uint64_t vol_csw = 0;
};
[[nodiscard]] HostSample host_sample();
[[nodiscard]] double peak_rss_mb();

// Nearest-rank quantile of a small sample (the middle value for q = 0.5 and
// an odd count).
[[nodiscard]] double nearest_rank(std::vector<double> xs, double q);
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

// Workload entry points.
[[nodiscard]] Report run_real_threads(const Args& args);
[[nodiscard]] Report run_stamp_sim(const Args& args);

}  // namespace perfbench
