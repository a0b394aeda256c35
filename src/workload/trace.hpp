// Instance-stream capture and deterministic replay.
//
// An InstanceTraceRecorder wraps any generator and records, per thread, the
// exact sequence of think times and transaction instances the executor
// drew — together with the post-call state of the per-thread RNG. A
// TraceReplay feeds a captured trace back in as a generator: it returns the
// recorded values verbatim and restores the recorded RNG state after each
// call, so the executor's *own* draws (conflict windows, victim choices,
// background aborts) continue from exactly where they did in the recording
// run. Replaying a machine run under the same config therefore reproduces
// it decision-for-decision — the property the trace-replay round-trip test
// pins with the PR 2 differential checker — while replaying under a
// different scheduling policy reruns the identical instance stream against
// the new policy.
//
// Trace files are JSON (util/json DOM, no new dependencies):
//   {
//     "version": 1,
//     "workload": "genome",
//     "type_names": ["t0", ...],
//     "threads": [
//       {"thread": 0,
//        "thinks": [{"t": 123, "rng": ["<16-hex>", x4]}, ...],
//        "instances": [{"type": 0, "duration": 812, "reads": [...],
//                       "writes": [...], "rng": ["<16-hex>", x4]}, ...]},
//       ...]
//   }
// RNG words are hex strings because the DOM holds numbers as double (u64
// state does not survive a 2^53 round-trip). Malformed or truncated files
// fail with a ConfigError naming the bad key.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "workload/generator.hpp"

namespace seer::workload {

using RngState = std::array<std::uint64_t, 4>;

struct TraceLane {
  std::vector<std::uint64_t> thinks;
  std::vector<RngState> think_rng;      // post-call state, parallel to thinks
  std::vector<TxInstance> instances;
  std::vector<RngState> instance_rng;   // post-call state, parallel to instances
};

struct InstanceTrace {
  std::string workload;                 // source generator's name
  std::vector<std::string> type_names;
  std::vector<TraceLane> lanes;         // index == ThreadId

  [[nodiscard]] std::string to_json() const;  // byte-stable serialization

  // Validating parse of a trace DOM / file. Throws ConfigError naming the
  // bad key (origin: the file path, or "<trace>" for in-memory docs).
  [[nodiscard]] static InstanceTrace parse(const util::json::Value& doc,
                                           const std::string& origin);
  [[nodiscard]] static InstanceTrace load(const std::string& path);
};

// Writes trace.to_json() to `path`; false when the file cannot be opened.
[[nodiscard]] bool write_trace_json(const InstanceTrace& trace,
                                    const std::string& path);

// Pass-through generator that records everything drawn through it into
// `out` (caller-owned so the trace survives the executor that consumed the
// recorder). One lane per thread, single-writer like the generator contract.
class InstanceTraceRecorder final : public Generator {
 public:
  InstanceTraceRecorder(std::unique_ptr<Generator> inner, std::size_t n_threads,
                        InstanceTrace* out);

  [[nodiscard]] const std::string& name() const override { return inner_->name(); }
  [[nodiscard]] std::size_t n_types() const override { return inner_->n_types(); }
  [[nodiscard]] const std::string& type_name(core::TxTypeId t) const override {
    return inner_->type_name(t);
  }
  void init(core::ThreadId thread) override;
  [[nodiscard]] bool exhausted(core::ThreadId thread) const override {
    return inner_->exhausted(thread);
  }
  void next(core::ThreadId thread, double progress, util::Xoshiro256& rng,
            TxInstance& out) override;
  [[nodiscard]] std::uint64_t think_time(core::ThreadId thread,
                                         util::Xoshiro256& rng) override;

 private:
  std::unique_ptr<Generator> inner_;
  InstanceTrace* out_;
};

// Replays a captured trace. Threads beyond the trace's lane count (and
// threads whose lane is consumed) report exhausted; the executor retires
// them. init(thread) rewinds that thread's cursors, so one instance can
// drive several runs.
class TraceReplay final : public Generator {
 public:
  explicit TraceReplay(InstanceTrace trace, std::string name = "");

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::size_t n_types() const override {
    return trace_.type_names.size();
  }
  [[nodiscard]] const std::string& type_name(core::TxTypeId t) const override {
    return trace_.type_names[static_cast<std::size_t>(t)];
  }
  void init(core::ThreadId thread) override;
  [[nodiscard]] bool exhausted(core::ThreadId thread) const override;
  void next(core::ThreadId thread, double progress, util::Xoshiro256& rng,
            TxInstance& out) override;
  [[nodiscard]] std::uint64_t think_time(core::ThreadId thread,
                                         util::Xoshiro256& rng) override;

  [[nodiscard]] const InstanceTrace& trace() const noexcept { return trace_; }
  // Longest per-thread instance count — the natural txs_per_thread for a
  // full replay.
  [[nodiscard]] std::uint64_t max_instances_per_thread() const noexcept;

 private:
  InstanceTrace trace_;
  std::string name_;
  std::vector<std::size_t> inst_cursor_;
  std::vector<std::size_t> think_cursor_;
};

}  // namespace seer::workload
