// Periodic metrics emission: successive MetricsRegistry snapshots rendered
// as JSON counter *deltas* (DESIGN.md §12).
//
// The serving harness appends these fields to its per-interval JSONL lines
// so a log line says what happened *during* the interval (commits, aborts by
// cause, fallbacks), not since process start — the shape process_serve_logs
// graphs over time. The registry's snapshots are safe to take while worker
// threads keep recording (metrics.hpp documents why), so this is exactly a
// monitor-thread consumer.
//
// The class holds the previous snapshot's counter values by registration
// index; registration order is fixed after freeze(), so index-keyed deltas
// are stable. Histograms are deliberately not emitted here — the serve
// harness carries its own latency accounting (util/latency_histogram.hpp)
// with better-defined semantics than a generic bucket dump.
//
// Compiles against both SEER_OBS settings: with the layer off the stub
// registry snapshots empty and delta_fields() returns "".
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace seer::obs {

class PeriodicMetricsDelta {
 public:
  // `registry` may be null (no-op: every call returns ""). The registry must
  // be frozen before the first call and outlive this object.
  explicit PeriodicMetricsDelta(const MetricsRegistry* registry)
      : registry_(registry) {}

  // JSON members (`"name": delta, ...`, for util::json::Writer::raw; empty
  // when there is nothing to emit) for every counter whose name starts with
  // one of `prefixes`, valued as the increase since the previous call (the
  // whole current value on the first call). Counters that did not move are
  // still emitted — a stalled service showing "rt.commits": 0 is signal.
  [[nodiscard]] std::string delta_fields(
      std::initializer_list<std::string_view> prefixes);

 private:
  const MetricsRegistry* registry_;
  std::vector<std::uint64_t> prev_;  // by counter registration index
};

}  // namespace seer::obs
