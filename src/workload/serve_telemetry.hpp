// ServeTelemetry — the shared hub between a serving run and the live
// telemetry plane (DESIGN.md §13).
//
// seer_serve --listen wires an HttpExporter's handlers to one of these; the
// serve driver (run_serve and both step backends) feeds it. The contract
// that makes concurrent scrapes safe is the same single-writer/multi-reader
// discipline the rest of the obs layer uses:
//
//   * counters live in the hub's own MetricsRegistry — per-lane relaxed
//     load+store bumps on the producer/worker threads, summed by the scrape
//     thread with relaxed loads;
//   * gauges (queue depth, active workers, current step) are single atomic
//     cells, last-writer-wins;
//   * run state, offered rate and the producer/worker heartbeats are plain
//     atomics;
//   * the only lock is a std::mutex around two cold pointers — the per-step
//     registry attachment and the latest model-snapshot JSON — taken by the
//     scrape thread and by once-per-step (or once-per-rebuild) maintenance
//     code, never by the request hot path. Scrapes therefore never block
//     producers or workers.
//
// Lane assignment (callers must size `lanes` to cover every writer):
//   real mode           worker t -> lane t, producer -> lane `workers`
//   deterministic mode  rate step i -> lane i (steps may run concurrently
//                       under --jobs; each is single-threaded)
// so lanes = max(n_rate_steps, workers + 1) covers both backends.
//
// The hub compiles identically with SEER_OBS=OFF: the registry inside
// becomes the zero-cost stub (bumps vanish, snapshots are empty) and only
// the plain-atomic state remains — which is all moot anyway, because the
// HttpExporter stub refuses to start without SEER_OBS.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "util/latency_histogram.hpp"

namespace seer::workload {

class ServeTelemetry {
 public:
  enum class State : std::uint8_t { kIdle = 0, kRunning, kLinger, kDone };

  explicit ServeTelemetry(std::size_t lanes);
  ServeTelemetry(const ServeTelemetry&) = delete;
  ServeTelemetry& operator=(const ServeTelemetry&) = delete;

  // --- registry ------------------------------------------------------------
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const obs::MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  // Lane count as sized by the caller (valid even with the OBS=OFF stub
  // registry, whose n_threads() is 0). The driver skips bumps for lanes
  // beyond this, so an undersized hub degrades to partial counts, not UB.
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

  // Metric ids, public by design: the serve driver bumps them inline.
  obs::MetricId arrivals, accepted, rejected, completed;           // counters
  obs::MetricId queue_depth, active_workers, step, workers;        // gauges
  obs::MetricId offered_rate_millirps;                             // gauge

  // Rolling counted-latency buckets (multi-writer safe); /status renders
  // cumulative p50/p99 estimates from them.
  [[nodiscard]] util::LatencyBuckets& latency() noexcept { return latency_; }

  // --- run state -----------------------------------------------------------
  void set_state(State s) noexcept {
    state_.store(static_cast<std::uint8_t>(s), std::memory_order_release);
  }
  [[nodiscard]] State state() const noexcept {
    return static_cast<State>(state_.load(std::memory_order_acquire));
  }
  [[nodiscard]] const char* state_name() const noexcept;

  void set_offered_rate(double rps) noexcept;
  [[nodiscard]] double offered_rate() const noexcept;

  // --- heartbeats (/healthz stall detection) -------------------------------
  void producer_beat(std::uint64_t now_ns) noexcept {
    producer_beat_ns_.store(now_ns, std::memory_order_relaxed);
  }
  void worker_beat(std::uint64_t now_ns) noexcept {
    worker_beat_ns_.store(now_ns, std::memory_order_relaxed);
  }

  // --- per-step registry attachment (real mode) ----------------------------
  // The real serve backend attaches its per-step registry so /metrics can
  // include the live rt./htm./seer. counters, and detaches (nullptr) before
  // the registry is destroyed. The scrape thread snapshots under the same lock, so an
  // in-flight scrape finishes before detach returns.
  void attach_step_registry(const obs::MetricsRegistry* reg);

  // --- model snapshot feed (/snapshot) -------------------------------------
  // Called from the FlightRecorder publish hook with the rendered snapshot
  // JSON; a pointer swap under the lock.
  void publish_model_json(std::string json);
  // Latest published snapshot, or nullptr before the first rebuild capture.
  [[nodiscard]] std::shared_ptr<const std::string> model_json() const;

  // --- rendered endpoint bodies --------------------------------------------
  // Prometheus exposition of the hub registry followed by the attached
  // per-step registry (if any) — the exact text --metrics-out writes.
  [[nodiscard]] std::string metrics_exposition() const;
  // {"state": ..., counters, gauges, rolling p50/p99 estimates}.
  [[nodiscard]] std::string status_json() const;

  struct Health {
    bool ok = true;
    std::string body;  // JSON with the verdict and both heartbeat ages
  };
  // Stall verdict at `now_ns` (same clock the beats use): while kRunning, a
  // producer silent for longer than `stall_ns` — or workers silent that long
  // with a non-empty queue — is a failure. Other states are always healthy.
  [[nodiscard]] Health healthz(std::uint64_t now_ns,
                               std::uint64_t stall_ns) const;

 private:
  std::size_t lanes_;
  obs::MetricsRegistry registry_;
  util::LatencyBuckets latency_;
  std::atomic<std::uint8_t> state_{0};
  std::atomic<std::uint64_t> offered_rate_bits_{0};
  std::atomic<std::uint64_t> producer_beat_ns_{0};
  std::atomic<std::uint64_t> worker_beat_ns_{0};

  mutable std::mutex mu_;  // guards the two cold pointers below
  const obs::MetricsRegistry* step_registry_ = nullptr;
  std::shared_ptr<const std::string> model_json_;
};

}  // namespace seer::workload
