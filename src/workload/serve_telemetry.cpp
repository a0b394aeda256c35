#include "workload/serve_telemetry.hpp"

#include <bit>
#include <utility>

#include "obs/prom.hpp"
#include "util/json_writer.hpp"

namespace seer::workload {

namespace {

// Registration-order lookup: snapshot vectors mirror id order, so the hub's
// own ids index them directly. The OBS=OFF stub snapshot is empty — then
// (and only then) every value reads as 0.
std::uint64_t counter_at(const obs::MetricsSnapshot& snap, obs::MetricId id) {
  return id < snap.counters.size() ? snap.counters[id].value : 0;
}
std::uint64_t gauge_at(const obs::MetricsSnapshot& snap, obs::MetricId id) {
  return id < snap.gauges.size() ? snap.gauges[id].value : 0;
}

}  // namespace

ServeTelemetry::ServeTelemetry(std::size_t lanes)
    : lanes_(lanes == 0 ? 1 : lanes), registry_(lanes_) {
  arrivals = registry_.counter("serve.arrivals");
  accepted = registry_.counter("serve.accepted");
  rejected = registry_.counter("serve.rejected");
  completed = registry_.counter("serve.completed");
  queue_depth = registry_.gauge("serve.queue_depth");
  active_workers = registry_.gauge("serve.active_workers");
  step = registry_.gauge("serve.step");
  workers = registry_.gauge("serve.workers");
  offered_rate_millirps = registry_.gauge("serve.offered_rate_millirps");
  registry_.freeze();
}

const char* ServeTelemetry::state_name() const noexcept {
  switch (state()) {
    case State::kIdle: return "idle";
    case State::kRunning: return "running";
    case State::kLinger: return "linger";
    case State::kDone: return "done";
  }
  return "?";
}

void ServeTelemetry::set_offered_rate(double rps) noexcept {
  offered_rate_bits_.store(std::bit_cast<std::uint64_t>(rps),
                           std::memory_order_relaxed);
}

double ServeTelemetry::offered_rate() const noexcept {
  return std::bit_cast<double>(
      offered_rate_bits_.load(std::memory_order_relaxed));
}

void ServeTelemetry::attach_step_registry(const obs::MetricsRegistry* reg) {
  const std::lock_guard<std::mutex> g(mu_);
  step_registry_ = reg;
}

void ServeTelemetry::publish_model_json(std::string json) {
  auto next = std::make_shared<const std::string>(std::move(json));
  const std::lock_guard<std::mutex> g(mu_);
  model_json_ = std::move(next);
}

std::shared_ptr<const std::string> ServeTelemetry::model_json() const {
  const std::lock_guard<std::mutex> g(mu_);
  return model_json_;
}

std::string ServeTelemetry::metrics_exposition() const {
  std::string out = obs::to_prometheus(registry_.snapshot());
  const std::lock_guard<std::mutex> g(mu_);
  if (step_registry_ != nullptr) {
    out += obs::to_prometheus(step_registry_->snapshot());
  }
  return out;
}

std::string ServeTelemetry::status_json() const {
  const obs::MetricsSnapshot snap = registry_.snapshot();
  const util::LatencyBucketCounts lat = latency_.snapshot();
  std::string out;
  util::json::Writer w(out);
  w.begin_object()
      .str("state", state_name())
      .u64("step", gauge_at(snap, step))
      .u64("workers", gauge_at(snap, workers))
      .g9("offered_rate", offered_rate())
      .u64("arrivals", counter_at(snap, arrivals))
      .u64("accepted", counter_at(snap, accepted))
      .u64("rejected", counter_at(snap, rejected))
      .u64("completed", counter_at(snap, completed))
      .u64("queue_depth", gauge_at(snap, queue_depth))
      .u64("active_workers", gauge_at(snap, active_workers))
      .g9("p50_est_us", util::bucket_quantile_estimate(lat, 0.5) / 1000.0)
      .g9("p99_est_us", util::bucket_quantile_estimate(lat, 0.99) / 1000.0)
      .end_object();
  out += '\n';
  return out;
}

ServeTelemetry::Health ServeTelemetry::healthz(std::uint64_t now_ns,
                                               std::uint64_t stall_ns) const {
  const std::uint64_t pbeat =
      producer_beat_ns_.load(std::memory_order_relaxed);
  const std::uint64_t wbeat = worker_beat_ns_.load(std::memory_order_relaxed);
  const std::uint64_t page = pbeat != 0 && now_ns > pbeat ? now_ns - pbeat : 0;
  const std::uint64_t wage = wbeat != 0 && now_ns > wbeat ? now_ns - wbeat : 0;
  const std::uint64_t depth = gauge_at(registry_.snapshot(), queue_depth);

  Health h;
  const char* verdict = "ok";
  if (state() == State::kRunning) {
    if (pbeat != 0 && page > stall_ns) {
      h.ok = false;
      verdict = "producer_stalled";
    } else if (wbeat != 0 && depth > 0 && wage > stall_ns) {
      h.ok = false;
      verdict = "workers_stalled";
    }
  }
  util::json::Writer w(h.body);
  w.begin_object()
      .boolean("ok", h.ok)
      .str("verdict", verdict)
      .str("state", state_name())
      .u64("producer_age_ms", page / 1000000)
      .u64("worker_age_ms", wage / 1000000)
      .u64("queue_depth", depth)
      .end_object();
  h.body += '\n';
  return h;
}

}  // namespace seer::workload
