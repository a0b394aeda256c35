#include "core/seer_scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace seer::core {

SeerScheduler::SeerScheduler(const SeerConfig& cfg, std::size_t n_threads,
                             std::size_t n_types, SeerSinks sinks)
    : cfg_(cfg),
      active_(n_threads),
      scheme_(std::make_shared<LockScheme>(n_types)),
      climber_(HillClimberConfig{.seed = cfg.seed}),
      merged_(n_types),
      storm_(cfg.storm_enter),
      discount_(n_types) {
  assert(n_threads > 0);
  slabs_.reserve(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) {
    slabs_.push_back(std::make_unique<ThreadStats>(n_types));
  }
  if (sinks.metrics != nullptr) {
    metrics_ = sinks.metrics;
    time_rebuilds_ = sinks.time_rebuilds;
    m_announces_ = metrics_->counter("seer.announces");
    m_aborts_ = metrics_->counter("seer.aborts");
    m_commits_ = metrics_->counter("seer.commits");
    m_rebuilds_ = metrics_->counter("seer.rebuilds");
    m_climber_steps_ = metrics_->counter("seer.climber_steps");
    h_scheme_edges_ = metrics_->histogram("seer.scheme_edges");
    h_rebuild_ns_ = metrics_->histogram("seer.rebuild.ns");
  }
  obs_trace_ = sinks.trace;
  recorder_ = sinks.recorder;
}

void SeerScheduler::merge_slabs(GlobalStats& out) const noexcept {
  out.reset();
  for (const auto& slab : slabs_) slab->merge_into(out);
}

GlobalStats SeerScheduler::merged_stats() const {
  GlobalStats out(n_types());
  merge_slabs(out);
  return out;
}

std::uint64_t SeerScheduler::total_commits() const noexcept {
  std::uint64_t total = 0;
  for (const auto& slab : slabs_) total += slab->raw_commits();
  return total;
}

std::uint64_t SeerScheduler::executions_seen() const noexcept {
  std::uint64_t total = 0;
  for (const auto& slab : slabs_) total += slab->raw_events();
  return total;
}

bool SeerScheduler::maybe_update(ThreadId thread, std::uint64_t now) {
  if (trace_) {
    trace_->on_event({SchedEvent::Kind::kMaybeUpdate, thread, kNoTx, now});
  }
  if (thread != 0) return false;  // single designated maintainer — no locks
  const std::uint64_t seen = executions_seen();
  // Storm probe (storm_response): runs at a finer cadence than the rebuild
  // period, so a contention storm triggers re-inference immediately instead
  // of waiting out the rest of the window. While the storm lasts, re-infer
  // at probe cadence: the first early rebuild usually sees borderline
  // evidence and locks a partial scheme; the follow-ups sharpen it within a
  // probe interval instead of waiting out the full update window.
  if (cfg_.storm_response) {
    const std::uint64_t probe =
        std::max(StormDetector::kMinWindow, cfg_.update_period / 8);
    if (seen - storm_probe_base_ >= probe) {
      storm_probe_base_ = seen;
      if (storm_.on_window(seen, total_commits()) && storm_.active()) {
        executions_at_last_rebuild_ = seen;
        rebuild(now);
        return true;
      }
    }
  }
  if (seen - executions_at_last_rebuild_ < cfg_.update_period) return false;
  executions_at_last_rebuild_ = seen;
  rebuild(now);
  return true;
}

void SeerScheduler::force_update(std::uint64_t now) {
  if (trace_) {
    trace_->on_event({SchedEvent::Kind::kForceUpdate, /*thread=*/0, kNoTx, now});
  }
  rebuild(now);
}

void SeerScheduler::rebuild(std::uint64_t now) {
  const std::uint64_t t_start = time_rebuilds_ ? obs::steady_ns() : 0;
  ++rebuilds_;

  // Hill-climber epoch boundary: score the thresholds that were live during
  // the epoch by the commit throughput they produced.
  if (cfg_.enable_hill_climbing &&
      rebuilds_ - rebuilds_at_last_epoch_ >= kRebuildsPerTuningEpoch) {
    const std::uint64_t commits = total_commits();
    if (!epoch_clock_started_) {
      epoch_clock_started_ = true;
    } else if (now > time_at_last_epoch_) {
      const double throughput =
          static_cast<double>(commits - commits_at_last_epoch_) /
          static_cast<double>(now - time_at_last_epoch_);
      const HillClimber::Point p = climber_.feed(throughput);
      params_ = InferenceParams{.th1 = p.x, .th2 = p.y};
      if (metrics_) metrics_->add(m_climber_steps_, 0);
      if (obs_trace_) {
        obs_trace_->emit(0, obs::TraceKind::kClimberStep, now, climber_.epochs());
      }
    }
    commits_at_last_epoch_ = commits;
    time_at_last_epoch_ = now;
    rebuilds_at_last_epoch_ = rebuilds_;
  }

  // The storm verdict for the windows since the last rebuild: maybe_update's
  // probes under storm_response, else this rebuild's own window, evaluated
  // only when a recorder reads it. Under storm_response, entry is the
  // immediate re-inference: it decays accumulated history once, so this
  // rebuild runs on predominantly fresh evidence.
  if (!cfg_.storm_response && recorder_ != nullptr) {
    (void)storm_.on_window(executions_seen(), total_commits());
  }
  const StormVerdict storm = storm_.take_verdict();
  const bool storm_entered = cfg_.storm_response && storm.entered;
  if (storm_entered) ++storm_entries_;

  merge_slabs(merged_);
  discount_active_ = discount_active_ || storm_entered;
  if (discount_active_) {
    // The monotonic counters cannot decay in place. On entry, advance a
    // discount so the live view (merged - discount) shrinks to storm_decay of
    // itself; future evidence then accrues undiscounted.
    const double d = cfg_.storm_decay;
    const auto discount = [&](std::vector<std::uint64_t>& merged,
                              std::vector<std::uint64_t>& disc) {
      for (std::size_t i = 0; i < merged.size(); ++i) {
        if (storm_entered) {
          const auto live = static_cast<double>(merged[i] - disc[i]);
          disc[i] = merged[i] - static_cast<std::uint64_t>(d * live);
        }
        merged[i] -= disc[i];
      }
    };
    discount(merged_.aborts, discount_.aborts);
    discount(merged_.commits, discount_.commits);
    discount(merged_.executions, discount_.executions);
  }

  auto next = build_lock_scheme(merged_, params_);
  if (trace_) trace_->on_rebuild(rebuilds_, params_, *next);
  if (metrics_) {
    metrics_->add(m_rebuilds_, 0);
    metrics_->observe(h_scheme_edges_, 0, next->edge_count());
  }
  if (obs_trace_) {
    obs_trace_->emit(0, obs::TraceKind::kSchemeRebuild, now, next->edge_count());
  }
  std::atomic_store_explicit(&scheme_, std::move(next), std::memory_order_release);

  // Flight-recorder feed: the storm verdict always goes in (it opens and
  // closes the episodes); the full model capture happens only when the
  // recorder's trigger — periodic cadence or storm entry — fires.
  if (recorder_ != nullptr && recorder_->on_rebuild({now, rebuilds_, storm})) {
    recorder_->record(make_model_snapshot(now));
  }

  if (time_rebuilds_) metrics_->observe(h_rebuild_ns_, 0, obs::steady_ns() - t_start);
}

obs::ModelSnapshot SeerScheduler::make_model_snapshot(std::uint64_t now) const {
  obs::ModelSnapshot snap;
  snap.now = now;
  snap.rebuild = rebuilds_;
  snap.executions = executions_seen();
  snap.commits = total_commits();
  snap.sgl_fallbacks = sgl_fallbacks();
  snap.th1 = params_.th1;
  snap.th2 = params_.th2;
  const HillClimber::State hc = climber_.state();
  snap.climber_cur_x = hc.current.x;
  snap.climber_cur_y = hc.current.y;
  snap.climber_best_x = hc.best.x;
  snap.climber_best_y = hc.best.y;
  snap.climber_best_score = hc.best_score;
  snap.climber_epochs = hc.epochs;
  GlobalStats merged = merged_stats();
  snap.n_types = merged.n_types;
  snap.aborts = std::move(merged.aborts);
  snap.commit_pairs = std::move(merged.commits);
  snap.execs = std::move(merged.executions);
  snap.scheme = scheme()->to_rows();
  return snap;
}

}  // namespace seer::core
