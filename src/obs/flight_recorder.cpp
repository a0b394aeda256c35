#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "util/json_writer.hpp"

#if SEER_OBS_ENABLED

namespace seer::obs {

FlightRecorder::FlightRecorder(FlightRecorderConfig cfg)
    : cfg_(cfg), detector_(cfg.storm) {
  if (cfg_.capacity == 0) cfg_.capacity = 1;
  ring_.reserve(cfg_.capacity);
}

bool FlightRecorder::note_transition(AnomalyEpisode::Kind kind,
                                     const core::StormDetector::Transition& t,
                                     const RebuildSample& s) {
  if (t.entered) {
    AnomalyEpisode ep;
    ep.kind = kind;
    ep.start_now = s.now;
    ep.start_rebuild = s.rebuild;
    ep.end_now = s.now;
    ep.end_rebuild = s.rebuild;
    ep.peak_rate = t.rate;
    episodes_.push_back(ep);
    return true;
  }
  if (!t.active && !t.exited) return false;
  // Inside (or just leaving) an episode: extend its bounds and peak.
  for (auto it = episodes_.rbegin(); it != episodes_.rend(); ++it) {
    if (it->kind != kind || !it->open) continue;
    it->end_now = s.now;
    it->end_rebuild = s.rebuild;
    it->peak_rate = std::max(it->peak_rate, t.rate);
    if (t.exited) it->open = false;
    break;
  }
  return false;
}

bool FlightRecorder::on_rebuild(const RebuildSample& s) {
  // Windows below min_window_events keep accumulating inside the detector.
  const core::StormDetector::Result r =
      detector_.on_window(s.executions, s.commits, s.sgl_fallbacks);
  bool anomaly_entered = false;
  if (r.evaluated) {
    anomaly_entered |=
        note_transition(AnomalyEpisode::Kind::kAbortStorm, r.abort_storm, s);
    anomaly_entered |=
        note_transition(AnomalyEpisode::Kind::kSglStorm, r.sgl_storm, s);
  }

  if (anomaly_entered) {
    pending_reason_ = SnapshotReason::kAnomaly;
    last_capture_rebuild_ = s.rebuild;
    return true;
  }
  if (cfg_.period != 0 &&
      (captured_ == 0 || s.rebuild - last_capture_rebuild_ >= cfg_.period)) {
    pending_reason_ = SnapshotReason::kPeriodic;
    last_capture_rebuild_ = s.rebuild;
    return true;
  }
  return false;
}

void FlightRecorder::push(ModelSnapshot&& snap) {
  snap.seq = captured_;
  ModelSnapshot* stored = nullptr;
  if (ring_.size() < cfg_.capacity) {
    ring_.push_back(std::move(snap));
    stored = &ring_.back();
  } else {
    stored = &ring_[static_cast<std::size_t>(captured_ % cfg_.capacity)];
    *stored = std::move(snap);
  }
  ++captured_;
  if (publish_) publish_(*stored);
}

void FlightRecorder::record(ModelSnapshot&& snap) {
  snap.reason = pending_reason_;
  push(std::move(snap));
}

void FlightRecorder::record_final(ModelSnapshot&& snap) {
  snap.reason = SnapshotReason::kFinal;
  // Close still-open episodes at the final clock; `open` stays true in the
  // dump so tools can tell "subsided" from "ran hot to the end".
  for (AnomalyEpisode& ep : episodes_) {
    if (ep.open) {
      ep.end_now = snap.now;
      ep.end_rebuild = snap.rebuild;
    }
  }
  push(std::move(snap));
}

std::vector<const ModelSnapshot*> FlightRecorder::snapshots() const {
  std::vector<const ModelSnapshot*> out;
  out.reserve(ring_.size());
  for (const ModelSnapshot& s : ring_) out.push_back(&s);
  std::sort(out.begin(), out.end(),
            [](const ModelSnapshot* a, const ModelSnapshot* b) {
              return a->seq < b->seq;
            });
  return out;
}

std::string FlightRecorder::to_json() const {
  std::string out;
  util::json::Writer w(out);
  w.begin_object()
      .u64("version", kModelSnapshotVersion)
      .u64("captured", captured_)
      .u64("dropped", dropped())
      .begin_array("snapshots");
  for (const ModelSnapshot* s : snapshots()) s->append_json(w);
  w.end_array().begin_array("anomalies");
  for (const AnomalyEpisode& ep : episodes_) {
    w.begin_object()
        .str("kind", to_string(ep.kind))
        .u64("start_now", ep.start_now)
        .u64("start_rebuild", ep.start_rebuild)
        .u64("end_now", ep.end_now)
        .u64("end_rebuild", ep.end_rebuild)
        .f6("peak_rate", ep.peak_rate)
        .boolean("open", ep.open)
        .end_object();
  }
  w.end_array().end_object();
  return out;
}

}  // namespace seer::obs

#endif  // SEER_OBS_ENABLED
