#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "util/json_writer.hpp"

#if SEER_OBS_ENABLED

namespace seer::obs {

FlightRecorder::FlightRecorder() { ring_.reserve(kSnapshotRingCapacity); }

bool FlightRecorder::note_storm(const RebuildSample& s) {
  const core::StormVerdict& v = s.storm;
  // Inside (or just leaving) a storm: extend the open episode, the newest,
  // since a storm opens only after the previous one closed. An exit
  // window's rate lies below the exit threshold, under any peak; with a new
  // entry the verdict's peak is the new storm's.
  if ((v.exited || (v.active && !v.entered)) && !episodes_.empty() &&
      episodes_.back().open) {
    AnomalyEpisode& ep = episodes_.back();
    ep.end_now = s.now;
    ep.end_rebuild = s.rebuild;
    if (!v.entered) ep.peak_rate = std::max(ep.peak_rate, v.peak_rate);
    if (v.exited) ep.open = false;
  }
  if (!v.entered) return false;
  episodes_.push_back(AnomalyEpisode{.start_now = s.now,
                                     .start_rebuild = s.rebuild,
                                     .end_now = s.now,
                                     .end_rebuild = s.rebuild,
                                     .peak_rate = v.peak_rate});
  return true;
}

bool FlightRecorder::on_rebuild(const RebuildSample& s) {
  if (note_storm(s)) {
    pending_reason_ = SnapshotReason::kAnomaly;
    last_capture_rebuild_ = s.rebuild;
    return true;
  }
  if (captured_ == 0 || s.rebuild - last_capture_rebuild_ >= kSnapshotPeriod) {
    pending_reason_ = SnapshotReason::kPeriodic;
    last_capture_rebuild_ = s.rebuild;
    return true;
  }
  return false;
}

void FlightRecorder::push(ModelSnapshot&& snap) {
  snap.seq = captured_;
  ModelSnapshot* stored = nullptr;
  if (ring_.size() < kSnapshotRingCapacity) {
    ring_.push_back(std::move(snap));
    stored = &ring_.back();
  } else {
    stored = &ring_[static_cast<std::size_t>(captured_ % kSnapshotRingCapacity)];
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
  // dump so tools can tell "subsided" from "ran hot to the end". An episode
  // an earlier final closed keeps its end: it belongs to that run.
  for (std::size_t i = finals_closed_; i < episodes_.size(); ++i) {
    AnomalyEpisode& ep = episodes_[i];
    if (ep.open) {
      ep.end_now = snap.now;
      ep.end_rebuild = snap.rebuild;
    }
  }
  finals_closed_ = episodes_.size();
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
        .str("kind", "abort_storm")
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
