// FlightRecorder — a bounded ring of ModelSnapshots plus an anomaly trigger,
// the always-on "black box" for the Seer scheduler's learned model.
//
// The recorder never touches the per-transaction hot path. Its one feed is
// on_rebuild(): once per scheme rebuild, on the designated maintenance
// thread, with the scheduler's clock, rebuild count and storm verdict for
// the windows since the previous rebuild. on_rebuild() decides — from the
// capture period and the verdict — whether the caller should build a full
// ModelSnapshot and record() it. The expensive part (merging matrices,
// copying the scheme) therefore happens only for rebuilds that are
// actually retained.
//
// The recorder runs no detector of its own: its abort-storm episodes are the
// scheduler's storms (core/storm_detector.hpp), at the scheduler's
// threshold and windows, so the dump shows exactly the storms Seer acted
// on. Entering a storm forces a capture (reason "anomaly") regardless of
// the periodic cadence; episodes record their [start, end] rebuild/clock
// bounds and peak rate.
//
// With SEER_OBS=OFF the class is an empty stub: on_rebuild() returns false
// so the scheduler never builds a snapshot, and to_json() returns "{}".
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/storm_detector.hpp"
#include "obs/obs_config.hpp"
#include "obs/snapshot.hpp"

namespace seer::obs {

// Snapshot ring capacity; older snapshots are overwritten (the drop count
// survives, like the TraceSink rings).
inline constexpr std::size_t kSnapshotRingCapacity = 64;
// Every kSnapshotPeriod-th rebuild is captured (storm entry and the final
// capture come on top).
inline constexpr std::uint64_t kSnapshotPeriod = 8;

// Per-rebuild feed for the trigger logic.
struct RebuildSample {
  std::uint64_t now = 0;
  std::uint64_t rebuild = 0;
  core::StormVerdict storm{};  // the windows since the previous rebuild
};

// One abort storm, dumped with "kind": "abort_storm".
struct AnomalyEpisode {
  std::uint64_t start_now = 0;
  std::uint64_t start_rebuild = 0;
  std::uint64_t end_now = 0;      // last rebuild observed inside the episode
  std::uint64_t end_rebuild = 0;
  double peak_rate = 0.0;
  bool open = true;  // still above the exit threshold at end of run
};

#if SEER_OBS_ENABLED

class FlightRecorder {
 public:
  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // --- trigger (designated maintenance thread only) ------------------------
  // Returns true when the caller should build a ModelSnapshot for this
  // rebuild and record() it; the reason to stamp is held internally.
  [[nodiscard]] bool on_rebuild(const RebuildSample& s);

  // Retains a snapshot, stamping its seq and the reason decided by the last
  // on_rebuild() (record) or kFinal (record_final, which also closes the
  // anomaly episodes opened since the previous final and still open, at
  // the snapshot's clock). A recorder that outlives its scheduler gets one
  // final per scheduler: `seer_serve`'s real steps each run their own.
  void record(ModelSnapshot&& snap);
  void record_final(ModelSnapshot&& snap);

  // Optional publish hook, invoked with each retained snapshot right after
  // it enters the ring — the live telemetry plane's /snapshot feed
  // (DESIGN.md §13). It runs on the recording thread, i.e. the maintenance
  // path of a scheme rebuild, which already pays for matrix merges and
  // allocations; the hook must still be cheap (render + pointer swap).
  // Set before any recording thread runs; not synchronized against record().
  void set_publish(std::function<void(const ModelSnapshot&)> fn) {
    publish_ = std::move(fn);
  }

  // --- introspection / export (after the embedding quiesces) ---------------
  [[nodiscard]] std::uint64_t captured() const noexcept { return captured_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return captured_ > ring_.size() ? captured_ - ring_.size() : 0;
  }
  // Retained snapshots in seq order (oldest first).
  [[nodiscard]] std::vector<const ModelSnapshot*> snapshots() const;
  [[nodiscard]] const std::vector<AnomalyEpisode>& episodes() const noexcept {
    return episodes_;
  }

  // Versioned dump: {"version": 1, "captured": N, "dropped": N,
  // "snapshots": [...], "anomalies": [...]}.
  [[nodiscard]] std::string to_json() const;

 private:
  void push(ModelSnapshot&& snap);
  // Applies a storm verdict to the episode records; returns true when an
  // episode opens now.
  bool note_storm(const RebuildSample& s);

  std::vector<ModelSnapshot> ring_;  // capacity-bounded, overwrite-oldest
  std::uint64_t captured_ = 0;
  std::function<void(const ModelSnapshot&)> publish_;

  // Trigger state (maintenance thread only).
  SnapshotReason pending_reason_ = SnapshotReason::kPeriodic;
  std::uint64_t last_capture_rebuild_ = 0;
  std::vector<AnomalyEpisode> episodes_;
  std::size_t finals_closed_ = 0;  // episodes before it were closed by a final
};

#else  // !SEER_OBS_ENABLED — zero-cost stubs with the identical surface.

class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] bool on_rebuild(const RebuildSample&) { return false; }
  void record(ModelSnapshot&&) {}
  void record_final(ModelSnapshot&&) {}
  void set_publish(std::function<void(const ModelSnapshot&)>) {}
  [[nodiscard]] std::uint64_t captured() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return 0; }
  [[nodiscard]] std::vector<const ModelSnapshot*> snapshots() const { return {}; }
  [[nodiscard]] const std::vector<AnomalyEpisode>& episodes() const noexcept {
    static const std::vector<AnomalyEpisode> kEmpty;
    return kEmpty;
  }
  [[nodiscard]] std::string to_json() const { return "{}"; }
};

#endif  // SEER_OBS_ENABLED

}  // namespace seer::obs
