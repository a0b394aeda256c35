// Abort-storm hysteresis detection over execution windows.
//
// core::SeerScheduler owns the one detector (DESIGN.md §14). Under
// storm_response it feeds it at a probe cadence finer than the rebuild
// period and re-infers on entry; otherwise it feeds it once per rebuild
// while a flight recorder is attached. Either way each rebuild takes the
// verdict for the windows since the previous one and hands it to the
// recorder, so the recorder's episodes are the scheduler's own storms. The
// detector lives in the always-compiled core because the scheduler's
// behaviour must not depend on whether observability is compiled in.
//
// The detector is fed LIFETIME tallies and works on the window since the
// last evaluated sample. Windows with fewer than kMinWindow executions carry
// too little evidence and keep accumulating into the next one. A window's
// abort rate (1 - commits/executions) opens a storm at `enter` and closes it
// at two thirds of that, so a rate hovering around the threshold produces
// one episode, not a trigger per window.
#pragma once

#include <algorithm>
#include <cstdint>

namespace seer::core {

// What the evaluated windows since the last take_verdict() showed. Entry
// can only follow exit (hysteresis), so a verdict with both closed one
// storm and then opened the next.
struct StormVerdict {
  bool entered = false;    // a window opened a storm
  bool exited = false;     // a window closed one
  bool active = false;     // in a storm after the last window (false if none)
  double peak_rate = 0.0;  // highest rate among the windows of the last storm
};

class StormDetector {
 public:
  // Windows with fewer executions than this are not evaluated.
  static constexpr std::uint64_t kMinWindow = 64;

  explicit StormDetector(double enter) noexcept
      : enter_(enter), exit_(enter * 2.0 / 3.0) {}

  // Feeds the lifetime tallies; returns true when the window was evaluated.
  // The first call only seeds the window base.
  bool on_window(std::uint64_t executions, std::uint64_t commits) noexcept {
    if (!has_base_) {
      has_base_ = true;
      base_execs_ = executions;
      base_commits_ = commits;
      return false;
    }
    const std::uint64_t events = executions - base_execs_;
    if (events < kMinWindow) return false;
    const std::uint64_t wc = std::min(commits - base_commits_, events);
    const double rate =
        1.0 - static_cast<double>(wc) / static_cast<double>(events);
    base_execs_ = executions;
    base_commits_ = commits;
    if (!active_ && rate >= enter_) {
      active_ = true;
      verdict_.entered = true;
      verdict_.peak_rate = rate;  // a new storm starts its own peak
    } else if (active_) {
      verdict_.peak_rate = std::max(verdict_.peak_rate, rate);
      if (rate <= exit_) {
        active_ = false;
        verdict_.exited = true;
      }
    }
    verdict_.active = active_;
    return true;
  }

  [[nodiscard]] bool active() const noexcept { return active_; }

  // The verdict since the previous call, which starts a fresh one.
  StormVerdict take_verdict() noexcept {
    const StormVerdict v = verdict_;
    verdict_ = StormVerdict{};
    return v;
  }

 private:
  double enter_;
  double exit_;
  bool has_base_ = false;
  bool active_ = false;
  std::uint64_t base_execs_ = 0;
  std::uint64_t base_commits_ = 0;
  StormVerdict verdict_;
};

}  // namespace seer::core
