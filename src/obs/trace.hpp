// Event tracing — per-thread lock-free ring buffers of typed events with
// logical timestamps, exportable to Chrome trace_event JSON
// (chrome://tracing / https://ui.perfetto.dev).
//
// Each thread (lane) owns a fixed-capacity single-producer ring: emitting an
// event is a slot write plus one release store of the lane head, and a full
// ring silently overwrites the oldest events (the drop count is recoverable,
// never the events — bounded memory beats completeness for always-on
// tracing). Producers never synchronize with each other; the exporter runs
// after the producers quiesce (end of run / join), which is the only point
// at which reading the slots is race-free.
//
// Timestamps are logical, supplied by the embedding: the machine simulator
// passes its deterministic cycle clock (traces are byte-identical per seed),
// the threaded runtime passes now_ticks() (RDTSC) so spans are comparable
// across threads of one process.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "obs/obs_config.hpp"
#include "util/cacheline.hpp"

namespace seer::obs {

enum class TraceKind : std::uint8_t {
  kTxBegin,        // arg = transaction type
  kTxCommit,       // arg = transaction type
  kTxAbort,        // arg = abort cause (htm::AbortCause)
  kSglFallback,    // arg = transaction type
  kSchemeRebuild,  // arg = number of (type, lock) edges in the new scheme
  kClimberStep,    // arg = tuning epoch index
  kKindCount,
};

[[nodiscard]] constexpr const char* to_string(TraceKind k) noexcept {
  switch (k) {
    case TraceKind::kTxBegin: return "tx";
    case TraceKind::kTxCommit: return "commit";
    case TraceKind::kTxAbort: return "abort";
    case TraceKind::kSglFallback: return "sgl_fallback";
    case TraceKind::kSchemeRebuild: return "scheme_rebuild";
    case TraceKind::kClimberStep: return "climber_step";
    case TraceKind::kKindCount: break;
  }
  return "?";
}

struct TraceEvent {
  std::uint64_t ts = 0;   // logical timestamp (cycles)
  std::uint64_t arg = 0;  // kind-specific payload
  core::ThreadId thread = 0;
  TraceKind kind = TraceKind::kTxBegin;
};

// Coarse RDTSC-style logical clock for embeddings without a simulated one.
[[nodiscard]] std::uint64_t now_ticks() noexcept;
// Wall-clock nanoseconds on std::chrono::steady_clock: the one reading that
// rebuild timings, serving latencies and heartbeats are compared in.
[[nodiscard]] std::uint64_t steady_ns() noexcept;

#if SEER_OBS_ENABLED

class TraceSink {
 public:
  // `capacity` (rounded up to a power of two, per lane) bounds memory to
  // n_threads * capacity * sizeof(TraceEvent).
  explicit TraceSink(std::size_t n_threads, std::size_t capacity = 1u << 14);
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // --- hot path: owner thread of `lane` only -------------------------------
  void emit(core::ThreadId lane, TraceKind kind, std::uint64_t ts,
            std::uint64_t arg) noexcept {
    assert(lane < lanes_.size());
    Lane& l = *lanes_[lane];
    const std::uint64_t h = l.head.load(std::memory_order_relaxed);
    TraceEvent& slot = l.slots[h & mask_];
    slot.ts = ts;
    slot.arg = arg;
    slot.thread = lane;
    slot.kind = kind;
    // Publish after the slot write; the post-quiescence reader acquires.
    l.head.store(h + 1, std::memory_order_release);
  }

  // --- export (after producers quiesce) ------------------------------------
  // Events from every lane, merged and ordered by (ts, lane, lane-order).
  [[nodiscard]] std::vector<TraceEvent> drain_sorted() const;
  // Events emitted but overwritten by wraparound, across all lanes.
  [[nodiscard]] std::uint64_t dropped() const noexcept;
  // Same, resolved per lane — nonzero entries tell WHICH thread's history
  // was truncated (the Chrome JSON's seerMeta and tools/seer_inspect
  // surface these).
  [[nodiscard]] std::vector<std::uint64_t> dropped_per_lane() const;
  [[nodiscard]] std::uint64_t emitted() const noexcept;
  [[nodiscard]] std::size_t n_lanes() const noexcept { return lanes_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  // Chrome trace_event JSON: tx begin/commit/abort become "B"/"E" span pairs
  // per tid (unmatched ends demote to instants, unmatched begins are closed
  // at the last timestamp, so the output is always well-formed), everything
  // else becomes instant events. Returns false if the file cannot be opened.
  // Written against the export calls above only, so both builds compile the
  // one writer: under SEER_OBS=OFF it writes a valid zero-event trace.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  struct Lane {
    alignas(util::kCacheLineBytes) std::atomic<std::uint64_t> head{0};
    std::vector<TraceEvent> slots;
  };

  std::size_t mask_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

#else  // !SEER_OBS_ENABLED — zero-cost stubs with the identical surface.

class TraceSink {
 public:
  explicit TraceSink(std::size_t, std::size_t = 0) {}
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void emit(core::ThreadId, TraceKind, std::uint64_t, std::uint64_t) noexcept {}
  [[nodiscard]] std::vector<TraceEvent> drain_sorted() const { return {}; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return 0; }
  [[nodiscard]] std::vector<std::uint64_t> dropped_per_lane() const { return {}; }
  [[nodiscard]] std::uint64_t emitted() const noexcept { return 0; }
  [[nodiscard]] std::size_t n_lanes() const noexcept { return 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return 0; }
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;
};

#endif  // SEER_OBS_ENABLED

}  // namespace seer::obs
