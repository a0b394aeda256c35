#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>

#include "util/json_writer.hpp"

namespace seer::obs {

std::uint64_t now_ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if SEER_OBS_ENABLED

TraceSink::TraceSink(std::size_t n_threads, std::size_t capacity) {
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(capacity, 2));
  mask_ = cap - 1;
  lanes_.reserve(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) {
    auto lane = std::make_unique<Lane>();
    lane->slots.resize(cap);
    lanes_.push_back(std::move(lane));
  }
}

std::uint64_t TraceSink::emitted() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->head.load(std::memory_order_acquire);
  return n;
}

std::uint64_t TraceSink::dropped() const noexcept {
  const std::uint64_t cap = mask_ + 1;
  std::uint64_t n = 0;
  for (const auto& l : lanes_) {
    const std::uint64_t h = l->head.load(std::memory_order_acquire);
    if (h > cap) n += h - cap;
  }
  return n;
}

std::vector<std::uint64_t> TraceSink::dropped_per_lane() const {
  const std::uint64_t cap = mask_ + 1;
  std::vector<std::uint64_t> out(lanes_.size(), 0);
  for (std::size_t t = 0; t < lanes_.size(); ++t) {
    const std::uint64_t h = lanes_[t]->head.load(std::memory_order_acquire);
    if (h > cap) out[t] = h - cap;
  }
  return out;
}

std::vector<TraceEvent> TraceSink::drain_sorted() const {
  std::vector<TraceEvent> out;
  const std::uint64_t cap = mask_ + 1;
  for (const auto& l : lanes_) {
    const std::uint64_t head = l->head.load(std::memory_order_acquire);
    const std::uint64_t n = std::min(head, cap);
    for (std::uint64_t i = head - n; i < head; ++i) {
      out.push_back(l->slots[i & mask_]);
    }
  }
  // Lane-internal order is emission order (ascending i above); the merge is
  // stabilized by (ts, thread) so equal-timestamp events across lanes land
  // deterministically.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.thread < b.thread;
                   });
  return out;
}

#endif  // SEER_OBS_ENABLED

bool TraceSink::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<TraceEvent> events = drain_sorted();

  // Depth of open "B" spans per lane, so the emitted B/E stream is always
  // balanced: an abort/commit with no open begin (its begin was overwritten
  // by wraparound) demotes to an instant, and begins still open at the end
  // are closed at the final timestamp.
  std::vector<int> depth(n_lanes(), 0);
  std::uint64_t last_ts = 0;

  // seerMeta carries the sink's bookkeeping (ignored by Chrome/Perfetto,
  // read by tools/seer_inspect): droppedPerThread nonzero means that lane's
  // oldest events were overwritten and the trace is a suffix of reality.
  std::string out;
  util::json::Writer head(out);
  head.begin_object()
      .str("displayTimeUnit", "ns")
      .begin_object("seerMeta")
      .u64("emitted", emitted())
      .u64("dropped", dropped())
      .begin_array("droppedPerThread");
  for (const std::uint64_t d : dropped_per_lane()) head.u64(d);
  head.end_array().end_object().key("traceEvents");
  out += "[\n";
  bool first = true;
  auto emit_record = [&](const char* name, const char* ph, std::uint64_t ts,
                         core::ThreadId tid, std::uint64_t arg, bool instant) {
    out += first ? "  " : ",\n  ";
    first = false;
    util::json::Writer w(out);
    w.begin_object()
        .str("name", name)
        .str("ph", ph)
        .u64("ts", ts)
        .u64("pid", 0)
        .u64("tid", tid);
    if (instant) w.str("s", "t");
    w.begin_object("args").u64("arg", arg).end_object().end_object();
    // One file write per 64 KiB keeps memory flat on long traces.
    if (out.size() >= (64u << 10)) {
      std::fwrite(out.data(), 1, out.size(), f);
      out.clear();
    }
  };

  for (const TraceEvent& e : events) {
    last_ts = e.ts;
    switch (e.kind) {
      case TraceKind::kTxBegin:
        emit_record("tx", "B", e.ts, e.thread, e.arg, false);
        ++depth[e.thread];
        break;
      case TraceKind::kTxCommit:
      case TraceKind::kTxAbort:
        if (depth[e.thread] > 0) {
          emit_record(to_string(e.kind), "E", e.ts, e.thread, e.arg, false);
          --depth[e.thread];
        } else {
          emit_record(to_string(e.kind), "i", e.ts, e.thread, e.arg, true);
        }
        break;
      default:
        emit_record(to_string(e.kind), "i", e.ts, e.thread, e.arg, true);
        break;
    }
  }
  for (std::size_t t = 0; t < depth.size(); ++t) {
    while (depth[t] > 0) {
      emit_record("tx", "E", last_ts, static_cast<core::ThreadId>(t), 0, false);
      --depth[t];
    }
  }
  out += "\n]}\n";
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace seer::obs
