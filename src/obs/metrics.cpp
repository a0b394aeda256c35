#include "obs/metrics.hpp"

#include "util/json_writer.hpp"

namespace seer::obs {

std::string MetricsSnapshot::to_json() const {
  if (counters.empty() && gauges.empty() && histograms.empty()) return "{}";
  std::string out;
  util::json::Writer w(out);
  w.begin_object().begin_object("counters");
  for (const CounterSnapshot& c : counters) w.u64(c.name, c.value);
  w.end_object();
  // Emitted only when present so pre-gauge dumps stay byte-identical (the
  // bench --metrics byte-stability tests compare against that shape).
  if (!gauges.empty()) {
    w.begin_object("gauges");
    for (const GaugeSnapshot& g : gauges) w.u64(g.name, g.value);
    w.end_object();
  }
  w.begin_object("histograms");
  for (const HistogramSnapshot& h : histograms) {
    w.begin_object(h.name)
        .u64("count", h.count)
        .u64("sum", h.sum)
        .begin_array("buckets");
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] != 0) w.begin_array().u64(b).u64(h.buckets[b]).end_array();
    }
    w.end_array().end_object();
  }
  w.end_object().end_object();
  return out;
}

#if SEER_OBS_ENABLED

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (std::size_t c = 0; c < counter_names_.size(); ++c) {
    CounterSnapshot cs;
    cs.name = counter_names_[c];
    if (frozen_) {
      for (std::size_t t = 0; t < n_threads_; ++t) {
        cs.value += lanes_[t][c].load(std::memory_order_relaxed);
      }
    }
    snap.counters.push_back(std::move(cs));
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t g = 0; g < gauge_names_.size(); ++g) {
    GaugeSnapshot gs;
    gs.name = gauge_names_[g];
    if (frozen_) gs.value = gauge_cells_[g].load(std::memory_order_relaxed);
    snap.gauges.push_back(std::move(gs));
  }
  snap.histograms.reserve(histogram_names_.size());
  for (std::size_t h = 0; h < histogram_names_.size(); ++h) {
    HistogramSnapshot hs;
    hs.name = histogram_names_[h];
    if (frozen_) {
      const std::size_t base = counter_names_.size() + h * kHistogramSlots;
      for (std::size_t t = 0; t < n_threads_; ++t) {
        const Cell* block = &lanes_[t][base];
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
          hs.buckets[b] += block[b].load(std::memory_order_relaxed);
        }
        hs.count += block[kHistogramBuckets].load(std::memory_order_relaxed);
        hs.sum += block[kHistogramBuckets + 1].load(std::memory_order_relaxed);
      }
    }
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

#endif  // SEER_OBS_ENABLED

}  // namespace seer::obs
