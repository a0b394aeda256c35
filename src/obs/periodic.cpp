#include "obs/periodic.hpp"

#include "util/json_writer.hpp"

namespace seer::obs {

std::string PeriodicMetricsDelta::delta_fields(
    std::initializer_list<std::string_view> prefixes) {
  std::string out;
  if (registry_ == nullptr) return out;
  util::json::Writer w(out);
  const MetricsSnapshot snap = registry_->snapshot();
  if (prev_.size() < snap.counters.size()) prev_.resize(snap.counters.size(), 0);
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    const CounterSnapshot& c = snap.counters[i];
    const std::uint64_t delta =
        c.value >= prev_[i] ? c.value - prev_[i] : 0;  // counters never shrink
    prev_[i] = c.value;
    bool wanted = false;
    for (const std::string_view p : prefixes) {
      if (c.name.size() >= p.size() &&
          std::string_view(c.name).substr(0, p.size()) == p) {
        wanted = true;
        break;
      }
    }
    if (wanted) w.u64(c.name, delta);
  }
  return out;
}

}  // namespace seer::obs
