#include "workload/phased.hpp"

#include <algorithm>
#include <cmath>

#include "workload/json_util.hpp"
#include "workload/spec_config.hpp"

namespace seer::workload {

using jsonu::Value;

std::unique_ptr<PhasedWorkload> PhasedWorkload::from_json(const Value& params,
                                                          const std::string& origin,
                                                          const std::string& name,
                                                          std::size_t n_threads) {
  jsonu::reject_unknown(params, {"think_mean", "phases"}, origin);
  const std::uint64_t think_mean = jsonu::opt_u64(params, "think_mean", 300, origin);

  const Value& phases = jsonu::require_array(params, "phases", origin);
  if (phases.array.empty()) {
    jsonu::fail(jsonu::sub(origin, "phases"), "must not be empty");
  }
  std::vector<Regime> regimes;
  regimes.reserve(phases.array.size());
  double prev_until = 0.0;
  for (std::size_t i = 0; i < phases.array.size(); ++i) {
    const std::string po = jsonu::at(jsonu::sub(origin, "phases"), i);
    const Value& ph = phases.array[i];
    jsonu::reject_unknown(ph, {"until", "spec"}, po);
    Regime regime;
    regime.until = jsonu::require_num(ph, "until", po);
    if (regime.until <= 0.0 || regime.until > 1.0) {
      jsonu::fail(jsonu::sub(po, "until"), "must be in (0, 1]");
    }
    if (regime.until <= prev_until) {
      jsonu::fail(jsonu::sub(po, "until"), "must be strictly increasing");
    }
    prev_until = regime.until;
    const Value& spec = jsonu::require_object(ph, "spec", po);
    if (spec.find("think_mean") != nullptr) {
      jsonu::fail(jsonu::sub(jsonu::sub(po, "spec"), "think_mean"),
                  "set the phased generator's top-level think_mean instead");
    }
    regime.spec = spec_from_json(spec, jsonu::sub(po, "spec"),
                                 name + "#" + std::to_string(i));
    regimes.push_back(std::move(regime));
  }
  if (prev_until < 1.0) {
    jsonu::fail(jsonu::sub(origin, "phases"),
                "last \"until\" must reach 1.0 (got " + std::to_string(prev_until) +
                    "); the regimes must cover the whole run");
  }

  // One vocabulary, one memory: regimes must agree on the type list and on
  // region layout so a shift changes behavior, not the address space.
  const stamp::WorkloadSpec& first = regimes.front().spec;
  for (std::size_t i = 1; i < regimes.size(); ++i) {
    const std::string po = jsonu::at(jsonu::sub(origin, "phases"), i);
    const stamp::WorkloadSpec& s = regimes[i].spec;
    if (s.types.size() != first.types.size()) {
      jsonu::fail(jsonu::sub(po, "spec"),
                  "all phases must declare the same transaction types");
    }
    for (std::size_t t = 0; t < s.types.size(); ++t) {
      if (s.types[t].name != first.types[t].name) {
        jsonu::fail(jsonu::sub(po, "spec"),
                    "type " + std::to_string(t) + " is \"" + s.types[t].name +
                        "\" but phase 0 names it \"" + first.types[t].name + "\"");
      }
    }
    if (s.regions.size() != first.regions.size()) {
      jsonu::fail(jsonu::sub(po, "spec"),
                  "all phases must declare the same region layout");
    }
    for (std::size_t r = 0; r < s.regions.size(); ++r) {
      const stamp::Region& a = first.regions[r];
      const stamp::Region& b = s.regions[r];
      if (a.name != b.name || a.lines != b.lines || a.per_thread != b.per_thread) {
        jsonu::fail(jsonu::sub(po, "spec"),
                    "region \"" + b.name + "\" must match phase 0's \"" + a.name +
                        "\" in name, lines, and per_thread (zipf_skew may differ)");
      }
    }
  }

  // Every regime shares phase 0's layout.
  check_line_space(first, n_threads, origin);
  return std::make_unique<PhasedWorkload>(name, std::move(regimes), think_mean,
                                          n_threads);
}

PhasedWorkload::PhasedWorkload(std::string name, std::vector<Regime> regimes,
                               std::uint64_t think_mean, std::size_t n_threads)
    : name_(std::move(name)), think_mean_(think_mean) {
  until_.reserve(regimes.size());
  regimes_.reserve(regimes.size());
  for (Regime& r : regimes) {
    until_.push_back(r.until);
    regimes_.push_back(
        std::make_unique<stamp::SpecWorkload>(std::move(r.spec), n_threads));
  }
}

std::size_t PhasedWorkload::n_types() const { return regimes_.front()->n_types(); }

const std::string& PhasedWorkload::type_name(core::TxTypeId t) const {
  return regimes_.front()->type_name(t);
}

std::size_t PhasedWorkload::regime_index(double progress) const noexcept {
  for (std::size_t i = 0; i + 1 < until_.size(); ++i) {
    if (progress < until_[i]) return i;
  }
  return until_.size() - 1;
}

void PhasedWorkload::next(core::ThreadId thread, double progress,
                          util::Xoshiro256& rng, TxInstance& out) {
  regimes_[regime_index(progress)]->next(thread, progress, rng, out);
}

std::uint64_t PhasedWorkload::think_time(core::ThreadId /*thread*/,
                                         util::Xoshiro256& rng) {
  if (think_mean_ == 0) return 0;
  const double u = std::max(rng.uniform01(), 1e-12);
  return static_cast<std::uint64_t>(-static_cast<double>(think_mean_) * std::log(u));
}

}  // namespace seer::workload
