#include "workload/registry.hpp"

#include <algorithm>
#include <utility>

#include "stamp/spec.hpp"
#include "stamp/workloads.hpp"
#include "workload/bst.hpp"
#include "workload/json_util.hpp"
#include "workload/phased.hpp"
#include "workload/spec_config.hpp"
#include "workload/trace.hpp"

namespace seer::workload {

using jsonu::Value;

namespace {

// Builds a Desc from a params object; `display_name` is the config's "name"
// (or the generator name), `origin` prefixes diagnostics.
using Factory = std::function<Desc(const Value& params, const std::string& display_name,
                                   const std::string& origin)>;
using Table = std::vector<std::pair<std::string, Factory>>;

// Generators that take no parameters reject a non-empty params object so a
// misplaced key fails instead of being ignored.
void require_no_params(const Value& params, const std::string& generator,
                       const std::string& origin) {
  if (params.is_object() && !params.object.empty()) {
    jsonu::fail(origin, "generator \"" + generator + "\" takes no params (got \"" +
                            params.object.front().first + "\")");
  }
}

// The top-level "topology" section. The optional "physical_cores" key is a
// pure cross-check: a value disagreeing with sockets x cores_per_socket is
// the named error that replaces the old silent-default behaviour (the core
// SeerConfig used to keep its flat default when a topology was supplied).
core::Topology topology_from_json(const Value& obj, const std::string& origin) {
  if (!obj.is_object()) jsonu::fail(origin, "must be an object");
  jsonu::reject_unknown(
      obj, {"sockets", "cores_per_socket", "smt_per_core", "physical_cores"},
      origin);
  core::Topology topo;
  topo.sockets = jsonu::opt_u64(obj, "sockets", topo.sockets, origin);
  topo.cores_per_socket =
      jsonu::opt_u64(obj, "cores_per_socket", topo.cores_per_socket, origin);
  topo.smt_per_core =
      jsonu::opt_u64(obj, "smt_per_core", topo.smt_per_core, origin);
  if (topo.sockets == 0) jsonu::fail(jsonu::sub(origin, "sockets"), "must be >= 1");
  if (topo.cores_per_socket == 0) {
    jsonu::fail(jsonu::sub(origin, "cores_per_socket"), "must be >= 1");
  }
  if (topo.smt_per_core == 0) {
    jsonu::fail(jsonu::sub(origin, "smt_per_core"), "must be >= 1");
  }
  if (topo.hw_threads() > core::kMaxThreads) {
    jsonu::fail(origin, "sockets x cores_per_socket x smt_per_core = " +
                            std::to_string(topo.hw_threads()) +
                            " exceeds the supported maximum of " +
                            std::to_string(core::kMaxThreads) +
                            " hardware threads");
  }
  const std::uint64_t pc =
      jsonu::opt_u64(obj, "physical_cores", topo.physical_cores(), origin);
  if (pc != topo.physical_cores()) {
    jsonu::fail(jsonu::sub(origin, "physical_cores"),
                "is " + std::to_string(pc) +
                    " but the topology implies sockets x cores_per_socket = " +
                    std::to_string(topo.physical_cores()) +
                    " (drop the key or fix the shape)");
  }
  return topo;
}

Table make_generators() {
  Table reg;

  // The eight STAMP stand-ins: thin adapters over the compiled-in specs.
  for (const stamp::WorkloadInfo& info : stamp::all_workloads()) {
    reg.emplace_back(info.name, [info](const Value& params, const std::string& display,
                                       const std::string& origin) -> Desc {
      require_no_params(params, info.name, origin);
      const auto spec = info.spec;
      return Desc(display.empty() ? info.name : display, info.bench_txs_per_thread,
                  [spec](std::size_t n_threads) -> std::unique_ptr<Generator> {
                    return std::make_unique<stamp::SpecWorkload>(spec(), n_threads);
                  });
    });
  }

  // "spec": a one-off stamp-style geometry straight from JSON.
  reg.emplace_back("spec", [](const Value& params, const std::string& display,
                              const std::string& origin) -> Desc {
    auto spec = std::make_shared<stamp::WorkloadSpec>(
        spec_from_json(params, origin, display));
    return Desc(spec->name, 4000,
                [spec, origin](std::size_t n_threads) -> std::unique_ptr<Generator> {
                  check_line_space(*spec, n_threads, origin);
                  return std::make_unique<stamp::SpecWorkload>(*spec, n_threads);
                });
  });

  // "phased": contention-regime shifts at progress boundaries.
  reg.emplace_back("phased", [](const Value& params, const std::string& display,
                                const std::string& origin) -> Desc {
    const std::string name = display.empty() ? "phased" : display;
    // Validate now (config-parse time); rebuild per make with the real
    // thread count from the captured params copy.
    (void)PhasedWorkload::from_json(params, origin, name, 1);
    auto params_copy = std::make_shared<Value>(params);
    return Desc(name, 4000,
                [params_copy, name, origin](std::size_t n_threads)
                    -> std::unique_ptr<Generator> {
                  return PhasedWorkload::from_json(*params_copy, origin, name,
                                                   n_threads);
                });
  });

  // "bst": add/remove/contains over a modelled binary search tree.
  reg.emplace_back("bst", [](const Value& params, const std::string& display,
                             const std::string& origin) -> Desc {
    const std::string name = display.empty() ? "bst" : display;
    (void)BstWorkload::from_json(params, origin, name);
    auto params_copy = std::make_shared<Value>(params);
    return Desc(name, 4000,
                [params_copy, name, origin](std::size_t) -> std::unique_ptr<Generator> {
                  return BstWorkload::from_json(*params_copy, origin, name);
                });
  });

  // "trace-replay": a captured instance stream, loaded (and validated)
  // eagerly so a bad path fails at config time, not mid-sweep.
  reg.emplace_back("trace-replay", [](const Value& params, const std::string& display,
                                      const std::string& origin) -> Desc {
    jsonu::reject_unknown(params, {"path"}, origin);
    const std::string& path = jsonu::require_str(params, "path", origin);
    auto trace = std::make_shared<InstanceTrace>(InstanceTrace::load(path));
    TraceReplay probe(*trace);
    const std::uint64_t txs = std::max<std::uint64_t>(
        1, probe.max_instances_per_thread());
    const std::string name = display.empty() ? probe.name() : display;
    return Desc(name, txs,
                [trace, name](std::size_t) -> std::unique_ptr<Generator> {
                  return std::make_unique<TraceReplay>(*trace, name);
                });
  });

  return reg;
}

// Every generator a config can name, in the order diagnostics list them:
// the eight stand-ins, then the four data-driven generators. Built once.
const Table& generators() {
  static const Table table = make_generators();
  return table;
}

const Factory* lookup(const std::string& name) {
  for (const auto& [n, f] : generators()) {
    if (n == name) return &f;
  }
  return nullptr;
}

std::string unknown_generator(const std::string& name) {
  std::string known;
  for (const auto& [n, f] : generators()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return "unknown generator \"" + name + "\" (known: " + known + ")";
}

}  // namespace

const std::vector<std::string>& stamp_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const stamp::WorkloadInfo& info : stamp::all_workloads()) {
      out.push_back(info.name);
    }
    return out;
  }();
  return names;
}

Desc find(const std::string& name) {
  const Factory* f = lookup(name);
  if (f == nullptr) throw ConfigError(unknown_generator(name));
  Value empty;
  empty.type = Value::Type::kObject;
  return (*f)(empty, "", name);
}

Desc from_config_json(const Value& doc, const std::string& origin) {
  if (!doc.is_object()) jsonu::fail(origin, "expected a JSON object");
  if (doc.find("generator") == nullptr) {
    // A raw instance trace doubles as a config: replay it.
    if (doc.find("version") != nullptr && doc.find("threads") != nullptr) {
      auto trace = std::make_shared<InstanceTrace>(InstanceTrace::parse(doc, origin));
      TraceReplay probe(*trace);
      const std::uint64_t txs =
          std::max<std::uint64_t>(1, probe.max_instances_per_thread());
      const std::string name = probe.name();
      return Desc(name, txs,
                  [trace, name](std::size_t) -> std::unique_ptr<Generator> {
                    return std::make_unique<TraceReplay>(*trace, name);
                  });
    }
    jsonu::fail(origin, "missing required key \"generator\"");
  }
  jsonu::reject_unknown(doc,
                        {"generator", "name", "txs_per_thread", "params",
                         "open_loop", "topology"},
                        origin);
  const std::string& generator = jsonu::require_str(doc, "generator", origin);
  const Factory* f = lookup(generator);
  if (f == nullptr) {
    jsonu::fail(jsonu::sub(origin, "generator"), unknown_generator(generator));
  }
  std::string display;
  if (const Value* n = doc.find("name"); n != nullptr) {
    if (!n->is_string()) jsonu::fail(jsonu::sub(origin, "name"), "must be a string");
    display = n->string;
  }
  Value empty_params;
  empty_params.type = Value::Type::kObject;
  const Value* params = doc.find("params");
  if (params != nullptr && !params->is_object()) {
    jsonu::fail(jsonu::sub(origin, "params"), "must be an object");
  }
  Desc d = (*f)(params != nullptr ? *params : empty_params, display,
                jsonu::sub(origin, "params"));
  d.bench_txs_per_thread =
      jsonu::opt_u64(doc, "txs_per_thread", d.bench_txs_per_thread, origin);
  if (d.bench_txs_per_thread == 0) {
    jsonu::fail(jsonu::sub(origin, "txs_per_thread"), "must be at least 1");
  }
  if (const Value* ol = doc.find("open_loop"); ol != nullptr) {
    d.open_loop = std::make_shared<const OpenLoopConfig>(
        OpenLoopConfig::from_json(*ol, jsonu::sub(origin, "open_loop")));
  }
  if (const Value* tp = doc.find("topology"); tp != nullptr) {
    d.topology = std::make_shared<const core::Topology>(
        topology_from_json(*tp, jsonu::sub(origin, "topology")));
  }
  return d;
}

Desc from_config(const std::string& path) {
  std::string error;
  const auto doc = util::json::parse_file(path, &error);
  if (!doc) throw ConfigError("workload config " + path + ": " + error);
  return from_config_json(*doc, path);
}

Desc resolve(const std::string& name_or_path) {
  const std::string suffix = ".json";
  if (name_or_path.size() > suffix.size() &&
      name_or_path.compare(name_or_path.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
    return from_config(name_or_path);
  }
  return find(name_or_path);
}

}  // namespace seer::workload
