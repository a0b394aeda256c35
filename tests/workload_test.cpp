// Tests for the pluggable workload-generator API (src/workload/):
//
//   * golden equivalence — every STAMP name resolved through the registry
//     produces the byte-identical instance/think stream (and machine run)
//     as its stamp::all_workloads() table entry built straight into a
//     SpecWorkload; the eight names keep the paper's order and their bench
//     transaction counts; `--workload genome` cells match cells built from
//     the table entry, byte for byte in the --json output, for any --jobs;
//   * trace record/replay — a recorded run replays decision-for-decision
//     (PR 2 differential checker) and cycle-for-cycle; malformed and
//     truncated trace files fail with errors naming the bad key;
//   * the phased and bst generators' own invariants;
//   * config-parse negatives — unknown generators, missing/mistyped fields,
//     and out-of-range phase boundaries all throw ConfigError naming the
//     offending key (the subprocess exit-code side lives in
//     scripts/test_workload_config.py).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/runner.hpp"
#include "check/differential.hpp"
#include "sim/machine.hpp"
#include "stamp/spec.hpp"
#include "stamp/workloads.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/bst.hpp"
#include "workload/phased.hpp"
#include "workload/registry.hpp"
#include "workload/trace.hpp"

namespace seer::workload {
namespace {

using util::json::Value;

Value parse_or_die(const std::string& text) {
  std::string err;
  auto doc = util::json::parse(text, &err);
  EXPECT_TRUE(doc.has_value()) << err << "\nin: " << text;
  return doc.has_value() ? *doc : Value{};
}

// Expects `fn` to throw ConfigError whose message mentions `needle`.
template <typename Fn>
void expect_config_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected ConfigError mentioning \"" << needle << "\"";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic does not name the bad key: " << e.what();
  }
}

// One more region access than a transaction type holds, as JSON array items.
std::string seven_accesses() {
  std::string items;
  for (std::size_t i = 0; i <= decltype(stamp::TxTypeSpec::accesses)::capacity(); ++i) {
    items += std::string(i == 0 ? "" : ", ") + R"({"region": "r", "reads": 1})";
  }
  return items;
}

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + leaf;
}

// ------------------------------------------------- golden equivalence ----

// The reference side of the golden comparisons: a STAMP name's entry in the
// stamp::all_workloads() table, built straight into a SpecWorkload without
// the registry — the construction the registry's STAMP factories wrap.
const stamp::WorkloadInfo& stamp_entry(const std::string& name) {
  for (const stamp::WorkloadInfo& info : stamp::all_workloads()) {
    if (info.name == name) return info;
  }
  ADD_FAILURE() << "no STAMP table entry named " << name;
  return stamp::all_workloads().front();
}

std::unique_ptr<Generator> legacy_make(const std::string& name, std::size_t n_threads) {
  return std::make_unique<stamp::SpecWorkload>(stamp_entry(name).spec(), n_threads);
}

void expect_same_instance(const sim::TxInstance& a, const sim::TxInstance& b,
                          const std::string& where) {
  EXPECT_EQ(a.type, b.type) << where;
  EXPECT_EQ(a.duration, b.duration) << where;
  EXPECT_EQ(a.reads, b.reads) << where;
  EXPECT_EQ(a.writes, b.writes) << where;
}

TEST(GoldenEquivalence, RegistryMatchesLegacyStampStreams) {
  for (const std::string& name : stamp_names()) {
    for (const std::uint64_t seed : {1ull, 0xBEEFull}) {
      for (const std::size_t n_threads : {1u, 4u}) {
        const Desc desc = find(name);
        EXPECT_EQ(desc.name, name);
        const auto via_registry = desc.make(n_threads);
        const auto legacy = legacy_make(name, n_threads);
        ASSERT_EQ(via_registry->n_types(), legacy->n_types()) << name;
        for (std::size_t t = 0; t < legacy->n_types(); ++t) {
          EXPECT_EQ(via_registry->type_name(static_cast<core::TxTypeId>(t)),
                    legacy->type_name(static_cast<core::TxTypeId>(t)));
        }
        // Identical seeds in, identical streams out — interleaved think/next
        // like the executors drive it.
        for (std::size_t th = 0; th < n_threads; ++th) {
          const auto id = static_cast<core::ThreadId>(th);
          util::Xoshiro256 rng_a(seed ^ th);
          util::Xoshiro256 rng_b(seed ^ th);
          via_registry->init(id);
          legacy->init(id);
          sim::TxInstance ia;
          sim::TxInstance ib;
          for (int i = 0; i < 40; ++i) {
            const std::string where = name + " seed=" + std::to_string(seed) +
                                      " thread=" + std::to_string(th) +
                                      " i=" + std::to_string(i);
            EXPECT_EQ(via_registry->think_time(id, rng_a),
                      legacy->think_time(id, rng_b))
                << where;
            const double progress = i / 40.0;
            via_registry->next(id, progress, rng_a, ia);
            legacy->next(id, progress, rng_b, ib);
            expect_same_instance(ia, ib, where);
          }
          EXPECT_EQ(rng_a.state(), rng_b.state())
              << name << ": the paths consumed different draw counts";
        }
      }
    }
  }
}

TEST(GoldenEquivalence, DescMetadataMatchesLegacyTable) {
  // The eight names in the paper's order, with their bench transaction
  // counts, pinned as literals and checked against both the table and the
  // registry.
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"genome", 4000},       {"intruder", 5000},      {"kmeans-high", 4000},
      {"kmeans-low", 4000},   {"ssca2", 8000},         {"vacation-high", 3000},
      {"vacation-low", 3000}, {"yada", 1200},
  };
  const auto& legacy = stamp::all_workloads();
  ASSERT_EQ(legacy.size(), expected.size());
  ASSERT_EQ(stamp_names().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(legacy[i].name, expected[i].first) << "presentation order changed";
    EXPECT_EQ(legacy[i].bench_txs_per_thread, expected[i].second) << legacy[i].name;
    EXPECT_EQ(stamp_names()[i], expected[i].first) << "presentation order changed";
    const Desc d = find(expected[i].first);
    EXPECT_EQ(d.name, expected[i].first);
    EXPECT_EQ(d.bench_txs_per_thread, expected[i].second) << d.name;
  }
}

TEST(GoldenEquivalence, MachineRunsMatchLegacyConstruction) {
  sim::MachineConfig cfg;
  cfg.n_threads = 4;
  cfg.txs_per_thread = 250;
  cfg.seed = 99;
  cfg.policy.kind = rt::PolicyKind::kSeer;

  sim::Machine a(cfg, find("genome").make(cfg.n_threads));
  const sim::MachineStats sa = a.run();
  sim::Machine b(cfg, legacy_make("genome", cfg.n_threads));
  const sim::MachineStats sb = b.run();

  EXPECT_EQ(sa.commits, sb.commits);
  EXPECT_EQ(sa.makespan, sb.makespan);
  EXPECT_EQ(sa.aborts_by_cause, sb.aborts_by_cause);
  EXPECT_EQ(sa.commits_by_mode, sb.commits_by_mode);
  EXPECT_EQ(sa.gt_conflicts, sb.gt_conflicts);
}

TEST(GoldenEquivalence, BenchWorkloadFlagMatchesLegacyPathForAnyJobs) {
  bench::Options opts;
  opts.runs = 1;
  opts.txs_scale = 0.02;
  opts.base_seed = 777;
  opts.workloads = {"genome"};

  auto cells_for = [](const Desc& d) {
    std::vector<bench::Cell> cells;
    for (std::size_t threads : {2u, 4u}) {
      cells.push_back({d, bench::policy_of(rt::PolicyKind::kSeer), threads, {}});
    }
    return cells;
  };
  // The registry path (--workload genome) vs a Desc built by hand from the
  // STAMP table entry.
  const auto selected = opts.selected();
  ASSERT_EQ(selected.size(), 1u);
  const stamp::WorkloadInfo& info = stamp_entry("genome");
  const Desc legacy_desc(info.name, info.bench_txs_per_thread,
                         [](std::size_t n_threads) { return legacy_make("genome", n_threads); });

  auto json_of = [&](const std::vector<bench::Cell>& cells, int jobs) {
    bench::Options o = opts;
    o.jobs = jobs;
    o.json_path = temp_path("workload_equiv.json");
    const auto results = bench::run_cells(cells, o);
    bench::write_outputs("equiv", cells, results, o);
    std::ifstream in(o.json_path);
    EXPECT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(o.json_path.c_str());
    return ss.str();
  };

  const std::string registry_j1 = json_of(cells_for(selected[0]), 1);
  const std::string registry_j4 = json_of(cells_for(selected[0]), 4);
  const std::string legacy_j1 = json_of(cells_for(legacy_desc), 1);
  const std::string legacy_j4 = json_of(cells_for(legacy_desc), 4);
  EXPECT_EQ(registry_j1, legacy_j1) << "registry path diverges from the STAMP table";
  EXPECT_EQ(registry_j1, registry_j4) << "--jobs changed the output";
  EXPECT_EQ(legacy_j1, legacy_j4) << "--jobs changed the output";
}

// ------------------------------------------------ trace record/replay ----

sim::MachineConfig replay_config() {
  sim::MachineConfig cfg;
  cfg.n_threads = 4;
  cfg.txs_per_thread = 300;
  cfg.seed = 4242;
  cfg.policy.kind = rt::PolicyKind::kSeer;
  cfg.policy.seer.update_period = 64;  // frequent rebuilds → many decisions
  return cfg;
}

TEST(TraceRoundTrip, ReplayReproducesSchedulerDecisionsAndStats) {
  const sim::MachineConfig cfg = replay_config();

  InstanceTrace trace;
  check::SchedTraceRecorder cap_a;
  sim::MachineStats sa;
  {
    sim::Machine a(cfg, std::make_unique<InstanceTraceRecorder>(
                            find("genome").make(cfg.n_threads), cfg.n_threads,
                            &trace));
    core::SeerScheduler* sched = a.policy_shared().seer();
    ASSERT_NE(sched, nullptr);
    sched->set_trace_sink(&cap_a);
    sa = a.run();
    sched->set_trace_sink(nullptr);
  }
  ASSERT_EQ(trace.lanes.size(), cfg.n_threads);
  for (const TraceLane& lane : trace.lanes) {
    EXPECT_EQ(lane.instances.size(), cfg.txs_per_thread);
    EXPECT_EQ(lane.thinks.size(), cfg.txs_per_thread);
  }

  check::SchedTraceRecorder cap_b;
  sim::MachineStats sb;
  {
    sim::Machine b(cfg, std::make_unique<TraceReplay>(trace));
    core::SeerScheduler* sched = b.policy_shared().seer();
    ASSERT_NE(sched, nullptr);
    sched->set_trace_sink(&cap_b);
    sb = b.run();
    sched->set_trace_sink(nullptr);
  }

  // The differential checker must see the identical decision stream: the
  // replayed run is the recorded run, not merely a similar one.
  ASSERT_FALSE(cap_a.decisions().empty()) << "run produced no rebuild decisions";
  EXPECT_EQ(check::diff_decisions(cap_a.decisions(), cap_b.decisions()), "");
  EXPECT_EQ(sa.commits, sb.commits);
  EXPECT_EQ(sa.makespan, sb.makespan);
  EXPECT_EQ(sa.aborts_by_cause, sb.aborts_by_cause);
  EXPECT_EQ(sa.commits_by_mode, sb.commits_by_mode);
}

TEST(TraceRoundTrip, SerializationIsByteStableAndFileRoundTrips) {
  const sim::MachineConfig cfg = replay_config();
  InstanceTrace trace;
  sim::MachineStats sa;
  {
    sim::Machine a(cfg, std::make_unique<InstanceTraceRecorder>(
                            find("genome").make(cfg.n_threads), cfg.n_threads,
                            &trace));
    sa = a.run();
  }

  // to_json → parse → to_json is a fixed point.
  const std::string text = trace.to_json();
  const InstanceTrace reparsed = InstanceTrace::parse(parse_or_die(text), "<mem>");
  EXPECT_EQ(reparsed.to_json(), text);

  // File round trip through the registry (--workload TRACE.json semantics:
  // a raw trace auto-wraps as a replay generator).
  const std::string path = temp_path("roundtrip.trace.json");
  ASSERT_TRUE(write_trace_json(trace, path));
  const Desc d = resolve(path);
  EXPECT_EQ(d.name, "replay:genome");
  EXPECT_EQ(d.bench_txs_per_thread, cfg.txs_per_thread);
  sim::Machine b(cfg, d.make(cfg.n_threads));
  const sim::MachineStats sb = b.run();
  EXPECT_EQ(sa.commits, sb.commits);
  EXPECT_EQ(sa.makespan, sb.makespan);
  EXPECT_EQ(sa.aborts_by_cause, sb.aborts_by_cause);
  std::remove(path.c_str());
}

TEST(TraceRoundTrip, ReplayUnderDifferentPolicyIsDeterministic) {
  sim::MachineConfig cfg = replay_config();
  InstanceTrace trace;
  {
    sim::Machine a(cfg, std::make_unique<InstanceTraceRecorder>(
                            find("genome").make(cfg.n_threads), cfg.n_threads,
                            &trace));
    (void)a.run();
  }
  // Same instance stream, different scheduling policy: not the recorded
  // run any more, but still a deterministic one.
  cfg.policy = {};
  cfg.policy.kind = rt::PolicyKind::kRtm;
  sim::Machine b1(cfg, std::make_unique<TraceReplay>(trace));
  const sim::MachineStats s1 = b1.run();
  sim::Machine b2(cfg, std::make_unique<TraceReplay>(trace));
  const sim::MachineStats s2 = b2.run();
  EXPECT_GT(s1.commits, 0u);
  EXPECT_EQ(s1.commits, s2.commits);
  EXPECT_EQ(s1.makespan, s2.makespan);
  EXPECT_EQ(s1.aborts_by_cause, s2.aborts_by_cause);
}

TEST(TraceErrors, MalformedDocumentsNameTheBadKey) {
  const std::string rng = R"("rng": ["1", "2", "3", "4"])";
  const auto trace_doc = [&](const std::string& threads) {
    return R"({"version": 1, "workload": "w", "type_names": ["a"], "threads": [)" +
           threads + "]}";
  };

  expect_config_error(
      [] {
        (void)InstanceTrace::parse(
            parse_or_die(R"({"workload": "w", "type_names": ["a"], "threads": []})"),
            "<t>");
      },
      "version");
  expect_config_error(
      [] {
        (void)InstanceTrace::parse(
            parse_or_die(
                R"({"version": 7, "workload": "w", "type_names": ["a"], "threads": []})"),
            "<t>");
      },
      "unsupported trace version");
  // Lanes out of thread order.
  expect_config_error(
      [&] {
        (void)InstanceTrace::parse(
            parse_or_die(trace_doc(R"({"thread": 1, "thinks": [], "instances": []})")),
            "<t>");
      },
      "thread order");
  // RNG checkpoint with the wrong arity.
  expect_config_error(
      [&] {
        (void)InstanceTrace::parse(
            parse_or_die(trace_doc(
                R"({"thread": 0, "thinks": [{"t": 5, "rng": ["1", "2"]}], "instances": []})")),
            "<t>");
      },
      "4 hex words");
  // Instance type out of the declared vocabulary.
  expect_config_error(
      [&] {
        (void)InstanceTrace::parse(
            parse_or_die(trace_doc(
                R"({"thread": 0, "thinks": [], "instances": [{"type": 3, "duration": 10, "reads": [], "writes": [], )" +
                rng + "}]}")),
            "<t>");
      },
      "out of range");
  // Unsorted line ids.
  expect_config_error(
      [&] {
        (void)InstanceTrace::parse(
            parse_or_die(trace_doc(
                R"({"thread": 0, "thinks": [], "instances": [{"type": 0, "duration": 10, "reads": [9, 3], "writes": [], )" +
                rng + "}]}")),
            "<t>");
      },
      "sorted and unique");
}

TEST(TraceErrors, TruncatedAndMissingFilesFailCleanly) {
  // Record a real trace, then cut the file in half: the parse error must
  // carry the file path.
  sim::MachineConfig cfg = replay_config();
  cfg.txs_per_thread = 40;
  InstanceTrace trace;
  {
    sim::Machine a(cfg, std::make_unique<InstanceTraceRecorder>(
                            find("genome").make(cfg.n_threads), cfg.n_threads,
                            &trace));
    (void)a.run();
  }
  const std::string full = trace.to_json();
  const std::string path = temp_path("truncated.trace.json");
  {
    std::ofstream out(path);
    out << full.substr(0, full.size() / 2);
  }
  expect_config_error([&] { (void)InstanceTrace::load(path); }, path);
  std::remove(path.c_str());

  expect_config_error(
      [&] { (void)InstanceTrace::load(temp_path("does_not_exist.trace.json")); },
      "does_not_exist");
}

// ------------------------------------------------------------- phased ----

std::string two_regime_params(const std::string& until_a = "0.5") {
  return R"({
    "think_mean": 100,
    "phases": [
      {"until": )" +
         until_a + R"(, "spec": {
        "regions": [{"name": "r", "lines": 256}],
        "types": [{"name": "t", "duration_mean": 100, "duration_jitter": 0,
                   "accesses": [{"region": "r", "reads": 2, "writes": 1}]}]}},
      {"until": 1.0, "spec": {
        "regions": [{"name": "r", "lines": 256}],
        "types": [{"name": "t", "duration_mean": 900, "duration_jitter": 0,
                   "accesses": [{"region": "r", "reads": 2, "writes": 1}]}]}}
    ]})";
}

TEST(Phased, RegimeSelectionFollowsProgress) {
  const Value params = parse_or_die(two_regime_params());
  const auto wl = PhasedWorkload::from_json(params, "<p>", "shift", 2);
  EXPECT_EQ(wl->n_types(), 1u);
  // Zero jitter makes the regime's duration_mean show through verbatim.
  util::Xoshiro256 rng(7);
  sim::TxInstance inst;
  for (const double progress : {0.0, 0.25, 0.499}) {
    wl->next(0, progress, rng, inst);
    EXPECT_EQ(inst.duration, 100u) << "progress " << progress;
  }
  for (const double progress : {0.5, 0.75, 1.0}) {
    wl->next(0, progress, rng, inst);
    EXPECT_EQ(inst.duration, 900u) << "progress " << progress;
  }
}

TEST(Phased, ConfigErrorsNameTheBadKey) {
  const auto phased = [](const std::string& params) {
    return [params] {
      (void)PhasedWorkload::from_json(parse_or_die(params), "<p>", "x", 2);
    };
  };
  expect_config_error(phased(two_regime_params("1.5")), "until");
  expect_config_error(phased(two_regime_params("0.0")), "until");
  expect_config_error(phased(R"({"phases": []})"), "phases");
  expect_config_error(phased(R"({"bogus": 1, "phases": []})"), "bogus");
  // Regimes must not smuggle their own think_mean.
  expect_config_error(
      phased(R"({"phases": [{"until": 1.0, "spec": {"think_mean": 5,
        "regions": [{"name": "r", "lines": 8}],
        "types": [{"name": "t", "duration_mean": 10, "accesses": []}]}}]})"),
      "think_mean");
  // Last regime must reach progress 1.0.
  expect_config_error(
      phased(R"({"phases": [{"until": 0.5, "spec": {
        "regions": [{"name": "r", "lines": 8}],
        "types": [{"name": "t", "duration_mean": 10, "accesses": []}]}}]})"),
      "1.0");
  // A regime's type may list at most TxTypeSpec::accesses.capacity() (6)
  // accesses, as a top-level spec's may.
  expect_config_error(
      phased(R"({"phases": [{"until": 1.0, "spec": {
        "regions": [{"name": "r", "lines": 8}],
        "types": [{"name": "t", "duration_mean": 10, "accesses": [)" +
             seven_accesses() + R"(]}]}}]})"),
      "types[0].accesses");
  // Type vocabulary must agree across regimes.
  expect_config_error(
      phased(R"({"phases": [
        {"until": 0.5, "spec": {
          "regions": [{"name": "r", "lines": 8}],
          "types": [{"name": "a", "duration_mean": 10, "accesses": []}]}},
        {"until": 1.0, "spec": {
          "regions": [{"name": "r", "lines": 8}],
          "types": [{"name": "b", "duration_mean": 10, "accesses": []}]}}]})"),
      "phase 0");
}

// ---------------------------------------------------------------- bst ----

TEST(Bst, InstancesRespectTreeGeometry) {
  BstWorkload::Config cfg;
  cfg.keys = 512;
  cfg.base_cost = 150;
  cfg.node_cost = 60;
  BstWorkload wl(cfg, "bst-test");
  EXPECT_EQ(wl.n_types(), 3u);

  util::Xoshiro256 rng(11);
  sim::TxInstance inst;
  bool saw_mutation = false;
  bool saw_contains = false;
  for (int i = 0; i < 300; ++i) {
    wl.next(0, 0.0, rng, inst);
    // Reads are the root→key search path: sorted, unique, non-empty.
    ASSERT_FALSE(inst.reads.empty());
    for (std::size_t j = 1; j < inst.reads.size(); ++j) {
      ASSERT_LT(inst.reads[j - 1], inst.reads[j]);
    }
    // Duration prices the traversal: base + node_cost per path node.
    EXPECT_EQ(inst.duration,
              cfg.base_cost + cfg.node_cost * inst.reads.size());
    if (inst.type == BstWorkload::kContains) {
      saw_contains = true;
      EXPECT_TRUE(inst.writes.empty());
    } else {
      saw_mutation = true;
      // Mutations write the node and its parent link — both on the path.
      ASSERT_FALSE(inst.writes.empty());
      ASSERT_LE(inst.writes.size(), 2u);
      for (const std::uint32_t w : inst.writes) {
        EXPECT_TRUE(std::find(inst.reads.begin(), inst.reads.end(), w) !=
                    inst.reads.end())
            << "write target " << w << " not on the search path";
      }
    }
  }
  EXPECT_TRUE(saw_mutation);
  EXPECT_TRUE(saw_contains);
}

TEST(Bst, TreeShapeIsDeterministicPerSeed) {
  BstWorkload::Config cfg;
  cfg.keys = 256;
  const BstWorkload a(cfg, "a");
  const BstWorkload b(cfg, "b");
  cfg.shape_seed = 2;
  const BstWorkload c(cfg, "c");
  bool differs = false;
  for (std::uint32_t k = 0; k < cfg.keys; ++k) {
    EXPECT_EQ(a.depth(k), b.depth(k));
    EXPECT_EQ(a.parent(k), b.parent(k));
    if (a.depth(k) != c.depth(k)) differs = true;
  }
  EXPECT_TRUE(differs) << "shape_seed had no effect on the tree";
}

TEST(Bst, ConfigErrorsNameTheBadKey) {
  const auto bst = [](const std::string& params) {
    return [params] {
      (void)BstWorkload::from_json(parse_or_die(params), "<b>", "x");
    };
  };
  expect_config_error(bst(R"({"keys": 1})"), "keys");
  expect_config_error(bst(R"({"mix": {"add": 0, "remove": 0, "contains": 0}})"),
                      "mix");
  expect_config_error(bst(R"({"mix": {"lookup": 1}})"), "lookup");
  expect_config_error(bst(R"({"base_cost": 0})"), "base_cost");
  expect_config_error(bst(R"({"keys": "many"})"), "keys");
}

// ----------------------------------------------------- config front-end ----

TEST(Config, NegativeCasesNameTheBadKey) {
  const auto cfg = [](const std::string& text) {
    return [text] { (void)from_config_json(parse_or_die(text), "<c>"); };
  };
  expect_config_error(cfg(R"({"generator": "nope"})"), "unknown generator");
  expect_config_error(cfg(R"({"generator": "nope"})"), "genome");  // lists known
  expect_config_error(cfg(R"({})"), "generator");
  expect_config_error(cfg(R"({"generator": "bst", "workload": "x"})"), "workload");
  expect_config_error(cfg(R"({"generator": "genome", "params": {"keys": 4}})"),
                      "takes no params");
  expect_config_error(cfg(R"({"generator": "bst", "txs_per_thread": 0})"),
                      "txs_per_thread");
  expect_config_error(cfg(R"({"generator": "bst", "params": 7})"), "params");
  expect_config_error(cfg(R"({"generator": "spec", "params": {}})"), "regions");
  // More accesses than TxTypeSpec::accesses holds (6) are named, not
  // truncated into the spec.
  expect_config_error(
      cfg(R"({"generator": "spec", "params": {"regions": [{"name": "r", "lines": 8}],
          "types": [{"name": "t", "duration_mean": 10, "accesses": [)" +
          seven_accesses() + "]}]}}"),
      "types[0].accesses");
  expect_config_error(
      cfg(R"({"generator": "phased", "params": {"phases": [{"until": 2.0,
          "spec": {"regions": [{"name": "r", "lines": 8}],
                   "types": [{"name": "t", "duration_mean": 10,
                              "accesses": []}]}}]}})"),
      "until");
  expect_config_error([] { (void)find("hashmap"); }, "unknown generator");
  expect_config_error(
      [] { (void)from_config(temp_path("missing_config.json")); },
      "missing_config");
}

// A "spec" config with the given regions JSON and one type reading region "r".
std::string spec_with_regions(const std::string& regions) {
  return R"({"generator": "spec", "params": {"regions": [)" + regions +
         R"(], "types": [{"name": "t", "duration_mean": 10,
                          "accesses": [{"region": "r", "reads": 1}]}]}})";
}

// A skewed region's Zipf table holds one entry per line and costs one pow()
// per entry at build time, so the front door caps it at 2^22 lines (as bst
// caps keys) instead of letting 2^32 - 1 lines exhaust memory. Uniform
// regions keep the full range.
TEST(Config, ZipfRegionsAbove2Pow22LinesAreRejected) {
  const auto cfg = [](const std::string& regions) {
    return [regions] {
      (void)from_config_json(parse_or_die(spec_with_regions(regions)), "<c>");
    };
  };
  expect_config_error(cfg(R"({"name": "r", "lines": 4194305, "zipf_skew": 0.5})"),
                      "regions[0].lines");
  expect_config_error(cfg(R"({"name": "r", "lines": 4294967295, "zipf_skew": 1})"),
                      "2^22");
  // Parsing builds no table, so the accepted extremes are cheap to check.
  EXPECT_NO_THROW(cfg(R"({"name": "r", "lines": 4194304, "zipf_skew": 2.0})")());
  EXPECT_NO_THROW(cfg(R"({"name": "r", "lines": 4294967295})")());
}

// Line ids are 32-bit: a layout past 2^32 lines would wrap the later
// regions' ids onto the earlier ones and conflict on lines no transaction
// shares.
TEST(Config, LineSpacesPast2Pow32AreRejected) {
  const auto cfg = [](const std::string& regions) {
    return [regions] {
      (void)from_config_json(parse_or_die(spec_with_regions(regions)), "<c>");
    };
  };
  expect_config_error(cfg(R"({"name": "r", "lines": 3000000000},
                             {"name": "s", "lines": 3000000000})"),
                      "2^32 line ids");
  // Exactly 2^32 lines fit.
  EXPECT_NO_THROW(cfg(R"({"name": "r", "lines": 4294967295},
                         {"name": "s", "lines": 1})")());

  // Per-thread regions count once per thread: 2^31 shared + 2^30 per
  // thread fits two threads exactly, and a third is rejected when the
  // generator is built.
  const std::string regions = R"({"name": "r", "lines": 2147483648},
                                 {"name": "p", "lines": 1073741824, "per_thread": true})";
  const Desc d = from_config_json(parse_or_die(spec_with_regions(regions)), "<c>");
  EXPECT_NO_THROW((void)d.make(2));
  expect_config_error([&] { (void)d.make(3); }, "at 3 thread(s)");

  // phased checks its shared layout the same way.
  const std::string phased_config =
      R"({"generator": "phased", "params": {"phases": [{"until": 1.0, "spec": {
            "regions": [)" + regions + R"(],
            "types": [{"name": "t", "duration_mean": 10,
                       "accesses": [{"region": "r", "reads": 1}]}]}}]}})";
  const Desc phased = from_config_json(parse_or_die(phased_config), "<c>");
  EXPECT_NO_THROW((void)phased.make(2));
  expect_config_error([&] { (void)phased.make(3); }, "per-thread regions");
}

TEST(Config, SpecGeneratorBuildsARunnableWorkload) {
  const Value doc = parse_or_die(R"({
    "generator": "spec",
    "name": "mini",
    "txs_per_thread": 123,
    "params": {
      "regions": [{"name": "tab", "lines": 128, "zipf_skew": 0.7}],
      "types": [
        {"name": "get", "duration_mean": 200,
         "accesses": [{"region": "tab", "reads": 3}]},
        {"name": "put", "duration_mean": 300,
         "accesses": [{"region": "tab", "reads": 1, "writes": 2}]}
      ],
      "mix": [3, 1]
    }})");
  const Desc d = from_config_json(doc, "<c>");
  EXPECT_EQ(d.name, "mini");
  EXPECT_EQ(d.bench_txs_per_thread, 123u);
  const auto wl = d.make(2);
  ASSERT_EQ(wl->n_types(), 2u);
  EXPECT_EQ(wl->type_name(0), "get");
  EXPECT_EQ(wl->type_name(1), "put");

  sim::MachineConfig mcfg;
  mcfg.n_threads = 2;
  mcfg.txs_per_thread = 200;
  sim::Machine m(mcfg, d.make(mcfg.n_threads));
  const sim::MachineStats s = m.run();
  EXPECT_EQ(s.commits, 400u);
}

TEST(Config, TopologySectionParsesAndDerivesPhysicalCores) {
  const Value doc = parse_or_die(R"({
    "generator": "bst",
    "topology": {"sockets": 2, "cores_per_socket": 16, "smt_per_core": 2}
  })");
  const Desc d = from_config_json(doc, "<c>");
  ASSERT_TRUE(d.topology != nullptr);
  EXPECT_EQ(d.topology->sockets, 2u);
  EXPECT_EQ(d.topology->cores_per_socket, 16u);
  EXPECT_EQ(d.topology->smt_per_core, 2u);
  EXPECT_EQ(d.topology->physical_cores(), 32u);
  EXPECT_EQ(d.topology->hw_threads(), 64u);
  // A redundant-but-consistent physical_cores cross-check is accepted.
  const Value ok = parse_or_die(R"({
    "generator": "bst",
    "topology": {"sockets": 2, "cores_per_socket": 16, "physical_cores": 32}
  })");
  EXPECT_TRUE(from_config_json(ok, "<c>").topology != nullptr);
  // No topology section leaves the optional empty (the flat legacy path).
  EXPECT_TRUE(from_config_json(parse_or_die(R"({"generator": "bst"})"), "<c>")
                  .topology == nullptr);
}

TEST(Config, TopologyNegativesNameTheBadKey) {
  const auto cfg = [](const std::string& topo) {
    return [topo] {
      (void)from_config_json(
          parse_or_die(R"({"generator": "bst", "topology": )" + topo + "}"),
          "<c>");
    };
  };
  // The silent-default regression: a physical_cores that disagrees with
  // sockets x cores_per_socket must be a named error, not a shrug.
  expect_config_error(cfg(R"({"sockets": 2, "cores_per_socket": 16,
                              "physical_cores": 8})"),
                      "physical_cores");
  expect_config_error(cfg(R"({"sockets": 0})"), "sockets");
  expect_config_error(cfg(R"({"cores_per_socket": 0})"), "cores_per_socket");
  expect_config_error(cfg(R"({"smt_per_core": 0})"), "smt_per_core");
  expect_config_error(cfg(R"({"numa_nodes": 2})"), "numa_nodes");  // unknown
  expect_config_error(cfg(R"({"sockets": 1024, "cores_per_socket": 1024})"),
                      "exceeds the supported maximum");
}

TEST(Config, ResolveDispatchesOnJsonSuffix) {
  // A registered name resolves directly...
  EXPECT_EQ(resolve("yada").name, "yada");
  // ...and a .json path goes through from_config (here: a bad one, to prove
  // the dispatch happened).
  expect_config_error([] { (void)resolve("no_such_file.json"); },
                      "no_such_file.json");
}

}  // namespace
}  // namespace seer::workload
