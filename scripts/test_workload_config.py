#!/usr/bin/env python3
"""Subprocess tests for the workload-config front doors (stdlib unittest).

Exercises the two binaries that end users point at a workload JSON file —
`seer_inspect --validate-workload` and any bench exhibit's `--workload` —
and asserts that bad configs exit non-zero with a diagnostic naming the bad
key, while good configs validate cleanly.

Unlike test_check_bench_regression.py this needs compiled binaries, so it
runs under ctest (tests/CMakeLists.txt passes the paths via environment)
rather than in the source-only python-tools CI job. Run by hand with:

    SEER_INSPECT_BIN=build/tools/seer_inspect \
    SEER_BENCH_BIN=build/bench/fig3_speedup \
    python3 scripts/test_workload_config.py -v
"""

import json
import os
import subprocess
import tempfile
import unittest

INSPECT_BIN = os.environ.get("SEER_INSPECT_BIN", "")
BENCH_BIN = os.environ.get("SEER_BENCH_BIN", "")


def spec_config(**overrides):
    """A minimal valid "spec" workload config; keyword args replace keys."""
    doc = {
        "generator": "spec",
        "name": "mini",
        "txs_per_thread": 50,
        "params": {
            "regions": [{"name": "r", "lines": 64}],
            "types": [
                {"name": "get", "duration_mean": 100,
                 "accesses": [{"region": "r", "reads": 2}]},
            ],
            "mix": [1],
        },
    }
    doc.update(overrides)
    return doc


def phased_config():
    """A minimal valid two-phase config (regime shift at progress 0.5)."""
    spec = spec_config()["params"]
    return {
        "generator": "phased",
        "name": "mini-phased",
        "txs_per_thread": 50,
        "params": {
            "phases": [
                {"until": 0.5, "spec": spec},
                {"until": 1.0, "spec": spec},
            ],
        },
    }


@unittest.skipUnless(os.access(INSPECT_BIN, os.X_OK),
                     "SEER_INSPECT_BIN not set or not executable")
class ValidateWorkloadTest(unittest.TestCase):
    """seer_inspect --validate-workload CONFIG.json"""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def validate(self, path):
        proc = subprocess.run(
            [INSPECT_BIN, "--validate-workload", path],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def test_good_spec_config_validates(self):
        code, out, err = self.validate(self.write("ok.json", spec_config()))
        self.assertEqual(code, 0, err)
        self.assertIn("OK", out)
        self.assertIn("mini", out)

    def test_good_phased_config_validates(self):
        code, out, err = self.validate(
            self.write("phased.json", phased_config()))
        self.assertEqual(code, 0, err)
        self.assertIn("OK", out)

    def test_unknown_generator_names_it_and_lists_known(self):
        doc = spec_config(generator="nope")
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("unknown generator", err)
        self.assertIn("nope", err)
        self.assertIn("genome", err)  # the listing of known names

    def test_missing_generator_key_is_named(self):
        doc = spec_config()
        del doc["generator"]
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("generator", err)

    def test_mistyped_field_is_named(self):
        doc = spec_config(txs_per_thread="lots")
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("txs_per_thread", err)

    def test_out_of_range_phase_boundary_is_named(self):
        doc = phased_config()
        doc["params"]["phases"][1]["until"] = 2.0
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("until", err)
        self.assertIn("(0, 1]", err)

    def test_unknown_param_key_is_named(self):
        doc = spec_config()
        doc["params"]["bogus"] = 1
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("bogus", err)

    def test_missing_file_fails_cleanly(self):
        code, _, err = self.validate(
            os.path.join(self.tmp.name, "absent.json"))
        self.assertEqual(code, 2)
        self.assertIn("absent.json", err)

    # --- region geometry --------------------------------------------------

    def regions_config(self, regions):
        doc = spec_config()
        doc["params"]["regions"] = regions
        return doc

    def test_zipf_region_above_2pow22_lines_is_named(self):
        # The Zipf table holds one entry per line; at the 2^32 - 1 line
        # limit it would take tens of GB to build.
        doc = self.regions_config(
            [{"name": "r", "lines": 4194305, "zipf_skew": 0.5}])
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("regions[0].lines", err)
        self.assertIn("2^22", err)

    def test_line_space_past_2pow32_is_named(self):
        # Past 2^32 lines, the second region's ids would wrap onto the first.
        doc = self.regions_config([{"name": "r", "lines": 3000000000},
                                   {"name": "s", "lines": 3000000000}])
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("2^32 line ids", err)

    def test_per_thread_regions_count_once_per_thread(self):
        # Fits one thread; the validator builds the generator for two.
        doc = self.regions_config([
            {"name": "r", "lines": 2147483648},
            {"name": "p", "lines": 1610612736, "per_thread": True}])
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("at 2 thread(s)", err)

    # --- topology section (sockets x cores_per_socket x smt_per_core) -----

    def test_good_topology_section_validates(self):
        doc = spec_config(topology={
            "sockets": 2, "cores_per_socket": 16, "smt_per_core": 2})
        code, out, err = self.validate(self.write("topo.json", doc))
        self.assertEqual(code, 0, err)
        self.assertIn("OK", out)

    def test_topology_physical_cores_mismatch_is_named(self):
        # The old behaviour silently kept the flat default; now the
        # disagreement is a hard, named error.
        doc = spec_config(topology={
            "sockets": 2, "cores_per_socket": 16, "physical_cores": 8})
        code, _, err = self.validate(self.write("topo_bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("physical_cores", err)
        self.assertIn("32", err)  # the value the topology implies

    def test_topology_zero_sockets_is_named(self):
        doc = spec_config(topology={"sockets": 0})
        code, _, err = self.validate(self.write("topo_bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("sockets", err)

    def test_topology_unknown_key_is_named(self):
        doc = spec_config(topology={"numa_nodes": 2})
        code, _, err = self.validate(self.write("topo_bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("numa_nodes", err)

    def test_topology_thread_cap_is_enforced(self):
        doc = spec_config(topology={
            "sockets": 1024, "cores_per_socket": 1024})
        code, _, err = self.validate(self.write("topo_bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("exceeds the supported maximum", err)

    # --- open_loop section (the serving harness's traffic description) ----

    def open_loop_config(self, open_loop):
        return spec_config(open_loop=open_loop)

    def test_good_open_loop_section_validates(self):
        doc = self.open_loop_config({
            "rate": 1000, "process": "poisson", "duration_s": 1.0,
            "diurnal": {"period_s": 2.0, "amplitude": 0.3},
            "bursts": [{"at_s": 0.5, "duration_s": 0.2, "multiplier": 4.0}],
        })
        code, out, err = self.validate(self.write("serve.json", doc))
        self.assertEqual(code, 0, err)
        self.assertIn("OK", out)

    def test_open_loop_rate_and_sweep_are_mutually_exclusive(self):
        doc = self.open_loop_config(
            {"rate": 100, "sweep": {"rates": [100, 200]}})
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("mutually exclusive", err)

    def test_open_loop_without_rate_or_sweep_is_named(self):
        doc = self.open_loop_config({"duration_s": 1.0})
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("rate", err)

    def test_open_loop_unknown_process_is_named(self):
        doc = self.open_loop_config({"rate": 100, "process": "bursty"})
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("bursty", err)

    def test_open_loop_diurnal_amplitude_must_stay_below_one(self):
        doc = self.open_loop_config(
            {"rate": 100,
             "diurnal": {"period_s": 1.0, "amplitude": 1.0}})
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("amplitude", err)

    def test_open_loop_sweep_rates_must_strictly_increase(self):
        doc = self.open_loop_config({"sweep": {"rates": [200, 200]}})
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("strictly increasing", err)

    def test_open_loop_zero_queue_capacity_is_rejected(self):
        doc = self.open_loop_config({"rate": 100, "queue_capacity": 0})
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("queue_capacity", err)

    def test_open_loop_unknown_key_is_named(self):
        doc = self.open_loop_config({"rate": 100, "queue_cap": 64})
        code, _, err = self.validate(self.write("bad.json", doc))
        self.assertEqual(code, 2)
        self.assertIn("queue_cap", err)


@unittest.skipUnless(os.access(BENCH_BIN, os.X_OK),
                     "SEER_BENCH_BIN not set or not executable")
class BenchWorkloadFlagTest(unittest.TestCase):
    """A bench exhibit's --workload flag must reject bad inputs non-zero
    before running anything."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_bench(self, workload_arg):
        proc = subprocess.run(
            [BENCH_BIN, "--runs", "1", "--txs-scale", "0.01",
             "--workload", workload_arg],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stderr

    def test_unknown_workload_name_exits_nonzero(self):
        code, err = self.run_bench("no-such-workload")
        self.assertEqual(code, 2)
        self.assertIn("unknown generator", err)
        self.assertIn("no-such-workload", err)

    def test_bad_config_file_exits_nonzero_naming_the_key(self):
        doc = spec_config()
        del doc["params"]["regions"]
        path = os.path.join(self.tmp.name, "bad.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        code, err = self.run_bench(path)
        self.assertEqual(code, 2)
        self.assertIn("regions", err)

    def test_missing_config_file_exits_nonzero(self):
        code, err = self.run_bench(
            os.path.join(self.tmp.name, "absent.json"))
        self.assertEqual(code, 2)
        self.assertIn("absent.json", err)

    def test_special_character_name_round_trips_through_every_dump(self):
        # A quote, a backslash, a tab and a non-ASCII character: every dump
        # must stay valid JSON and give the name back unchanged.
        name = 'a "quoted" \\ name\t\u00e9'
        path = os.path.join(self.tmp.name, "named.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(spec_config(name=name), f)
        outputs = {flag: os.path.join(self.tmp.name, flag[2:] + ".json")
                   for flag in ("--json", "--metrics", "--snapshots")}
        args = [a for flag, out in outputs.items() for a in (flag, out)]
        proc = subprocess.run(
            [BENCH_BIN, "--runs", "1", "--txs-scale", "0.01", "--jobs", "2",
             "--workload", path, *args],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for flag, out in outputs.items():
            with self.subTest(flag=flag):
                with open(out, encoding="utf-8") as f:
                    doc = json.load(f)
                self.assertTrue(doc["results"])
                for run in doc["results"]:
                    self.assertEqual(run["workload"], name)

    def test_recorded_trace_keeps_a_quoted_type_name_and_replays(self):
        doc = spec_config(name='rec "name"\t\u00e9')
        doc["params"]["types"][0]["name"] = 'look"up'
        path = os.path.join(self.tmp.name, "rec_spec.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        trace = os.path.join(self.tmp.name, "rec.json")
        proc = subprocess.run(
            [BENCH_BIN, "--runs", "1", "--txs-scale", "0.01", "--jobs", "1",
             "--workload", path, "--record", trace],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        with open(trace, encoding="utf-8") as f:
            recorded = json.load(f)
        self.assertEqual(recorded["type_names"], ['look"up'])
        self.assertEqual(recorded["workload"], doc["name"])
        replayed = os.path.join(self.tmp.name, "replay.json")
        proc = subprocess.run(
            [BENCH_BIN, "--runs", "1", "--txs-scale", "0.01", "--jobs", "1",
             "--workload", trace, "--json", replayed],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        with open(replayed, encoding="utf-8") as f:
            runs = json.load(f)["results"]
        self.assertTrue(runs)
        for run in runs:
            self.assertEqual(run["workload"], "replay:" + doc["name"])

    def test_per_thread_line_space_past_2pow32_exits_nonzero(self):
        # 2^30 lines per thread fit up to four threads; the sweep's 5-thread
        # cells would wrap the line ids, so the exhibit stops with the
        # named error instead.
        doc = spec_config()
        doc["params"]["regions"] = [
            {"name": "r", "lines": 1073741824, "per_thread": True}]
        path = os.path.join(self.tmp.name, "wide.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        code, err = self.run_bench(path)
        self.assertEqual(code, 2)
        self.assertIn("at 5 thread(s)", err)


if __name__ == "__main__":
    unittest.main()
