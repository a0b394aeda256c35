#!/usr/bin/env python3
"""Subprocess tests for tools/seer_serve (stdlib unittest).

The contract under test is the serving harness's reproducibility story:
`--deterministic` must produce byte-identical JSONL across repeated runs and
across `--jobs`, bad configs must exit 2 with a diagnostic naming the
problem, and the emitted stream must satisfy scripts/process_serve_logs.py's
validator end to end.

Needs the compiled binary, so it runs under ctest (tests/CMakeLists.txt
passes the path via environment). Run by hand with:

    SEER_SERVE_BIN=build/tools/seer_serve \
    python3 scripts/test_seer_serve.py -v
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SERVE_BIN = os.environ.get("SEER_SERVE_BIN", "")
PROCESS_LOGS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "process_serve_logs.py")


def serve_config(open_loop):
    """A small valid service config; `open_loop` is the traffic section."""
    doc = {
        "generator": "spec",
        "name": "serve-cli-test",
        "params": {
            "think_mean": 0,
            "regions": [{"name": "hot", "lines": 64, "zipf_skew": 0.9}],
            "types": [
                {"name": "lookup", "duration_mean": 300,
                 "accesses": [{"region": "hot", "reads": 4}]},
                {"name": "update", "duration_mean": 500,
                 "accesses": [{"region": "hot", "reads": 2, "writes": 2}]},
            ],
            "mix": [3, 1],
        },
    }
    if open_loop is not None:
        doc["open_loop"] = open_loop
    return doc


SMALL_OPEN_LOOP = {
    "rate": 5000, "duration_s": 0.3, "warmup_s": 0.05,
    "queue_capacity": 64, "workers": 2, "emit_interval_ms": 50,
    "cycles_per_us": 1.0,
    "bursts": [{"at_s": 0.15, "duration_s": 0.05, "multiplier": 3.0}],
}

SWEEP_OPEN_LOOP = {
    "sweep": {"rates": [500, 2000, 8000], "knee_p99_ms": 2.0},
    "duration_s": 0.2, "queue_capacity": 64, "workers": 1,
    "cycles_per_us": 1.0,
}


@unittest.skipUnless(os.access(SERVE_BIN, os.X_OK),
                     "SEER_SERVE_BIN not set or not executable")
class SeerServeCliTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write_config(self, open_loop, name="serve.json"):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(serve_config(open_loop), f)
        return path

    def run_serve(self, *args):
        proc = subprocess.run([SERVE_BIN, *args], capture_output=True,
                              text=True, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def serve_bytes(self, config, *args):
        """One deterministic run; returns the JSONL bytes from --out."""
        out = os.path.join(self.tmp.name, "out.jsonl")
        code, _, err = self.run_serve("--workload", config, "--deterministic",
                                      "--out", out, *args)
        self.assertEqual(code, 0, err)
        with open(out, "rb") as f:
            return f.read()

    def test_deterministic_runs_are_byte_identical(self):
        config = self.write_config(SMALL_OPEN_LOOP)
        first = self.serve_bytes(config, "--seed", "3")
        second = self.serve_bytes(config, "--seed", "3")
        self.assertEqual(first, second)
        # A different seed must actually change the sampled arrivals.
        self.assertNotEqual(first, self.serve_bytes(config, "--seed", "4"))

    def test_sweep_is_jobs_invariant(self):
        config = self.write_config(SWEEP_OPEN_LOOP)
        serial = self.serve_bytes(config, "--jobs", "1")
        threaded = self.serve_bytes(config, "--jobs", "4")
        self.assertEqual(serial, threaded)

    def test_stream_passes_the_log_processor(self):
        config = self.write_config(SWEEP_OPEN_LOOP)
        out = os.path.join(self.tmp.name, "sweep.jsonl")
        code, _, err = self.run_serve("--workload", config, "--deterministic",
                                      "--out", out)
        self.assertEqual(code, 0, err)
        proc = subprocess.run(
            [sys.executable, PROCESS_LOGS, out, "--check"],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("3 step(s)", proc.stdout)

    def test_special_character_name_keeps_every_line_valid(self):
        doc = serve_config(SMALL_OPEN_LOOP)
        doc["name"] = 'tab\there "quoted" \\ \u00e9'
        config = os.path.join(self.tmp.name, "named.json")
        with open(config, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        lines = self.serve_bytes(config).decode("utf-8").splitlines()
        self.assertGreater(len(lines), 2)
        parsed = [json.loads(line) for line in lines]
        self.assertEqual(parsed[0]["kind"], "serve_header")
        self.assertEqual(parsed[0]["workload"], doc["name"])

    def test_config_without_open_loop_exits_2(self):
        config = self.write_config(None)
        code, _, err = self.run_serve("--workload", config, "--deterministic")
        self.assertEqual(code, 2)
        self.assertIn("open_loop", err)

    def test_bad_open_loop_key_is_named(self):
        bad = dict(SMALL_OPEN_LOOP)
        bad["queue_cap"] = 64
        config = self.write_config(bad)
        code, _, err = self.run_serve("--workload", config, "--deterministic")
        self.assertEqual(code, 2)
        self.assertIn("queue_cap", err)

    def test_unknown_policy_exits_2(self):
        config = self.write_config(SMALL_OPEN_LOOP)
        code, _, err = self.run_serve("--workload", config, "--deterministic",
                                      "--policy", "Oracle9000")
        self.assertEqual(code, 2)
        self.assertIn("Oracle9000", err)

    def test_missing_workload_flag_is_a_usage_error(self):
        code, _, err = self.run_serve("--deterministic")
        self.assertEqual(code, 2)
        self.assertIn("--workload", err)

    def test_rate_override_replaces_the_config_rate(self):
        config = self.write_config(SMALL_OPEN_LOOP)
        out = os.path.join(self.tmp.name, "o.jsonl")
        code, _, err = self.run_serve("--workload", config, "--deterministic",
                                      "--rate", "1234", "--out", out)
        self.assertEqual(code, 0, err)
        with open(out, encoding="utf-8") as f:
            header = json.loads(f.readline())
        self.assertEqual(header["rates"], [1234])


if __name__ == "__main__":
    unittest.main()
