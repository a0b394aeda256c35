#!/usr/bin/env python3
"""Subprocess tests for every binary's numeric flags (stdlib unittest).

The paper exhibits, seer_serve and seer_inspect all parse their numeric
flags with src/util/cli.hpp. A value that is not a number, has trailing
characters, is not finite or lies outside the flag's range must exit 2
with a diagnostic naming the flag, before any output is written; so must a
flag with no value. A valid value must be accepted.

Needs compiled binaries, so it runs under ctest (tests/CMakeLists.txt
passes the paths via the environment); a binary whose variable is unset is
skipped. Run by hand with:

    SEER_BENCH_BIN=build/bench/fig3_speedup \
    SEER_SERVE_BIN=build/tools/seer_serve \
    SEER_INSPECT_BIN=build/tools/seer_inspect \
    python3 scripts/test_bench_flags.py -v
"""

import json
import os
import subprocess
import tempfile
import unittest

BENCH_BIN = os.environ.get("SEER_BENCH_BIN", "")
SERVE_BIN = os.environ.get("SEER_SERVE_BIN", "")
INSPECT_BIN = os.environ.get("SEER_INSPECT_BIN", "")

# The cheapest real run: one seed of one small workload.
SMALL = ["--runs", "1", "--txs-scale", "0.01", "--jobs", "1", "--workload", "genome"]

# flag -> (bad values, a good value); None skips the good run.
CASES = {
    "--runs": (["-3", "0", "abc", "2x", "", "1.5", "10001", "99999999999"], "1"),
    "--txs-scale": (["abc", "0", "-0.5", "nan", "inf", "1e9", "0.5x", ""], "0.01"),
    "--jobs": (["garbage", "-1", "1025", "4 ", ""], "1"),
    "--seed": (["-1", "abc", "18446744073709551616", "7.5", ""], "18446744073709551615"),
}

SERVE_CASES = {
    "--workers": (["abc", "2x", "-1", "0", "257", "1.5", "inf", ""], "2"),
    "--jobs": (["abc", "-1", "1025", "4 ", "nan", ""], "0"),
    "--seed": (["xyz", "-1", "18446744073709551616", "7.5", ""], "18446744073709551615"),
    "--rate": (["abc", "0", "-5", "inf", "nan", "1e999", "1e9", "100x", ""], "1234"),
    "--duration": (["abc", "0", "-1", "inf", "nan", "86401", "0.1s", ""], "0.05"),
    "--storm-enter": (["0", "1.5", "nan", "x", ""], "0.5"),
    "--storm-decay": (["-0.1", "2", "inf", "0.5.0", ""], "1"),
    "--update-period": (["0", "-3", "abc", "1e3", ""], "64"),
    # A good --listen would start the exporter; its own tests cover that.
    "--listen": (["-1", "65536", "80x", "nan", ""], None),
}

INSPECT_CASES = {
    "--pairs": (["abc", "0", "-1", "2x", "1000001", "inf", ""], "3"),
    "--gt-threshold": (["abc", "-0.5", "nan", "inf", "1001", ""], "0.05"),
    "--stable-eps": (["x", "-1", "2", "nan", ""], "0"),
    # A good --watch needs a live endpoint and runs until interrupted.
    "--watch": (["0", "-1", "inf", "nan", "1x", "86401", ""], None),
}

SERVE_CONFIG = {
    "generator": "spec",
    "name": "flags",
    "params": {
        "think_mean": 0,
        "regions": [{"name": "hot", "lines": 64}],
        "types": [{"name": "get", "duration_mean": 300,
                   "accesses": [{"region": "hot", "reads": 2, "writes": 1}]}],
        "mix": [1],
    },
    "open_loop": {"rate": 2000, "duration_s": 0.05, "workers": 1,
                  "cycles_per_us": 1.0},
}


class FlagCheck:
    """Shared checks; subclasses define command(flag, value)."""

    output = None  # a file the binary writes on a run that starts

    def run_cmd(self, args):
        return subprocess.run(args, capture_output=True, text=True, timeout=120,
                              check=False)

    def expect_rejected(self, flag, value):
        proc = self.run_cmd(self.command(flag, value))
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn(flag, proc.stderr)
        self.assertEqual(proc.stdout, "", "no run may start on a bad flag")
        if self.output is not None:
            self.assertFalse(os.path.exists(self.output), "a rejected run wrote output")

    def check_cases(self, cases):
        for flag, (bad, good) in cases.items():
            for value in bad:
                with self.subTest(flag=flag, value=value):
                    self.expect_rejected(flag, value)
            if good is not None:
                with self.subTest(flag=flag, value=good):
                    proc = self.run_cmd(self.command(flag, good))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    if self.output is not None and os.path.exists(self.output):
                        os.remove(self.output)

    def check_missing_values(self, cases):
        for flag in cases:
            with self.subTest(flag=flag):
                proc = self.run_cmd(self.command(flag, None))
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn(flag, proc.stderr)
                self.assertEqual(proc.stdout, "")


@unittest.skipUnless(os.access(BENCH_BIN, os.X_OK),
                     "SEER_BENCH_BIN not set or not executable")
class BenchFlagsTest(FlagCheck, unittest.TestCase):

    def command(self, flag, value):
        if value is None:
            return [BENCH_BIN, flag]
        return [BENCH_BIN, *SMALL, flag, value]

    def test_runs(self):
        self.check_cases({"--runs": CASES["--runs"]})

    def test_txs_scale(self):
        self.check_cases({"--txs-scale": CASES["--txs-scale"]})

    def test_jobs(self):
        self.check_cases({"--jobs": CASES["--jobs"]})

    def test_seed(self):
        self.check_cases({"--seed": CASES["--seed"]})

    def test_missing_value_names_the_flag(self):
        self.check_missing_values(CASES)


@unittest.skipUnless(os.access(SERVE_BIN, os.X_OK),
                     "SEER_SERVE_BIN not set or not executable")
class ServeFlagsTest(FlagCheck, unittest.TestCase):

    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.config = os.path.join(tmp.name, "serve.json")
        with open(self.config, "w", encoding="utf-8") as f:
            json.dump(SERVE_CONFIG, f)
        self.output = os.path.join(tmp.name, "out.jsonl")

    def command(self, flag, value):
        base = [SERVE_BIN, "--workload", self.config, "--deterministic",
                "--out", self.output]
        return [*base, flag] if value is None else [*base, flag, value]

    def test_numeric_flags(self):
        self.check_cases(SERVE_CASES)

    def test_missing_value_names_the_flag(self):
        self.check_missing_values(SERVE_CASES)


@unittest.skipUnless(os.access(INSPECT_BIN, os.X_OK),
                     "SEER_INSPECT_BIN not set or not executable")
class InspectFlagsTest(FlagCheck, unittest.TestCase):

    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        # An empty but well-formed --snapshots dump: enough for a good run.
        self.dump = os.path.join(tmp.name, "snapshots.json")
        with open(self.dump, "w", encoding="utf-8") as f:
            json.dump({"version": 1, "exhibit": "flags", "results": []}, f)

    def command(self, flag, value):
        base = [INSPECT_BIN, self.dump]
        return [*base, flag] if value is None else [*base, flag, value]

    def test_numeric_flags(self):
        self.check_cases(INSPECT_CASES)

    def test_missing_value_names_the_flag(self):
        self.check_missing_values(INSPECT_CASES)


if __name__ == "__main__":
    unittest.main()
