#!/usr/bin/env python3
"""Subprocess tests for the exhibit binaries' numeric flags (stdlib unittest).

Every paper exhibit parses its flags in bench/common.hpp. A value that is
not a number, has trailing characters or lies outside the flag's range must
exit 2 with a diagnostic naming the flag, before any simulation runs; a
valid value must be accepted.

Needs a compiled exhibit, so it runs under ctest (tests/CMakeLists.txt
passes the path via the environment). Run by hand with:

    SEER_BENCH_BIN=build/bench/fig3_speedup python3 scripts/test_bench_flags.py -v
"""

import os
import subprocess
import unittest

BENCH_BIN = os.environ.get("SEER_BENCH_BIN", "")

# The cheapest real run: one seed of one small workload.
SMALL = ["--runs", "1", "--txs-scale", "0.01", "--jobs", "1", "--workload", "genome"]

# flag -> (bad values, a good value)
CASES = {
    "--runs": (["-3", "0", "abc", "2x", "", "1.5", "10001", "99999999999"], "1"),
    "--txs-scale": (["abc", "0", "-0.5", "nan", "inf", "1e9", "0.5x", ""], "0.01"),
    "--jobs": (["garbage", "-1", "1025", "4 ", ""], "1"),
    "--seed": (["-1", "abc", "18446744073709551616", "7.5", ""], "18446744073709551615"),
}


@unittest.skipUnless(os.access(BENCH_BIN, os.X_OK),
                     "SEER_BENCH_BIN not set or not executable")
class BenchFlagsTest(unittest.TestCase):

    def run_bench(self, *args):
        return subprocess.run([BENCH_BIN, *SMALL, *args], capture_output=True,
                              text=True, timeout=120, check=False)

    def check_flag(self, flag):
        bad, good = CASES[flag]
        for value in bad:
            with self.subTest(value=value):
                proc = self.run_bench(flag, value)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn(flag, proc.stderr)
                self.assertEqual(proc.stdout, "", "no run may start on a bad flag")
        proc = self.run_bench(flag, good)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_runs(self):
        self.check_flag("--runs")

    def test_txs_scale(self):
        self.check_flag("--txs-scale")

    def test_jobs(self):
        self.check_flag("--jobs")

    def test_seed(self):
        self.check_flag("--seed")

    def test_missing_value_names_the_flag(self):
        for flag in CASES:
            with self.subTest(flag=flag):
                proc = subprocess.run([BENCH_BIN, flag], capture_output=True, text=True,
                                      timeout=60, check=False)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn(flag, proc.stderr)


if __name__ == "__main__":
    unittest.main()
