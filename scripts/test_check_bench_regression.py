#!/usr/bin/env python3
"""Tests for check_bench_regression.py (stdlib unittest; run directly or via
`python3 -m unittest` — CI runs it in the build-test job)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def smoke_doc(records):
    """records: list of (workload, policy, threads, seed, cpm) tuples."""
    return {
        "exhibit": "test_exhibit",
        "runs": 1,
        "results": [
            {"workload": w, "policy": p, "threads": t, "seed": s,
             "commits_per_mcycle": cpm}
            for (w, p, t, s, cpm) in records
        ],
    }


def gbench_doc(entries, executable="/build/bench/micro_htm"):
    """entries: list of benchmark-entry dicts (google-benchmark schema)."""
    return {
        "context": {"executable": executable, "num_cpus": 4},
        "benchmarks": entries,
    }


def gbench_run(name, ips, **extra):
    """One raw (non-aggregate) google-benchmark iteration entry."""
    entry = {"name": name, "run_name": name, "run_type": "iteration",
             "real_time": 1.0, "cpu_time": 1.0, "time_unit": "ns",
             "items_per_second": ips}
    entry.update(extra)
    return entry


def serve_doc(steps, workload="serve-smoke", policy="RTM",
              mode="deterministic"):
    """steps: list of (offered_rate, p99_ns, rejected_fraction) tuples."""
    return {
        "serve_summary": 1,
        "workload": workload, "policy": policy, "mode": mode,
        "process": "poisson", "workers": 2, "duration_s": 3.0, "seed": 1,
        "knee_rate": 0, "saturated": False, "worst_p99_ns": 0,
        "steps": [
            {"offered_rate": r, "throughput_rps": r, "rejected_fraction": rf,
             "completed": 100, "mean_ns": p99 / 2, "p50_ns": p99 // 4,
             "p90_ns": p99 // 2, "p99_ns": p99, "p999_ns": p99 * 2,
             "max_ns": p99 * 3, "queue_depth_peak": 4, "sgl_fraction": 0.0}
            for (r, p99, rf) in steps
        ],
    }


def gbench_median(run_name, ips):
    """A median aggregate entry, as --benchmark_repetitions emits."""
    return gbench_run(f"{run_name}_median", ips, run_name=run_name,
                      run_type="aggregate", aggregate_name="median")


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def run_check(self, *argv):
        proc = subprocess.run(
            [sys.executable, SCRIPT, *argv],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def make_baseline(self, smoke_path, name="baseline.json"):
        baseline = os.path.join(self.tmp.name, name)
        code, out = self.run_check("--baseline", baseline, "--update",
                                   smoke_path)
        self.assertEqual(code, 0, out)
        return baseline

    def test_identical_records_pass(self):
        smoke = self.write("smoke.json",
                           smoke_doc([("genome", "Seer", 8, 1000, 5.0)]))
        baseline = self.make_baseline(smoke)
        code, out = self.run_check("--baseline", baseline, smoke)
        self.assertEqual(code, 0, out)
        self.assertIn("ok: no regressions", out)

    def test_regression_fails_with_message(self):
        base_smoke = self.write("base.json",
                                smoke_doc([("genome", "Seer", 8, 1000, 5.0)]))
        baseline = self.make_baseline(base_smoke)
        bad = self.write("bad.json",
                         smoke_doc([("genome", "Seer", 8, 1000, 4.0)]))
        code, out = self.run_check("--baseline", baseline, bad)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_tolerance_flag_loosens_gate(self):
        base_smoke = self.write("base.json",
                                smoke_doc([("genome", "Seer", 8, 1000, 5.0)]))
        baseline = self.make_baseline(base_smoke)
        bad = self.write("bad.json",
                         smoke_doc([("genome", "Seer", 8, 1000, 4.0)]))
        code, out = self.run_check("--baseline", baseline,
                                   "--tolerance", "0.5", bad)
        self.assertEqual(code, 0, out)
        # --threshold stays as a compatibility alias.
        code, out = self.run_check("--baseline", baseline,
                                   "--threshold", "0.5", bad)
        self.assertEqual(code, 0, out)

    def test_cell_missing_from_smoke_fails_clearly(self):
        base_smoke = self.write("base.json", smoke_doc([
            ("genome", "Seer", 8, 1000, 5.0),
            ("genome", "HLE", 8, 1000, 3.0),
        ]))
        baseline = self.make_baseline(base_smoke)
        partial = self.write("partial.json",
                             smoke_doc([("genome", "Seer", 8, 1000, 5.0)]))
        code, out = self.run_check("--baseline", baseline, partial)
        self.assertEqual(code, 1, out)
        self.assertIn("MISSING", out)
        self.assertIn("HLE", out)
        self.assertNotIn("Traceback", out)

    def test_cell_missing_from_baseline_fails_clearly(self):
        base_smoke = self.write("base.json",
                                smoke_doc([("genome", "Seer", 8, 1000, 5.0)]))
        baseline = self.make_baseline(base_smoke)
        extra = self.write("extra.json", smoke_doc([
            ("genome", "Seer", 8, 1000, 5.0),
            ("intruder", "Seer", 8, 1000, 2.0),
        ]))
        code, out = self.run_check("--baseline", baseline, extra)
        self.assertEqual(code, 1, out)
        self.assertIn("MISSING", out)
        self.assertIn("intruder", out)

    def test_allow_missing_restores_subset_checks(self):
        base_smoke = self.write("base.json", smoke_doc([
            ("genome", "Seer", 8, 1000, 5.0),
            ("genome", "HLE", 8, 1000, 3.0),
        ]))
        baseline = self.make_baseline(base_smoke)
        partial = self.write("partial.json",
                             smoke_doc([("genome", "Seer", 8, 1000, 5.0)]))
        code, out = self.run_check("--baseline", baseline,
                                   "--allow-missing", partial)
        self.assertEqual(code, 0, out)
        self.assertIn("note:", out)

    def test_malformed_record_is_usage_error_not_traceback(self):
        doc = smoke_doc([("genome", "Seer", 8, 1000, 5.0)])
        del doc["results"][0]["commits_per_mcycle"]
        smoke = self.write("broken.json", doc)
        code, out = self.run_check(smoke)
        self.assertEqual(code, 2, out)
        self.assertIn("commits_per_mcycle", out)
        self.assertNotIn("Traceback", out)

    def test_non_numeric_metric_is_usage_error(self):
        doc = smoke_doc([("genome", "Seer", 8, 1000, 5.0)])
        doc["results"][0]["commits_per_mcycle"] = "fast"
        smoke = self.write("broken.json", doc)
        code, out = self.run_check(smoke)
        self.assertEqual(code, 2, out)
        self.assertIn("non-numeric", out)

    def test_unreadable_smoke_file_is_usage_error(self):
        code, out = self.run_check(os.path.join(self.tmp.name, "absent.json"))
        self.assertEqual(code, 2, out)
        self.assertIn("cannot read", out)

    # ---- google-benchmark JSON (micro_htm smoke) -------------------------

    def test_gbench_roundtrip_passes(self):
        smoke = self.write("htm.json", gbench_doc([
            gbench_run("BM_MtReadHeavy/real_time/threads:4", 170e6),
            gbench_run("BM_MtWriteHeavy/real_time/threads:4", 50e6),
        ]))
        baseline = self.make_baseline(smoke, "baseline_htm.json")
        code, out = self.run_check("--baseline", baseline, smoke)
        self.assertEqual(code, 0, out)
        self.assertIn("ok: no regressions", out)

    def test_gbench_regression_fails_and_names_the_instance(self):
        base = self.write("base.json", gbench_doc(
            [gbench_run("BM_MtReadHeavy/real_time/threads:4", 170e6)]))
        baseline = self.make_baseline(base, "baseline_htm.json")
        bad = self.write("bad.json", gbench_doc(
            [gbench_run("BM_MtReadHeavy/real_time/threads:4", 100e6)]))
        code, out = self.run_check("--baseline", baseline, bad)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)
        self.assertIn("micro_htm|BM_MtReadHeavy/real_time/threads:4", out)

    def test_gbench_prefers_median_aggregates_over_repetitions(self):
        # Repetition entries include one wild outlier; the median aggregate
        # is what must be gated (keyed by run_name, no _median suffix).
        base = self.write("base.json", gbench_doc(
            [gbench_run("BM_MtReadHeavy/threads:4", 170e6)]))
        baseline = self.make_baseline(base, "baseline_htm.json")
        reps = self.write("reps.json", gbench_doc([
            gbench_run("BM_MtReadHeavy/threads:4", 1e6),  # outlier rep
            gbench_run("BM_MtReadHeavy/threads:4", 169e6),
            gbench_run("BM_MtReadHeavy/threads:4", 171e6),
            gbench_median("BM_MtReadHeavy/threads:4", 169e6),
        ]))
        code, out = self.run_check("--baseline", baseline, reps)
        self.assertEqual(code, 0, out)
        self.assertIn("checked 1 records", out)

    def test_gbench_missing_instance_fails_clearly(self):
        base = self.write("base.json", gbench_doc([
            gbench_run("BM_MtReadHeavy/threads:4", 170e6),
            gbench_run("BM_MtReadWide/threads:4", 100e6),
        ]))
        baseline = self.make_baseline(base, "baseline_htm.json")
        partial = self.write("partial.json", gbench_doc(
            [gbench_run("BM_MtReadHeavy/threads:4", 170e6)]))
        code, out = self.run_check("--baseline", baseline, partial)
        self.assertEqual(code, 1, out)
        self.assertIn("MISSING", out)
        self.assertIn("BM_MtReadWide", out)

    def test_gbench_entry_without_items_per_second_is_usage_error(self):
        entry = gbench_run("BM_MtReadHeavy/threads:4", 170e6)
        del entry["items_per_second"]
        smoke = self.write("broken.json", gbench_doc([entry]))
        code, out = self.run_check(smoke)
        self.assertEqual(code, 2, out)
        self.assertIn("items_per_second", out)
        self.assertNotIn("Traceback", out)

    # ---- serve summary JSON (seer-serve latency gate) --------------------

    def test_serve_roundtrip_passes(self):
        smoke = self.write("serve.json", serve_doc(
            [(2000, 500_000, 0.0), (4000, 2_000_000, 0.01)]))
        baseline = self.make_baseline(smoke, "baseline_serve.json")
        code, out = self.run_check("--baseline", baseline, smoke)
        self.assertEqual(code, 0, out)
        self.assertIn("ok: no regressions", out)
        self.assertIn("checked 4 records", out)  # p99 + rejected per step

    def test_serve_p99_increase_is_a_regression(self):
        base = self.write("base.json", serve_doc([(2000, 500_000, 0.0)]))
        baseline = self.make_baseline(base, "baseline_serve.json")
        slow = self.write("slow.json", serve_doc([(2000, 700_000, 0.0)]))
        code, out = self.run_check("--baseline", baseline, slow)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)
        self.assertIn("rate2000|p99_ns", out)
        self.assertIn("+", out)  # reported as a rise, not a drop

    def test_serve_p99_decrease_passes(self):
        # Lower latency must never trip the (inverted) gate.
        base = self.write("base.json", serve_doc([(2000, 500_000, 0.0)]))
        baseline = self.make_baseline(base, "baseline_serve.json")
        fast = self.write("fast.json", serve_doc([(2000, 100_000, 0.0)]))
        code, out = self.run_check("--baseline", baseline, fast)
        self.assertEqual(code, 0, out)

    def test_serve_rejected_fraction_floor_tolerates_stray_sheds(self):
        # Baseline sheds nothing; 0.4% shed stays under the 0.005 absolute
        # floor, 5% does not.
        base = self.write("base.json", serve_doc([(2000, 500_000, 0.0)]))
        baseline = self.make_baseline(base, "baseline_serve.json")
        few = self.write("few.json", serve_doc([(2000, 500_000, 0.004)]))
        code, out = self.run_check("--baseline", baseline, few)
        self.assertEqual(code, 0, out)
        many = self.write("many.json", serve_doc([(2000, 500_000, 0.05)]))
        code, out = self.run_check("--baseline", baseline, many)
        self.assertEqual(code, 1, out)
        self.assertIn("rejected_fraction", out)

    def test_serve_missing_rate_step_fails_clearly(self):
        base = self.write("base.json", serve_doc(
            [(2000, 500_000, 0.0), (4000, 2_000_000, 0.0)]))
        baseline = self.make_baseline(base, "baseline_serve.json")
        partial = self.write("partial.json",
                             serve_doc([(2000, 500_000, 0.0)]))
        code, out = self.run_check("--baseline", baseline, partial)
        self.assertEqual(code, 1, out)
        self.assertIn("MISSING", out)
        self.assertIn("rate4000", out)

    def test_serve_step_without_p99_is_usage_error(self):
        doc = serve_doc([(2000, 500_000, 0.0)])
        del doc["steps"][0]["p99_ns"]
        smoke = self.write("broken.json", doc)
        code, out = self.run_check(smoke)
        self.assertEqual(code, 2, out)
        self.assertIn("p99_ns", out)
        self.assertNotIn("Traceback", out)

    def test_serve_empty_steps_is_usage_error(self):
        smoke = self.write("empty.json", serve_doc([]))
        code, out = self.run_check(smoke)
        self.assertEqual(code, 2, out)
        self.assertIn("no steps", out)

    def test_gbench_and_exhibit_files_gate_together(self):
        exhibit = self.write("exhibit.json",
                             smoke_doc([("genome", "Seer", 8, 1000, 5.0)]))
        htm = self.write("htm.json", gbench_doc(
            [gbench_run("BM_MtReadHeavy/threads:4", 170e6)]))
        baseline = self.make_baseline(exhibit, "mixed.json")
        code, out = self.run_check("--baseline", baseline, "--update",
                                   exhibit, htm)
        self.assertEqual(code, 0, out)
        code, out = self.run_check("--baseline", baseline, exhibit, htm)
        self.assertEqual(code, 0, out)
        self.assertIn("checked 2 records", out)
        with open(baseline, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertEqual(doc["metric"],
                         "commits_per_mcycle+items_per_second")


if __name__ == "__main__":
    unittest.main()
