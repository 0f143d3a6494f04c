"""Unit tests for the benchmark driver.

    python3 -m unittest discover -s perfbench/tests

They need no build: they cover the driver's own rules, not the simulator.
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

BENCHMARK_JSON = os.path.join(HERE, "..", "..", "BENCHMARK.json")


class MetricNames(unittest.TestCase):
    def test_every_name_and_unit_fits_the_charset(self):
        for name, unit in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(name, run.NAME_RE, name)
            self.assertRegex(unit, run.UNIT_RE, name)

    def test_names_are_unique(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))

    def test_charset_rejects_bad_names(self):
        for bad in ("", ".lead", "-lead", "has space", "x" * 65, "a/b", "é"):
            self.assertNotRegex(bad, run.NAME_RE, bad)
        for bad in ("", "x" * 17, "m s", "µs"):
            self.assertNotRegex(bad, run.UNIT_RE, bad)

    def test_benchmark_json_declares_what_the_driver_prints(self):
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
        declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        self.assertEqual(declared, run.END_TO_END)
        declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(declared, run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        # setup_s carries the largest bound.
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class ReportedPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.reported_percentile(0))
        self.assertIsNone(run.reported_percentile(19))
        self.assertEqual(run.reported_percentile(20), 0.5)
        self.assertEqual(run.reported_percentile(39), 0.5)
        self.assertEqual(run.reported_percentile(40), 0.75)
        self.assertEqual(run.reported_percentile(99), 0.75)
        self.assertEqual(run.reported_percentile(100), 0.9)
        self.assertEqual(run.reported_percentile(200), 0.95)
        self.assertEqual(run.reported_percentile(1000), 0.99)

    def test_leaves_at_least_ten_samples_beyond(self):
        for n in range(20, 2000, 7):
            p = run.reported_percentile(n)
            self.assertGreaterEqual(n * (1 - p), 10 - 1e-9, n)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 0.5), 50)
        self.assertEqual(run.percentile(values, 0.9), 90)
        self.assertEqual(run.percentile([3.0], 0.99), 3.0)


class FailFrac(unittest.TestCase):
    def test_counts_failures_against_attempts(self):
        t = run.Tally()
        self.assertEqual(t.fail_frac(), 0.0)
        self.assertTrue(t.check(True, "a"))
        self.assertFalse(t.check(False, "b"))
        t.check(True, "c")
        t.check(False, "d")
        self.assertEqual((t.attempted, t.failed), (4, 2))
        self.assertEqual(t.fail_frac(), 0.5)
        self.assertEqual(t.failures, ["b", "d"])

    def check_outputs(self, files, code=0, workload="paper"):
        """Tally check_outputs over a directory holding `files`, copied from
        the committed results unless given as text."""
        repo = os.path.join(HERE, "..", "..")
        t = run.Tally()
        with tempfile.TemporaryDirectory() as out:
            for name, text in files.items():
                if text is None:
                    with open(os.path.join(repo, "results", name), "rb") as f:
                        text = f.read()
                with open(os.path.join(out, name), "wb") as f:
                    f.write(text if isinstance(text, bytes) else text.encode())
            cwd = os.getcwd()
            os.chdir(repo)
            try:
                run.check_outputs(t, workload, 1, out, None, code)
            finally:
                os.chdir(cwd)
        return t

    def test_complete_outputs_pass(self):
        t = self.check_outputs({n: None for n in run.expected_artifacts("paper")})
        self.assertEqual(t.failed, 0, t.failures)
        # exit + one presence and one byte check per artifact + two check
        # lines for each of the three table reports.
        self.assertEqual(t.attempted, 1 + 2 * len(run.expected_artifacts("paper")) + 6)

    def test_missing_artifact_and_exit_code_fail(self):
        files = {n: None for n in run.expected_artifacts("paper")}
        del files["fig02-escat-read-timeline.csv"]
        t = self.check_outputs(files, code=101)
        self.assertEqual(t.failed, 2, t.failures)
        self.assertIn("exit code 101", t.failures)

    def test_incomplete_check_line_fails(self):
        files = {n: None for n in run.expected_artifacts("paper")}
        files["render.txt"] = "-- 9/10 within tolerance\n-- 4/4 shape claims hold\n"
        t = self.check_outputs(files)
        # The byte comparison and the tolerance line both fail.
        self.assertEqual(t.failed, 2, t.failures)

    def test_chaos_needs_zero_violations(self):
        t = self.check_outputs({"chaos.txt": "invariant violations: 2 of 50 cells\n",
                                "chaos.csv": "x\n"}, workload="chaos")
        self.assertIn("chaos invariant violations", t.failures)

    def test_paper_err_max_of_committed_results(self):
        repo = os.path.join(HERE, "..", "..")
        err, n = run.paper_err_max(os.path.join(repo, "results"))
        self.assertEqual(n, run.PAPER_CHECKS)
        self.assertAlmostEqual(err, 0.028)


class SeedPlumbing(unittest.TestCase):
    def test_seed_reaches_chaos_only(self):
        cmd = run.repro_command("repro", "chaos", 7, "out")
        self.assertEqual(cmd[cmd.index("--chaos-seed") + 1], "7")
        self.assertEqual(cmd[cmd.index("--cells") + 1], str(run.CHAOS_CELLS))
        for workload in ("paper", "repro-all"):
            a = run.repro_command("repro", workload, 1, "out")
            b = run.repro_command("repro", workload, 2, "out")
            self.assertEqual(a, b)
            self.assertNotIn("--chaos-seed", a)

    def test_same_seed_same_command(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.repro_command("r", workload, 5, "o"),
                             run.repro_command("r", workload, 5, "o"))
            self.assertEqual(run.tracer_command("t", "run", workload, 5, "o"),
                             run.tracer_command("t", "run", workload, 5, "o"))

    def test_tracer_gets_the_seed(self):
        cmd = run.tracer_command("t", "setup", "chaos", 9)
        self.assertEqual(cmd, ["t", "setup", "chaos", "--seed", "9"])

    def test_jobs_fixed_and_within_two_cores(self):
        for workload, spec in run.WORKLOADS.items():
            cmd = run.repro_command("repro", workload, 1, "out")
            self.assertEqual(cmd[cmd.index("--jobs") + 1], str(spec["jobs"]))
            self.assertLessEqual(spec["jobs"], 2)

    def test_perf_counters_parse(self):
        stdout = ("== perf counters ==\nsimulated runs           77\n"
                  "engine events            5796151\nevent heap peak          5189\n"
                  "burst-log stall          1.5 ms\n")
        counts = run.parse_perf(stdout)
        self.assertEqual(counts["runner.tasks"], 77)
        self.assertEqual(counts["engine.events"], 5796151)
        self.assertEqual(counts["engine.heap_peak"], 5189)
        self.assertEqual(counts["blog.stall_ns"], 1.5e6)


if __name__ == "__main__":
    unittest.main()
