"""Self-test of the benchmark at toy sizes.

    python3 bench/selftest.py

Checks that every metric is emitted with its unit, that a planted wrong
reference trips the correctness gate, that a failing exact problem gives
a null time and counts as failed, and that a lost traced boundary fails
loudly.  Run from the repository root.
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from unittest import mock

import gate
import layers
import run
import tracer
import workloads
from workloads import Command

ROOT = os.getcwd()
TOY_SECONDS = 0.6


def toy(workload: str, trace: bool, refs=None) -> tuple[dict, dict]:
    return run.run(workload, 1, TOY_SECONDS, trace, ROOT, workloads.TOY, probes=1, refs=refs)


class Wrong(gate.References):
    """References with one value planted three times too large."""

    def __init__(self, function: str, ell: int):
        super().__init__()
        self.target = (function, ell)

    def expected(self, function, n, r, ell, init):
        value = super().expected(function, n, r, ell, init)
        return value * 3 if (function, ell) == self.target else value


class Emitted(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)
        cls.runs = {(w, t): toy(w, t) for w in workloads.WORKLOADS for t in (False, True)}

    def test_result_line_has_every_metric_with_its_unit(self):
        for (workload, trace), (line, _) in self.runs.items():
            wanted = self.spec["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                self.assertTrue(line["correct"])
                self.assertGreaterEqual(line["attempted"], 1)
                self.assertEqual(
                    {k: v["unit"] for k, v in line["metrics"].items()},
                    {m["name"]: m["unit"] for m in wanted},
                )
                for name, m in line["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_report_has_every_named_metric(self):
        e2e = {"setup_s", "wall_s", "wall_norm", "peak_rss_mb", "fail_ratio"}
        for (workload, trace), (_, full) in self.runs.items():
            names = set(full["metrics"])
            with self.subTest(workload=workload, trace=trace):
                if not trace:
                    self.assertLessEqual(e2e, names)
                    if workload == "sweep-ell":
                        self.assertIn("proposals_per_s", names)
                    if workload == "exact-ladder":
                        top = workloads.TOY.ladder[-1]
                        self.assertIn(f"exact_rss_mb.n{top}", names)
                        for n in workloads.TOY.ladder:
                            self.assertIn(f"exact_s.n{n}", names)
                else:
                    for metric in ("core.rng_setup_us", "ea.ns_per_proposal.ell2",
                                   "fitness.neutral_eval_us", "harness.self_s",
                                   "oracle.solve_gflop.n16", "cli.overhead_ms",
                                   "trace.overhead_ratio", "ea.runs"):
                        self.assertIn(metric, names)
                for name, m in full["metrics"].items():
                    self.assertTrue(m["unit"], name)
                self.assertTrue(full["manifest"]["commands"])

    def test_traced_boundaries_have_numbers(self):
        reached = {
            "sweep-ell": ("core.subset_draw_us.ell2", "ea.ns_per_proposal.ell10",
                          "fitness.level_eval_ns", "harness.csv_ms"),
            "ell1-batch": ("core.rng_setup_us", "ea.restart_extract_us",
                           "ea.ns_per_proposal.blocked", "fitness.block_eval_us",
                           "fitness.neutral_eval_us", "ea.run_fixed_us"),
            "exact-ladder": ("core.hypergeom_pmf_us", "oracle.solve_s.n16",
                             "oracle.kernel_build_s.n32", "oracle.residual.n32"),
        }
        for workload, names in reached.items():
            metrics = self.runs[(workload, True)][1]["metrics"]
            for name in names:
                with self.subTest(workload=workload, metric=name):
                    self.assertIsNotNone(metrics[name]["value"])
        sweep = self.runs[("sweep-ell", True)][1]["metrics"]
        self.assertIsNone(sweep["oracle.solve_s.n16"]["value"])
        self.assertEqual(sweep["core.hypergeom_calls"]["value"], 0)


class Gate(unittest.TestCase):
    def test_planted_wrong_reference_trips_the_simulation_gate(self):
        line, full = toy("sweep-ell", False, refs=Wrong("majority", 4))
        self.assertFalse(line["correct"])
        self.assertTrue(any(c.startswith("MISS") and "ell=4" in c for c in full["checks"]))

    def test_planted_wrong_reference_counts_an_exact_failure(self):
        line, full = toy("exact-ladder", False, refs=Wrong("plateau", 10))
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], len(workloads.TOY.ladder))
        self.assertIsNone(full["metrics"]["exact_s.n32"]["value"])

    def test_failing_exact_problem_gives_null_time_and_counts(self):
        groups = workloads.plan("exact-ladder", 1, workloads.TOY)
        bad = Command("exact", dict(function="majority", n=32, r=17, ell=3, init="ones=16"),
                      ("exact", "--function", "majority", "--n", "32", "--r", "17",
                       "--ell", "3", "--init", "ones=16"))
        groups[-1][0].append(bad)
        session = run.Session(ROOT, "exact-ladder", 1, False)
        try:
            results = run.measure(session, "exact-ladder", groups, TOY_SECONDS,
                                  workloads.TOY, trace=False)
        finally:
            session.close()
        outcome = run.check("exact-ladder", groups, results)
        _, report = run.end_to_end("exact-ladder", results, outcome, [0.1], workloads.TOY)
        self.assertTrue(outcome.correct)
        self.assertEqual((outcome.attempted, outcome.failed), (9, 1))
        self.assertIsNone(report["exact_s.n32"]["value"])
        self.assertIsNone(report["exact_rss_mb.n32"]["value"])
        self.assertIsNotNone(report["exact_s.n16"]["value"])
        self.assertAlmostEqual(report["fail_ratio"]["value"], 1 / 9)
        self.assertTrue(any("r=17" in note for note in outcome.notes))


class Tracing(unittest.TestCase):
    def test_unreached_boundary_fails_the_traced_run(self):
        results = [{"trace": {"crossed": ["cli.main", "oracle.kernel_build"]}}]
        with self.assertRaisesRegex(run.BenchError, "oracle.solve"):
            run.require_boundaries("exact-ladder", results)

    def test_missing_boundary_attribute_raises(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        bogus = (("harness.gone", "plateaulab.harness", "no_such_function", "span"),)
        with mock.patch.object(tracer, "BOUNDARIES", bogus):
            with self.assertRaises(AttributeError):
                tracer.install(tracer.Tracer("selftest"))

    def test_result_line_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(layers.RESULT_LINE))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))


if __name__ == "__main__":
    unittest.main(verbosity=2)
