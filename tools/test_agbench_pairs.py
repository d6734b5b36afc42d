#!/usr/bin/env python3
"""Unit tests for tools/agbench_pairs.py on canned run lines (stdlib only).

Covers parsing agbench/run.py's last output line, quartiles, the
per-metric medians/IQR/ratio, the claimed metric's win fraction for
higher- and lower-is-better metrics, the fast/slow run modes, the
default output name per seed, and the source-tree identity of a dirty
checkout (in a throwaway git repository).

Run directly or via ctest (agbench_pairs.selftest).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import agbench_pairs  # noqa: E402

METRICS = [
    {"name": "chip_steps_per_s", "better": "higher"},
    {"name": "op_ms_p50", "better": "lower"},
]


def run_line(steps, p50, correct=True):
    return "build noise\n" + json.dumps({
        "correct": correct, "attempted": 10, "failed": 0,
        "metrics": {"chip_steps_per_s": {"value": steps, "unit": "1/s"},
                    "op_ms_p50": {"value": p50, "unit": "ms"}}})


class ParseTest(unittest.TestCase):
    def test_last_line_is_the_result(self):
        run = agbench_pairs.parse_run_line(run_line(1.5e6, 7.0))
        self.assertEqual(run, {"chip_steps_per_s": 1.5e6, "op_ms_p50": 7.0})

    def test_incorrect_run_is_rejected(self):
        with self.assertRaises(ValueError):
            agbench_pairs.parse_run_line(run_line(1.0, 1.0, correct=False))

    def test_empty_output_is_rejected(self):
        with self.assertRaises(ValueError):
            agbench_pairs.parse_run_line("\n")


class QuantileTest(unittest.TestCase):
    def test_interpolates(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(agbench_pairs.quantile(xs, 0.5), 2.5)
        self.assertEqual(agbench_pairs.quantile(xs, 0.25), 1.75)
        self.assertEqual(agbench_pairs.quantile([5.0], 0.75), 5.0)


class SummarizeTest(unittest.TestCase):
    def setUp(self):
        lines = [(1.00e6, 8.0, 1.30e6, 6.0),
                 (0.90e6, 13.0, 1.10e6, 9.0),
                 (1.10e6, 8.5, 1.00e6, 6.5),
                 (1.00e6, 8.2, 1.25e6, 6.2)]
        self.parent = [agbench_pairs.parse_run_line(run_line(a, b))
                       for a, b, _, _ in lines]
        self.change = [agbench_pairs.parse_run_line(run_line(c, d))
                       for _, _, c, d in lines]
        self.result = agbench_pairs.summarize(
            self.parent, self.change, METRICS, "chip_steps_per_s")

    def test_medians_iqr_and_ratio(self):
        steps = self.result["metrics"]["chip_steps_per_s"]
        self.assertEqual(steps["parent"]["median"], 1.00e6)
        self.assertEqual(steps["change"]["median"], 1.175e6)
        self.assertAlmostEqual(steps["parent"]["iqr"], 0.05e6)
        self.assertAlmostEqual(steps["ratio"], 1.175)

    def test_win_fraction_follows_the_better_direction(self):
        self.assertEqual(
            self.result["metrics"]["chip_steps_per_s"]["win_fraction"], 0.75)
        self.assertEqual(
            self.result["metrics"]["op_ms_p50"]["win_fraction"], 1.0)
        claim = self.result["claim"]
        self.assertEqual(claim["metric"], "chip_steps_per_s")
        self.assertEqual(claim["win_fraction"], 0.75)
        self.assertTrue(claim["beyond_parent_iqr"])

    def test_slow_runs_are_marked(self):
        modes = [(r["parent_mode"], r["change_mode"])
                 for r in self.result["runs"]]
        self.assertEqual(modes, [("F", "F"), ("S", "S"), ("F", "F"),
                                 ("F", "F")])
        self.assertEqual(self.result["pairs"], 4)

    def test_uneven_sides_are_rejected(self):
        with self.assertRaises(ValueError):
            agbench_pairs.summarize(self.parent, self.change[:2], METRICS,
                                    None)

    def test_unknown_claim_is_rejected(self):
        with self.assertRaises(ValueError):
            agbench_pairs.summarize(self.parent, self.change, METRICS,
                                    "cpu_s")


class OutputNameTest(unittest.TestCase):
    def test_seed_one_keeps_the_plain_name(self):
        self.assertEqual(agbench_pairs.default_out("fig_sweep", 1),
                         "BENCH_fig_sweep.json")
        self.assertEqual(agbench_pairs.default_out("fig_sweep", 2),
                         "BENCH_fig_sweep_seed2.json")


@unittest.skipIf(shutil.which("git") is None, "git not installed")
class SourceTreesTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = self.tmp.name
        self.git("init", "-q")
        self.write("src/a.cc", "int a;\n")
        self.write("agbench/b.cc", "int b;\n")
        self.write("README", "top\n")
        self.commit()

    def tearDown(self):
        self.tmp.cleanup()

    def git(self, *args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t"] +
            list(args), cwd=self.root, capture_output=True, text=True,
            check=True).stdout.strip()

    def write(self, path, text):
        full = os.path.join(self.root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as f:
            f.write(text)

    def commit(self):
        self.git("add", "-A")
        self.git("commit", "-q", "-m", "c")

    def committed(self):
        return {d: self.git("rev-parse", "HEAD:" + d)
                for d in agbench_pairs.SOURCE_DIRS}

    def test_clean_tree_matches_head(self):
        self.assertEqual(agbench_pairs.source_trees(self.root),
                         self.committed())

    def test_dirty_tree_matches_the_commit_made_of_it(self):
        self.write("src/a.cc", "int a = 1;\n")
        self.write("src/new.h", "#pragma once\n")
        self.write("README", "edited outside the source dirs\n")
        before = self.committed()
        trees = agbench_pairs.source_trees(self.root)
        self.assertNotEqual(trees["src"], before["src"])
        self.assertEqual(trees["agbench"], before["agbench"])
        # The repository's own index is untouched (nothing staged).
        self.assertEqual(self.git("status", "--porcelain", "--", "src"),
                         "M src/a.cc\n?? src/new.h")
        self.commit()
        self.assertEqual(trees, self.committed())

    def test_outside_git_is_none(self):
        with tempfile.TemporaryDirectory() as plain:
            self.assertIsNone(agbench_pairs.source_trees(plain))


if __name__ == "__main__":
    unittest.main()
