#!/usr/bin/env python3
"""bench/compare_bench.py on fixture BENCH documents: the parity gate over
each document's outcome list, the timing bound, the speedup gate and the
per-cell config, checked by the script's exit status."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "bench", "compare_bench.py")


def document(times=(0.5, 1.0)):
    rows = [{"series": "SARD", "point": point, "dataset": "CHD",
             "served": 31, "travel_cost": 6379.078155,
             "shard_sp_queries": [900, 668], "running_time_s": t,
             "shard_round_time_max_over_mean": 1.2}
            for point, t in zip(("shards=1", "NYC shards=4 t8"), times)]
    return {"bench": "abl_fixture", "rows": rows,
            "outcome_fields": ["served", "travel_cost", "shard_sp_queries"]}


class CompareBenchTest(unittest.TestCase):
    def compare(self, base_doc, cand_doc, *flags, config=None, extra=None):
        with tempfile.TemporaryDirectory() as tmp:
            for name, doc in (("base", base_doc), ("cand", cand_doc)):
                os.makedirs(os.path.join(tmp, name))
                for file, content in [("BENCH_abl_fixture.json", doc)] + (
                        extra or []):
                    with open(os.path.join(tmp, name, file), "w") as f:
                        json.dump(content, f)
            if config is not None:
                with open(os.path.join(tmp, "config.json"), "w") as f:
                    json.dump({"cells": config}, f)
                flags += ("--config", os.path.join(tmp, "config.json"))
            return subprocess.run(
                [sys.executable, SCRIPT, os.path.join(tmp, "base"),
                 os.path.join(tmp, "cand")] + list(flags),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL).returncode

    def test_identical_directories_pass(self):
        # Google Benchmark's own JSON shares the BENCH_ prefix: skipped.
        micro = [("BENCH_micro_fixture.json", {"benchmarks": []})]
        self.assertEqual(self.compare(document(), document(), extra=micro), 0)

    def test_outcome_drift_fails(self):
        for field, value in (("travel_cost", 6379.078156),
                             ("shard_sp_queries", [901, 667])):
            cand = document()
            cand["rows"][1][field] = value
            self.assertEqual(self.compare(document(), cand), 1, field)

    def test_measured_change_within_bound_passes(self):
        cand = document(times=(0.5, 1.05))  # +5%, under the 10% bound
        cand["rows"][1]["shard_round_time_max_over_mean"] = 1.7
        self.assertEqual(self.compare(document(), cand), 0)
        self.assertEqual(self.compare(document(), document((0.5, 1.2))), 1)

    def test_document_without_outcome_list_is_an_error(self):
        old = document()
        del old["outcome_fields"]
        self.assertEqual(self.compare(old, document()), 2)
        self.assertEqual(self.compare(document(), old), 2)

    def test_min_speedup(self):
        fast = document(times=(0.5, 0.4))  # 2.5x on the NYC row
        for need, point, status in (("2", "NYC shards=4", 0),
                                    ("3", "NYC shards=4", 1),
                                    ("2", "no such point", 1)):
            self.assertEqual(self.compare(document(), fast, "--min-speedup",
                                          need, "--speedup-filter", point),
                             status)

    def test_config_cells(self):
        cand = document(times=(0.75, 0.4))  # +50%, and 2.5x
        loose = {"match": "shards=1", "max_regress_pct": 60}
        for cells, status in (
                ([{"match": "NYC", "min_speedup": 2}, loose], 0),
                ([{"match": "NYC", "min_speedup": 3}, loose], 1),
                ([loose, {"match": "no such point", "min_time": 0}], 1),
                ([{"match": "NYC", "bound": 1}], 2)):
            self.assertEqual(self.compare(document(), cand, config=cells),
                             status, cells)


if __name__ == "__main__":
    unittest.main()
