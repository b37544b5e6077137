"""Fast self-test of the benchmark itself (about twenty seconds).

    python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic span tree, the metric names
and units in BENCHMARK.json, and runs each workload once, shrunk to short
horizons, traced and untraced: every layer the workload must reach is
called, the span counts match the artifacts, and tracing leaves the
artifacts byte-identical.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, coverage_failure, run_once  # noqa: E402
from tracer import Span, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    return [
        Span("finite_horizon.occupational_fractions", -1, 0.0, 10.0),
        Span("cost_models.evaluate_many", 0, 1.0, 4.0, {"pairs": 6}),
        Span("grid_geometry.locate", 1, 2.0, 3.0),
        Span("cost_models.evaluate_many", 0, 5.0, 9.0, {"pairs": 4}),
    ]


class SpanArithmetic(unittest.TestCase):
    def test_self_times_subtract_direct_children(self):
        self.assertEqual(self_times(_tree()), [3.0, 2.0, 1.0, 4.0])

    def test_self_times_and_unattributed_add_up_to_the_window(self):
        m = layer_metrics(_tree(), window_s=12.0)
        self.assertEqual(m["trace.unattributed_s"], 2.0)
        total = sum(v for k, v in m.items() if k.endswith(".self_s") and ".in_" not in k)
        self.assertAlmostEqual(total + m["trace.unattributed_s"], 12.0)
        self.assertEqual(m["cost_models.evaluate_many.calls"], 2)
        self.assertEqual(m["cost_models.evaluate_many.self_s"], 6.0)
        self.assertEqual(m["cost_models.evaluate_many.in_occupational_fractions.self_s"], 6.0)
        self.assertEqual(m["cost_models.evaluate_many.pairs"], 10)

    def test_nested_writers_count_bytes_once(self):
        spans = [
            Span("cli_io.write", -1, 0.0, 2.0, {"bytes": 100}),
            Span("cli_io.write", 0, 0.5, 1.5, {"bytes": 100}),
        ]
        self.assertEqual(layer_metrics(spans, 2.0)["cli_io.write.bytes"], 100)

    def test_w1_calls_per_iteration_counts_calls_inside_the_solve(self):
        spans = [Span("finite_horizon.solve_mfg", -1, 0.0, 5.0, {"iterations": 2})]
        spans += [Span("measures.wasserstein1_capped", 0, 1.0 + i / 10, 1.05 + i / 10) for i in range(6)]
        spans += [Span("measures.wasserstein1_capped", -1, 6.0, 7.0)]
        m = layer_metrics(spans, 8.0)
        self.assertEqual(m["finite_horizon.solve_mfg.w1_calls_per_iteration"], 3.0)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [s["name"] for s in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        for spec in bench["end_to_end"] + bench["per_layer"]:
            self.assertTrue(UNIT.fullmatch(spec["unit"]), spec)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(WORKLOADS))


class SmokePass(unittest.TestCase):
    """Each workload at short horizons, traced and untraced."""

    def setUp(self):
        scratch = ROOT / ".perfbench_work"
        scratch.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another benchmark run is using it

    def test_every_wrapper_is_hit_and_counts_match(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        per_layer = {s["name"] for s in bench["per_layer"]}
        produced = set()
        for name in WORKLOADS:
            with self.subTest(workload=name):
                cfg = write_config(name, 1, self.work, smoke=True)
                traced = run_once(name, cfg, self.work, 0, traced=True)
                plain = run_once(name, cfg, self.work, 1, traced=False)
                # short horizons need not pass the sweep's limit checks
                for rep in (traced, plain):
                    self.assertEqual(rep.data.get("exit_code"), 0, rep.failure)
                self.assertEqual(coverage_failure(name, traced), "")
                self.assertEqual(traced.digest, plain.digest)
                patched = traced.data["patched"]
                self.assertGreaterEqual(
                    set(patched["mfglab.finite_horizon.solve_mfg"]),
                    {"mfglab.finite_horizon", "mfglab.asymptotics", "mfglab.cli_io.main"},
                )
                self.assertGreaterEqual(
                    set(patched["mfglab.measures.wasserstein1_capped"]),
                    {"mfglab.finite_horizon", "mfglab.asymptotics", "mfglab.static_game"},
                )
                produced |= set(traced.layers)
        # every per-layer metric except the set-level overhead comes from the spans
        self.assertEqual(per_layer - produced, {"trace.overhead_s"})


if __name__ == "__main__":
    unittest.main(verbosity=2)
