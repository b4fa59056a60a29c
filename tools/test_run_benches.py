#!/usr/bin/env python3
"""Tests for the bench gate in run_benches.py, on small synthetic files.

Every check the gate makes is driven to fail once: the record checks of
validate(), each exact, tolerance and banded metric of METRICS in
compare_with_baseline(), the runner's binary and stale-file checks, and
the two --scale validators.  The fixture line tests/data/bench_record.json
is the C++ writer's output byte for byte (tests/test_bench_json.cpp pins
it), so loading it here checks writer and reader against each other.

Run: python3 tools/test_run_benches.py
"""

import json
import math
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run_benches as rb  # noqa: E402

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "bench_record.json"


def row(instance="r", engine="flat", threads=1, n=10, m=20, k=4, **metrics):
    return {"instance": instance, "engine": engine, "threads": threads,
            "n": n, "m": m, "k": k, "metrics": metrics}


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self.tmp.name)
        (self.dir / "run").mkdir()
        (self.dir / "base").mkdir()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, where, records, experiment="e1", schema=rb.SCHEMA):
        path = self.dir / where / f"BENCH_{experiment}.json"
        path.write_text(json.dumps({"schema": schema, "experiment": experiment,
                                    "records": records}))
        return path

    def fails(self, fn, *args, pattern=""):
        with self.assertRaises(SystemExit) as caught:
            fn(*args)
        self.assertIn(pattern, str(caught.exception))

    def compare(self, current, baseline, wall_factor=3.0):
        run = self.write("run", current)
        self.write("base", baseline)
        return rb.compare_with_baseline(run, self.dir / "base", wall_factor)

    def compare_fails(self, current, baseline, pattern):
        self.fails(self.compare, current, baseline, pattern=pattern)


class ValidateTest(GateTest):
    def test_fixture_line_from_the_cpp_writer(self):
        line = FIXTURE.read_text().splitlines()[0]
        record = json.loads(line)
        self.assertEqual(record["instance"], 'chain k=8 "quoted" \\ tab\t')
        self.assertEqual((record["engine"], record["threads"]), ("flat", 2))
        self.assertEqual((record["n"], record["m"], record["k"]), (256, 380, 4))
        self.assertEqual(record["metrics"], {"csp_nodes": 135864, "orbit_reduction": 23.64,
                                             "rounds": 3, "wall_ns": 1234567.25})
        self.assertEqual(rb.validate(self.write("run", [record]), "e1"), 1)

    def test_accepts_a_sparse_record(self):
        path = self.write("run", [row(wall_ns=1), row("census", "-", n=0, m=0, views=7)])
        self.assertEqual(rb.validate(path, "e1"), 2)

    def test_rejects_non_finite_values(self):
        for bad in (math.nan, math.inf, -math.inf):
            path = self.write("run", [row(wall_ns=bad)])
            self.fails(rb.validate, path, "e1", pattern="not a finite number")

    def test_rejects_an_unregistered_metric(self):
        path = self.write("run", [row(wall_ns=1, wall_ms=1)])
        self.fails(rb.validate, path, "e1", pattern="unregistered metric 'wall_ms'")

    def test_rejects_a_wrong_schema(self):
        path = self.write("run", [row(wall_ns=1)], schema="dmm-bench-8")
        self.fails(rb.validate, path, "e1", pattern="bad schema 'dmm-bench-8'")

    def test_rejects_malformed_records(self):
        cases = {
            "missing identity": {k: v for k, v in row().items() if k != "threads"},
            "extra field": dict(row(), rounds=3),
            "string number": row(n="10"),
            "metrics not an object": dict(row(), metrics=[1]),
            "non-numeric metric": row(wall_ns="1"),
            "boolean metric": row(crashes=True),
            "fractional count": row(rounds=2.5),
            "negative metric": row(wall_ns=-1),
            "reduction below 1x": row(orbits=3, orbit_reduction=0.5),
        }
        for what, record in cases.items():
            with self.subTest(what):
                self.fails(rb.validate, self.write("run", [record]), "e1")

    def test_rejects_duplicate_keys_empty_files_and_wrong_experiments(self):
        self.fails(rb.validate, self.write("run", [row(), row()]), "e1", pattern="twice")
        self.fails(rb.validate, self.write("run", []), "e1", pattern="no records")
        self.fails(rb.validate, self.write("run", [row()]), "e2", pattern="mismatch")
        self.fails(rb.validate, self.dir / "run" / "BENCH_e5.json", "e5")


class CompareTest(GateTest):
    def test_identical_rows_pass(self):
        rows = [row(wall_ns=9e7, rounds=3, views=5, orbit_reduction=2.5)]
        self.assertEqual(self.compare(rows, rows), 1)

    def test_missing_baseline_row(self):
        self.compare_fails([row("a")], [row("a"), row("b")], "'b' [flat t1] missing from run")

    def test_rows_are_keyed_by_engine_and_threads(self):
        self.compare_fails([row("a", threads=1)], [row("a", threads=4)], "[flat t4] missing")
        self.compare_fails([row("a", "sync")], [row("a", "flat")], "[flat t1] missing")

    def test_graph_shape_is_exact(self):
        for field in ("n", "m", "k"):
            with self.subTest(field):
                self.compare_fails([row(**{field: 99})], [row()], f"{field} changed")

    def test_every_exact_metric_gates_on_drift(self):
        exact = [name for name, spec in rb.METRICS.items() if spec.gate == rb.EXACT]
        self.assertIn("views", exact)
        for name in exact:
            with self.subTest(name):
                self.compare_fails([row(**{name: 6})], [row(**{name: 5})],
                                   f"{name} changed 5 -> 6")

    def test_gated_metric_present_on_one_side_only(self):
        gated = [name for name, spec in rb.METRICS.items() if spec.gate != rb.RECORDED]
        for name in gated:
            with self.subTest(name):
                value = 2
                self.compare_fails([row(**{name: value})], [row()], "in the run only")
                self.compare_fails([row()], [row(**{name: value})], "in the baseline only")

    def test_every_tolerance_metric_gates_past_its_tolerance(self):
        tolerant = [name for name, spec in rb.METRICS.items() if spec.gate == rb.TOLERANCE]
        self.assertEqual(tolerant, ["orbit_reduction"])
        for name in tolerant:
            with self.subTest(name):
                base = [row(**{name: 23.64})]
                self.assertEqual(self.compare([row(**{name: 23.64 * (1 + 1e-12)})], base), 1)
                self.compare_fails([row(**{name: 23.64 * (1 + 1e-6)})], base, "drifted")

    def test_wall_band_applies_above_its_floor_only(self):
        self.compare_fails([row(wall_ns=4e8)], [row(wall_ns=1e8)], "wall_ns regressed")
        self.assertEqual(self.compare([row(wall_ns=2.9e8)], [row(wall_ns=1e8)]), 1)
        # Below the 50 ms floor a row is too fast to time: never gated.
        self.assertEqual(self.compare([row(wall_ns=4.9e8)], [row(wall_ns=4.9e7)]), 1)
        # --wall-factor widens or narrows the band.
        self.assertEqual(self.compare([row(wall_ns=4e8)], [row(wall_ns=1e8)], 5.0), 1)

    def test_tenant_latency_bands_with_their_floors(self):
        for name in ("tenant_p50_ms", "tenant_p99_ms"):
            with self.subTest(name):
                self.compare_fails([row(**{name: 200.0})], [row(**{name: 60.0})],
                                   f"{name} regressed")
                self.assertEqual(self.compare([row(**{name: 170.0})], [row(**{name: 49.0})]), 1)

    def test_fairness_band_floors_on_the_median_latency(self):
        slow = {"tenant_p50_ms": 60.0}
        fast = {"tenant_p50_ms": 40.0}
        self.compare_fails([row(fairness_ratio=4.0, **slow)], [row(fairness_ratio=1.2, **slow)],
                           "fairness_ratio regressed")
        self.assertEqual(self.compare([row(fairness_ratio=4.0, **fast)],
                                      [row(fairness_ratio=1.2, **fast)]), 1)

    def test_every_banded_metric_is_exercised(self):
        banded = {name for name, spec in rb.METRICS.items() if spec.gate == rb.BANDED}
        self.assertEqual(banded, {"wall_ns", "tenant_p50_ms", "tenant_p99_ms", "fairness_ratio"})

    def test_recorded_metrics_are_never_gated(self):
        recorded = {name: 1.0 for name, spec in rb.METRICS.items() if spec.gate == rb.RECORDED}
        self.assertEqual(set(recorded),
                         {"init_ms", "send_ms", "receive_ms", "rss_bytes", "restore_ms",
                          "ns_per_op", "enumerate_ms", "pairs_ms", "solve_ms", "class_walks"})
        self.assertEqual(self.compare([row(**{k: 1000.0 for k in recorded})], [row()]), 1)

    def test_a_file_without_baseline_passes_and_a_bad_baseline_fails(self):
        run = self.write("run", [row()])
        self.assertEqual(rb.compare_with_baseline(run, self.dir / "base", 3.0), 0)
        self.write("base", [row()], schema="dmm-bench-8")
        self.fails(rb.compare_with_baseline, run, self.dir / "base", 3.0, pattern="bad schema")


class RunnerTest(GateTest):
    def binaries(self, names):
        for name in names:
            path = self.dir / "run" / name
            path.write_text("#!/bin/sh\nexit 0\n")
            path.chmod(0o755)
        return self.dir / "run"

    def listed(self):
        return [f"bench_{e}_x" for e in rb.EXPERIMENTS]

    def test_finds_one_binary_per_experiment(self):
        found = rb.find_binaries(self.binaries(self.listed()))
        self.assertEqual(set(found), set(rb.EXPERIMENTS))

    def test_fails_on_an_unlisted_binary(self):
        bin_dir = self.binaries(self.listed() + ["bench_e18_new"])
        self.fails(rb.find_binaries, bin_dir, pattern="bench_e18_new: bench binary not listed")

    def test_fails_on_a_missing_or_doubled_binary(self):
        self.fails(rb.find_binaries, self.binaries(self.listed()[1:]), pattern="for e1 in")
        self.fails(rb.find_binaries, self.binaries(self.listed() + ["bench_e3_y"]),
                   pattern="two bench_e3_*")

    def test_a_stale_file_cannot_stand_in_for_a_missing_one(self):
        stale = self.write("base", [row(wall_ns=1)])
        binary = self.binaries(["bench_e1_silent"]) / "bench_e1_silent"
        self.assertTrue(stale.exists())
        self.fails(rb.run_experiment, binary, "e1", self.dir / "base", [],
                   pattern="BENCH_e1.json")
        self.assertFalse(stale.exists())


class ScaleValidatorTest(GateTest):
    def e14(self, init_ms=100.0, wall_ns=1e9, skewed=(1, 8), awake=(1, 8)):
        rows = [row("random n=10000000 k=4", n=10_000_000, init_ms=init_ms, rss_bytes=2 ** 31,
                    wall_ns=wall_ns)]
        rows += [row("hub_cluster n=1000008 d=128", threads=t, n=1_000_008, wall_ns=5e7)
                 for t in skewed]
        rows += [row("hub_cluster n=1000008 d=128 awake", threads=t, n=1_000_008, wall_ns=5e8)
                 for t in awake]
        return self.write("run", rows, experiment="e14")

    def test_e14_scale_rows(self):
        rb.validate_scale_row(self.e14())
        self.fails(rb.validate_scale_row, self.e14(init_ms=600.0), pattern="init dominates")
        self.fails(rb.validate_scale_row, self.e14(awake=(1,)), pattern="threads=8")
        # The ratio comes from the awake pair alone: the sleeping rows do
        # not stand in for it.
        self.fails(rb.validate_scale_row, self.e14(awake=()), pattern="no skewed")
        self.fails(rb.validate_scale_row, self.write("run", [row()], experiment="e14"),
                   pattern="no n=10^7 record")
        no_rss = self.write("run", [row(n=10_000_000, init_ms=1.0, wall_ns=1e9)], "e14")
        self.fails(rb.validate_scale_row, no_rss, pattern="has no rss_bytes")

    def test_e17_orderly_row(self):
        def e17(**metrics):
            return self.write("run", [row("orderly reps k=5 d=4 rho=3", "-", n=0, m=0,
                                          wall_ns=1e9, **metrics)], experiment="e17")
        rb.validate_orderly_scale_row(e17(reps_generated=40, orbits=40, views=4000))
        self.fails(rb.validate_orderly_scale_row, e17(reps_generated=40, orbits=39, views=4000),
                   pattern="generated no reps")
        self.fails(rb.validate_orderly_scale_row, e17(reps_generated=40, orbits=40, views=39),
                   pattern="member count bad")
        self.fails(rb.validate_orderly_scale_row,
                   self.write("run", [row(wall_ns=1)], experiment="e17"),
                   pattern="no orderly reps record")


if __name__ == "__main__":
    unittest.main()
