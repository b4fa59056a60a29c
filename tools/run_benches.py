#!/usr/bin/env python3
"""Run every bench binary and gate the BENCH_*.json trajectory files.

Usage:
  tools/run_benches.py --bin-dir build [--out-dir build/bench-json] [--smoke]
                       [--scale] [--baseline bench/baseline]
  tools/run_benches.py --compare FILE [FILE ...] --baseline bench/baseline

--smoke passes --smoke to each binary (tables + JSON only, no
google-benchmark loops); without it the full benchmark suites run too.

A record is its identity -- the (instance, engine, threads) key and the
graph shape n, m, k -- plus the metrics the row measured.  METRICS below
registers every metric name once, with its unit and gate kind; validate()
rejects a name it does not list, and --baseline DIR diffs every produced
(or, with --compare, listed) file against the pinned file of the same name
in DIR, row by row on the key, each metric by its kind:

  exact      a count that is a pure function of the workload: any change fails
  tolerance  a ratio of exact counts: fails past a relative 1e-9
  banded     a wall measurement: fails past --wall-factor times the baseline,
             gated only where the baseline reaches the metric's floor (a
             faster row is too noisy to time)
  recorded   kept for reading, never gated

A gated metric present on one side only fails, and so do a baseline row
missing from the run and a changed n, m or k.

EXPERIMENTS is the experiment list.  The runner fails on a bench_e* binary
it does not name, and deletes each BENCH_<exp>.json before running that
binary, so a stale file never stands in for a missing one.
"""

import argparse
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from typing import NamedTuple, Optional, Tuple

SCHEMA = "dmm-bench-9"

EXPERIMENTS = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
    "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17",
]

IDENTITY = {"instance": str, "engine": str, "threads": int, "n": int, "m": int, "k": int}

EXACT, TOLERANCE, BANDED, RECORDED = "exact", "tolerance", "banded", "recorded"
RELATIVE_TOLERANCE = 1e-9


class Metric(NamedTuple):
    unit: str
    gate: str
    # banded only: (metric, value) -- the baseline row is gated when its
    # value of that metric is at least the value.
    floor: Optional[Tuple[str, float]] = None
    minimum: float = 0


WALL_FLOOR = ("wall_ns", 5e7)  # 50 ms
LATENCY_FLOOR = ("tenant_p50_ms", 50.0)

METRICS = {
    "wall_ns": Metric("ns", BANDED, WALL_FLOOR),
    # Engine runs (e1, e2, e5, e9, e10, e14).
    "rounds": Metric("rounds", EXACT),
    "max_message_bytes": Metric("bytes", EXACT),
    "init_ms": Metric("ms", RECORDED),
    "send_ms": Metric("ms", RECORDED),
    "receive_ms": Metric("ms", RECORDED),
    "rss_bytes": Metric("bytes", RECORDED),
    # The lower-bound pipeline: the Remark-2 catalogue and CSP (e17), the
    # Theorem 5 adversary (e4).
    "views": Metric("count", EXACT),
    "pairs": Metric("count", EXACT),
    "csp_nodes": Metric("count", EXACT),
    "evaluations": Metric("count", EXACT),
    "memo_hits": Metric("count", EXACT),
    "orbits": Metric("count", EXACT),
    "orbit_reduction": Metric("ratio", TOLERANCE, minimum=1),
    "reps_generated": Metric("count", EXACT),
    # Faults and recovery (e9, e10).
    "crashes": Metric("count", EXACT),
    "restarts": Metric("count", EXACT),
    "messages_dropped": Metric("count", EXACT),
    "checkpoint_bytes": Metric("bytes", EXACT),
    "restore_ms": Metric("ms", RECORDED),
    # The multi-tenant service (e10).
    "sessions": Metric("count", EXACT),
    "tenant_p50_ms": Metric("ms", BANDED, LATENCY_FLOOR),
    "tenant_p99_ms": Metric("ms", BANDED, ("tenant_p99_ms", 50.0)),
    "fairness_ratio": Metric("ratio", BANDED, LATENCY_FLOOR),
    # Churn (e12).
    "churn_ops": Metric("count", EXACT),
    "repairs": Metric("count", EXACT),
    "touched_nodes": Metric("count", EXACT),
    "recompute_avoided": Metric("count", EXACT),
}


def check_record(path: pathlib.Path, record) -> None:
    if not isinstance(record, dict) or set(record) != set(IDENTITY) | {"metrics"}:
        raise SystemExit(f"error: {path}: a record has exactly the fields "
                         f"{', '.join(IDENTITY)}, metrics: {record}")
    for field, kind in IDENTITY.items():
        if not isinstance(record[field], kind) or isinstance(record[field], bool):
            raise SystemExit(f"error: {path}: field {field!r} has the wrong type: {record}")
    metrics = record["metrics"]
    if not isinstance(metrics, dict):
        raise SystemExit(f"error: {path}: metrics is not an object: {record}")
    for name, value in metrics.items():
        spec = METRICS.get(name)
        if spec is None:
            raise SystemExit(f"error: {path}: unregistered metric {name!r}: {record}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or \
                not math.isfinite(value):
            raise SystemExit(f"error: {path}: metric {name!r} is not a finite number: {record}")
        if spec.gate == EXACT and not isinstance(value, int):
            raise SystemExit(f"error: {path}: exact metric {name!r} is not an integer: {record}")
        if value < spec.minimum:
            raise SystemExit(f"error: {path}: metric {name!r} is below {spec.minimum}: {record}")


def load_records(path: pathlib.Path) -> Tuple[str, list]:
    """The experiment and records of a BENCH_*.json file, every record
    checked against IDENTITY and METRICS."""
    try:
        with path.open() as fh:
            data = json.load(fh)
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: {path}: {error}") from None
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != SCHEMA:
        raise SystemExit(f"error: {path}: bad schema {schema!r} (expected {SCHEMA!r})")
    records = data.get("records")
    if not isinstance(records, list) or not records:
        raise SystemExit(f"error: {path}: no records")
    keys = set()
    for record in records:
        check_record(path, record)
        key = row_key(record)
        if key in keys:
            raise SystemExit(f"error: {path}: row {label(key)} appears twice")
        keys.add(key)
    return data.get("experiment"), records


def validate(path: pathlib.Path, experiment: str) -> int:
    """Checks one produced file; returns its record count."""
    found, records = load_records(path)
    if found != experiment:
        raise SystemExit(f"error: {path}: experiment mismatch {found!r}")
    return len(records)


def row_key(record: dict) -> tuple:
    # e14 records one instance per engine and per worker count, so the
    # instance label alone is not a key.
    return (record["instance"], record["engine"], record["threads"])


def label(key: tuple) -> str:
    return f"{key[0]!r} [{key[1]} t{key[2]}]"


def compare_records(name: str, current: dict, baseline: dict, wall_factor: float) -> list:
    """The gate's complaints about one row against its baseline row."""
    errors = [f"{name}: {field} changed {baseline[field]} -> {current[field]}"
              for field in ("n", "m", "k") if current[field] != baseline[field]]
    now, was = current["metrics"], baseline["metrics"]
    for metric, spec in METRICS.items():
        if spec.gate == RECORDED or (metric not in now and metric not in was):
            continue
        if (metric in now) != (metric in was):
            side = "run" if metric in now else "baseline"
            errors.append(f"{name}: {spec.gate} metric {metric} is in the {side} only")
            continue
        if spec.gate == EXACT and now[metric] != was[metric]:
            errors.append(f"{name}: {metric} changed {was[metric]} -> {now[metric]}")
        elif spec.gate == TOLERANCE and \
                abs(now[metric] - was[metric]) > RELATIVE_TOLERANCE * abs(was[metric]):
            errors.append(f"{name}: {metric} drifted {was[metric]!r} -> {now[metric]!r} "
                          f"(> {RELATIVE_TOLERANCE:g} relative)")
        elif spec.gate == BANDED:
            floor_metric, floor = spec.floor
            if floor_metric in was and was[floor_metric] >= floor and \
                    now[metric] > was[metric] * wall_factor:
                errors.append(f"{name}: {metric} regressed {was[metric]:.6g} -> "
                              f"{now[metric]:.6g} {spec.unit} (> {wall_factor:g}x)")
    return errors


def compare_with_baseline(path: pathlib.Path, baseline_dir: pathlib.Path,
                          wall_factor: float) -> int:
    """Diffs one trajectory against its pinned baseline; returns the number
    of rows gated.  A file without a baseline passes (a new bench is pinned
    by a later change); a baseline row missing from the run fails."""
    base_path = baseline_dir / path.name
    if not base_path.exists():
        print(f"baseline: {path.name}: no pinned baseline, skipping")
        return 0
    current = {row_key(r): r for r in load_records(path)[1]}
    baseline = {row_key(r): r for r in load_records(base_path)[1]}
    errors = []
    for key, base_row in baseline.items():
        row = current.get(key)
        if row is None:
            errors.append(f"{path.name}: baseline row {label(key)} missing from run")
            continue
        errors.extend(compare_records(f"{path.name}: {label(key)}", row, base_row,
                                      wall_factor))
    if errors:
        raise SystemExit("error: bench regression gate failed:\n  " + "\n  ".join(errors))
    print(f"baseline: {path.name}: {len(baseline)} record(s) within tolerance")
    return len(baseline)


def find_binaries(bin_dir: pathlib.Path) -> dict:
    """The one bench_<exp>_* executable per listed experiment; an executable
    bench_e* naming no listed experiment fails."""
    found = {}
    for path in sorted(bin_dir.glob("bench_e*")):
        if not path.is_file() or not os.access(path, os.X_OK):
            continue
        match = re.match(r"bench_(e\d+)_", path.name)
        experiment = match.group(1) if match else None
        if experiment not in EXPERIMENTS:
            raise SystemExit(f"error: {path}: bench binary not listed in EXPERIMENTS")
        if experiment in found:
            raise SystemExit(f"error: two bench_{experiment}_* binaries in {bin_dir}")
        found[experiment] = path
    missing = [e for e in EXPERIMENTS if e not in found]
    if missing:
        raise SystemExit(f"error: no bench binary for {', '.join(missing)} in {bin_dir}")
    return found


def run_experiment(binary: pathlib.Path, experiment: str, out_dir: pathlib.Path,
                   flags: list) -> int:
    """Runs one bench binary and validates the file it wrote; returns its
    record count."""
    out = out_dir / f"BENCH_{experiment}.json"
    out.unlink(missing_ok=True)
    print(f"== {binary.name} {' '.join(flags)}", flush=True)
    subprocess.run([str(binary), "--json-dir", str(out_dir), *flags], check=True)
    return validate(out, experiment)


def metric_of(path: pathlib.Path, row: dict, name: str):
    if name not in row["metrics"]:
        raise SystemExit(f"error: {path}: row {label(row_key(row))} has no {name}")
    return row["metrics"][name]


def validate_scale_row(path: pathlib.Path) -> None:
    """--scale: e14 must carry the n = 10^7 flat-engine row, with the
    memory metrics recorded and init no longer the dominant phase."""
    records = load_records(path)[1]
    rows = [r for r in records if r["n"] == 10_000_000]
    if not rows:
        raise SystemExit(f"error: {path}: --scale run but no n=10^7 record")
    for row in rows:
        if row["engine"] != "flat":
            raise SystemExit(f"error: {path}: scale row must use the flat engine: {row}")
        init_ms = metric_of(path, row, "init_ms")
        if init_ms <= 0 or metric_of(path, row, "rss_bytes") <= 0:
            raise SystemExit(f"error: {path}: scale row missing memory stats: {row}")
        wall_ms = metric_of(path, row, "wall_ns") / 1e6
        if init_ms * 2 > wall_ms:
            raise SystemExit(
                f"error: {path}: init dominates the scale row "
                f"({init_ms:.1f} ms of {wall_ms:.1f} ms) — the pooled "
                f"program arena regressed"
            )
    print(f"scale: e14 n=10^7 row ok ({rows[0]['metrics']['init_ms']:.1f} ms init, "
          f"{rows[0]['metrics']['wall_ns'] / 1e6:.1f} ms wall)")

    # The skewed scale rows: the 10^6-node hub cluster must be run flat at
    # t=1 and t=8 by the awake twin (greedy that never sleeps; greedy
    # proper sleeps through almost every node-round there, leaving the
    # workers too little to share).  The t1/t8 ratio is reported, not
    # gated — it is a property of the runner's core count, not of the code
    # (a 1-CPU runner executes both rows on the same core).
    skewed = {r["threads"]: r for r in records
              if r["instance"].startswith("hub_cluster") and r["instance"].endswith(" awake")
              and r["n"] >= 1_000_000}
    if not skewed:
        raise SystemExit(f"error: {path}: --scale run but no skewed hub_cluster record")
    for threads in (1, 8):
        if threads not in skewed:
            raise SystemExit(
                f"error: {path}: skewed scale row missing threads={threads}"
            )
        if skewed[threads]["engine"] != "flat":
            raise SystemExit(f"error: {path}: skewed scale row must be flat: {skewed[threads]}")
    ratio = metric_of(path, skewed[1], "wall_ns") / metric_of(path, skewed[8], "wall_ns")
    print(f"scale: e14 skewed n=10^6 awake rows ok (flat t1/t8 = {ratio:.2f}x, "
          f"hardware-dependent)")


def validate_orderly_scale_row(path: pathlib.Path) -> None:
    """--scale: e17 must carry the budgeted orderly k=5,rho=3 smoke — the
    rep-generation run past the old raw-view guard."""
    rows = [r for r in load_records(path)[1] if "orderly reps" in r["instance"]]
    if not rows:
        raise SystemExit(f"error: {path}: --scale run but no orderly reps record")
    for row in rows:
        reps = metric_of(path, row, "reps_generated")
        if reps <= 0 or reps != metric_of(path, row, "orbits"):
            raise SystemExit(f"error: {path}: orderly scale row generated no reps: {row}")
        if metric_of(path, row, "views") < reps:
            raise SystemExit(f"error: {path}: orderly scale row member count bad: {row}")
    metrics = rows[0]["metrics"]
    print(f"scale: e17 orderly row ok ({metrics['reps_generated']} reps covering "
          f"{metrics['views']} raw views in {metrics['wall_ns'] / 1e6:.1f} ms)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--bin-dir", type=pathlib.Path)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("bench-json"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--scale",
        action="store_true",
        help="bench_scale: add the opt-in scale rows (e14's n = 10^7 greedy "
        "smoke, e17's budgeted orderly k=5,rho=3 rep generation) and "
        "validate them (nightly CI leg)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        help="pinned-baseline directory; every trajectory produced (or listed "
        "via --compare) is diffed against the same-named file there",
    )
    parser.add_argument(
        "--compare",
        nargs="+",
        type=pathlib.Path,
        help="skip running: just diff these BENCH_*.json files against "
        "--baseline (which becomes required)",
    )
    parser.add_argument(
        "--wall-factor",
        type=float,
        default=3.0,
        help="max growth of a banded metric over the baseline before the gate "
        "fails (only rows at or above the metric's floor are gated; default 3.0)",
    )
    args = parser.parse_args()

    if args.compare:
        if args.baseline is None:
            parser.error("--compare requires --baseline")
        compared = sum(compare_with_baseline(path, args.baseline, args.wall_factor)
                       for path in args.compare)
        print(f"ok: {len(args.compare)} file(s), {compared} record(s) gated")
        return 0

    if args.bin_dir is None:
        parser.error("--bin-dir is required unless --compare is given")
    binaries = find_binaries(args.bin_dir)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    flags = [flag for flag, on in (("--smoke", args.smoke), ("--scale", args.scale)) if on]
    total = sum(run_experiment(binaries[e], e, args.out_dir, flags) for e in EXPERIMENTS)
    if args.scale:
        validate_scale_row(args.out_dir / "BENCH_e14.json")
        validate_orderly_scale_row(args.out_dir / "BENCH_e17.json")
    gated = ""
    if args.baseline is not None:
        rows = sum(compare_with_baseline(args.out_dir / f"BENCH_{e}.json", args.baseline,
                                         args.wall_factor) for e in EXPERIMENTS)
        gated = f", {rows} gated against {args.baseline}"
    print(f"ok: {len(EXPERIMENTS)} experiments, {total} records in {args.out_dir}{gated}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
