#!/usr/bin/env python3
"""End-to-end benchmark of the dmm library.

Run from the repository root:

    python3 perfbench/run.py --workload simulate --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10     # every workload
    python3 perfbench/run.py --workload churn --seed 7 --held-out --trace 1

The first call builds perfbench/ (CMake, Release) into the directory named
by CARGO_TARGET_DIR, or .bench_build, under perfbench/; later calls rebuild
incrementally.  The binary generates every input from the seed, runs the
workload, checks every op, and prints raw values; this script names them
with the units from BENCHMARK.json and prints, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  A traced run also
writes its spans as Chrome Trace Event JSON to
<build>/traces/<workload>-<seed>.json.

BENCHMARK.json names the workloads and metrics.  Each workload's loop,
threads, rate and set-up repetitions are constants in its source file;
perfbench/README.md lists them, with the end-to-end metric each layer
metric should move.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once, then builds incrementally; build output goes to stderr."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target", "dmm_perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "dmm_perfbench")


def held_out(seed):
    """Maps a seed into [2^63, 2^64), a range kept out of development runs
    (which use small seeds), so a claim can be re-checked on inputs nobody
    looked at while writing it."""
    z = (seed + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) | (1 << 63)


def run_workload(binary, workload, seed, seconds, trace, out):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(out, "traces", "%s-%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("perfbench: %s exited with %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def report(bench, workload, raw, trace):
    """Names the raw values with BENCHMARK.json's units.  A layer the
    workload never enters has no value and reads 0."""
    values = raw["values"]
    metrics = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        if m["name"] in values:
            value = values[m["name"]]
        elif trace:
            value = 0.0
        else:
            raise SystemExit("perfbench: %s reported no %s" % (workload, m["name"]))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%s %s = %.6g %s" % (workload, m["name"], value, m["unit"]))
    print("%s error_rate = %.6g fraction (%d of %d ops failed)"
          % (workload, values["error_rate"], raw["failed"], raw["attempted"]))
    print("%s latency_p99_ms = %.6g ms (printed, not gated: the noisiest figure)"
          % (workload, values["latency_p99_ms"]))
    print("%s latency_samples = %d" % (workload, values["latency_samples"]))
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, or all" % ", ".join(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input seed")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="map the seed into the held-out range")
    args = parser.parse_args()

    names = workloads if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        parser.error("unknown workload %s" % args.workload)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    seed = held_out(args.seed) if args.held_out else args.seed

    out = build_dir()
    binary = build(out)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        raw = run_workload(binary, name, seed, args.seconds, args.trace == 1, out)
        named = report(bench, name, raw, args.trace == 1)
        correct = correct and raw["correct"]
        attempted += raw["attempted"]
        failed += raw["failed"]
        if len(names) == 1:
            metrics = named
        else:
            metrics.update({"%s.%s" % (name, k): v for k, v in named.items()})
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        sys.exit("perfbench: %s" % e)
