#!/usr/bin/env python3
"""quditcv benchmark: seeded workloads, end-to-end metrics, traced per-layer breakdown.

Run from the root of a source checkout (quditcv is imported from ./src):

    python3 bench/run.py --workload epr_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every batch runs in a fresh, single-threaded worker process (bench/worker.py,
BLAS/OpenMP pools pinned to one thread), so each one pays the cold caches a
command-line user pays.  With ``--trace 0`` the run alternates import-only
probes and batches until ``--seconds`` have passed (at least MIN_BATCHES
batches and SETUP_PROBES probes; no batch starts that would likely end past
the deadline), and reports the end-to-end metrics:

    setup_s      median time from process start to ``import quditcv`` done
    wall_s       median over batches of the summed op latencies
    op_p50_ms    median op latency, over every op of every batch
    op_p90_ms    p90 op latency (the sample count is printed with it)
    peak_rss_mb  median over batches of the worker's peak RSS (getrusage)
    ok_frac      1 - fail_frac: ops whose output passed its check, over ops run

Every time above is scaled to a reference machine speed by the calibration
slices the worker times next to it (see bench/worker.py): the host's own
speed drifts by more than the bounds the metrics need.  The unscaled figures
and the measured speed are printed and stored with the results too.

With ``--trace 1`` it runs two untraced and two traced batches at the seed,
alternating, checks that every per-layer count repeats exactly between the
two traced batches, and reports the per-layer metrics (self times averaged
over the two, unscaled) plus ``trace.overhead_s``, mean traced minus mean
untraced wall_s (scaled).  Spans go to .bench_results/spans-<workload>.npz.

Each run writes .bench_results/BENCH_<workload>_seed<seed>[_trace].json with
the metrics, the environment and the sha256 digests of every output group.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy

from tracing import COUNT_METRICS, TIME_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("epr_sweep", "state_stream", "oracle_check", "cli_datasets")
SETUP_PROBES = 5
MIN_BATCHES = 3
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed op)."""


def _worker(root: str, args: list[str]) -> tuple[float, dict]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), root, *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - started, result


def _probe(root: str) -> tuple[float, float]:
    """Set-up time of one fresh process: raw, and scaled to the reference speed."""
    setup, result = _worker(root, ["--probe"])
    return setup, setup * result["speed"]


def measure(root: str, workload: str, seed: int, seconds: float) -> dict:
    began = time.monotonic()
    probes, batches, durations = [], [], []
    while True:
        elapsed = time.monotonic() - began
        if len(batches) >= MIN_BATCHES and (
                elapsed + statistics.median(durations) > seconds):
            break
        started = time.monotonic()
        probes.append(_probe(root))
        batches.append(_worker(root, [workload, str(seed), "0"])[1])
        durations.append(time.monotonic() - started)
    while len(probes) < SETUP_PROBES:
        probes.append(_probe(root))
    latencies = [x for b in batches for x in b["latencies"]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    raw_deciles = statistics.quantiles([x for b in batches for x in b["raw_latencies"]],
                                       n=10, method="inclusive")
    slices = [x for b in batches for x in b["slices"]]
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in probes), "s"),
        "wall_s": (statistics.median(b["wall_s"] for b in batches), "s"),
        "op_p50_ms": (1e3 * deciles[4], "ms"),
        "op_p90_ms": (1e3 * deciles[8], "ms"),
        "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in batches), "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
        "detail": {
            "batches": len(batches),
            "op_samples": len(latencies),
            "setup_samples": len(probes),
            "raw": {
                "setup_s": statistics.median(raw for raw, _ in probes),
                "wall_s": statistics.median(b["raw_wall_s"] for b in batches),
                "op_p50_ms": 1e3 * raw_deciles[4],
                "op_p90_ms": 1e3 * raw_deciles[8],
            },
            "calibration": {"slices": len(slices), "median_slice_s": statistics.median(slices)},
            "fail_frac": failed / attempted,
            "errors": [e for b in batches for e in b["errors"]][:10],
            "wall_s_per_batch": [b["wall_s"] for b in batches],
            "counts": batches[0]["counts"],
            "digests_repeat": all(b["digests"] == batches[0]["digests"] for b in batches),
            "digests": batches[0]["digests"],
        },
    }


def measure_traced(root: str, workload: str, seed: int) -> dict:
    results_dir = os.path.join(root, ".bench_results")
    spans_path = os.path.join(results_dir, f"spans-{workload}.npz")
    plain, traced = [], []
    for _ in range(2):  # alternate, so a drift in machine speed hits both sides alike
        plain.append(_worker(root, [workload, str(seed), "0"])[1])
        traced.append(_worker(root, [workload, str(seed), "1", spans_path])[1])
    counts_repeat = all(
        traced[0]["layers"][name] == traced[1]["layers"][name] for name in COUNT_METRICS
    )
    attempted = sum(b["attempted"] for b in plain + traced)
    failed = sum(b["failed"] for b in plain + traced)
    metrics = {}
    for name in COUNT_METRICS:
        metrics[name] = {"value": traced[0]["layers"][name], "unit": "count"}
    for name in TIME_METRICS:
        metrics[name] = {"value": statistics.mean(b["layers"][name] for b in traced), "unit": "s"}
    overhead = (statistics.mean(b["wall_s"] for b in traced)
                - statistics.mean(b["wall_s"] for b in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "counts_repeat": counts_repeat,
            "untraced_wall_s": [b["wall_s"] for b in plain],
            "traced_wall_s": [b["wall_s"] for b in traced],
            "spans": traced[-1]["spans"],
            "spans_file": os.path.relpath(spans_path, root),
            "errors": [e for b in plain + traced for e in b["errors"]][:10],
            "digests": traced[0]["digests"],
        },
    }


def environment(root: str, seed: int) -> dict:
    try:
        # the ceiling stops git from reporting an enclosing repository's commit
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True,
            timeout=30,
        ).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    src_dir = os.path.join(root, "src", "quditcv")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as handle:
                src.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "machine": platform.machine(),
    }


def _report(workload: str, seed: int, trace: bool, result: dict) -> None:
    detail = result["detail"]
    print(f"quditcv benchmark  workload={workload} seed={seed} trace={int(trace)}")
    for name, metric in result["metrics"].items():
        note = ""
        if name.startswith("op_p"):
            note = f"  ({detail['op_samples']} op samples, {detail['batches']} batches)"
        elif name == "setup_s":
            note = f"  (median of {detail['setup_samples']} process starts)"
        elif name == "ok_frac":
            note = f"  (fail_frac {detail['fail_frac']:.6g} = {result['failed']}/{result['attempted']})"
        if name in detail.get("raw", {}):
            note = f"  unscaled {detail['raw'][name]:.6g}" + note
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']:<6}{note}")
    if "calibration" in detail:
        cal = detail["calibration"]
        print(f"  calibration: {cal['slices']} slices, median {1e3 * cal['median_slice_s']:.4g} ms")
    if "counts_repeat" in detail:
        print(f"  per-layer counts identical across the two traced batches: {detail['counts_repeat']}")
    for error in detail["errors"]:
        print(f"  FAILED {error}")


def run_one(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        result = measure_traced(root, workload, seed)
    else:
        result = measure(root, workload, seed, seconds)
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "environment": environment(root, seed), **result}
    results_dir = os.path.join(root, ".bench_results")
    suffix = "_trace" if trace else ""
    path = os.path.join(results_dir, f"BENCH_{workload}_seed{seed}{suffix}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    _report(workload, seed, trace, result)
    print(f"  results: {os.path.relpath(path, root)}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="quditcv benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quditcv", "__init__.py")):
        print("error: run from the root of a quditcv checkout (no src/quditcv here)",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".bench_results"), exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_one(root, name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{name}.{key}": value
                   for name, result in results.items() for key, value in result["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
