"""One batch of one workload, in a fresh process (started by run.py).

    python3 bench/worker.py ROOT WORKLOAD SEED TRACE [SPANS_PATH]
    python3 bench/worker.py ROOT --probe

The first thing the process does is import quditcv from ROOT/src, so the
moment the import is done, compared with when run.py started the process,
is the set-up time every command-line user pays.  ``--probe`` stops there,
after timing a few calibration slices.  Otherwise the worker runs every op of
the batch in a closed loop with one client, timing each op alone; checks,
digests, bookkeeping and calibration slices run between ops, outside the
timed region.  It prints one JSON object on stdout.

Calibration: the speed of a shared host drifts by tens of percent over
seconds to minutes, as other tenants load its cores and caches, which is more
than the regressions the benchmark should catch.  So the worker also times a
fixed pure-Python integer loop (a "slice") every CALIBRATION_EVERY_S between
ops, and scales each op's latency to a reference speed:

    scaled = latency * REFERENCE_SLICE_S / median(slices around the op)

where the median runs over the CALIBRATION_WINDOW slices on each side.  The
loop allocates nothing the garbage collector tracks and has no data of its
own, so the program's heap and caches hardly change its time.  Raw latencies
are reported alongside the scaled ones.
"""

import os
import sys
import time

ROOT = os.path.abspath(sys.argv[1])
sys.path.insert(0, os.path.join(ROOT, "src"))

import quditcv  # noqa: E402
import quditcv.cli  # noqa: E402

READY = time.monotonic()

if not os.path.abspath(quditcv.__file__).startswith(os.path.join(ROOT, "src", "")):
    sys.exit(f"error: quditcv was imported from {quditcv.__file__}, not from {ROOT}/src")

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MAX_ERRORS_KEPT = 5
CALIBRATION_LOOP = 20_000
REFERENCE_SLICE_S = 1.8e-3  # the loop's time on a quiet 2-core x86-64 host, Python 3.11
CALIBRATION_EVERY_S = 0.05
CALIBRATION_WINDOW = 3
PROBE_SLICES = 5


def calibration_slice() -> float:
    """Time one run of a fixed integer loop: the host's speed right now."""
    begin = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - begin


def speed_factors(slices: list[float], before: list[int]) -> list[float]:
    """REFERENCE_SLICE_S / local slice time, per op; op i ran after slice before[i]."""
    return [
        REFERENCE_SLICE_S
        / statistics.median(slices[max(0, j + 1 - CALIBRATION_WINDOW): j + 1 + CALIBRATION_WINDOW])
        for j in before
    ]


def run_batch(name: str, seed: int, traced: bool, spans_path: str | None) -> dict:
    workdir = os.path.join(ROOT, ".bench_results", "tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.make(name, seed, workdir)
    tracer = Tracer() if traced else None
    latencies = []
    errors = []
    failed = 0
    clock = time.perf_counter
    slices = [calibration_slice()]
    before = []  # per op: index of the last slice timed before it
    last_slice = clock()
    origin = clock()
    try:
        if tracer:
            tracer.install()
        for op_id, op in enumerate(workload.ops):
            if tracer:
                tracer.begin_op(op_id)
            begin = clock()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # a raising op is a failed op, not a crashed batch
                error = f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - begin)
            before.append(len(slices) - 1)
            if tracer:
                tracer.end_op()
            if error is None:
                try:
                    error = workload.check(op, out)
                except Exception as exc:  # an output of the wrong shape fails its op too
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is None:
                workload.record(op, out)
            else:
                failed += 1
                if len(errors) < MAX_ERRORS_KEPT:
                    errors.append(f"{op.group}: {error}")
            if clock() - last_slice >= CALIBRATION_EVERY_S:
                slices.append(calibration_slice())
                last_slice = clock()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.uninstall()
        workload.close()
        os.rmdir(workdir)
    slices.append(calibration_slice())
    scaled = [x * f for x, f in zip(latencies, speed_factors(slices, before))]
    counts = workload.counts()
    result = {
        "ready": READY,
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors,
        "wall_s": sum(scaled),
        "latencies": scaled,
        "raw_wall_s": sum(latencies),
        "raw_latencies": latencies,
        "slices": slices,
        "peak_rss_mb": peak_rss_mb,
        "digests": workload.digests(),
        "counts": counts,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(counts.get("cli.rows", 0),
                                                counts.get("cli.csv_bytes", 0))
        if spans_path:
            result["spans"] = tracer.save(spans_path, origin)
    return result


def main() -> int:
    if sys.argv[2] == "--probe":
        slices = [calibration_slice() for _ in range(PROBE_SLICES)]
        speed = REFERENCE_SLICE_S / statistics.median(slices)
        print(json.dumps({"ready": READY, "speed": speed}))
        return 0
    name, seed, traced = sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    spans_path = sys.argv[5] if len(sys.argv) > 5 else None
    print(json.dumps(run_batch(name, seed, traced, spans_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
