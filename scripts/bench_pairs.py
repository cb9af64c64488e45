#!/usr/bin/env python3
"""Run the benchmark on a parent tree and a change tree in alternating pairs.

For each seed 1..10 and each workload it runs ``bench/run.py`` once in each
tree, the parent first at odd seeds and the change first at even ones, then
both once at the held-out seed 97, then four alternating traced pairs at
seed 7.  It reads every result back from the tree's ``.bench_results/`` and writes one
``BENCH_<pr>.json`` in the current directory: per workload and side the
median and quartiles (``statistics.quantiles``, inclusive) of each end-to-end
metric over the seeds, how many pairs the change won (ties count for
neither), the per-seed ``wall_s``, and whether every seed's output digests
matched, and every traced pair with the range of each layer's self time.

Usage (each tree a checkout with ``src/`` and ``bench/``):

    python3 scripts/bench_pairs.py --parent PARENT --change CHANGE --pr N \\
        --claim oracle_check:wall_s --summary "what the change does"

The run length is ``run_seconds`` in the change tree's BENCHMARK.json, which
also gives each metric's better direction.  It refuses to start while either
tree's ``src/`` or ``bench/`` holds a ``__pycache__``, or if the two sides would
run with different bytecode-write settings, and it records
``PYTHONDONTWRITEBYTECODE`` in the environment block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
HELD_OUT_SEED = 97
TRACE_SEED = 7
TRACE_PAIRS = 4  # traced runs are a few batches each, so one pair alone is noisy
MAX_LISTED_GROUPS = 50  # digests per group are listed only for workloads with few groups


def unequal_start(trees: dict[str, str]) -> str | None:
    """Why the sides would not start alike, or None: a __pycache__ under either tree's src/ or
    bench/ spares that side the compile its workers would otherwise pay at import, and so does
    running one side with bytecode writes on and the other with them off."""
    for side, tree in trees.items():
        for top in ("src", "bench"):
            for folder, subfolders, _ in os.walk(os.path.join(tree, top)):
                if "__pycache__" in subfolders:
                    return f"{side} tree holds {os.path.join(folder, '__pycache__')}; remove it"
    probe = [sys.executable, "-c", "import sys; print(sys.flags.dont_write_bytecode)"]
    flags = {side: subprocess.run(probe, cwd=tree, check=True, capture_output=True, text=True)
             .stdout.strip() for side, tree in trees.items()}
    if flags["parent"] != flags["change"]:
        return f"the sides would run with different bytecode-write settings: {flags}"
    return None


def run(tree: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One bench/run.py invocation in `tree`; returns the result file it wrote."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    subprocess.run(argv, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    suffix = "_trace" if trace else ""
    path = os.path.join(tree, ".bench_results", f"BENCH_{workload}_seed{seed}{suffix}.json")
    with open(path) as handle:
        return json.load(handle)


def values(record: dict) -> dict[str, float]:
    return {name: metric["value"] for name, metric in record["metrics"].items()}


def quartiles(samples: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "unit": unit}


def combined(digests: dict[str, str]) -> str:
    lines = "".join(f"{group}={digest}\n" for group, digest in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def summarize(pairs: list[tuple[dict, dict]], metrics: dict[str, dict]) -> dict:
    """Quartiles per side, pairs won by the change, and digest equality over `pairs`."""
    out: dict = {"seeds": list(SEEDS)}
    for side, index in (("parent", 0), ("change", 1)):
        out[side] = {name: quartiles([values(pair[index])[name] for pair in pairs], spec["unit"])
                     for name, spec in metrics.items()}
    out["change_better"] = {}
    for name, spec in metrics.items():
        sign = 1.0 if spec["better"] == "lower" else -1.0
        out["change_better"][name] = sum(
            sign * (values(parent)[name] - values(change)[name]) > 0 for parent, change in pairs)
    out["wall_s_per_seed"] = {side: [values(pair[index])["wall_s"] for pair in pairs]
                              for side, index in (("parent", 0), ("change", 1))}
    first = {side: pairs[0][index]["detail"]["digests"]
             for side, index in (("parent", 0), ("change", 1))}
    out["digests"] = {
        "groups": len(first["parent"]),
        "combined": {side: combined(digests) for side, digests in first.items()},
        "changed": sorted(group for group in first["parent"]
                          if first["change"].get(group) != first["parent"][group]),
        "every_seed_equal": all(parent["detail"]["digests"] == change["detail"]["digests"]
                                for parent, change in pairs),
    }
    if len(first["parent"]) <= MAX_LISTED_GROUPS:
        out["digests"].update(first)
    return out


def claim_note(workload: str, metric: str, result: dict) -> str:
    summary, held = result["workloads"][workload], result["held_out_seed"][workload]
    parent, change = summary["parent"][metric], summary["change"][metric]
    return (f"Claimed: {workload} {metric}, change better in "
            f"{summary['change_better'][metric]}/{len(summary['seeds'])} pairs; medians "
            f"{parent['median']:.4g} -> {change['median']:.4g} {parent['unit']} "
            f"({100 * (change['median'] / parent['median'] - 1):+.1f}%), parent IQR "
            f"{parent['iqr']:.4g}; held-out seed {held['seed']} {held['parent'][metric]:.4g} -> "
            f"{held['change'][metric]:.4g} with digests equal: {held['digests_equal']}.")


def trace_note(workload: str, result: dict) -> str:
    """Each layer's self-time range per side over the traced pairs, and whether counts repeat."""
    pairs = result["trace"][workload]["pairs"]
    spans = []
    for name in pairs[0]["parent"]:
        if name.endswith("self_s") and any(pair[side][name] for pair in pairs
                                           for side in ("parent", "change")):
            ranges = [f"{min(p[side][name] for p in pairs):.4f}-"
                      f"{max(p[side][name] for p in pairs):.4f}" for side in ("parent", "change")]
            spans.append(f"{name} {ranges[0]} -> {ranges[1]} s")
    counts = all(pair["parent"][name] == pair["change"][name] for pair in pairs
                 for name in pair["parent"] if not name.endswith("_s"))
    return (f"Traced at seed {TRACE_SEED} on {workload}, {len(pairs)} alternating pairs "
            f"(unscaled self times): {', '.join(spans)}; every count equal between the sides in "
            f"every pair: {counts}; correct on both sides in every pair: "
            f"{all(all(pair['correct']) for pair in pairs)}.")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pr", type=int, required=True, help="number n of BENCH_<n>.json")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument("--summary", default="", help="one line on what the change does")
    args = parser.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    if reason := unequal_start(trees):
        parser.error(reason)

    def pair(workload: str, seed: int, parent_first: bool, trace: bool = False
             ) -> tuple[dict, dict]:
        records = {}
        for side in ("parent", "change") if parent_first else ("change", "parent"):
            print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
            records[side] = run(trees[side], workload, seed, seconds, trace)
        return records["parent"], records["change"]

    runs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in workloads}
    for seed in SEEDS:  # seeds outermost, so a drift in machine speed spreads over every workload
        for workload in workloads:
            runs[workload].append(pair(workload, seed, seed % 2 == 1))
    held = {workload: pair(workload, HELD_OUT_SEED, True) for workload in workloads}
    traced: dict[str, list[tuple[dict, dict]]] = {w: [] for w in workloads}
    for index in range(TRACE_PAIRS):
        for workload in workloads:
            traced[workload].append(pair(workload, TRACE_SEED, index % 2 == 0, trace=True))

    env = runs[workloads[0]][0][1]["environment"]
    result = {
        "pr": args.pr,
        "change": args.summary,
        "parent_commit": runs[workloads[0]][0][0]["environment"]["git_commit"],
        "command": (f"python3 bench/run.py --workload <name> --seed <seed> --seconds {seconds:g} "
                    "--trace 0, run from a copy of each side's tree; pairs alternate which side "
                    "runs first (parent first at odd seeds)"),
        "environment": {**{key: env[key] for key in ("python", "numpy", "nproc", "machine")},
                        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "notes": "",
        "workloads": {w: summarize(runs[w], metrics) for w in workloads},
        "held_out_seed": {w: {"seed": HELD_OUT_SEED, "parent": values(p), "change": values(c),
                              "digests_equal": p["detail"]["digests"] == c["detail"]["digests"]}
                          for w, (p, c) in held.items()},
        "trace": {w: {"seed": TRACE_SEED,
                      "pairs": [{"parent_first": i % 2 == 0, "parent": values(p),
                                 "change": values(c), "correct": [p["correct"], c["correct"]]}
                                for i, (p, c) in enumerate(pairs)]}
                  for w, pairs in traced.items()},
    }
    every_equal = all(result["workloads"][w]["digests"]["every_seed_equal"] for w in workloads)
    result["notes"] = " ".join(
        ["medians and quartiles (statistics.quantiles, inclusive) are over the per-seed results "
         "(one per run); times are scaled by the bench's calibration slices. Every seed's "
         f"digests matched between the two sides: {every_equal}."]
        + [claim_note(*claim.split(":"), result) for claim in args.claim]
        + [trace_note(claim.split(":")[0], result) for claim in args.claim])
    out = f"BENCH_{args.pr}.json"
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(result["notes"])
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
