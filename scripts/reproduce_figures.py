#!/usr/bin/env python3
"""Regenerate the headline datasets as CSV files.

Each output corresponds to one figure-style sweep:
  gains.csv            Fock gains at fixed photon budget d*N = 20
  epr_sweep_vs10.csv   EPR fidelity / success vs N for d = 1..5 at V_s = 10
  epr_sweep_vs3.csv    the same sweep at weaker squeezing, V_s = 3
  advantage.csv        detection-scheme advantage region on a 41x41 grid
  povm_apd.csv         click/no-click POVM weights for a lossy dark detector

Beside them it writes manifest.json: per job the CLI argv and the CSV's
sha256, plus the quditcv, numpy and Python versions.  Diffing the manifests
of two checkouts shows whether a change moved any dataset byte.

Usage: python3 scripts/reproduce_figures.py [--outdir DIR]
"""

import argparse
import hashlib
import json
import pathlib
import platform
import sys

import numpy as np

import quditcv
from quditcv.cli import main as cli_main

JOBS = [
    ("gains.csv", ["gains"]),
    ("epr_sweep_vs10.csv", ["epr-sweep", "--vs", "10"]),
    ("epr_sweep_vs3.csv", ["epr-sweep", "--vs", "3"]),
    ("advantage.csv", ["compare", "--eta", "0:1:41", "--xi", "0:1:41"]),
    ("povm_apd.csv", ["povm", "--eta", "0.7", "--nu", "0.05", "--cutoff", "15"]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="figures_data", help="output directory")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for filename, argv in JOBS:
        target = outdir / filename
        code = cli_main(argv + ["--out", str(target)])
        if code != 0:
            print(f"error: {' '.join(argv)} exited with {code}", file=sys.stderr)
            return code
        print(f"wrote {target}")
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        jobs.append({"csv": filename, "argv": argv, "sha256": digest})
    manifest = {
        "quditcv": quditcv.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "jobs": jobs,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
