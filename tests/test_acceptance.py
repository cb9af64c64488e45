"""End-to-end acceptance gate.

Each test checks one stated deliverable at its stated tolerance, records a
single PASS/FAIL line (printed in the terminal summary), and then asserts.
Failures here are real: the recorded line always reflects the raw check.
"""

import math
import time
from fractions import Fraction

import numpy as np

from quditcv import cli, detectors, multimode, qudit, teleport
from quditcv.combinatorics import enumerate_compositions, restricted_weight

import oracles

RESULTS: list[tuple[str, bool, str]] = []

MC_SEED = 364  # frozen; see tests/oracles.py for the sampler it drives


def _record(name: str, passed: bool, detail: str) -> None:
    RESULTS.append((name, passed, detail))
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line)
    assert passed, line


def _overlap(a: teleport.FockVector, b: teleport.FockVector) -> float:
    size = max(a.cutoff, b.cutoff) + 1
    pa = np.zeros(size, dtype=complex)
    pb = np.zeros(size, dtype=complex)
    pa[: a.cutoff + 1] = a.amplitudes
    pb[: b.cutoff + 1] = b.amplitudes
    return abs(np.vdot(pa, pb))


def test_criterion_01_matched_fidelity_reference():
    start = time.perf_counter()
    squeeze = teleport.squeezing_from_vs(10.0)
    f_qubit = teleport.teleport_epr(squeeze, teleport.SchemeParams(11, 1)).fidelity
    f_quartit = teleport.teleport_epr(squeeze, teleport.SchemeParams(3, 3)).fidelity
    elapsed = time.perf_counter() - start
    ok_qubit = abs(f_qubit - 0.93) <= 0.02
    ok_quartit = abs(f_quartit - 0.93) <= 0.02
    passed = ok_qubit and ok_quartit and elapsed < 1.0
    _record(
        "matched-fidelity-reference",
        passed,
        f"f(d=1,N=11)={f_qubit:.6f} ({'in' if ok_qubit else 'OUT OF'} 0.93+-0.02), "
        f"f(d=3,N=3)={f_quartit:.6f} ({'in' if ok_quartit else 'OUT OF'} 0.93+-0.02), "
        f"runtime {elapsed:.3f}s < 1s",
    )


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_overlap_gap = 0.0
    worst_prob_gap = 0.0
    for n in range(1, 5):
        for d in range(1, 4):
            params = teleport.SchemeParams(n, d)
            for _ in range(50):
                z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
                state = teleport.FockVector(z / np.linalg.norm(z))
                closed = teleport.teleport_state(state, params)
                brute = multimode.oracle_teleport(state, params)
                worst_overlap_gap = max(
                    worst_overlap_gap, 1.0 - _overlap(closed.state, brute.state)
                )
                worst_prob_gap = max(
                    worst_prob_gap,
                    abs(closed.success_probability - brute.success_probability),
                )
    elapsed = time.perf_counter() - start
    passed = worst_overlap_gap <= 1e-10 and worst_prob_gap <= 1e-10 and elapsed < 60.0
    _record(
        "oracle-equivalence",
        passed,
        f"600 runs, max overlap gap {worst_overlap_gap:.2e} <= 1e-10, "
        f"max |dP| {worst_prob_gap:.2e} <= 1e-10, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_03_combinatorics_identities():
    exact = True
    for n in range(1, 21):
        for k in range(0, n + 1):
            exact &= restricted_weight(n, k, 1) == Fraction(math.comb(n, k))
    for n in range(1, 11):
        for d in range(1, 7):
            for k in range(0, d + 1):
                exact &= restricted_weight(n, k, d) == Fraction(
                    n**k, math.factorial(k)
                )
    for n in range(1, 6):
        for d in range(1, 5):
            for k in range(0, 13):
                streamed = sum(
                    (
                        Fraction(1, math.prod(math.factorial(r) for r in parts))
                        for parts in enumerate_compositions(n, k, d)
                    ),
                    Fraction(0),
                )
                exact &= streamed == restricted_weight(n, k, d)
    _record(
        "combinatorics-identities",
        exact,
        "binomial (N<=20), multinomial (k<=d), and enumeration-vs-DP "
        "(N<=5, k<=12, d<=4) identities hold exactly",
    )


def test_criterion_04_fock_gain_laws():
    def gain_fraction(k: int, n: int, d: int) -> Fraction:
        return restricted_weight(n, k, d) * math.factorial(k) / Fraction(n**k)

    identity_ok = True
    for n in range(1, 9):
        for d in range(1, 5):
            params = teleport.SchemeParams(n, d)
            for k in range(0, d + 1):
                identity_ok &= teleport.fock_gain(k, params) == 1.0
    two_photon_ok = all(
        teleport.fock_gain(2, teleport.SchemeParams(n, 1)) == (n - 1) / n
        for n in range(2, 30)
    )
    # pairs share the photon budget d*N = 20; larger d must dominate at every k
    pairs = [(1, 20), (2, 10), (4, 5), (5, 4), (10, 2), (20, 1)]
    dominance_ok = True
    for (d_lo, n_lo), (d_hi, n_hi) in zip(pairs, pairs[1:]):
        for k in range(0, 21):
            dominance_ok &= gain_fraction(k, n_hi, d_hi) >= gain_fraction(k, n_lo, d_lo)
    passed = identity_ok and two_photon_ok and dominance_ok
    _record(
        "fock-gain-laws",
        passed,
        f"identity region exact: {identity_ok}, gain(2)|d=1 = (N-1)/N: {two_photon_ok}, "
        f"dominance in d at dN=20 (exact rational): {dominance_ok}",
    )


def test_criterion_05_protocol_identity():
    rng = np.random.default_rng(2)
    worst_overlap_gap = 0.0
    worst_prob_gap = 0.0
    for dim in (2, 3, 4, 5, 8):
        resource = qudit.maximally_entangled(dim)
        for _ in range(100):
            phi = qudit.haar_random_ket(dim, rng)
            for outcome, ket in qudit.teleport_qudit_branches(phi, resource):
                worst_prob_gap = max(
                    worst_prob_gap, abs(outcome.probability - 1.0 / dim**2)
                )
                worst_overlap_gap = max(
                    worst_overlap_gap,
                    1.0 - abs(np.vdot(ket.amplitudes, phi.amplitudes)),
                )
    passed = worst_overlap_gap <= 1e-12 and worst_prob_gap <= 1e-12
    _record(
        "protocol-identity",
        passed,
        f"500 Haar inputs, every branch: max overlap gap {worst_overlap_gap:.2e} <= 1e-12, "
        f"max |p - 1/D^2| {worst_prob_gap:.2e} <= 1e-12",
    )


def test_criterion_06_depolarizing_law():
    rng = np.random.default_rng(MC_SEED)
    worst_mc = 0.0
    for p in (0.0, 0.5, 0.9):
        for dim in (2, 4):
            estimate = oracles.mc_depolarized_fidelity(p, dim, 10**5, rng)
            worst_mc = max(worst_mc, abs(estimate - qudit.depolarized_fidelity(p, dim)))
    worst_consistency = 0.0
    for dim in (2, 4):
        for p in np.linspace(0.0, 1.0, 101):
            singlet = p + (1.0 - p) / dim**2
            worst_consistency = max(
                worst_consistency,
                abs(
                    qudit.singlet_fraction_fidelity(singlet, dim)
                    - qudit.depolarized_fidelity(p, dim)
                ),
            )
    passed = worst_mc <= 1e-3 and worst_consistency <= 1e-12
    _record(
        "depolarizing-law",
        passed,
        f"MC (1e5 samples, seed {MC_SEED}) max |df| {worst_mc:.2e} <= 1e-3, "
        f"singlet-fraction consistency max |df| {worst_consistency:.2e} <= 1e-12",
    )


def test_criterion_07_povm_completeness():
    worst = 0.0
    for eta in (0.3, 0.7, 1.0):
        for nu in (0.0, 0.05):
            defect = detectors.povm_completeness_defect(
                detectors.DetectorModel(eta, nu), cutoff=15
            )
            worst = max(worst, defect)
    passed = worst <= 1e-8
    _record(
        "povm-completeness",
        passed,
        f"max identity defect {worst:.2e} <= 1e-8 over eta in {{0.3,0.7,1}}, "
        f"nu in {{0,0.05}}, cutoff 15",
    )


def test_criterion_08_scheme_comparison():
    corner = detectors.advantage_region(np.array([1.0]), np.array([1.0]))[0, 0]
    ratio = detectors.scheme2_success(1.0, 1.0, 3, model="quartit-interferometer") / (
        detectors.scheme1_success(1.0, 11, model="linear-optics")
    )
    ratio_ok = abs(ratio - 0.18**3 / 0.5**11) <= 1e-12 and abs(ratio - 11.9) < 0.1
    grid = np.linspace(0.0, 1.0, 41)
    region = detectors.advantage_region(grid, grid)
    # advantage is upward-closed in xi and downward-closed in eta
    monotone = True
    for i in range(41):
        row = region[i]
        monotone &= all(row[j + 1] or not row[j] for j in range(40))
    for j in range(41):
        col = region[:, j]
        monotone &= all(col[i] or not col[i + 1] for i in range(40))
    passed = bool(corner) and ratio_ok and monotone
    _record(
        "scheme-comparison",
        passed,
        f"advantage at (1,1): {bool(corner)}, ratio {ratio:.6f} ~ 11.9, "
        f"region monotone in both axes: {monotone}",
    )


def test_criterion_09_baselines():
    exact_baseline = teleport.conventional_cv_fidelity(0.0) == 0.5
    squeeze = teleport.squeezing_from_vs(10.0)
    monotone = True
    for d in (1, 2, 3):
        fids = [
            teleport.teleport_epr(squeeze, teleport.SchemeParams(n, d)).fidelity
            for n in range(1, 26)
        ]
        monotone &= all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))
    passed = exact_baseline and monotone
    _record(
        "baselines",
        passed,
        f"conventional_cv_fidelity(0) == 1/2 exactly: {exact_baseline}, "
        f"fidelity non-decreasing in N (N<=25, d in {{1,2,3}}): {monotone}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    commands = [
        ["gains", "--d", "1,2,4", "--n", "4,2,1"],
        ["epr-sweep", "--d", "1,2", "--n", "1:8"],
        ["compare", "--eta", "0:1:9", "--xi", "0:1:9"],
        ["teleport", "--alpha", "0.8,0.3", "--n", "2", "--d", "2"],
        ["povm", "--eta", "0.7", "--nu", "0.05", "--cutoff", "10"],
    ]
    identical = True
    for idx, argv in enumerate(commands):
        first = tmp_path / f"a{idx}.csv"
        second = tmp_path / f"b{idx}.csv"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        identical &= first.read_bytes() == second.read_bytes()
    _record(
        "cli-determinism",
        identical,
        f"double runs of {len(commands)} subcommands produce byte-identical CSV: {identical}",
    )
