"""Seeded workloads: the operations each one runs and the checks on their outputs.

A workload turns a seed into a fixed list of :class:`Op`.  Each op calls
public quditcv functions through module attributes at call time, so the
tracing wrappers see it.  Op counts and sizes come from fixed lists; the seed
only draws input values (squeezing, amplitudes, grids) and, except in
cli_datasets, the op order, so the cost of a batch does not depend on the
seed.

Checks run after each op, outside its timed region, against references this
module computes itself; an op whose check fails counts as failed.  Every
op's output bytes also feed a sha256 digest per output group, recorded as
data so a later change can show that its bytes did not move.
"""

from __future__ import annotations

import hashlib
import math
import os
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from quditcv import cli, multimode, qudit, teleport

EXACT_REL = 1e-12  # closed form against exact rationals (N*d <= 60 or d = 1)
ORACLE_TOL = 1e-10  # closed form against the dense Fock oracle
QUDIT_TOL = 1e-12  # qudit branches: fidelity 1, probability 1/D^2
POVM_TOL = 1e-8  # POVM family sums to the identity
CSV_REL = 1e-11  # values printed with 12 significant digits
EXACT_LIMIT = 60  # largest N*d checked against exact rationals


class Op(NamedTuple):
    group: str  # outputs of one group share a digest
    run: Callable[[], object]
    data: tuple  # inputs the check needs


class ExactGains:
    """g(k) = W(N, k, d) k! / N^k from exact rationals, for k = 0..N*d.

    W(N, ., d) is grown one mode at a time from W(N-1, ., d) by convolving
    with (1/r!) for r = 0..d, so a sweep over N costs one dynamic program per
    d.  d = 1 uses the binomial closed form C(N, k) k!/N^k instead.
    """

    def __init__(self) -> None:
        self._weights: dict[int, list[list[Fraction]]] = {}
        self._gains: dict[tuple[int, int], np.ndarray] = {}

    def __call__(self, n: int, d: int) -> np.ndarray:
        key = (n, d)
        if key not in self._gains:
            if d == 1:
                exact = [Fraction(math.perm(n, k), n**k) for k in range(n + 1)]
            else:
                exact = [w * math.factorial(k) / Fraction(n) ** k
                         for k, w in enumerate(self._weight(n, d))]
            self._gains[key] = np.array([float(g) for g in exact])
        return self._gains[key]

    def _weight(self, n: int, d: int) -> list[Fraction]:
        tables = self._weights.setdefault(d, [[Fraction(1)]])
        series = [Fraction(1, math.factorial(r)) for r in range(d + 1)]
        while len(tables) <= n:
            last = tables[-1]
            grown = [Fraction(0)] * (len(last) + d)
            for k, w in enumerate(last):
                for r, s in enumerate(series):
                    grown[k + r] += w * s
            tables.append(grown)
        return tables[n]


def _has_exact(n: int, d: int) -> bool:
    return d == 1 or n * d <= EXACT_LIMIT


def _rel_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want) / np.abs(want)))


def _check_gains(gains: np.ndarray, n: int, d: int, exact: ExactGains) -> str | None:
    """Recovered gains: g(k) = 1 for k <= d, and the exact value where known."""
    head = gains[: d + 1]
    if np.max(np.abs(head - 1.0)) > EXACT_REL:
        return f"g(k) != 1 for k <= d at N={n} d={d}"
    if _has_exact(n, d):
        err = _rel_error(gains, exact(n, d)[: len(gains)])
        if err > EXACT_REL:
            return f"gain off the exact rational by {err:.2e} at N={n} d={d}"
    return None


def _state_outcome_error(outcome, expected_len: int) -> str | None:
    p = outcome.success_probability
    if not 0.0 < p <= 1.0:
        return f"P_suc={p} outside (0, 1]"
    amps = outcome.state.amplitudes
    if len(amps) != expected_len:
        return f"output has {len(amps)} amplitudes, expected {expected_len}"
    if abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) > EXACT_REL:
        return "output state not normalized"
    return None


def _outcome_bytes(outcome) -> bytes:
    return outcome.state.amplitudes.tobytes() + np.float64(outcome.success_probability).tobytes()


def _random_state(rng: np.random.Generator, size: int) -> np.ndarray:
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return z / np.linalg.norm(z)


class Workload:
    """Base: holds the op list and the per-group output digests."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.exact = ExactGains()
        self.ops: list[Op] = []
        self._digests: dict = {}

    def check(self, op: Op, out) -> str | None:
        raise NotImplementedError

    def output_bytes(self, op: Op, out) -> bytes:
        raise NotImplementedError

    def record(self, op: Op, out) -> None:
        """Add an op's output to its group digest; call after :meth:`check`."""
        self._digests.setdefault(op.group, hashlib.sha256()).update(self.output_bytes(op, out))

    def digests(self) -> dict[str, str]:
        return {group: h.hexdigest() for group, h in sorted(self._digests.items())}

    def counts(self) -> dict[str, int]:
        return {}

    def close(self) -> None:
        pass


class EprSweep(Workload):
    """teleport_epr over d = 1..10, N = 1..100 (d outer), twice: cold, then warm."""

    name = "epr_sweep"
    D_RANGE = range(1, 11)
    N_RANGE = range(1, 101)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.v_s = (float(self.rng.uniform(6.0, 14.0)), float(self.rng.uniform(2.0, 5.0)))
        for sweep, v_s in enumerate(self.v_s, start=1):
            for d in self.D_RANGE:
                for n in self.N_RANGE:
                    self.ops.append(Op(f"pass{sweep} d={d} N={n}", _epr_call(v_s, n, d), (v_s, n, d)))

    def check(self, op: Op, out) -> str | None:
        v_s, n, d = op.data
        schmidt, p, f = out
        if not 0.0 < p <= 1.0:
            return f"P_suc={p} outside (0, 1] at N={n} d={d}"
        if not 0.0 < f <= 1.0:
            return f"f={f} outside (0, 1] at N={n} d={d}"
        if len(schmidt) != n * d + 1:
            return f"{len(schmidt)} Schmidt coefficients at N={n} d={d}"
        if abs(float(np.sum(schmidt**2)) - 1.0) > EXACT_REL:
            return f"Schmidt coefficients not normalized at N={n} d={d}"
        chi = (v_s - 1.0) / (v_s + 1.0)
        chi_pow = chi ** np.arange(n * d + 1).astype(float)
        gains = schmidt / (schmidt[0] * chi_pow)
        error = _check_gains(gains, n, d, self.exact)
        if error or not _has_exact(n, d):
            return error
        g = self.exact(n, d)
        p_ref = (1.0 - chi**2) * float(np.sum(chi_pow**2 * g**2))
        f_ref = (1.0 - chi**2) / math.sqrt(p_ref) * float(np.sum(chi_pow**2 * g))
        if abs(p - p_ref) > EXACT_REL * p_ref or abs(f - f_ref) > EXACT_REL * f_ref:
            return f"P_suc or f off the exact value at N={n} d={d}"
        return None

    def output_bytes(self, op: Op, out) -> bytes:
        schmidt, p, f = out
        return schmidt.tobytes() + np.array([p, f]).tobytes()


def _epr_call(v_s: float, n: int, d: int):
    def run():
        return teleport.teleport_epr(teleport.squeezing_from_vs(v_s), teleport.SchemeParams(n, d))
    return run


class StateStream(Workload):
    """teleport_state / teleport_coherent requests at a few fixed (N, d), tables warm."""

    name = "state_stream"
    # on both sides of the N*d = 60 exact/log boundary
    CONFIGS = ((2, 1), (3, 2), (11, 1), (3, 3), (20, 4), (50, 3))
    STATES_PER_CONFIG = 1200
    COHERENT_PER_CONFIG = 800
    CUTOFF = 40

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        ops = []
        for n, d in self.CONFIGS:
            for _ in range(self.STATES_PER_CONFIG):
                amps = _random_state(self.rng, self.CUTOFF + 1)
                ops.append(Op(f"state N={n} d={d}", _state_call(amps, n, d), ("state", amps, n, d)))
            for _ in range(self.COHERENT_PER_CONFIG):
                alpha = complex(self.rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * self.rng.random()))
                ops.append(Op(f"coherent N={n} d={d}", _coherent_call(alpha, n, d),
                              ("coherent", alpha, n, d)))
        self.ops = [ops[i] for i in self.rng.permutation(len(ops))]

    def check(self, op: Op, out) -> str | None:
        kind, given, n, d = op.data
        if kind == "state":
            expected_len = min(self.CUTOFF, n * d) + 1
        else:
            expected_len = n * d + 1  # the coherent cutoff is chosen past N*d
        error = _state_outcome_error(out, expected_len)
        if error:
            return f"{error} at N={n} d={d}"
        amps = out.state.amplitudes
        k = np.arange(expected_len)
        if kind == "state":
            ratio = given[0] / given[:expected_len]
        else:  # c_0 / c_k = sqrt(k!) / alpha^k for a coherent state
            log_mag = 0.5 * np.array([math.lgamma(x + 1) for x in k]) - k * math.log(abs(given))
            ratio = np.exp(log_mag - 1j * k * np.angle(given))
        limit = min(expected_len, EXACT_LIMIT + 1)
        gains = amps[:limit] / amps[0] * ratio[:limit]
        error = _check_gains(gains, n, d, self.exact)
        if error or kind != "state" or not _has_exact(n, d):
            return error
        p_ref = float(np.sum(np.abs(given[:expected_len]) ** 2 * self.exact(n, d)[:expected_len] ** 2))
        if abs(out.success_probability - p_ref) > EXACT_REL * p_ref:
            return f"P_suc off the exact value at N={n} d={d}"
        return None

    def output_bytes(self, op: Op, out) -> bytes:
        return _outcome_bytes(out)


def _state_call(amps: np.ndarray, n: int, d: int):
    def run():
        return teleport.teleport_state(teleport.FockVector(amps), teleport.SchemeParams(n, d))
    return run


def _coherent_call(alpha: complex, n: int, d: int):
    def run():
        return teleport.teleport_coherent(alpha, teleport.SchemeParams(n, d))
    return run


class OracleCheck(Workload):
    """Random states through the dense Fock oracle and the closed form, plus qudit branches."""

    name = "oracle_check"
    # (N, cap, d) -> states; (cap+1)^N stays at or below 7^5
    CONFIGS = {(2, 8, 1): 20, (3, 8, 2): 20, (4, 6, 2): 30, (4, 8, 3): 15, (5, 5, 2): 15,
               (5, 6, 2): 20}
    QUDIT_DIMS = {2: 10, 3: 10, 5: 10}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        ops = []
        for (n, cap, d), count in self.CONFIGS.items():
            for _ in range(count):
                amps = _random_state(self.rng, cap + 1)
                ops.append(Op(f"oracle N={n} cap={cap} d={d}", _oracle_call(amps, n, d),
                              ("oracle", amps, n, d)))
        for dim, count in self.QUDIT_DIMS.items():
            for _ in range(count):
                phi = _random_state(self.rng, dim)
                ops.append(Op(f"qudit D={dim}", _qudit_call(phi), ("qudit", phi)))
        self.ops = [ops[i] for i in self.rng.permutation(len(ops))]

    def check(self, op: Op, out) -> str | None:
        kind, given, *params = op.data
        if kind == "qudit":
            dim = len(given)
            if len(out) != dim * dim:
                return f"{len(out)} Bell branches for D={dim}"
            for outcome, ket in out:
                if abs(outcome.probability - 1.0 / dim**2) > QUDIT_TOL:
                    return f"branch probability {outcome.probability} != 1/D^2 for D={dim}"
                if ket is None or 1.0 - abs(np.vdot(ket.amplitudes, given)) > QUDIT_TOL:
                    return f"branch fidelity below 1 for D={dim}"
            return None
        n, d = params
        brute, closed = out
        error = _state_outcome_error(closed, min(len(given) - 1, n * d) + 1)
        if error:
            return f"{error} at N={n} d={d}"
        if abs(closed.success_probability - brute.success_probability) > ORACLE_TOL:
            return f"closed-form and oracle P_suc disagree at N={n} d={d}"
        padded = np.zeros(len(brute.state.amplitudes), dtype=complex)
        padded[: len(closed.state.amplitudes)] = closed.state.amplitudes
        if 1.0 - abs(np.vdot(padded, brute.state.amplitudes)) > ORACLE_TOL:
            return f"closed-form and oracle states disagree at N={n} d={d}"
        return None

    def output_bytes(self, op: Op, out) -> bytes:
        if op.data[0] == "qudit":
            return b"".join(np.float64(o.probability).tobytes() + ket.amplitudes.tobytes()
                            for o, ket in out)
        return b"".join(_outcome_bytes(outcome) for outcome in out)


def _oracle_call(amps: np.ndarray, n: int, d: int):
    def run():
        state = teleport.FockVector(amps)
        params = teleport.SchemeParams(n, d)
        return multimode.oracle_teleport(state, params), teleport.teleport_state(state, params)
    return run


def _qudit_call(phi: np.ndarray):
    def run():
        ket = qudit.QuditKet(phi)
        return list(qudit.teleport_qudit_branches(ket, qudit.maximally_entangled(len(phi))))
    return run


class CliDatasets(Workload):
    """In-process cli.main calls writing CSV: mostly compare and povm, some gains and teleport."""

    name = "cli_datasets"
    # 100 ops.  Sizes are fixed; the counts put p50 among the mid-sized povm
    # and gains calls and p90 inside the block of twelve 101x101 compares.
    COMPARE_SIZES = (101,) * 12 + (151, 201, 301, 401)
    COMPARE_MODELS = ("quartit-interferometer", "linear-optics", "deterministic")
    POVM_SIZES = (((1, 15),) * 8 + ((5, 30),) * 8 + ((10, 50),) * 8 + ((20, 100),) * 8
                  + ((30, 120),) * 4 + ((50, 200),) * 2)
    GAINS_BUDGETS = (12, 20, 24, 30) * 7
    TELEPORT_PARAMS = ((2, 1), (3, 2), (4, 2), (11, 1), (3, 3), (5, 4)) * 3
    ORDER_SEED = 0

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed)
        self.out = os.path.join(workdir, "out.csv")
        self.rows = 0
        self.csv_bytes = 0
        rng = self.rng
        ops = []
        for i, size in enumerate(self.COMPARE_SIZES):
            model = self.COMPARE_MODELS[i % len(self.COMPARE_MODELS)]
            eta = (round(rng.uniform(0.0, 0.3), 4), round(rng.uniform(0.7, 1.0), 4), size)
            xi = (round(rng.uniform(0.0, 0.3), 4), round(rng.uniform(0.7, 1.0), 4), size)
            argv = ["compare", "--eta", "{}:{}:{}".format(*eta), "--xi", "{}:{}:{}".format(*xi),
                    "--model", model]
            ops.append(("compare", argv, (eta, xi, model)))
        for max_resolved, cutoff in self.POVM_SIZES:
            eta, nu = round(rng.uniform(0.3, 1.0), 4), round(rng.uniform(0.0, 0.1), 4)
            argv = ["povm", "--eta", str(eta), "--nu", str(nu),
                    "--max-resolved", str(max_resolved), "--cutoff", str(cutoff)]
            ops.append(("povm", argv, (max_resolved, cutoff)))
        for budget in self.GAINS_BUDGETS:
            pairs = [(d, budget // d) for d in range(1, budget + 1) if budget % d == 0]
            argv = ["gains", "--d", ",".join(str(d) for d, _ in pairs),
                    "--n", ",".join(str(n) for _, n in pairs)]
            ops.append(("gains", argv, (pairs,)))
        for n, d in self.TELEPORT_PARAMS:
            alpha = (round(rng.uniform(-1.5, 1.5), 4), round(rng.uniform(-1.5, 1.5), 4))
            argv = ["teleport", "--alpha={},{}".format(*alpha), "--n", str(n), "--d", str(d)]
            ops.append(("teleport", argv, (n, d)))
        # a mixed order, but the same for every seed: the peak RSS depends on
        # which ops ran before the largest ones
        order = np.random.default_rng(self.ORDER_SEED).permutation(len(ops))
        self.ops = []
        for j, i in enumerate(order):
            kind, argv, data = ops[i]
            label = f"op{j:03d} " + " ".join(argv)
            self.ops.append(Op(label, _cli_call(argv + ["--out", self.out]), (kind, *data)))
        self._csv = b""  # bytes of the last op's CSV, read by check()

    def check(self, op: Op, out) -> str | None:
        self._csv = b""
        if out != 0:
            return f"exit code {out}: {op.group}"
        with open(self.out, "rb") as handle:
            self._csv = handle.read()
        os.remove(self.out)
        if not self._csv.endswith(b"\n"):
            return "CSV does not end with a newline"
        rows = _CsvRows(self._csv)
        self.csv_bytes += len(self._csv)
        self.rows += len(rows)
        kind, *data = op.data
        return getattr(self, f"_check_{kind}")(rows, *data)

    def output_bytes(self, op: Op, out) -> bytes:
        return self._csv

    def record(self, op: Op, out) -> None:
        super().record(op, out)
        # drop the CSV now, so the checker's copy of it does not add to the
        # peak RSS of the next op
        self._csv = b""

    def counts(self) -> dict[str, int]:
        return {"cli.rows": self.rows, "cli.csv_bytes": self.csv_bytes}

    def _check_compare(self, rows, eta, xi, model) -> str | None:
        if rows.header != "eta,xi,scheme1,scheme2,advantage":
            return f"compare header {rows.header!r}"
        eta_grid, xi_grid = np.linspace(*eta), np.linspace(*xi)
        if len(rows) != len(eta_grid) * len(xi_grid):
            return f"compare wrote {len(rows)} rows"
        picks = self.rng.choice(len(rows), size=min(64, len(rows)), replace=False)
        e = eta_grid[picks // len(xi_grid)]
        x = xi_grid[picks % len(xi_grid)]
        p1 = e**22 if model == "deterministic" else 0.5**11 * e**11
        p2 = 0.18**3 * x**9 if model == "quartit-interferometer" else x**3 * e**3
        picked = [rows[i] for i in picks]
        got = np.array([[float(v) for v in row[:4]] for row in picked])
        want = np.column_stack([e, x, p1, p2])
        if np.any(np.abs(got - want) > CSV_REL * np.abs(want)):
            return "compare rows differ from the numpy re-derivation"
        flags = np.array([row[4] for row in picked])
        clear = np.abs(p2 - p1) > 1e-9 * np.maximum(p1, p2)
        if np.any(flags[clear] != np.where(p2 > p1, "1", "0")[clear]):
            return "compare advantage flags differ from the numpy re-derivation"
        return None

    def _check_povm(self, rows, max_resolved, cutoff) -> str | None:
        if rows.header != "element,m,weight":
            return f"povm header {rows.header!r}"
        if len(rows) != (max_resolved + 2) * (cutoff + 1):
            return f"povm wrote {len(rows)} rows"
        total = np.zeros(cutoff + 1)
        for _, m, weight in rows:
            total[int(m)] += float(weight)
        if np.max(np.abs(total - 1.0)) > POVM_TOL:
            return "POVM family does not sum to the identity"
        return None

    def _check_gains(self, rows, pairs) -> str | None:
        if rows.header != "d,N,k,gain":
            return f"gains header {rows.header!r}"
        budget = pairs[0][0] * pairs[0][1]
        if len(rows) != len(pairs) * (budget + 1):
            return f"gains wrote {len(rows)} rows"
        table = {(int(d), int(n), int(k)): float(g) for d, n, k, g in rows}
        for d, n in pairs:
            got = np.array([table[(d, n, k)] for k in range(budget + 1)])
            want = self.exact(n, d)
            if np.any(np.abs(got - want) > CSV_REL * want):
                return f"gains differ from the exact rational at N={n} d={d}"
        return None

    def _check_teleport(self, rows, n, d) -> str | None:
        if rows.header != "k,re,im,p_suc":
            return f"teleport header {rows.header!r}"
        if len(rows) != n * d + 1:
            return f"teleport wrote {len(rows)} rows"
        values = np.array([[float(v) for v in row] for row in rows])
        if abs(float(np.sum(values[:, 1] ** 2 + values[:, 2] ** 2)) - 1.0) > 1e-10:
            return "teleported state not normalized"
        if not np.all((values[:, 3] > 0.0) & (values[:, 3] <= 1.0)):
            return "p_suc outside (0, 1]"
        return None

    def close(self) -> None:
        if os.path.exists(self.out):
            os.remove(self.out)


class _CsvRows:
    """Data rows of a CSV file by index, split into fields on access.

    Only the newline offsets are held, so checking a few rows of a large
    file does not raise the worker's peak memory above the program's own.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
        self.header = data[: self._ends[0]].decode()

    def __len__(self) -> int:
        return len(self._ends) - 1

    def __getitem__(self, i: int) -> list[str]:
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self._data[self._ends[i] + 1 : self._ends[i + 1]].decode().split(",")


def _cli_call(argv: list[str]):
    def run():
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage by exiting
            return exc.code
    return run


WORKLOADS = {w.name: w for w in (EprSweep, StateStream, OracleCheck, CliDatasets)}


def make(name: str, seed: int, workdir: str) -> Workload:
    if name == CliDatasets.name:
        return CliDatasets(seed, workdir)
    return WORKLOADS[name](seed)
