"""Command-line front end producing deterministic CSV datasets.

Every subcommand writes plain CSV (header row, 12-significant-digit floats,
LF line endings, rows in sorted order) either to --out or to stdout, so two
runs with identical flags are byte-identical.  `teleport` and `povm` take single
values, not lists.  Exit codes: 0 on success, 1 when `verify` finds a deviation,
2 on usage or configuration errors and on files that cannot be read or written.
"""

from __future__ import annotations

import argparse
import cmath
import collections
import contextlib
import functools
import math
import sys

import numpy as np

from . import detectors, teleport
from ._frozen import integer
from .combinatorics import _count_table, enumerate_compositions, restricted_weight

__all__ = ["main"]


# ---------------------------------------------------------------------------
# parsing and formatting helpers

_GRID_LIMIT = 10**6  # most entries a range or grid may expand to, checked before building


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma list ("1,2,3") or inclusive range ("1:25") of at most _GRID_LIMIT entries."""
    try:
        if ":" in text:
            lo, hi = (int(part) for part in text.split(":"))
            if not 0 <= hi - lo < _GRID_LIMIT:
                raise ValueError
            return tuple(range(lo, hi + 1))
        # a last part that still holds a comma fails to parse: at most _GRID_LIMIT entries
        return tuple(int(part) for part in text.split(",", _GRID_LIMIT - 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list like 1,2,3 or a range like 1:25 "
            f"of at most {_GRID_LIMIT} entries, got {text!r}"
        ) from None


def _parse_float_grid(text: str) -> tuple[float, ...]:
    """Comma list ("0.1,0.5") or linspace ("lo:hi:count", count <= _GRID_LIMIT, hi - lo finite)."""
    try:
        if ":" in text:
            lo_text, hi_text, count_text = text.split(":")
            lo, hi, count = float(lo_text), float(hi_text), int(count_text)
            if not (1 <= count <= _GRID_LIMIT and math.isfinite(hi - lo)):
                raise ValueError  # an infinite span would make linspace warn and emit nan
            with np.errstate(over="raise"):  # a finite span near the float limit can still overflow
                return tuple(float(x) for x in np.linspace(lo, hi, count))
        return tuple(float(part) for part in text.split(",", _GRID_LIMIT - 1))
    except (ValueError, FloatingPointError):
        raise argparse.ArgumentTypeError(
            f"expected a comma list like 0.1,0.2 or a finite grid like 0:1:21 "
            f"of at most {_GRID_LIMIT} points, got {text!r}"
        ) from None


def _parse_alpha(text: str) -> complex:
    with contextlib.suppress(ValueError):
        parts = [float(part) for part in text.split(",")]
        if len(parts) <= 2:
            return complex(*parts)
    raise argparse.ArgumentTypeError(f"expected re or re,im for a coherent amplitude, got {text!r}")


def _check_rows(rows: int, what: str) -> None:
    """Refuse, before anything is built, a request that would print more than _GRID_LIMIT rows."""
    if rows > _GRID_LIMIT:
        raise ValueError(f"budget exceeded: {what} {rows} rows, past the {_GRID_LIMIT} row limit")


def _spliced(*columns: list[str]) -> str:
    """Rows from equal-length columns of preformatted cells, each ending in a comma or newline.
    A cell may hold `%.12g` placeholders, and no other `%`: the caller fills them in one pass."""
    pieces = [""] * (len(columns) * len(columns[0]))
    for c, column in enumerate(columns):
        pieces[c::len(columns)] = column
    return "".join(pieces)


def _write_csv(out: str | None, header: str, chunks) -> None:
    """Write the header, then each chunk of complete lines, to --out or stdout."""
    target = contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", newline="")
    with target as handle:
        handle.write(header + "\n")
        handle.writelines(chunks)


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed argparse namespace

def cmd_gains(args: argparse.Namespace) -> int:
    """Fock gains for (d, N) pairs sharing one photon budget d*N."""
    d_list, n_list = args.d, args.n
    if len(d_list) != len(n_list) or not d_list:
        raise ValueError("--d and --n must list the same (non-zero) number of entries")
    budgets = {d * n for d, n in zip(d_list, n_list)}
    if len(budgets) != 1:
        raise ValueError(f"all (d, N) pairs must share one d*N budget, got {sorted(budgets)}")
    _check_rows(len(d_list) * ((budget := budgets.pop()) + 1), "the (d, N) pairs give")
    # all pass the budget check before any runs; a pair listed r times prints each row r times
    pairs = collections.Counter(zip(d_list, n_list))
    grid = [(d, n, r, teleport.SchemeParams(n, d)) for (d, n), r in sorted(pairs.items())]
    cells = [f"{k},%.12g\n" for k in range(budget + 1)]  # k and g(k): every pair has k = 0..d*N
    chunks = []
    for d, n, r, params in grid:
        rows = [cell for cell in cells for _ in range(r)]
        gains = np.repeat(teleport.gain_vector(params), r).tolist()
        chunks.append(_spliced([f"{d},{n},"] * len(rows), rows) % tuple(gains))
    _write_csv(args.out, "d,N,k,gain", chunks)
    return 0


def cmd_epr_sweep(args: argparse.Namespace) -> int:
    """Fidelity and success probability of the EPR arm over (d, N) grids."""
    squeeze = teleport.squeezing_from_vs(args.vs)
    _check_rows(len(args.d) * len(args.n), "the (d, N) grid gives")
    teleport.SchemeParams(max(args.n), max(args.d))  # if the largest pair fits, all do
    # all pass the budget check before any runs; in (d, N) order each d's table grows with N
    cells = sorted((d, n) for d in args.d for n in args.n)
    grid = [teleport.SchemeParams(n, d) for d, n in cells]
    values = []  # f and P_suc of each cell, in turn
    for params in grid:
        outcome = teleport.teleport_epr(squeeze, params)
        values += outcome.fidelity, outcome.success_probability
    chi = f"{squeeze.chi:.12g}"
    _write_csv(args.out, "d,N,chi,f,P_suc",
               ["".join([f"{d},{n},{chi},%.12g,%.12g\n" for d, n in cells]) % tuple(values)])
    return 0


def _spans(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per entry of sorted `values`, where its run of equal values starts and its length."""
    edges = np.concatenate(([0], np.flatnonzero(np.diff(values)) + 1, [len(values)]))
    return np.repeat(edges[:-1], lengths := np.diff(edges)), np.repeat(lengths, lengths)


_FLAG_ENDS = np.array(["%.12g,0\n", "%.12g,1\n"], dtype=object)  # scheme2 and the flag
_BLOCK = 4096  # most compare cells formatted and written as one chunk


def cmd_compare(args: argparse.Namespace) -> int:
    """Scheme-1 vs scheme-2 detection success on an (eta, xi) grid.

    The benchmark fixes matched fidelity: 11 qubit channels against 3
    quartit modules; the model picks the expression pair (see
    ``detectors.comparison_axes``).  Python scalar pow per axis; numpy only
    multiplies and compares: numpy's SIMD ``**`` differs from libm ``pow``
    in about 5% of entries (x**11 over 10^6 uniform x: 52,823 entries on an
    AVX-512 host, numpy 2.4).  Axis values are formatted once each, products in one pass per block.
    Rows come in the order a stable sort by (eta, xi) gives the eta-major
    grid: a lone eta value's row in the stable xi order, a run of equal eta
    (duplicates, or -0 and 0) by (xi, row, column), each tie class of xi
    rows-major.  They stream out at most _BLOCK rows at a time, so the text
    and the indices held follow the block, not the grid.
    """
    _check_rows(len(args.eta) * len(args.xi), "the (eta, xi) grid gives")
    p1, eta_part, xi_part = detectors.comparison_axes(args.eta, args.xi, args.model)
    eta, xi = np.array(args.eta), np.array(args.xi)
    eta_text, xi_text, p1_text = (np.array([f"{v:.12g}," for v in values.tolist()], dtype=object)
                                  for values in (eta, xi, p1))
    # the quartit scheme2 depends on xi alone: one "scheme2,advantage" tail per (xi, flag)
    tails = np.array([f"{v:.12g},{f}\n" for v in xi_part.tolist() for f in "01"], dtype=object)
    order, by_xi = np.argsort(eta, kind="stable"), np.argsort(xi, kind="stable")
    # per sorted row its run of equal eta, per by_xi position its tie class of equal xi
    (first, length_of), (low_of, width_of) = _spans(eta[order]), _spans(xi[by_xi])

    def lines(i, j):
        """The CSV lines of cells (eta[i], xi[j])."""
        p2 = xi_part[j] if eta_part is None else eta_part[i] * xi_part[j]
        flags = (p2 > p1[i]).view(np.int8)
        head = eta_text[i].tolist(), xi_text[j].tolist(), p1_text[i].tolist()
        if eta_part is None:
            return _spliced(*head, tails[2 * j + flags].tolist())
        return _spliced(*head, _FLAG_ENDS[flags].tolist()) % tuple(p2.tolist())

    def chunks():
        """Lines of the sorted grid's cells, _BLOCK at a time; a lone eta row is a run of one."""
        size, runs = len(eta) * len(xi), length_of.max() > 1
        for start in range(0, size, _BLOCK):
            cells = np.arange(start, min(start + _BLOCK, size))
            q, t = np.divmod(cells, len(xi))  # with no run, row q in by_xi order
            if runs:  # the run of sorted row q starts at cell first[q] * len(xi)
                row, length = first[q], length_of[q]
                local = cells - row * len(xi)
                low, width = low_of[tied := local // length], width_of[tied]  # its tie class
                q, t = np.divmod(local - length * low, width)  # rows-major within the class
                q, t = q + row, t + low
            yield lines(order[q], by_xi[t])

    _write_csv(args.out, "eta,xi,scheme1,scheme2,advantage", chunks())
    return 0


def _read_amplitudes(path: str) -> teleport.FockVector:
    try:
        with open(path) as handle:
            lines = list(handle)
    except OSError as exc:
        raise ValueError(f"cannot read amplitude file: {exc}") from None
    values = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 're,im', got {line!r}")
        try:
            values.append(complex(float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: amplitude entries must be numbers, got {line!r}"
            ) from None
        if not cmath.isfinite(values[-1]):
            raise ValueError(f"{path}:{lineno}: amplitude entries must be finite, got {line!r}")
    if not values:
        raise ValueError(f"{path}: no amplitudes found")
    arr = np.array(values, dtype=complex)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(arr)
    if norm == 0.0:
        raise ValueError(f"{path}: amplitudes are identically zero")
    if norm == math.inf:
        raise ValueError(f"{path}: the norm of the amplitudes overflows a float")
    return teleport.FockVector(arr / norm)


def cmd_teleport(args: argparse.Namespace) -> int:
    """Teleport one state (from file, normalized, or a coherent amplitude)."""
    params = teleport.SchemeParams(num_modes=args.n, photon_cutoff=args.d)
    if (args.infile is None) == (args.alpha is None):
        raise ValueError("provide exactly one input: an amplitude file or --alpha")
    outcome = (teleport.teleport_coherent(args.alpha, params) if args.infile is None
               else teleport.teleport_state(_read_amplitudes(args.infile), params))
    amps, p_suc = outcome.state.amplitudes, f"{outcome.success_probability:.12g}\n"
    _write_csv(args.out, "k,re,im,p_suc", [_spliced(  # the float view interleaves re and im
        [f"{k},%.12g,%.12g," for k in range(len(amps))], [p_suc] * len(amps))
        % tuple(amps.view(float).tolist())])
    return 0


def cmd_povm(args: argparse.Namespace) -> int:
    """Detector POVM weights per Fock level."""
    _check_rows((args.max_resolved + 2) * (args.cutoff + 1),  # elements 0..K and the closure
                f"--max-resolved {args.max_resolved} and --cutoff {args.cutoff} give")
    det = detectors.DetectorModel(eta=args.eta, nu=args.nu)
    family = detectors.pnr_povm(det, max_resolved=args.max_resolved, cutoff=args.cutoff)
    # pnr_povm lists 0..K then the closure, already in (element, m) order
    levels = [f"{m},%.12g\n" for m in range(args.cutoff + 1)]  # m and the weight
    chunks = (_spliced([f"{'rest' if e.clicks is None else e.clicks},"] * len(levels), levels)
              % tuple(e.weights.tolist()) for e in family)
    _write_csv(args.out, "element,m,weight", chunks)
    return 0


# ---------------------------------------------------------------------------
# verification suites

def _suite_combinatorics() -> float:
    from fractions import Fraction  # like multimode and qudit below, loaded by verify alone
    worst = 0.0
    for n in range(1, 13):
        for k in range(0, n + 1):
            worst = max(worst, abs(float(restricted_weight(n, k, 1)) - math.comb(n, k)))
    for n in range(1, 7):
        for d in range(1, 6):
            for k in range(0, d + 1):
                expected = n**k / math.factorial(k)
                worst = max(worst, abs(float(restricted_weight(n, k, d)) - expected))
    for n in range(1, 5):
        for d in range(1, 4):
            for k in range(0, 9):
                streamed = sum(Fraction(1, math.prod(map(math.factorial, parts)))
                               for parts in enumerate_compositions(n, k, d))
                worst = max(worst, abs(float(streamed - restricted_weight(n, k, d))))
    return worst


def _suite_gain_bounds() -> float:
    worst = 0.0
    for n in range(1, 9):
        for d in range(1, 5):
            params = teleport.SchemeParams(n, d)
            for k in range(0, n * d + 3):
                gain = teleport.fock_gain(k, params)
                worst = max(worst, -gain, gain - 1.0)
                if k <= d:
                    worst = max(worst, abs(gain - 1.0))
    return worst


def _suite_oracle_equivalence(seed: int) -> float:
    from . import multimode
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(1, 9):
        for d in (1, 2):
            params = teleport.SchemeParams(n, d)
            for _ in range(8):
                z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
                state = teleport.FockVector(z / np.linalg.norm(z))
                closed = teleport.teleport_state(state, params)
                brute = multimode.oracle_teleport(state, params)
                worst = max(worst, abs(closed.success_probability - brute.success_probability),
                            1.0 - teleport.state_fidelity(closed.state, brute.state))
    return worst


def _suite_protocol_identity(seed: int) -> float:
    from . import qudit
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dim in (2, 3, 5):
        resource = qudit.maximally_entangled(dim)
        for _ in range(12):
            phi = qudit.haar_random_ket(dim, rng)
            for outcome, ket in qudit.teleport_qudit_branches(phi, resource):
                worst = max(worst, abs(outcome.probability - 1.0 / dim**2),
                            1.0 - abs(np.vdot(ket.amplitudes, phi.amplitudes)))
    return worst


def _suite_povm_completeness() -> float:
    return max(detectors.povm_completeness_defect(detectors.DetectorModel(eta, nu), cutoff=15)
               for eta in (0.3, 0.7, 1.0) for nu in (0.0, 0.05))


# (N, d) with N*d <= 60, where the gains are correctly rounded ratios of exact word counts
_EPR_CELLS = ((1, 1), (2, 1), (11, 1), (60, 1), (1, 2), (3, 2), (30, 2), (3, 3), (20, 3),
              (15, 4), (12, 5), (10, 6), (1, 10), (6, 10))


def _suite_epr_arm() -> float:
    """teleport_epr's P and f against exact rationals: with x = chi^2 and g(k) = C_N(k) / N^k,
    S1 = sum x^k g(k) and S2 = sum x^k g(k)^2 give P = (1 - x) S2 and f^2 = (1 - x) S1^2 / S2."""
    from fractions import Fraction

    def series(y: Fraction, coefficients) -> Fraction:  # sum_k c_k y^k, divided once
        a, b, top = *y.as_integer_ratio(), len(coefficients) - 1
        return Fraction(sum(c * a**k * b ** (top - k) for k, c in enumerate(coefficients)),
                        b**top)

    worst = 0.0
    for v_s in (3.0, 10.0, 100.0):
        squeeze = teleport.squeezing_from_vs(v_s)
        x = Fraction(squeeze.chi) ** 2
        for n, d in _EPR_CELLS:
            counts = _count_table(n, d)
            s1, s2 = series(x / n, counts), series(x / n**2, [c * c for c in counts])
            out = teleport.teleport_epr(squeeze, teleport.SchemeParams(n, d))
            ratio = Fraction(out.fidelity) ** 2 * s2 / ((1 - x) * s1 * s1)  # (f / f_exact)^2
            worst = max(worst, abs(float(Fraction(out.success_probability) / ((1 - x) * s2) - 1)),
                        abs(float(ratio - 1)) / (1 + math.sqrt(ratio)))  # |f / f_exact - 1|
    return worst


def cmd_verify(args: argparse.Namespace) -> int:
    """Re-run the cross-validation suites and report max deviations."""
    integer("seed", args.seed, 0)  # a usage error, not a failed suite
    suites = [
        ("combinatorics-identities", _suite_combinatorics, 0.0),
        ("gain-bounds", _suite_gain_bounds, 0.0),
        ("oracle-equivalence", lambda: _suite_oracle_equivalence(args.seed), 1e-10),
        ("protocol-identity", lambda: _suite_protocol_identity(args.seed), 1e-12),
        ("povm-completeness", _suite_povm_completeness, 1e-8),
        ("epr-arm", _suite_epr_arm, 1e-14),
    ]
    all_passed = True
    for name, run, tolerance in suites:
        try:
            deviation, note = run(), ""
        except Exception as exc:  # deliberate: a crash is a failed suite
            deviation, note = math.inf, f"  ({exc})"
        passed = deviation <= tolerance
        all_passed &= passed
        print(f"suite {name:<26} max deviation {deviation:<12.3e} "
              f"tolerance {tolerance:<8.0e} {'PASS' if passed else 'FAIL'}{note}")
    print("verification " + ("passed" if all_passed else "FAILED"))
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument wiring

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="quditcv",
        description="Qudit-mediated continuous-variable teleportation calculators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gains = sub.add_parser("gains", help="Fock gains for (d, N) pairs at fixed d*N")
    gains.add_argument("--d", type=_parse_int_list, default=(1, 2, 4, 5, 10, 20),
                       help="per-mode cutoffs, comma list (default 1,2,4,5,10,20)")
    gains.add_argument("--n", type=_parse_int_list, default=(20, 10, 5, 4, 2, 1),
                       help="mode counts, pairing up with --d (default 20,10,5,4,2,1)")
    gains.set_defaults(run=cmd_gains)

    epr = sub.add_parser("epr-sweep", help="EPR-arm fidelity/success sweep")
    epr.add_argument("--vs", type=float, default=10.0, help="squeezing variance ratio (default 10)")
    epr.add_argument("--d", type=_parse_int_list, default=(1, 2, 3, 4, 5),
                     help="per-mode cutoffs (default 1,2,3,4,5)")
    epr.add_argument("--n", type=_parse_int_list, default=tuple(range(1, 26)),
                     help="mode counts, list or range a:b (default 1:25)")
    epr.set_defaults(run=cmd_epr_sweep)

    compare = sub.add_parser("compare", help="scheme-1 vs scheme-2 detection success")
    compare.add_argument("--eta", type=_parse_float_grid, default="0:1:21",
                         help="single-photon efficiency grid, list or lo:hi:count (default 0:1:21)")
    compare.add_argument("--xi", type=_parse_float_grid, default="0:1:21",
                         help="PNR efficiency grid (default 0:1:21)")
    compare.add_argument("--model", choices=detectors.COMPARE_MODELS,
                         default="quartit-interferometer",
                         help="expression pair for the two schemes")
    compare.set_defaults(run=cmd_compare)

    tele = sub.add_parser("teleport", help="teleport one state and print the output amplitudes")
    tele.add_argument("infile", nargs="?", default=None,
                      help="text file with one re,im amplitude pair per line (normalized on load)")
    tele.add_argument("--alpha", type=_parse_alpha, default=None,
                      help="coherent amplitude re[,im] as an alternative input")
    tele.add_argument("--n", type=int, required=True, help="number of modes N")
    tele.add_argument("--d", type=int, required=True, help="per-mode cutoff d")
    tele.set_defaults(run=cmd_teleport)

    povm = sub.add_parser("povm", help="detector POVM weights per Fock level")
    povm.add_argument("--eta", type=float, default=1.0, help="efficiency (default 1)")
    povm.add_argument("--nu", type=float, default=0.0, help="dark-count rate (default 0)")
    povm.add_argument("--max-resolved", type=int, default=1,
                      help="largest resolved click count K (default 1)")
    povm.add_argument("--cutoff", type=int, default=15, help="Fock cutoff (default 15)")
    povm.set_defaults(run=cmd_povm)

    for command in (gains, epr, compare, tele, povm):
        command.add_argument("--out", help="CSV output path (default stdout)")

    verify = sub.add_parser("verify", help="re-run cross-validation suites (exit 1 on failure)")
    verify.add_argument("--seed", type=int, default=0, help="seed for the randomized suites")
    verify.set_defaults(run=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
