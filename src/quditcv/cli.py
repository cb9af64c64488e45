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
from fractions import Fraction

import numpy as np

from . import detectors, multimode, qudit, teleport
from .combinatorics import enumerate_compositions, restricted_weight

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
    """Rows from equal-length columns of preformatted cells, each ending in a comma or newline."""
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
    _check_rows(len(d_list) * (budgets.pop() + 1), "the (d, N) pairs give")  # d*N + 1 rows each
    # all pass the budget check before any runs; a pair listed r times prints each row r times
    pairs = collections.Counter(zip(d_list, n_list))
    grid = [(d, n, r, teleport.SchemeParams(n, d)) for (d, n), r in sorted(pairs.items())]
    chunks = []
    for d, n, r, params in grid:
        gains = teleport.gain_vector(params).tolist()
        chunks.append(_spliced([f"{d},{n},"] * (r * len(gains)),
                               [f"{k}," for k in range(len(gains)) for _ in range(r)],
                               [f"{g:.12g}\n" for g in gains for _ in range(r)]))
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
    fidelity, p_suc = [], []
    for params in grid:
        outcome = teleport.teleport_epr(squeeze, params)
        fidelity.append(f"{outcome.fidelity:.12g},")
        p_suc.append(f"{outcome.success_probability:.12g}\n")
    chi = f"{squeeze.chi:.12g}"
    _write_csv(args.out, "d,N,chi,f,P_suc",
               [_spliced([f"{d},{n},{chi}," for d, n in cells], fidelity, p_suc)])
    return 0


_FLAG_ENDS = np.array(["0\n", "1\n"], dtype=object)


def cmd_compare(args: argparse.Namespace) -> int:
    """Scheme-1 vs scheme-2 detection success on an (eta, xi) grid.

    The benchmark fixes matched fidelity: 11 qubit channels against 3
    quartit modules; the model picks the expression pair (see
    ``detectors.comparison_axes``).  Python scalar pow per axis; numpy only
    multiplies and compares: numpy's SIMD ``**`` differs from libm ``pow``
    in about 5% of entries (x**11 over 10^6 uniform x: 52,823 entries on an
    AVX-512 host, numpy 2.4).  Each distinct value is formatted once, and
    rows stream out one run of equal eta at a time, in the order a stable
    sort by (eta, xi) gives the eta-major grid (duplicates and -0 included).
    """
    _check_rows(len(args.eta) * len(args.xi), "the (eta, xi) grid gives")
    eta = np.array(args.eta, dtype=float)
    xi = np.array(args.xi, dtype=float)
    p1, eta_part, xi_part = detectors.comparison_axes(eta, xi, args.model)
    eta_text, xi_text, p1_text = (np.array([f"{v:.12g}," for v in values.tolist()], dtype=object)
                                  for values in (eta, xi, p1))
    # the quartit scheme2 depends on xi alone: one "scheme2,advantage" tail per (xi, flag)
    tails = np.array([f"{v:.12g},{f}\n" for v in xi_part.tolist() for f in "01"], dtype=object)

    def chunks():
        order = np.argsort(eta, kind="stable")
        for rows in np.split(order, np.flatnonzero(np.diff(eta[order])) + 1):
            # a stable sort of xi tiled once per equal-eta row orders cells by (xi, i, j)
            cell = np.argsort(np.tile(xi, len(rows)), kind="stable")
            i, j = rows[cell // len(xi)], cell % len(xi)
            p2 = xi_part[j] if eta_part is None else eta_part[i] * xi_part[j]
            flags = (p2 > p1[i]).view(np.int8)
            head = eta_text[i].tolist(), xi_text[j].tolist(), p1_text[i].tolist()
            if eta_part is None:
                yield _spliced(*head, tails[2 * j + flags].tolist())
            else:
                scheme2 = [f"{v:.12g}," for v in p2.tolist()]
                yield _spliced(*head, scheme2, _FLAG_ENDS[flags].tolist())

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
            raise ValueError(f"{path}: amplitude entries must be numbers") from None
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
    _write_csv(args.out, "k,re,im,p_suc", [_spliced(
        [f"{k}," for k in range(len(amps))], [f"{v:.12g}," for v in amps.real.tolist()],
        [f"{v:.12g}," for v in amps.imag.tolist()], [p_suc] * len(amps))])
    return 0


def cmd_povm(args: argparse.Namespace) -> int:
    """Detector POVM weights per Fock level."""
    _check_rows((args.max_resolved + 2) * (args.cutoff + 1),  # elements 0..K and the closure
                f"--max-resolved {args.max_resolved} and --cutoff {args.cutoff} give")
    det = detectors.DetectorModel(eta=args.eta, nu=args.nu)
    family = detectors.pnr_povm(det, max_resolved=args.max_resolved, cutoff=args.cutoff)
    # pnr_povm lists 0..K then the closure, already in (element, m) order
    levels = [f"{m}," for m in range(args.cutoff + 1)]
    chunks = (_spliced([f"{'rest' if e.clicks is None else e.clicks},"] * len(levels), levels,
                       [f"{w:.12g}\n" for w in e.weights.tolist()]) for e in family)
    _write_csv(args.out, "element,m,weight", chunks)
    return 0


# ---------------------------------------------------------------------------
# verification suites

def _suite_combinatorics() -> float:
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


def cmd_verify(args: argparse.Namespace) -> int:
    """Re-run the cross-validation suites and report max deviations."""
    suites = [
        ("combinatorics-identities", _suite_combinatorics, 0.0),
        ("gain-bounds", _suite_gain_bounds, 0.0),
        ("oracle-equivalence", lambda: _suite_oracle_equivalence(args.seed), 1e-10),
        ("protocol-identity", lambda: _suite_protocol_identity(args.seed), 1e-12),
        ("povm-completeness", _suite_povm_completeness, 1e-8),
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
