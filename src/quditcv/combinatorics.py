"""Weighted counting of bounded photon configurations.

Distributing k photons over N modes with at most d photons per mode gives
the weight

    W(N, k, d) = sum over all (r_1, ..., r_N), sum_j r_j = k, 0 <= r_j <= d,
                 of  prod_j 1 / r_j!

W is the combinatorial factor picked up by the Fock state |k> when a
single-mode state is fanned out over N modes, truncated mode-wise at d
photons, and recombined.  Everything downstream (gains, success
probabilities, fidelities) reduces to evaluating W, so this module keeps it
exact: its tables hold the Python ints C_N(k) = k! W(N, k, d), the words of
length k over N letters that use each letter at most d times.
`fractions.Fraction` appears only where :func:`restricted_weight` returns
C_N(k) / k!, and floating point only in the explicit log-domain view.

Each d keeps only its last table of counts and of log weights: a larger N grows it
mode by mode, a smaller N starts from N = 0, so an ascending sweep never redoes a mode.

Two exact identities pin the implementation down:

* d = 1 recovers binomial coefficients, W(N, k, 1) = C(N, k).
* k <= d removes the per-mode bound, so W(N, k, d) = N^k / k! by the
  multinomial theorem.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from ._frozen import integer

__all__ = [
    "Composition",
    "enumerate_compositions",
    "restricted_weight",
    "restricted_weight_log",
]

# One way of placing the photons: an occupation number per mode.
Composition = tuple[int, ...]

# Up to this many photon slots (N*d) gains come from exact integer counts;
# beyond it the log-domain table is the default.
EXACT_LIMIT = 60
# Most photon slots N*d a table is built for, each measured cold on a 2-core Xeon host: the
# log table (restricted_weight_log, every closed form) took 1.2-1.4 s at N*d = 10^4, and the
# int counts behind restricted_weight 0.4-1.4 s at 1000 for (1000,1), (500,2), (100,10), (40,25).
PHOTON_BUDGET = 10**4
EXACT_BUDGET = 1000


def _checked(n_modes: int, total_photons: int, per_mode_cutoff: int) -> tuple[int, int, int]:
    return (integer("n_modes", n_modes, 1), integer("total_photons", total_photons, 0),
            integer("per_mode_cutoff", per_mode_cutoff, 1))


def _within(budget: int, n_modes: int, per_mode_cutoff: int) -> None:
    """Refuse a table of more than `budget` photon slots N*d before any of it is built."""
    if n_modes * per_mode_cutoff > budget:
        raise ValueError(f"budget exceeded: N*d = {n_modes * per_mode_cutoff} passes the "
                         f"{budget} photon-number budget")


# d -> (N, table) for the table _grown built last
_EXACT_TABLES: dict[int, tuple[int, tuple[int, ...]]] = {}
_LOG_TABLES: dict[int, tuple[int, np.ndarray]] = {}


def _grown(tables: dict, n_modes: int, per_mode_cutoff: int, empty, add_mode):
    # grow from the last table when the request is at or above its N, else from N = 0
    start, table = tables.get(per_mode_cutoff, (0, empty))
    if start > n_modes:
        start, table = 0, empty
    for _ in range(start, n_modes):
        table = add_mode(table, per_mode_cutoff)
    tables[per_mode_cutoff] = (n_modes, table)
    return table


def _add_mode_count(table: tuple[int, ...], per_mode_cutoff: int) -> tuple[int, ...]:
    # the new letter takes r of the k positions: C_{n+1}(k) = sum_r comb(k, r) C_n(k - r)
    return tuple(
        sum(math.comb(k, r) * table[k - r]
            for r in range(max(0, k - len(table) + 1), min(per_mode_cutoff, k) + 1))
        for k in range(len(table) + per_mode_cutoff)
    )


def _add_mode_log(table: np.ndarray, per_mode_cutoff: int) -> np.ndarray:
    grown = np.full(len(table) + per_mode_cutoff, -np.inf)
    grown[: len(table)] = table  # the r = 0 pass: logaddexp(-inf, x - lgamma(1)) is x exactly
    term = np.empty_like(table)
    for r in range(1, per_mode_cutoff + 1):
        window = grown[r : r + len(table)]
        np.logaddexp(window, np.subtract(table, math.lgamma(r + 1), out=term), out=window)
    grown.setflags(write=False)
    return grown


def _count_table(n_modes: int, per_mode_cutoff: int) -> tuple[int, ...]:
    """Word counts C_N(k) = k! W(N, k, d), k = 0..N*d, as Python ints; the last per d is kept."""
    return _grown(_EXACT_TABLES, n_modes, per_mode_cutoff, (1,), _add_mode_count)


def _log_weight_table(n_modes: int, per_mode_cutoff: int) -> np.ndarray:
    # W itself, grown by convolving with (1/r!)_{r<=d} in log space (logaddexp)
    # so entries stay finite for hundreds of photons; read-only, the last per d is kept.
    return _grown(_LOG_TABLES, n_modes, per_mode_cutoff, np.zeros(1), _add_mode_log)


def restricted_weight(n_modes: int, total_photons: int, per_mode_cutoff: int) -> Fraction:
    """Exact W(N, k, d).

    Args:
        n_modes: Number of modes N >= 1.
        total_photons: Total photon number k >= 0.
        per_mode_cutoff: Per-mode occupation bound d >= 1.

    Returns:
        The weight as an exact rational; it is 0 exactly when
        ``total_photons > n_modes * per_mode_cutoff``.

    Raises:
        ValueError: If any argument is outside its domain, or N*d > EXACT_BUDGET.
    """
    n_modes, total_photons, per_mode_cutoff = _checked(n_modes, total_photons, per_mode_cutoff)
    _within(EXACT_BUDGET, n_modes, per_mode_cutoff)
    if total_photons > n_modes * per_mode_cutoff:
        return Fraction(0)
    return Fraction(_count_table(n_modes, per_mode_cutoff)[total_photons],
                    math.factorial(total_photons))


def enumerate_compositions(
    n_modes: int, total_photons: int, per_mode_cutoff: int
) -> Iterator[Composition]:
    """Yield every admissible composition exactly once.

    The stream is ordered lexicographically descending (largest leading part
    first), which keeps golden tests stable.  It is empty when
    ``total_photons > n_modes * per_mode_cutoff``.  Summing 1 / prod(r_j!)
    over the stream reproduces :func:`restricted_weight`; the test suite
    uses that as an independent check on the dynamic program.
    """
    n_modes, total_photons, per_mode_cutoff = _checked(n_modes, total_photons, per_mode_cutoff)

    def walk(modes_left: int, photons_left: int, prefix: Composition) -> Iterator[Composition]:
        if modes_left == 0:
            if photons_left == 0:
                yield prefix
            return
        ceiling = min(per_mode_cutoff, photons_left)
        floor = max(0, photons_left - per_mode_cutoff * (modes_left - 1))
        for part in range(ceiling, floor - 1, -1):
            yield from walk(modes_left - 1, photons_left - part, prefix + (part,))

    return walk(n_modes, total_photons, ())


def restricted_weight_log(n_modes: int, total_photons: int, per_mode_cutoff: int) -> float:
    """Natural log of W(N, k, d), safe for photon numbers in the hundreds.

    For small tables (``n_modes * per_mode_cutoff <= EXACT_LIMIT``) the
    reduced numerator and denominator of the exact rational are logged, so
    the result is faithful to within one rounding of the true value; beyond
    that the log-space table is read, kept and grown over N like the counts.

    Raises:
        ValueError: With message ``"weight is zero"`` when the weight
            vanishes (``total_photons > n_modes * per_mode_cutoff``), since
            no finite log exists; "budget exceeded" when N*d > PHOTON_BUDGET.
    """
    n_modes, total_photons, per_mode_cutoff = _checked(n_modes, total_photons, per_mode_cutoff)
    _within(PHOTON_BUDGET, n_modes, per_mode_cutoff)
    if total_photons > n_modes * per_mode_cutoff:
        raise ValueError(
            f"weight is zero: {total_photons} photons cannot fit in "
            f"{n_modes} modes holding at most {per_mode_cutoff} each"
        )
    if n_modes * per_mode_cutoff <= EXACT_LIMIT:
        value = restricted_weight(n_modes, total_photons, per_mode_cutoff)
        return math.log(value.numerator) - math.log(value.denominator)
    return float(_log_weight_table(n_modes, per_mode_cutoff)[total_photons])
