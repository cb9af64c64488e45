"""Exact state-vector simulation of D-dimensional teleportation.

Conventions, fixed once here:

* omega = exp(2*pi*i / D); Z|m> = omega^m |m>; X|m> = |m + 1 mod D>.
* The XOR gate maps |j>_target |i>_control to |i - j mod D>_target |i>_control.
* Tensor index order is (input, sender half, receiver half) = (0, 1, 2).
* The generalized Bell measurement projects the input and the sender's half
  (systems 0 and 1) onto the product basis |k'> (x) |nu_l'>, with
  |nu_l> = (1/sqrt(D)) sum_k omega^{l k} |k> the Fourier-phase states, after
  the sender's XOR has been applied.
* The correction for outcome (l', k') is Z^{l'} followed by X^{-k'}; with a
  maximally entangled resource this returns the input exactly, including the
  global phase.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from ._frozen import adopt, freeze_field, instance, integer, real, squared_norm

__all__ = [
    "BellOutcome", "JointQuditState", "QuditKet", "depolarized_fidelity", "haar_random_ket",
    "maximally_entangled", "singlet_fraction_fidelity", "teleport_qudit", "teleport_qudit_branches",
]

_NORM_TOL = 1e-9
_Tables = collections.namedtuple("_Tables", "conj_fourier phases shift xor resource")


@dataclass(frozen=True, eq=False)
class QuditKet:
    """Normalized pure state of a single D-dimensional system."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = freeze_field(self, "amplitudes", complex)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a qudit needs a 1-d amplitude vector of dimension >= 2")
        if not abs(squared_norm(arr) - 1.0) <= _NORM_TOL:  # refuses NaN too
            raise ValueError("qudit amplitudes must be normalized")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


def _unit_rows(rows: np.ndarray) -> bool:
    """Whether each row of a C-contiguous 2-d complex array has unit norm to _NORM_TOL (not NaN)."""
    return bool(np.all(np.abs((rows.view(np.float64) ** 2).sum(axis=1) - 1.0) <= _NORM_TOL))


def _kets(rows: np.ndarray) -> list[QuditKet]:
    """QuditKet(row) per row of a fresh 2-d complex array: rows frozen in place, no row copied."""
    if not _unit_rows(rows):
        raise ValueError("qudit amplitudes must be normalized")
    rows.setflags(write=False)
    return [adopt(QuditKet, amplitudes=row) for row in rows]


@dataclass(frozen=True, eq=False)
class JointQuditState:
    """Normalized state of several qudits as a dense tensor, one axis each."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = freeze_field(self, "amplitudes", complex)
        if arr.ndim < 1 or any(s < 2 for s in arr.shape):
            raise ValueError("each subsystem needs dimension >= 2")
        if not abs(squared_norm(arr.ravel()) - 1.0) <= _NORM_TOL:
            raise ValueError("joint amplitudes must be normalized")


class BellOutcome(NamedTuple):
    """One generalized-Bell result: Fourier index l', basis index k'."""

    ell: int
    kk: int
    probability: float


@functools.lru_cache(maxsize=8)  # D^2 entries each: one call already holds a D^3 tensor
def _tables(dim: int) -> _Tables:
    """D's operators, read-only: <nu_l| rows [l, i], Z^l's phase rows [l, m], X^-k's gather [k, m]
    = m + k mod D, the XOR's target index [t, c] = c - t mod D, and maximally_entangled(D)."""
    m = np.arange(dim)
    tables = _Tables(np.exp(-2j * np.pi * np.outer(m, m) / dim) / math.sqrt(dim),
                     np.exp(2j * np.pi * m[:, None] * m / dim), (m[:, None] + m) % dim,
                     (m - m[:, None]) % dim, JointQuditState(np.eye(dim) / math.sqrt(dim)))
    for table in tables[:-1]:
        table.setflags(write=False)
    return tables


def maximally_entangled(dim: int) -> JointQuditState:
    """(1/sqrt(D)) sum_m |m>|m>: one immutable state per D, held with the D's tables."""
    return _tables(integer("dim", dim, 2)).resource


def _xor(amps: np.ndarray) -> np.ndarray:
    """The XOR gate on an amplitude tensor whose axes 0 and 1 are the target and the control."""
    return amps[_tables(len(amps)).xor, np.arange(len(amps))]


def _projected(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measuring axes 0, 1 of a 3-axis tensor: the residual rows branch[l, k] and probs[l, k]."""
    dim = len(amps)
    # np.tensordot(conj_fourier, amps, axes=([1], [1]))'s own dot, without its wrapper
    branch = np.dot(_tables(dim).conj_fourier, amps.transpose(1, 0, 2).reshape(dim, -1))
    branch = branch.reshape(dim, dim, -1)  # [l, k, receiver]
    return branch, (np.abs(branch) ** 2).sum(axis=2)


def _entangled_with_resource(phi: QuditKet, resource: JointQuditState) -> np.ndarray:
    """The joint tensor after the sender's XOR, unchecked: the checked inputs fix its norm."""
    dim = instance("phi", phi, QuditKet).dim
    shape = instance("resource", resource, JointQuditState).amplitudes.shape
    if shape != (dim, dim):
        raise ValueError(f"resource must be a two-system state of dimension {dim} each, "
                         f"got systems {shape}")
    # the sender entangles the input (system 0, the target) with their half (system 1, the control)
    return _xor(np.multiply.outer(phi.amplitudes, resource.amplitudes))


def _corrected(remainders: np.ndarray, ells, kks) -> np.ndarray:
    """Z^l then X^-k on each collapsed remainder row, as the textbook operators give it."""
    tables, rows = _tables(remainders.shape[1]), np.arange(len(remainders))[:, None]
    return (remainders * tables.phases[ells])[rows, tables.shift[kks]]


def _branch_kets(branch: np.ndarray, probs: np.ndarray, ells, kks) -> list[QuditKet]:
    """The corrected output ket of each live branch (ells[i], kks[i]), all in one pass."""
    remainders = branch[ells, kks] / np.sqrt(probs[ells, kks])[:, None]
    if not _unit_rows(remainders):
        raise ValueError("joint amplitudes must be normalized")
    return _kets(_corrected(remainders, ells, kks))


def teleport_qudit(phi: QuditKet, resource: JointQuditState, *,
                   rng: np.random.Generator | None = None, outcome: tuple[int, int] | None = None
                   ) -> tuple[QuditKet, BellOutcome]:
    """Run the full protocol for one outcome: ``outcome=(ell, kk)`` if given, else drawn by ``rng``.

    With ``maximally_entangled(D)`` as the resource the returned ket equals
    ``phi`` exactly for every outcome; other resources degrade the output.

    Raises:
        ValueError: If ``outcome`` is not a pair of integers in 0..D-1 or has
            zero probability, or if no outcome is given and ``rng`` is not a
            numpy Generator.
    """
    branch, probs = _projected(_entangled_with_resource(phi, resource))
    dim = len(probs)
    if outcome is not None:
        try:
            ell, kk = outcome
        except (TypeError, ValueError):
            raise ValueError(f"outcome must be a pair (ell, kk), got {outcome!r}") from None
        ell, kk = integer("ell", ell), integer("kk", kk)
        if not (0 <= ell < dim and 0 <= kk < dim):
            raise ValueError(f"outcome indices must lie in 0..{dim - 1}, got {outcome}")
    elif rng is None:
        raise ValueError("provide a rng to sample or an explicit outcome to project")
    else:
        flat = probs.ravel()
        draw = instance("rng", rng, np.random.Generator).choice(dim * dim, p=flat / flat.sum())
        ell, kk = divmod(int(draw), dim)
    p = float(probs[ell, kk])
    if p == 0.0:  # only a requested outcome can have zero probability
        raise ValueError(f"zero-probability outcome requested: (ell={ell}, kk={kk})")
    return _branch_kets(branch, probs, [ell], [kk])[0], BellOutcome(ell, kk, p)


def teleport_qudit_branches(phi: QuditKet, resource: JointQuditState
                            ) -> Iterator[tuple[BellOutcome, QuditKet | None]]:
    """Enumerate every outcome branch with its corrected output state, all corrected in one pass."""
    branch, probs = _projected(_entangled_with_resource(phi, resource))
    kets = iter(_branch_kets(branch, probs, *np.nonzero(probs > 0.0)))
    for ell, row in enumerate(probs.tolist()):
        for kk, p in enumerate(row):
            yield BellOutcome(ell, kk, p), next(kets) if p > 0.0 else None


def depolarized_fidelity(p: float, dim: int) -> float:
    """Channel fidelity p + (1 - p)/D over the resource p |phi><phi| + (1 - p) I / D^2."""
    p = real("p", p, 0.0, 1.0)
    return p + (1.0 - p) / integer("dim", dim, 2)


def singlet_fraction_fidelity(singlet_fraction: float, dim: int) -> float:
    """Best teleportation fidelity (F*D + 1)/(D + 1) from singlet fraction F.

    F below 1/D describes a resource worse than classical exchange; values
    anywhere in [0, 1] are accepted so the depolarized consistency identity
    F(p) = p + (1 - p)/D^2 can be evaluated down to p = 0.
    """
    dim = integer("dim", dim, 2)
    singlet_fraction = real("singlet_fraction", singlet_fraction, 0.0, 1.0)
    return (singlet_fraction * dim + 1.0) / (dim + 1.0)


def haar_random_ket(dim: int, rng: np.random.Generator) -> QuditKet:
    """Draw a ket uniformly from the unit sphere in C^dim."""
    dim = integer("dim", dim, 2)
    rng = instance("rng", rng, np.random.Generator)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return QuditKet(z / np.linalg.norm(z))
