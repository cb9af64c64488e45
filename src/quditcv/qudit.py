"""Exact state-vector simulation of D-dimensional teleportation.

Conventions, fixed once here:

* omega = exp(2*pi*i / D); Z|m> = omega^m |m>; X|m> = |m + 1 mod D>.
* The XOR gate maps |j>_target |i>_control to |i - j mod D>_target |i>_control.
* Tensor index order is (input, sender half, receiver half) = (0, 1, 2).
* A generalized Bell measurement projects systems (sys1, sys2) onto the
  product basis |k'> (x) |nu_l'> with |nu_l> the Fourier-phase states, after
  the sender's XOR has been applied.
* The correction for outcome (l', k') is Z^{l'} followed by X^{-k'}; with a
  maximally entangled resource this returns the input exactly, including the
  global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._frozen import freeze_field, integer, real, squared_norm

__all__ = [
    "BellOutcome",
    "JointQuditState",
    "QuditKet",
    "bell_measure",
    "depolarized_fidelity",
    "enumerate_bell_outcomes",
    "fourier_state",
    "haar_random_ket",
    "maximally_entangled",
    "singlet_fraction_fidelity",
    "teleport_qudit",
    "teleport_qudit_branches",
    "x_op",
    "xor_gate",
    "z_op",
]

_NORM_TOL = 1e-9


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

    @property
    def systems(self) -> tuple[int, ...]:
        return self.amplitudes.shape

    @property
    def num_systems(self) -> int:
        return self.amplitudes.ndim


@dataclass(frozen=True)
class BellOutcome:
    """One generalized-Bell result: Fourier index l', basis index k'."""

    ell: int
    kk: int
    probability: float


def maximally_entangled(dim: int) -> JointQuditState:
    """(1/sqrt(D)) sum_m |m>|m>."""
    dim = integer("dim", dim, 2)
    amps = np.zeros((dim, dim), dtype=complex)
    amps[np.arange(dim), np.arange(dim)] = 1.0 / math.sqrt(dim)
    return JointQuditState(amps)


def _matching_dim(state: JointQuditState, **systems: int) -> int:
    """The dimension two distinct systems of `state` share, given as name=index."""
    a, b = (integer(name, index) for name, index in systems.items())
    dims = state.systems
    if not (0 <= a < len(dims) and 0 <= b < len(dims)) or a == b:
        raise ValueError(f"need two distinct valid system indices, got {a}, {b}")
    if dims[a] != dims[b]:
        raise ValueError(f"dimension mismatch: system {a} has {dims[a]}, system {b} has {dims[b]}")
    return dims[a]


def xor_gate(state: JointQuditState, control: int, target: int) -> JointQuditState:
    """|j>_target |i>_control -> |i - j mod D>_target |i>_control."""
    dim = _matching_dim(state, control=control, target=target)
    moved = np.moveaxis(state.amplitudes, (target, control), (0, 1))
    t, c = np.ogrid[:dim, :dim]
    # new amplitude at (target=t, control=c) comes from target index c - t
    shuffled = moved[(c - t) % dim, np.broadcast_to(c, (dim, dim)), ...]
    return JointQuditState(np.moveaxis(shuffled, (0, 1), (target, control)))


def z_op(state: JointQuditState, index: int, power: int = 1) -> JointQuditState:
    """Apply Z^power on one subsystem: |m> -> omega^{m * power} |m>."""
    dim = state.systems[integer("index", index)]
    phases = np.exp(2j * np.pi * (integer("power", power) % dim) * np.arange(dim) / dim)
    shape = [1] * state.num_systems
    shape[index] = dim
    return JointQuditState(state.amplitudes * phases.reshape(shape))


def x_op(state: JointQuditState, index: int, power: int = 1) -> JointQuditState:
    """Apply X^power on one subsystem: |m> -> |m + power mod D>."""
    shift = integer("power", power) % state.systems[integer("index", index)]
    return JointQuditState(np.roll(state.amplitudes, shift, axis=index))


def fourier_state(ell: int, dim: int) -> QuditKet:
    """|nu_l> = (1/sqrt(D)) sum_k omega^{l k} |k>; orthonormal over l."""
    integer("dim", dim)
    if not 0 <= integer("ell", ell) < dim:
        raise ValueError(f"ell must lie in 0..{dim - 1}, got {ell}")
    k = np.arange(dim)
    return QuditKet(np.exp(2j * np.pi * ell * k / dim) / math.sqrt(dim))


def _bell_branches(
    state: JointQuditState, sys1: int, sys2: int
) -> tuple[np.ndarray, np.ndarray]:
    """All unnormalized projections onto |k'>_{sys1} |nu_l'>_{sys2}.

    Returns (branch, probs): branch[l, k, ...] is the residual amplitude
    tensor over the unmeasured systems, probs[l, k] its squared norm.
    """
    dim = _matching_dim(state, sys1=sys1, sys2=sys2)
    moved = np.moveaxis(state.amplitudes, (sys1, sys2), (0, 1))
    grid = np.outer(np.arange(dim), np.arange(dim))
    conj_fourier = np.exp(-2j * np.pi * grid / dim) / math.sqrt(dim)  # [l, i]
    branch = np.tensordot(conj_fourier, moved, axes=([1], [1]))  # [l, k, rest...]
    probs = np.abs(branch.reshape(dim, dim, -1)) ** 2
    return branch, probs.sum(axis=2)


def _collapse(branch: np.ndarray, probability: float) -> JointQuditState | None:
    if branch.ndim == 0:
        return None
    return JointQuditState(branch / math.sqrt(probability))


def bell_measure(
    state: JointQuditState,
    sys1: int,
    sys2: int,
    *,
    rng: np.random.Generator | None = None,
    outcome: tuple[int, int] | None = None,
) -> tuple[BellOutcome, JointQuditState | None]:
    """Measure (sys1, sys2) in the generalized Bell product basis.

    Pass a seeded ``rng`` to sample an outcome, or ``outcome=(ell, kk)`` to
    project on a specific branch.  Returns the outcome with its exact
    probability and the renormalized state of the remaining systems (None
    when nothing remains).

    Raises:
        ValueError: If an explicitly requested outcome has zero probability,
            or if neither ``rng`` nor ``outcome`` is given.
    """
    branch, probs = _bell_branches(state, sys1, sys2)
    dim = probs.shape[0]
    if outcome is not None:
        ell, kk = outcome
        if not (0 <= integer("ell", ell) < dim and 0 <= integer("kk", kk) < dim):
            raise ValueError(f"outcome indices must lie in 0..{dim - 1}, got {outcome}")
    elif rng is not None:
        flat = probs.ravel()
        ell, kk = divmod(int(rng.choice(dim * dim, p=flat / flat.sum())), dim)
    else:
        raise ValueError("provide a rng to sample or an explicit outcome to project")
    p = float(probs[ell, kk])
    if p == 0.0:  # only a requested outcome can have zero probability
        raise ValueError(f"zero-probability outcome requested: (ell={ell}, kk={kk})")
    return BellOutcome(ell, kk, p), _collapse(branch[ell, kk], p)


def enumerate_bell_outcomes(
    state: JointQuditState, sys1: int, sys2: int
) -> Iterator[tuple[BellOutcome, JointQuditState | None]]:
    """Yield all D^2 branches; zero-probability branches carry no remainder."""
    branch, probs = _bell_branches(state, sys1, sys2)
    for (ell, kk), p in np.ndenumerate(probs):
        yield BellOutcome(ell, kk, float(p)), _collapse(branch[ell, kk], p) if p > 0.0 else None


def _entangled_with_resource(phi: QuditKet, resource: JointQuditState) -> JointQuditState:
    dim = phi.dim
    if resource.num_systems != 2 or resource.systems != (dim, dim):
        raise ValueError(
            f"resource must be a two-system state of dimension {dim} each, "
            f"got systems {resource.systems}"
        )
    joint = JointQuditState(np.multiply.outer(phi.amplitudes, resource.amplitudes))
    # the sender entangles the input (system 0) with their half (system 1)
    return xor_gate(joint, control=1, target=0)


def _corrected(remainders: np.ndarray, ells, kks) -> np.ndarray:
    """Z^l then X^-k on each collapsed remainder row: x_op(z_op(row, 0, l), 0, -k) byte for byte."""
    dim = remainders.shape[1]
    m = np.arange(dim)
    phases = np.exp(2j * np.pi * np.asarray(ells)[:, None] * m / dim)  # z_op's phase row per l
    return np.take_along_axis(remainders * phases, (np.asarray(kks)[:, None] + m) % dim, axis=1)


def teleport_qudit(
    phi: QuditKet,
    resource: JointQuditState,
    *,
    rng: np.random.Generator | None = None,
    outcome: tuple[int, int] | None = None,
) -> tuple[QuditKet, BellOutcome]:
    """Run the full protocol for one (sampled or requested) outcome.

    With ``maximally_entangled(D)`` as the resource the returned ket equals
    ``phi`` exactly for every outcome; other resources degrade the output.
    """
    entangled = _entangled_with_resource(phi, resource)
    result, remainder = bell_measure(entangled, 0, 1, rng=rng, outcome=outcome)
    return QuditKet(_corrected(remainder.amplitudes[None], [result.ell], [result.kk])[0]), result


def teleport_qudit_branches(
    phi: QuditKet, resource: JointQuditState
) -> Iterator[tuple[BellOutcome, QuditKet | None]]:
    """Enumerate every outcome branch with its corrected output state, all corrected in one pass."""
    branch, probs = _bell_branches(_entangled_with_resource(phi, resource), 0, 1)
    ells, kks = np.nonzero(probs > 0.0)
    remainders = branch[ells, kks] / np.sqrt(probs[ells, kks])[:, None]  # as _collapse divides
    if not np.all(np.abs(np.linalg.norm(remainders, axis=1) ** 2 - 1.0) <= _NORM_TOL):
        raise ValueError("joint amplitudes must be normalized")
    kets = iter(_corrected(remainders, ells, kks))
    for (ell, kk), p in np.ndenumerate(probs):
        yield BellOutcome(ell, kk, float(p)), QuditKet(next(kets)) if p > 0.0 else None


def depolarized_fidelity(p: float, dim: int) -> float:
    """Channel fidelity p + (1 - p)/D over the resource p |phi><phi| + (1 - p) I / D^2."""
    if not 0.0 <= real("p", p) <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    return p + (1.0 - p) / integer("dim", dim, 2)


def singlet_fraction_fidelity(singlet_fraction: float, dim: int) -> float:
    """Best teleportation fidelity (F*D + 1)/(D + 1) from singlet fraction F.

    F below 1/D describes a resource worse than classical exchange; values
    anywhere in [0, 1] are accepted so the depolarized consistency identity
    F(p) = p + (1 - p)/D^2 can be evaluated down to p = 0.
    """
    dim = integer("dim", dim, 2)
    if not 0.0 <= real("singlet_fraction", singlet_fraction) <= 1.0:
        raise ValueError(f"singlet fraction must lie in [0, 1], got {singlet_fraction}")
    return (singlet_fraction * dim + 1.0) / (dim + 1.0)


def haar_random_ket(dim: int, rng: np.random.Generator) -> QuditKet:
    """Draw a ket uniformly from the unit sphere in C^dim."""
    z = rng.standard_normal(integer("dim", dim, 2)) + 1j * rng.standard_normal(dim)
    return QuditKet(z / np.linalg.norm(z))
