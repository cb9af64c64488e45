"""Truncated-Fock simulation of the split/truncate/recombine pipeline.

This is the slow, obviously-correct cross-check for the closed forms in
:mod:`quditcv.teleport`: mode mixing is lifted to Fock space by applying the
transformed creation operators photon by photon, and nothing here knows
about the combinatorial weights.  The pipeline is

    embed |psi> in mode 0 -> balanced split -> per-mode photon cutoff P
    -> read amplitude k off the split column s_k = U|k,0,...,0>.

The inverse split and vacuum post-selection keep <k,0,...,0|U^dagger P|psi>
= <s_k|P|psi> = c_k ||P s_k||^2: P is diagonal in occupation and s_k lies in
the k-photon sector, so no other column overlaps it.

:func:`oracle_teleport` holds each P s_k on the occupations of its sector
that P keeps, which the creation operators themselves build from vacuum,
and keeps nothing but the norms ||P s_k||^2 per (N, d).  The dense (cap+1)^N
grid API, :class:`MultimodeState` with :func:`apply_mode_unitary`,
:func:`truncate_mode` and :func:`vacuum_postselect`, runs every step of the
pipeline literally; the tests hold the oracle's read-off against it.

The splitter is realized as the discrete-Fourier-transform unitary; its
first column is uniform, which is the only property the pipeline relies on,
and its inverse is simply the conjugate transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._frozen import freeze_field, instance, integer
from .teleport import FockVector, SchemeParams, TeleportOutcome, _renormalized

__all__ = [
    "ModeMatrix", "MultimodeState", "apply_mode_unitary", "embed_input", "n_splitter",
    "oracle_teleport", "truncate_mode", "vacuum_postselect",
]

# cost one oracle call may reach: its index-map entries plus _STEP_COST per scatter-add step,
# a step's fixed numpy overhead counted in entries.  Whole sectors are charged, a loose bound on
# the kept occupations built.  10^6 caps one sector's index map at 8 MB of int64 and admits
# (N, cap, d) = (10, 9, 9), where P keeps every occupation
_INDEX_BUDGET = 10**6
_STEP_COST = 100


@dataclass(frozen=True, eq=False)
class ModeMatrix:
    """Unitary acting on the mode operators (not on Fock amplitudes directly)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = freeze_field(self, "entries", complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("entries must form a square matrix")
        if not (np.isfinite(arr).all()  # first: an infinite entry warns inside the product
                and np.max(np.abs(arr @ arr.conj().T - np.eye(arr.shape[0]))) <= 1e-12):
            raise ValueError("matrix is not unitary to 1e-12")

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def inverse(self) -> "ModeMatrix":
        return ModeMatrix(self.entries.conj().T)


@dataclass(frozen=True, eq=False)
class MultimodeState:
    """Dense amplitudes over occupation vectors, one tensor axis per mode.

    Norms are tracked by callers: truncation deliberately leaves the state
    unnormalized so probabilities stay legible through the pipeline.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = freeze_field(self, "amplitudes", complex)
        if arr.ndim < 1:
            raise ValueError("amplitudes must carry at least one mode axis")
        if len(set(arr.shape)) != 1:
            raise ValueError("every mode must share one common photon cap")

    @property
    def num_modes(self) -> int:
        return self.amplitudes.ndim

    @property
    def per_mode_cap(self) -> int:
        """Largest occupation representable on each axis."""
        return self.amplitudes.shape[0] - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def n_splitter(num_modes: int) -> ModeMatrix:
    """Balanced splitter: the N-point DFT unitary, first column 1/sqrt(N)."""
    num_modes = integer("num_modes", num_modes, 1)
    j = np.arange(num_modes)
    return ModeMatrix(np.exp(2j * np.pi * np.outer(j, j) / num_modes) / math.sqrt(num_modes))


def embed_input(state: FockVector, num_modes: int, cap: int | None = None) -> MultimodeState:
    """Place a single-mode state in mode 0 with vacuum everywhere else."""
    num_modes = integer("num_modes", num_modes, 1)
    cap = instance("state", state, FockVector).cutoff if cap is None else integer("cap", cap)
    if cap < state.cutoff:
        raise ValueError(f"cap {cap} cannot hold the input cutoff {state.cutoff}")
    amps = np.zeros((cap + 1,) * num_modes, dtype=complex)
    amps[(slice(None),) + (0,) * (num_modes - 1)][: state.cutoff + 1] = state.amplitudes
    return MultimodeState(amps)


def _create(tensor: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """sum_j coefficients[j] a_j^dagger on a dense tensor; raises if a photon passes the cap."""
    cap = tensor.shape[0] - 1
    weights = np.sqrt(np.arange(1.0, cap + 1)).reshape((cap,) + (1,) * (tensor.ndim - 1))
    out = np.zeros_like(tensor)
    raised = np.empty_like(tensor[:cap])  # reused per axis: fresh temporaries page-fault
    for axis, coeff in enumerate(coefficients):
        if coeff == 0:
            continue
        moved = np.moveaxis(tensor, axis, 0)
        if np.any(moved[cap] != 0):
            raise ValueError("cap exceeded: a creation operator pushed an occupation "
                             f"past the per-mode cap {cap}")
        np.moveaxis(out, axis, 0)[1:] += np.multiply(coeff * weights, moved[:cap], out=raised)
    return out


def _lift_column(matrix: np.ndarray, occupation: tuple[int, ...], cap: int) -> np.ndarray:
    """Image of the basis state |occupation| under the lifted mode unitary.

    Built as prod_i (sum_j U[j, i] a_j^dagger)^{n_i} / sqrt(n_i!) acting on
    vacuum, one photon at a time.
    """
    column = np.zeros((cap + 1,) * len(occupation), dtype=complex)
    column[(0,) * len(occupation)] = 1.0
    for mode, count in enumerate(occupation):
        for photons in range(1, count + 1):
            column = _create(column, matrix[:, mode]) / math.sqrt(photons)
    return column


def apply_mode_unitary(state: MultimodeState, matrix: ModeMatrix) -> MultimodeState:
    """Lift a mode unitary to the truncated Fock space and apply it.

    Photon number is conserved sector by sector, so the action is unitary as
    long as no occupied sector can spill past the common cap.

    Raises:
        ValueError: "cap exceeded" when some occupied amplitude would need an
            occupation beyond the cap after mixing.
    """
    if matrix.size != state.num_modes:
        raise ValueError(
            f"matrix mixes {matrix.size} modes but the state carries {state.num_modes}"
        )
    amps = state.amplitudes
    out = np.zeros_like(amps)
    for raw in np.argwhere(amps != 0):
        occupation = tuple(int(x) for x in raw)
        out += amps[occupation] * _lift_column(matrix.entries, occupation, state.per_mode_cap)
    return MultimodeState(out)


def truncate_mode(
    state: MultimodeState, mode_index: int, max_photons: int
) -> tuple[MultimodeState, float]:
    """Zero every amplitude whose occupation at one mode exceeds max_photons.

    Returns the (unnormalized) surviving state and the discarded squared norm.
    """
    if not 0 <= integer("mode_index", mode_index) < state.num_modes:
        raise ValueError(f"mode index {mode_index} out of range")
    max_photons = integer("max_photons", max_photons, 0)
    if max_photons >= state.per_mode_cap:
        return state, 0.0
    amps = state.amplitudes.copy()
    sel = [slice(None)] * state.num_modes
    sel[mode_index] = slice(max_photons + 1, None)
    discarded = float(np.sum(np.abs(amps[tuple(sel)]) ** 2))
    amps[tuple(sel)] = 0.0
    return MultimodeState(amps), discarded


def vacuum_postselect(state: MultimodeState, kept_mode: int) -> tuple[FockVector, float]:
    """Project every mode except kept_mode onto vacuum.

    Returns the renormalized single-mode state and the conditional
    probability of the projection given the input state.

    Raises:
        ValueError: If fewer than two modes are present or the projection has
            zero probability.
    """
    if state.num_modes < 2:
        raise ValueError("need at least two modes to post-select")
    if not 0 <= integer("kept_mode", kept_mode) < state.num_modes:
        raise ValueError(f"mode index {kept_mode} out of range")
    index: list[object] = [0] * state.num_modes
    index[kept_mode] = slice(None)
    kept = state.amplitudes[tuple(index)]
    kept_mass = float(np.sum(np.abs(kept) ** 2))
    total = state.norm() ** 2
    if kept_mass == 0.0 or total == 0.0:
        raise ValueError("zero-probability projection: no amplitude has all other modes empty")
    return FockVector(kept / math.sqrt(kept_mass)), kept_mass / total


# (N, d) -> ||P s_k||^2 for k = 1, 2, ... up to the largest top asked for so far
_NORMS: dict[tuple[int, int], list[np.float64]] = {}


def _next_sector(below: list[tuple[int, ...]], cutoff: int
                 ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """``raised[j, r]``, the rank of occupation r of ``below`` plus a photon in mode j (-1 if a
    mode passes `cutoff`), and those kept occupations in rank order: the order of first creation."""
    rank: dict[tuple[int, ...], int] = {}
    raised = [[rank.setdefault(occ[:j] + (occ[j] + 1,) + occ[j + 1:], len(rank))
               if occ[j] < cutoff else -1 for occ in below] for j in range(len(below[0]))]
    return np.array(raised), list(rank)


def _kept_norms(num_modes: int, cutoff: int, top: int) -> list[np.float64]:
    """||P s_k||^2 for k = 1..top (or more), P cutting every mode at `cutoff` photons."""
    norms = _NORMS.get((num_modes, cutoff), [])
    if len(norms) < top:
        # n_splitter's first column
        spread = np.full(num_modes, 1 / math.sqrt(num_modes), dtype=complex)
        below, column, norms = [(0,) * num_modes], np.ones(1, dtype=complex), []
        for k in range(1, top + 1):
            raised, above = _next_sector(below, cutoff)
            scaled = (spread / math.sqrt(k))[:, None] * np.sqrt(np.array(below, float).T + 1.0)
            lifted = np.zeros(len(above) + 1, dtype=complex)  # the last slot takes P's drops
            for j in range(num_modes):
                lifted[raised[j]] += scaled[j] * column
            below, column = above, lifted[:-1]
            norms.append(np.sum(np.abs(column) ** 2))
        _NORMS[num_modes, cutoff] = norms
    return norms


def oracle_teleport(state: FockVector, params: SchemeParams) -> TeleportOutcome:
    """Run the whole pipeline by brute force, one photon-number sector at a time.

    With b^dagger = sum_j U[j, 0] a_j^dagger the splitter's image of the input
    mode, the split columns s_0 = |0...0>, s_k = b^dagger s_{k-1} / sqrt(k) are
    built one photon at a time and held one at a time.  The input splits to
    psi = sum_j c_j s_j, and P cuts every mode at d photons.  Recombining and
    post-selecting vacuum keeps <k,0,...,0|U^dagger P psi> = <s_k|P psi>, and
    <s_k|P|s_j> = 0 for j != k (P is diagonal in occupation, s_j lies in the
    j-photon sector), so output amplitude k is c_k ||P s_k||^2.

    A creation operator never lowers an occupation, so P s_k = P b^dagger P s_{k-1}
    / sqrt(k), and P s_k is held on the occupations of the k-photon sector with
    no mode above d, not on the (cap+1)^N grid; each a_j^dagger is one indexed
    add.  Past N*d photons every occupation has some mode above d, so P s_k = 0
    there and no sector above min(cap, N*d) is built.  The dense grid API above
    is what the tests hold this read-off against.

    The norms ||P s_k||^2 depend on (N, d, k) alone, never on the input, so they
    are cached per (N, d) for k up to the largest top asked for; no sector is
    kept.  A warm call builds no sector: it still checks the budget and the
    input's norm, then multiplies the amplitudes up to top by the kept norms.

    Must agree with :func:`quditcv.teleport.teleport_state` in output state
    and success probability; the test suite holds the two to 1e-10.  Its output
    has that function's min(cutoff, N*d) + 1 entries.

    Raises:
        ValueError: "budget exceeded" when the full sectors up to top = min(cap, N*d),
            a bound on the kept part it builds besides U[:, 0] (O(N)), would cost more
            than 10^6: N * C(top+N, N) index-map entries plus 100 per scatter-add step,
            N per sector.  "vanishing state" when nothing survives the cutoffs, or with
            log P_suc when P_suc underflows, in :func:`quditcv.teleport.teleport_state`'s words.
    """
    n, d = instance("params", params, SchemeParams).num_modes, params.photon_cutoff
    top = min(instance("state", state, FockVector).cutoff, params.max_photons)
    cost = n * math.comb(top + n, n) + _STEP_COST * n * top
    if cost > _INDEX_BUDGET:
        raise ValueError(
            f"budget exceeded: {n} modes up to {top} photons cost {cost} index-map entries "
            f"and steps, past the {_INDEX_BUDGET:.0e} sector budget"
        )
    if not state.is_normalized(1e-9):
        raise ValueError("oracle_teleport requires a normalized input")
    norms = np.array([1.0, *_kept_norms(n, d, top)[:top]])  # ||P s_0||^2 = 1: vacuum passes P
    return _renormalized(state.amplitudes[: top + 1] * norms)
