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

:func:`oracle_teleport` holds each s_k on the C(k+N-1, k) occupations of its
sector, which the creation operators themselves build from vacuum (cached
per N).  The dense (cap+1)^N grid API, :class:`MultimodeState` with
:func:`apply_mode_unitary`, :func:`truncate_mode` and
:func:`vacuum_postselect`, runs every step of the pipeline literally; the
tests hold the oracle's read-off against it.

The splitter is realized as the discrete-Fourier-transform unitary; its
first column is uniform, which is the only property the pipeline relies on,
and its inverse is simply the conjugate transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._frozen import freeze_field, integer
from .teleport import FockVector, SchemeParams, TeleportOutcome, _clamped

__all__ = [
    "ModeMatrix", "MultimodeState", "apply_mode_unitary", "embed_input", "n_splitter",
    "oracle_teleport", "truncate_mode", "vacuum_postselect",
]

# cost one oracle call may reach: its index-map entries plus _STEP_COST per scatter-add step.
# Cold, a step at N = 1 cost 50-88 entries' worth (rounded up here); (N, cap, d) = (10, 9, 1),
# at a cost of 932,780, took 0.61 s on a 2-core Xeon host
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
        if np.max(np.abs(arr @ arr.conj().T - np.eye(arr.shape[0]))) > 1e-12:
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
    cap = state.cutoff if cap is None else integer("cap", cap)
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


class _Sector(NamedTuple):
    """One photon-number sector, its occupations ranked in order of first creation.

    ``raised[j, r]`` is the rank here of occupation r of the sector below with
    one more photon in mode j, and ``weights[j, r]`` is sqrt(n_j + 1) for it, so
    a_j^dagger maps amplitude r below to ``weights[j, r]`` times it at ``raised[j, r]``.
    """

    raised: np.ndarray
    weights: np.ndarray
    peaks: np.ndarray  # largest single-mode occupation of each entry


# N -> (sectors 1, 2, ... built so far, occupations of the last): sector k depends on (N, k) only
_SECTORS: dict[int, tuple[list[_Sector], list[tuple[int, ...]]]] = {}


def _next_sector(below: list[tuple[int, ...]]) -> tuple[_Sector, list[tuple[int, ...]]]:
    """The sector one photon above ``below``, and its occupations in rank order."""
    rank: dict[tuple[int, ...], int] = {}
    raised = [[rank.setdefault(occ[:j] + (occ[j] + 1,) + occ[j + 1:], len(rank)) for occ in below]
              for j in range(len(below[0]))]
    occupations = list(rank)
    sector = _Sector(np.array(raised), np.sqrt(np.array(below, dtype=float).T + 1.0),
                     np.array(occupations).max(axis=1))
    return sector, occupations


def _sectors(num_modes: int, top: int) -> list[_Sector]:
    """Sectors 1..top (or more) of num_modes modes, built by the creation operators from vacuum."""
    sectors, frontier = _SECTORS.get(num_modes, ([], [(0,) * num_modes]))
    while len(sectors) < top:
        sector, frontier = _next_sector(frontier)
        sectors.append(sector)
    _SECTORS[num_modes] = sectors, frontier
    return sectors


def oracle_teleport(state: FockVector, params: SchemeParams) -> TeleportOutcome:
    """Run the whole pipeline by brute force, one photon-number sector at a time.

    With b^dagger = sum_j U[j, 0] a_j^dagger the splitter's image of the input
    mode, the split columns s_0 = |0...0>, s_k = b^dagger s_{k-1} / sqrt(k) are
    built one photon at a time and held one at a time.  The input splits to
    psi = sum_j c_j s_j, and P cuts every mode at d photons.  Recombining and
    post-selecting vacuum keeps <k,0,...,0|U^dagger P psi> = <s_k|P psi>, and
    <s_k|P|s_j> = 0 for j != k (P is diagonal in occupation, s_j lies in the
    j-photon sector), so output amplitude k is c_k ||P s_k||^2.

    Since s_k lies in the k-photon sector, it is held on that sector's
    C(k+N-1, k) occupations, not on the (cap+1)^N grid, and each a_j^dagger
    is one indexed add.  Past N*d photons every occupation has some mode above
    d, so P s_k = 0 there and no sector above min(cap, N*d) is built.  The
    dense grid API above is what the tests hold this read-off against.

    Must agree with :func:`quditcv.teleport.teleport_state` in output state
    and success probability; the test suite holds the two to 1e-10.

    Raises:
        ValueError: "budget exceeded" when the sectors up to top = min(cap, N*d),
            all it builds besides U[:, 0] (O(N)), would cost more than 10^6:
            N * C(top+N, N) index-map entries plus 100 per scatter-add step, N per
            sector.  "vanishing state" when nothing survives the cutoffs.
    """
    n, d = params.num_modes, params.photon_cutoff
    top = min(state.cutoff, params.max_photons)
    cost = n * math.comb(top + n, n) + _STEP_COST * n * top
    if cost > _INDEX_BUDGET:
        raise ValueError(
            f"budget exceeded: {n} modes up to {top} photons cost {cost} index-map entries "
            f"and steps, past the {_INDEX_BUDGET:.0e} sector budget"
        )
    if not state.is_normalized(1e-9):
        raise ValueError("oracle_teleport requires a normalized input")
    spread = np.full(n, 1 / math.sqrt(n), dtype=complex)  # n_splitter's first column
    column = np.ones(1, dtype=complex)
    kept = state.amplitudes.copy()  # ||P s_0||^2 = 1: the vacuum passes every cutoff
    for k, sector in enumerate(_sectors(n, top)[:top], start=1):
        scaled = (spread / math.sqrt(k))[:, None] * sector.weights
        lifted = np.zeros(len(sector.peaks), dtype=complex)
        for j in range(n):
            lifted[sector.raised[j]] += scaled[j] * column
        column = lifted
        kept[k] *= np.sum(np.abs(column[sector.peaks <= d]) ** 2)
    kept[top + 1:] *= 0.0  # nothing past N*d photons survives P: an empty sum, signs kept
    p_suc = float(np.sum(np.abs(kept) ** 2))
    if p_suc == 0.0:
        raise ValueError("vanishing state: nothing survives the per-mode photon cutoffs")
    return TeleportOutcome(FockVector(kept / math.sqrt(p_suc)), _clamped(p_suc))
