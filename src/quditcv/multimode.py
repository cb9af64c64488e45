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
and keeps nothing but the norms ||P s_k||^2 per (N, d).  :func:`apply_mode_unitary`
lifts a mode unitary to a dense (cap+1)^N grid, a :class:`MultimodeState`; the
tests run the pipeline literally on that grid and hold the oracle's read-off
against it.

The tests realize the splitter as the discrete-Fourier-transform unitary; its
first column is uniform, which is the only property the pipeline relies on,
and its inverse is simply the conjugate transpose.
"""

from __future__ import annotations

import math

import numpy as np

from ._frozen import Record, instance
from .teleport import FockVector, SchemeParams, TeleportOutcome, _renormalized

__all__ = ["ModeMatrix", "MultimodeState", "apply_mode_unitary", "oracle_teleport"]

# cost one oracle call may reach: its index-map entries plus _STEP_COST per scatter-add step,
# a step's fixed numpy overhead counted in entries.  Whole sectors are charged, a loose bound on
# the kept occupations built.  10^6 caps one sector's index map at 8 MB of int64 and admits
# (N, cap, d) = (10, 9, 9), where P keeps every occupation
_INDEX_BUDGET = 10**6
_STEP_COST = 100


class ModeMatrix(Record):
    """Unitary acting on the mode operators (not on Fock amplitudes directly)."""

    entries: np.ndarray

    def __init__(self, entries) -> None:
        arr = self._freeze("entries", entries, complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("entries must form a square matrix")
        if not (np.isfinite(arr).all()  # first: an infinite entry warns inside the product
                and np.max(np.abs(arr @ arr.conj().T - np.eye(arr.shape[0]))) <= 1e-12):
            raise ValueError("matrix is not unitary to 1e-12")


class MultimodeState(Record):
    """Dense amplitudes over occupation vectors, one tensor axis per mode, left unnormalized."""

    amplitudes: np.ndarray

    def __init__(self, amplitudes) -> None:
        arr = self._freeze("amplitudes", amplitudes, complex)
        if arr.ndim < 1:
            raise ValueError("amplitudes must carry at least one mode axis")
        if len(set(arr.shape)) != 1:
            raise ValueError("every mode must share one common photon cap")
        if arr.shape[0] == 0:
            raise ValueError("every mode axis must hold at least the vacuum amplitude")


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


def apply_mode_unitary(state: MultimodeState, matrix: ModeMatrix) -> MultimodeState:
    """Lift a mode unitary to the truncated Fock space and apply it.

    Each occupied |n> maps to prod_i (sum_j U[j, i] a_j^dagger)^{n_i} / sqrt(n_i!)
    acting on vacuum, one photon at a time.  Photon number is conserved sector
    by sector, so the action is unitary as long as no occupied sector can spill
    past the common cap.

    Raises:
        ValueError: "cap exceeded" when some occupied amplitude would need an
            occupation beyond the cap after mixing.
    """
    amps = instance("state", state, MultimodeState).amplitudes
    entries = instance("matrix", matrix, ModeMatrix).entries
    if len(entries) != amps.ndim:
        raise ValueError(f"matrix mixes {len(entries)} modes but the state carries {amps.ndim}")
    out = np.zeros_like(amps)
    for occupation in np.argwhere(amps != 0):
        column = np.zeros_like(amps)
        column[(0,) * amps.ndim] = 1.0
        for mode, count in enumerate(occupation):
            for photons in range(1, count + 1):
                column = _create(column, entries[:, mode]) / math.sqrt(photons)
        out += amps[tuple(occupation)] * column
    return MultimodeState(out)


# (N, d) -> ||P s_k||^2 for k = 1, 2, ... up to the largest top asked for so far
_NORMS: dict[tuple[int, int], list[np.float64]] = {}


def _next_sector(below, first, parent, prev, cutoff):
    """raised[j, r], the rank of row r of sector k plus a photon in mode j (-1 past `cutoff`), and
    sector k+1's rows, first occupied modes and parents (ranks less that photon) in
    enumerate_compositions' order: the raises j <= first[r] make the new rows, ranked j-major,
    and any other is the raise in first[r] of row parent[r]'s raise `prev` in j."""
    modes = np.arange(below.shape[1])
    kept = below.T < cutoff  # [j, r]
    creators = kept & (modes[:, None] <= first)
    raised = np.full(kept.shape, -1)
    raised[creators] = np.arange(np.count_nonzero(creators))
    j, r = np.nonzero(kept & ~creators)
    raised[j, r] = raised[first[r], prev[j, parent[r]]]
    first, parent = np.nonzero(creators)
    return raised, below[parent] + (modes == first[:, None]), first, parent


def _kept_norms(num_modes: int, cutoff: int, top: int) -> list[np.float64]:
    """||P s_k||^2, k = 1..top (or more), P at `cutoff`; rows in enumerate_compositions' order."""
    norms = _NORMS.get((num_modes, cutoff), [])
    if len(norms) < top:
        # vacuum: its first mode N is past every j, so no raise reads its parent or prev
        below, first = np.zeros((1, num_modes), int), np.array([num_modes])
        parent, raised = np.zeros(1, int), np.zeros((num_modes, 1), int)
        column, norms = np.ones(1), []  # real: the splitter's first column is 1/sqrt(N) throughout
        for k in range(1, top + 1):
            raised, above, first, parent = _next_sector(below, first, parent, raised, cutoff)
            # U[j, 0] / sqrt(k) as 1/sqrt(N) times 1/sqrt(k): a division moves the pinned bytes
            scaled = (1 / math.sqrt(num_modes)) * (1 / math.sqrt(k)) * np.sqrt(below.T + 1.0)
            lifted = np.zeros(len(above) + 1)  # the last slot takes P's drops
            for j in range(num_modes):
                lifted[raised[j]] += scaled[j] * column
            below, column = above, lifted[:-1]
            norms.append(np.sum(column**2))
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
    there and no sector above min(cap, N*d) is built.

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
