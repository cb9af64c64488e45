"""Independent references for the library's closed forms and fast paths.

The Monte-Carlo sampler never calls the closed-form fidelity laws it is used
to test; it simulates protocol events from first principles and averages the
branch fidelities.  The POVM reference is the original per-term double loop,
kept so the vectorized builders can be held to it bit for bit.  The dense
pipeline reference runs every step of the split/truncate/recombine scheme on
the occupation grid, inverse split and vacuum post-selection included, so the
oracle's read-off from the split columns can be held to it: each step is plain
numpy but the two splits, which go through the package's mode-unitary lift.  The gain
reference is the original `Fraction` weight table and per-entry scalar log
loop over a log weight table run from one mode up with no cache, kept so the
integer-count and vectorized gain core, and the table store behind it, can
be held to it bit for bit.  The coherent reference builds the whole coherent
vector out to a tail-bound cutoff past N*d and sends it through
`teleport_state`, so the shortcut that builds only c_0..c_{N*d} can be held
to it bit for bit.  The independent coherent reference builds each amplitude
from exact `math.factorial` ints and scalar `math` calls, sharing neither the
`log k!` row nor the filter with the library.  The full-sector reference builds
every split column s_k on all occupations of its sector and masks the kept ones
out afterwards, so the oracle's kept-only build can be held to it bit for bit.
The qudit references are the textbook XOR, Z^p, X^p and Fourier kets on plain
arrays, so the protocol's one-pass projection and correction can be held to them.
"""

import math
from fractions import Fraction

import numpy as np

from quditcv.multimode import ModeMatrix, MultimodeState, apply_mode_unitary
from quditcv.teleport import (
    FockVector,
    SchemeParams,
    TeleportOutcome,
    _poisson_tail_bound,
    coherent_fock,
    teleport_state,
)


def haar_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def xor_reference(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    """|j>_target |i>_control -> |i - j mod D>_target |i>_control, one basis entry at a time."""
    out = np.zeros_like(amps)
    for index in np.ndindex(amps.shape):
        moved = list(index)
        moved[target] = (index[control] - index[target]) % amps.shape[target]
        out[tuple(moved)] = amps[index]
    return out


def z_power(amps: np.ndarray, axis: int, power: int) -> np.ndarray:
    """Z^power on one axis: |m> -> omega^{m * power} |m>."""
    dim = amps.shape[axis]
    phases = np.exp(2j * np.pi * (power % dim) * np.arange(dim) / dim)
    shape = [1] * amps.ndim
    shape[axis] = dim
    return amps * phases.reshape(shape)


def x_power(amps: np.ndarray, axis: int, power: int) -> np.ndarray:
    """X^power on one axis: |m> -> |m + power mod D>."""
    return np.roll(amps, power % amps.shape[axis], axis=axis)


def fourier_ket(ell: int, dim: int) -> np.ndarray:
    """|nu_l> = (1/sqrt(D)) sum_k omega^{l k} |k>; orthonormal over l."""
    return np.exp(2j * np.pi * ell * np.arange(dim) / dim) / math.sqrt(dim)


def mc_depolarized_fidelity(
    p: float, dim: int, num_samples: int, rng: np.random.Generator
) -> float:
    """Estimate the mean teleportation fidelity through a depolarized resource.

    The resource is the maximally entangled pair with probability p and the
    maximally mixed state (a uniform mixture of computational products
    |a>|b>) otherwise.  For a product resource the protocol factorizes:
    after the XOR the sender holds sum_j phi_j |a - j>|a>, so the Bell
    outcome (l, k) selects j = a - k with probability |phi_{a-k}|^2 / D,
    while the receiver's half |b> picks up only a phase from Z^l before
    X^{-k} shifts it to |b - k>.  The branch fidelity is therefore
    |phi_{b-k}|^2, independent of l.  The entangled component reproduces
    the input exactly (an identity established separately at 1e-12), so it
    contributes fidelity 1 per sample.
    """
    phi = haar_ket(dim, rng)
    weights = np.abs(phi) ** 2
    weights = weights / weights.sum()
    pure = rng.random(num_samples) < p
    n_mixed = int(num_samples - pure.sum())
    a = rng.integers(0, dim, size=n_mixed)
    b = rng.integers(0, dim, size=n_mixed)
    m = rng.choice(dim, size=n_mixed, p=weights)  # m = (a - k) mod dim
    k = (a - m) % dim
    branch_fidelities = weights[(b - k) % dim]
    return (float(pure.sum()) + float(branch_fidelities.sum())) / num_samples


def povm_weights_reference(clicks: int, eta: float, nu: float, cutoff: int) -> np.ndarray:
    """Weights of the N_c-click element, one Python-scalar term at a time.

    For each Fock level m the detected-photon count n runs upward from 0 and
    each term is added to a running float, in exactly that order.
    """
    dark_norm = math.exp(-nu)
    weights = np.zeros(cutoff + 1)
    for m in range(cutoff + 1):
        total = 0.0
        for n in range(0, min(clicks, m) + 1):
            dark = dark_norm * nu ** (clicks - n) / math.factorial(clicks - n)
            detected = math.comb(m, n) * eta**n * (1.0 - eta) ** (m - n)
            total += dark * detected
        weights[m] = min(total, 1.0)
    return weights


def dft_splitter(num_modes: int) -> np.ndarray:
    """Balanced splitter: the N-point DFT unitary, first column 1/sqrt(N)."""
    j = np.arange(num_modes)
    return np.exp(2j * np.pi * np.outer(j, j) / num_modes) / math.sqrt(num_modes)


def embed(state: FockVector, num_modes: int) -> np.ndarray:
    """The (cap+1)^N grid holding `state` in mode 0 and vacuum elsewhere, cap its cutoff."""
    grid = np.zeros((state.cutoff + 1,) * num_modes, dtype=complex)
    grid[(slice(None),) + (0,) * (num_modes - 1)] = state.amplitudes
    return grid


def lift(grid: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The mode unitary `matrix` applied to the grid by the package's lift."""
    return apply_mode_unitary(MultimodeState(grid), ModeMatrix(matrix)).amplitudes


def cut_modes(grid: np.ndarray, d: int) -> tuple[np.ndarray, float]:
    """The grid with every occupation above d photons in some mode zeroed, and the mass zeroed."""
    over = np.indices(grid.shape).max(axis=0) > d
    return np.where(over, 0.0, grid), np.sum(np.abs(grid[over]) ** 2)


def vacuum_read_off(grid: np.ndarray) -> tuple[FockVector, float]:
    """Mode 0 with every other mode in vacuum, renormalized, and its share of the grid's mass."""
    kept = grid[(slice(None),) + (0,) * (grid.ndim - 1)]
    mass = np.sum(np.abs(kept) ** 2)
    return FockVector(kept / math.sqrt(mass)), mass / np.sum(np.abs(grid) ** 2)


def dense_pipeline_reference(state: FockVector, params: SchemeParams) -> TeleportOutcome:
    """Embed, split, cut every mode at d, unsplit and post-select vacuum on modes 1..N-1."""
    splitter = dft_splitter(params.num_modes)
    psi, lost = cut_modes(lift(embed(state, params.num_modes), splitter), params.photon_cutoff)
    kept = np.sum(np.abs(psi) ** 2)
    if kept == 0.0:
        raise ValueError("vanishing state: nothing survives the per-mode photon cutoffs")
    output, p_vacuum = vacuum_read_off(lift(psi, splitter.conj().T))
    # the share of the split grid's own mass: exactly 1 when nothing is cut, where the
    # input's norm squared can round to just above 1
    return TeleportOutcome(output, kept / (kept + lost) * p_vacuum)


def full_sector_norms(num_modes: int, top: int, cutoffs) -> dict[int, list[np.float64]]:
    """||P s_k||^2 for k = 1..top, per cutoff d in `cutoffs`, P cutting every mode at d photons.

    Each s_k = b^dagger s_{k-1} / sqrt(k) is held on every occupation of the k-photon sector,
    ranked in order of first creation, and the kept entries are picked out by a mask of each
    occupation's largest single-mode count: the oracle's build before it kept only those.
    """
    spread = np.full(num_modes, 1 / math.sqrt(num_modes), dtype=complex)  # U[:, 0]
    below, column = [(0,) * num_modes], np.ones(1, dtype=complex)
    norms = {d: [] for d in cutoffs}
    for k in range(1, top + 1):
        rank = {}
        raised = [[rank.setdefault(occ[:j] + (occ[j] + 1,) + occ[j + 1:], len(rank))
                   for occ in below] for j in range(num_modes)]
        scaled = (spread / math.sqrt(k))[:, None] * np.sqrt(np.array(below, dtype=float).T + 1.0)
        lifted = np.zeros(len(rank), dtype=complex)
        for j in range(num_modes):
            lifted[np.array(raised[j])] += scaled[j] * column
        below, column = list(rank), lifted
        peaks = np.array(below).max(axis=1)
        for d in cutoffs:
            norms[d].append(np.sum(np.abs(column[peaks <= d]) ** 2))
    return norms


def weight_table_reference(n_modes: int, cutoff: int) -> list[Fraction]:
    """W(n_modes, k, cutoff) for k = 0..n_modes*cutoff: convolve (1/r!)_{r<=d} once per mode."""
    inv_factorial = [Fraction(1, math.factorial(r)) for r in range(cutoff + 1)]
    table = [Fraction(1)]
    for _ in range(n_modes):
        grown = [Fraction(0)] * (len(table) + cutoff)
        for k, acc in enumerate(table):
            for r, w in enumerate(inv_factorial):
                grown[k + r] += acc * w
        table = grown
    return table


def scratch_log_table(n_modes: int, cutoff: int) -> np.ndarray:
    """log W(n_modes, k, cutoff), k = 0..n_modes*cutoff: the log-domain DP from one mode up."""
    log_inv_fact = [-math.lgamma(r + 1) for r in range(cutoff + 1)]
    table = np.zeros(1)
    for _ in range(n_modes):
        grown = np.full(len(table) + cutoff, -np.inf)
        for r, lw in enumerate(log_inv_fact):
            grown[r : r + len(table)] = np.logaddexp(grown[r : r + len(table)], table + lw)
        table = grown
    return table


def gain_vector_reference(n: int, d: int) -> np.ndarray:
    """g(k) for k = 0..n*d: float(W k! / n^k) up to n*d = 60, else one scalar exp per entry."""
    if n * d <= 60:
        gains = [float(w * math.factorial(k) / Fraction(n) ** k)
                 for k, w in enumerate(weight_table_reference(n, d))]
    else:
        log_n = math.log(n)
        gains = [min(1.0, math.exp(lw + math.lgamma(k + 1) - k * log_n))
                 for k, lw in enumerate(scratch_log_table(n, d).tolist())]
    vector = np.array(gains)
    vector[: d + 1] = 1.0
    return vector


def coherent_factorial_reference(alpha: complex, params: SchemeParams) -> tuple[np.ndarray, float]:
    """Output amplitudes and P_suc of a coherent input, each c_k built on its own.

    |c_k| = exp(-|a|^2/2 + (k log |a|^2 - log k!)/2) with log k! the `math.log` of the exact
    int `math.factorial(k)` and one scalar `math.exp` per entry, the phase (a/|a|)^k a
    Python power, the gains from `gain_vector_reference`, and P_suc a `math.fsum`.
    """
    mean = abs(alpha) ** 2
    gains = gain_vector_reference(params.num_modes, params.photon_cutoff).tolist()
    if mean == 0.0:
        return np.eye(1, len(gains), dtype=complex)[0], 1.0
    phase = alpha / abs(alpha)
    scaled = [math.exp(-mean / 2 + (k * math.log(mean) - math.log(math.factorial(k))) / 2)
              * phase**k * gain for k, gain in enumerate(gains)]
    p_suc = math.fsum(abs(s) ** 2 for s in scaled)
    return np.array(scaled, dtype=complex) / math.sqrt(p_suc), p_suc


def coherent_teleport_reference(alpha: complex, params: SchemeParams) -> TeleportOutcome:
    """teleport_state of coherent_fock(alpha, cutoff), the cutoff searched up from
    max(N*d, ceil |alpha|^2) until the Poisson tail bound is below 1e-12."""
    mean = abs(alpha) ** 2
    cutoff = max(params.max_photons, math.ceil(mean))
    while _poisson_tail_bound(mean, cutoff) >= 1e-12:
        cutoff += 1
    return teleport_state(coherent_fock(alpha, cutoff), params)
