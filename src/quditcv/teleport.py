"""Closed-form split/truncate/recombine teleportation of a bosonic mode.

A single-mode state is fanned out over N modes on a balanced splitter, each
mode is sent through an ideal (d+1)-dimensional teleporter (which keeps at
most d photons), the modes are recombined, and the auxiliary outputs are
post-selected on vacuum.  The surviving map is diagonal in the Fock basis:
amplitude c_k is multiplied by the gain

    g(k) = W(N, k, d) * k! / N^k

with W the restricted-composition weight from :mod:`quditcv.combinatorics`.
g(k) = 1 exactly for k <= d, and g(k) = 0 for k > N*d, so the pipeline acts
as a gentle photon-number filter whose distortion shrinks as N grows.  The
window g(0..N*d) is evaluated once per (N, d) by :func:`gain_vector`.

Success probability is the squared norm that survives the filter; fidelity
for the two-mode squeezed (EPR) input is reported as the plain state
overlap, with the squared variant exposed alongside.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import wraps
from itertools import accumulate, repeat
from operator import mul, truediv
from typing import NamedTuple

import numpy as np

from ._frozen import complex_number, freeze_field, instance, integer, real, squared_norm
from .combinatorics import EXACT_LIMIT, PHOTON_BUDGET, _count_table, _log_weight_table, _within

__all__ = [
    "EprOutcome", "FockVector", "SchemeParams", "SqueezingParams", "TeleportOutcome",
    "coherent_fock", "conventional_cv_fidelity", "fock_gain", "gain_vector", "squeezing_from_chi",
    "squeezing_from_r", "squeezing_from_vs", "state_fidelity", "teleport_coherent", "teleport_epr",
    "teleport_state",
]

_COHERENT_TAIL = 1e-12
# coherent_fock's vector keeps its norm within 1e-9 up to about |alpha| = 120
_ALPHA_LIMIT = 100.0
# P_suc may pass 1 by the 1e-9 teleport_state's norm check admits plus 64 ulps of rounding
_P_SUC_SLACK = 1e-9 + 64 * 2.0**-52
# gain_vector keeps about this many bytes of vectors: the bench grid's 1,000 (2.2 MB) stay warm
_GAIN_CACHE_BYTES = 16 * 2**20


@dataclass(frozen=True)
class SchemeParams:
    """Scheme geometry: N modes, at most d photons kept per mode, N*d <= 10^4."""

    num_modes: int
    photon_cutoff: int

    def __post_init__(self) -> None:
        n, d = self.num_modes, self.photon_cutoff
        if not (type(n) is int and type(d) is int and n >= 1 and d >= 1):  # skips the ABC checks
            n, d = integer("num_modes", n, 1), integer("photon_cutoff", d, 1)
            object.__setattr__(self, "num_modes", n)
            object.__setattr__(self, "photon_cutoff", d)
        _within(PHOTON_BUDGET, n, d)

    @property
    def max_photons(self) -> int:
        """Largest total photon number that can survive the pipeline (N*d)."""
        return self.num_modes * self.photon_cutoff


@dataclass(frozen=True, eq=False)
class FockVector:
    """Single-mode pure state: complex amplitudes over photon numbers 0..cutoff."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = freeze_field(self, "amplitudes", complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("amplitudes must form a non-empty 1-d sequence")

    @property
    def cutoff(self) -> int:
        return len(self.amplitudes) - 1

    def norm(self) -> float:
        return math.sqrt(squared_norm(self.amplitudes))

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= tol


@dataclass(frozen=True)
class TeleportOutcome:
    """Post-selected output state and the probability of reaching it."""

    state: FockVector
    success_probability: float

    def __post_init__(self) -> None:
        if not 0.0 < self.success_probability <= 1.0:
            raise ValueError(
                f"success probability must lie in (0, 1], got {self.success_probability}"
            )


@dataclass(frozen=True)
class SqueezingParams:
    """Two-mode squeezing strength chi = tanh(r), with r and the variance ratio v_s derived."""

    chi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "chi", real("chi", self.chi))
        if not 0.0 <= self.chi < 1.0:
            raise ValueError(f"chi must lie in [0, 1), got {self.chi}")

    @property
    def r(self) -> float:
        return math.atanh(self.chi)

    @property
    def v_s(self) -> float:
        return (1.0 + self.chi) / (1.0 - self.chi)


def squeezing_from_chi(chi: float) -> SqueezingParams:
    return SqueezingParams(chi)


def squeezing_from_vs(v_s: float) -> SqueezingParams:
    v_s = real("v_s", v_s, 1.0)
    return squeezing_from_chi((v_s - 1.0) / (v_s + 1.0))


def squeezing_from_r(r: float) -> SqueezingParams:
    return squeezing_from_chi(math.tanh(real("r", r, 0.0)))


def _regrown(rows: np.ndarray, count: int, build) -> np.ndarray:
    """`rows`, or `build(2 * count)` made read-only if `rows` has fewer than `count` columns."""
    if rows.shape[1] < count:
        rows = build(2 * count)
        rows.setflags(write=False)
    return rows


# Rows regrown by doubling: each entry is built on its own or summed in order, so a prefix
# holds the bytes of a fresh short build.  _GRID: k, lgamma(k + 1) and log k! (np.cumsum);
# _CHI_ROWS: ((chi, its sign, as -0.0 == 0.0 has odd powers -0.0), rows chi^k and chi^2k)
_GRID = np.zeros((3, 0))
_CHI_ROWS = (None, np.zeros((2, 0)))


def _grid(count: int) -> np.ndarray:
    global _GRID
    _GRID = _regrown(_GRID, count, lambda size: np.array([
        np.arange(size), [math.lgamma(j + 1) for j in range(size)],
        np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, size)))))]))
    return _GRID[:, :count]


def _chi_rows(chi: float, count: int) -> np.ndarray:
    global _CHI_ROWS
    key = (chi, math.copysign(1.0, chi))
    rows = _regrown(_CHI_ROWS[1] if _CHI_ROWS[0] == key else np.zeros((2, 0)), count,
                    lambda size: np.array([row := chi ** np.arange(size, dtype=float), row**2]))
    _CHI_ROWS = key, rows
    return rows[:, :count]


def _libm_exp(exponents: np.ndarray) -> np.ndarray:
    """math.exp of each entry, bit for bit, as a new vector: numpy's complex exp calls libm's
    cexp, whose real part at x + 0j is exp(x) * 1.0.  Plain np.exp's SIMD kernels differ."""
    return np.exp(exponents.astype(complex)).real.copy()


def _lru_by_bytes(build):
    """functools.cache for `build(params)` per (N, d), dropping the least recently used vectors
    past _GAIN_CACHE_BYTES; an (N, d) pair of ints hashes and compares faster than the params."""
    store, held = OrderedDict(), 0

    @wraps(build)
    def cached(params):
        nonlocal held
        key = instance("params", params, SchemeParams).num_modes, params.photon_cutoff
        if (value := store.get(key)) is not None:
            store.move_to_end(key)
            return value
        value = store[key] = build(params)
        held += value.nbytes
        while held > _GAIN_CACHE_BYTES:
            held -= store.popitem(last=False)[1].nbytes
        return value

    return cached


@_lru_by_bytes
def gain_vector(params: SchemeParams) -> np.ndarray:
    """The gains g(k) for k = 0..N*d, cached per (N, d) as a read-only vector.

    For N*d <= EXACT_LIMIT, one correctly rounded int division C_N(k) / N^k of
    the word count C_N(k) = k! W(N, k, d); beyond, libm's exp of the log gains
    log W + lgamma(k+1) - k log N (one numpy expression), clamped at 1 where exp
    overshoots by an ulp.  Complex np.exp = libm exp (see _libm_exp); plain np.exp
    rounds differently and moves bytes.  About 16 MB of vectors are kept.
    """
    n, d = params.num_modes, params.photon_cutoff
    if n * d <= EXACT_LIMIT:
        counts = _count_table(n, d)
        powers = accumulate(repeat(n, len(counts) - 1), mul, initial=1)  # N^k
        vector = np.fromiter(map(truediv, counts, powers), float, len(counts))
    else:
        log_w = _log_weight_table(n, d)
        k, lgamma_row, _ = _grid(len(log_w))
        vector = _libm_exp(log_w + lgamma_row - k * math.log(n))
        np.minimum(vector, 1.0, out=vector)
    vector[: d + 1] = 1.0
    vector.setflags(write=False)
    return vector


def fock_gain(k: int, params: SchemeParams) -> float:
    """Amplitude gain the pipeline applies to the Fock state |k>.

    Exactly 1 for k <= d, exactly 0 beyond N*d, and strictly between 0 and 1
    in the window where truncation bites: entry k of :func:`gain_vector`.
    """
    k = integer("k", k, 0)
    params = instance("params", params, SchemeParams)
    return float(gain_vector(params)[k]) if k <= params.max_photons else 0.0


def _clamped(value, slack=_P_SUC_SLACK, name="P_suc", cause="input not normalized"):
    """min(value, 1.0), entrywise for an array; refuses a value past 1 by more than `slack`."""
    top = value if isinstance(value, float) else float(value.max())
    if top > 1.0 + slack:
        raise ValueError(f"{name} = {top!r} passes 1 by more than rounding: {cause}")
    return min(value, 1.0) if isinstance(value, float) else np.minimum(value, 1.0)


def _renormalized(scaled: np.ndarray, log_p_suc=None) -> TeleportOutcome:
    """Renormalize what survives, the one single-mode exit; name log P_suc if it underflows."""
    p_suc = float((np.abs(scaled) ** 2).sum())
    if p_suc > 0.0:
        return TeleportOutcome(FockVector(scaled / math.sqrt(p_suc)), _clamped(p_suc))
    magnitudes = np.abs(scaled)  # log P_suc = 2 log max|s| + log sum |s/max|^2, else log_p_suc()
    top = float(np.max(magnitudes))
    if top > 0.0:
        log_p = 2 * math.log(top) + math.log(float(np.sum((magnitudes / top) ** 2)))
    elif log_p_suc is not None:
        log_p = log_p_suc()
    else:
        raise ValueError("vanishing state: no amplitude survives the photon-number filter")
    raise ValueError(f"vanishing state: P_suc underflows double precision, log P_suc = {log_p:.6g}")


def teleport_state(state: FockVector, params: SchemeParams) -> TeleportOutcome:
    """Send an arbitrary (pre-truncated, normalized) Fock vector through.

    The output keeps amplitudes up to min(cutoff, N*d), scaled by the gain
    and renormalized; the success probability is sum_k |c_k|^2 g(k)^2.

    Raises:
        ValueError: "vanishing state" when no amplitude survives the filter,
            giving log P_suc when P_suc underflows though amplitudes survive.
    """
    if not instance("state", state, FockVector).is_normalized(1e-9):
        raise ValueError("teleport_state requires a normalized input")
    amplitudes = state.amplitudes[: instance("params", params, SchemeParams).max_photons + 1]
    return _renormalized(amplitudes * gain_vector(params)[: len(amplitudes)])


def _poisson_tail_bound(mean: float, cutoff: int) -> float:
    """Upper bound on the Poisson(mean) mass above `cutoff` (geometric-ratio bound)."""
    if mean <= 0.0:
        return 0.0
    if cutoff + 2 <= mean:
        return 1.0
    log_term = -mean + (cutoff + 1) * math.log(mean) - math.lgamma(cutoff + 2)
    return math.exp(log_term) / (1.0 - mean / (cutoff + 2))


def _mean_photons(alpha: complex) -> tuple[float | complex, float]:
    alpha = complex_number("alpha", alpha)
    try:
        magnitude = abs(alpha)
    except OverflowError:  # a complex whose modulus passes the float range
        magnitude = math.inf
    if not magnitude <= _ALPHA_LIMIT:
        raise ValueError(f"alpha must be finite with |alpha| <= {_ALPHA_LIMIT:g}, got {alpha}")
    return alpha, magnitude**2


def _coherent_amplitudes(alpha: complex, mean: float, size: int) -> np.ndarray:
    if mean == 0.0:
        return np.eye(1, size, dtype=complex)[0]  # vacuum
    k, _, log_factorial = _grid(size)
    magnitude = np.exp(-0.5 * mean + 0.5 * (k * math.log(mean) - log_factorial))
    # complex even for real alpha: numpy divides complex by real through the reciprocal
    return np.asarray(magnitude * (alpha / abs(alpha)) ** k, dtype=complex)


def coherent_fock(alpha: complex, cutoff: int) -> FockVector:
    """Coherent-state amplitudes c_k = e^{-|a|^2/2} a^k / sqrt(k!) up to cutoff.

    Raises:
        ValueError: "cutoff too small" when the discarded photon-number tail
            is not provably below 1e-12, and when alpha is not finite or
            |alpha| > 100.
    """
    cutoff = integer("cutoff", cutoff, 0)
    alpha, mean = _mean_photons(alpha)
    if _poisson_tail_bound(mean, cutoff) >= _COHERENT_TAIL:
        raise ValueError(
            f"cutoff too small: the photon-number tail beyond {cutoff} is not "
            f"below {_COHERENT_TAIL:g} for |alpha|^2 = {mean:.6g}"
        )
    return FockVector(_coherent_amplitudes(alpha, mean, cutoff + 1))


def teleport_coherent(alpha: complex, params: SchemeParams) -> TeleportOutcome:
    """Teleport a coherent state; only its amplitudes c_0..c_{N*d} are built.

    Raises:
        ValueError: "vanishing state", giving log P_suc, when P_suc underflows.
    """
    alpha, mean = _mean_photons(alpha)
    n, d = instance("params", params, SchemeParams).num_modes, params.photon_cutoff

    def log_p_suc() -> float:
        # log of sum_k e^-mean mean^k / k! g(k)^2 over k <= N*d, g(k) = W k! / N^k: one vector
        # expression over the log weight row, no per-k restricted_weight_log call
        k, lgamma_row, _ = _grid(n * d + 1)
        log_w, log_ratio = _log_weight_table(n, d), math.log(mean) - 2 * math.log(n)
        return float(np.logaddexp.reduce(-mean + k * log_ratio + lgamma_row + 2 * log_w))

    scaled = _coherent_amplitudes(alpha, mean, n * d + 1) * gain_vector(params)
    return _renormalized(scaled, log_p_suc)


class EprOutcome(NamedTuple):
    """Result of sending one arm of a two-mode squeezed vacuum through."""

    schmidt: np.ndarray
    success_probability: float
    fidelity: float

    @property
    def fidelity_squared(self) -> float:
        """Squared-overlap convention for callers who define fidelity that way."""
        return self.fidelity**2


def teleport_epr(squeeze: SqueezingParams, params: SchemeParams) -> EprOutcome:
    """One arm of sqrt(1-chi^2) sum_k chi^k |k,k> through the pipeline.

    Returns the Schmidt coefficients of the post-selected state (their
    squares sum to one), the success probability

        P = (1 - chi^2) * sum_k chi^{2k} g(k)^2,

    and the overlap fidelity with the untouched input,

        f = (1 - chi^2) / sqrt(P) * sum_k chi^{2k} g(k),

    both sums running over the surviving window k = 0..N*d.  Exactly, P <= 1
    while the gains are, and f <= 1; each is clamped to 1 within chi^2/(1-chi^2)
    + 32 ulps (rounding chi^2 moves 1 - chi^2 by up to half the first term).
    """
    chi = instance("squeeze", squeeze, SqueezingParams).chi
    gains = gain_vector(params)
    chi_pow, chi_pow_sq = _chi_rows(chi, len(gains))  # chi^k and chi^2k, read-only
    scale, terms = 1.0 - chi**2, gains**2
    p_suc = scale * float(np.multiply(chi_pow_sq, terms, out=terms).sum())
    fidelity = scale / math.sqrt(p_suc) * float(np.multiply(chi_pow_sq, gains, out=terms).sum())
    schmidt = np.multiply(math.sqrt(scale) * chi_pow, gains, out=terms)
    schmidt /= math.sqrt(p_suc)
    slack = (chi**2 / scale + 32) * 2.0**-52
    return EprOutcome(schmidt, _clamped(p_suc, slack, cause="a gain above 1"),
                      _clamped(fidelity, slack, "fidelity", "not an overlap of unit vectors"))


def conventional_cv_fidelity(r: float) -> float:
    """Coherent-state fidelity 1/(1 + e^{-2r}) of gain-matched CV teleportation."""
    return 1.0 / (1.0 + math.exp(-2.0 * real("r", r, 0.0)))


def state_fidelity(a: FockVector, b: FockVector) -> float:
    """|<a|b>| for normalized vectors; the shorter one is zero-padded."""
    size = max(len(instance("a", a, FockVector).amplitudes),
               len(instance("b", b, FockVector).amplitudes))
    pa, pb = (np.pad(x.amplitudes, (0, size - len(x.amplitudes))) for x in (a, b))
    return float(abs(np.vdot(pa, pb)))
