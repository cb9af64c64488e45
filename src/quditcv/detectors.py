"""Imperfect photon counting and scheme-efficiency comparison.

A detector with efficiency eta and dark-count rate nu registers N_c clicks
on the Fock state |m> with probability

    w(N_c, m) = sum_{n=0}^{min(N_c, m)}  e^{-nu} nu^{N_c - n} / (N_c - n)!
                * C(m, n) eta^n (1 - eta)^{m - n}

(real detections n binomially thinned by eta, the remaining clicks dark
counts).  The operators are diagonal in the Fock basis, so POVM elements
are stored as per-level weight vectors.

The comparison half scores two teleportation strategies by detection
success: scheme one uses 2N single-photon detectors over N qubit channels,
scheme two uses N photon-number-resolving modules.  The matched-fidelity
benchmark pits N = 11 qubit channels against N = 3 quartit modules, each
quartit module succeeding with probability 0.18 and needing three
number-resolving detections of effective efficiency xi.

Rule for both halves: Python scalar pow per axis; numpy only multiplies,
adds and compares.  IEEE products, sums and comparisons give the same bits
in numpy as in Python, but numpy's SIMD ``**`` does not: on an AVX-512 host
with numpy 2.4 it differed from libm ``pow`` in 52,823 of 10^6 uniform x
for x**11 (52,928 for x**9), which moves printed digits and near-tie flags.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._frozen import Record, instance, integer, real
from .teleport import _clamped, _poisson_tail_bound

__all__ = [
    "COMPARE_MODELS", "DetectorModel", "INTERFEROMETER_SUCCESS", "PovmElement", "advantage_region",
    "apd_povm", "comparison_axes", "pnr_povm", "povm_completeness_defect", "povm_element",
    "scheme1_success", "scheme2_success",
]

# success probability of one linear-optics quartit teleportation module
INTERFEROMETER_SUCCESS = 0.18

# matched-fidelity channel counts: 11 qubit channels vs 3 quartit modules
_QUBIT_CHANNELS = 11
_QUARTIT_MODULES = 3

_SCHEME1_MODELS = ("deterministic", "linear-optics")
_SCHEME2_MODELS = ("generic", "quartit-interferometer")
_WEIGHT_BUDGET = 10**7  # most POVM weights one request builds: 80 MB of float64
COMPARE_MODELS = ("quartit-interferometer", "linear-optics", "deterministic")


class DetectorModel(Record, value=True):
    """Detection efficiency eta in [0, 1], finite mean dark counts nu >= 0 per gate."""

    eta: float
    nu: float

    def __init__(self, eta: float, nu: float = 0.0) -> None:
        self.__dict__.update(eta=real("eta", eta, 0.0, 1.0), nu=real("nu", nu, 0.0))


class PovmElement(Record):
    """Diagonal POVM element: weight per Fock level |m><m| up to a cutoff.

    ``clicks`` is the registered count; None marks the closure element that
    absorbs every unresolved count.
    """

    clicks: int | None
    weights: np.ndarray

    def __init__(self, clicks: int | None, weights) -> None:
        self.__dict__["clicks"] = None if clicks is None else integer("clicks", clicks, 0)
        arr = self._freeze("weights", weights, float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must form a non-empty 1-d vector")
        if not (arr.min() >= -1e-12 and arr.max() <= 1.0 + 1e-12):  # refuses NaN too
            raise ValueError("weights must lie in [0, 1]")


def povm_element(clicks: int, det: DetectorModel, cutoff: int) -> PovmElement:
    """Weight vector of the N_c-click element over Fock levels 0..cutoff."""
    clicks = integer("clicks", clicks, 0)
    return PovmElement(clicks, _povm_weights(det, clicks, cutoff)[clicks])


def _povm_weights(det: DetectorModel, max_clicks: int, cutoff: int) -> np.ndarray:
    """w(c, m) for click counts c = 0..max_clicks (rows) and Fock levels m = 0..cutoff.

    Term n of every element, dark[c - n] * C(m, n) eta^n (1 - eta)^(m - n) with
    dark[k] = e^-nu nu^k / k! and each power a Python scalar, is added in one
    outer product, in ascending n: per (c, m) the order a scalar running sum
    adds the terms in, so each weight is that sum's float.  A request past
    10^7 weights, or whose terms would overflow a float, is refused first.
    """
    cutoff = integer("cutoff", cutoff, 0)
    eta, nu = instance("det", det, DetectorModel).eta, det.nu
    if (max_clicks + 1) * (cutoff + 1) > _WEIGHT_BUDGET:
        raise ValueError(f"budget exceeded: (clicks + 1) x (cutoff + 1) POVM weights pass "
                         f"{_WEIGHT_BUDGET:.0e}")
    rows = min(max_clicks, cutoff) + 1
    try:
        float(math.factorial(min(max_clicks, 171)))  # 171! overflows: no need to build a larger one
        float(math.comb(cutoff, min(rows - 1, cutoff // 2)))
        nu**max_clicks
    except OverflowError:
        raise ValueError(
            f"{max_clicks} clicks over Fock levels 0..{cutoff} (nu={nu}) overflow a float: "
            "k! needs k <= 170 and C(cutoff, n) must stay below 1.8e308"
        ) from None
    dark_norm = math.exp(-nu)
    dark = np.array([dark_norm * nu**k / math.factorial(k) for k in range(max_clicks + 1)])
    # the float rows go straight into arrays: no Python float list beside the weights
    missed = np.fromiter(((1.0 - eta) ** j for j in range(cutoff + 1)), float, cutoff + 1)
    weights = np.zeros((max_clicks + 1, cutoff + 1))
    comb = [1] * (cutoff + 1)  # C(m, n) for m = n..cutoff, exact ints
    for n in range(rows):
        if n:  # C(m, n) = sum of C(j, n - 1), j < m
            comb = list(itertools.accumulate(comb[:-1]))
        detected = np.fromiter(map(float, comb), float, len(comb)) * eta**n * missed[: len(comb)]
        weights[n:, n:] += np.multiply.outer(dark[: max_clicks + 1 - n], detected)
    return _clamped(weights, _slack(max_clicks, cutoff), "POVM weight", "terms past 1")


def _slack(max_clicks: int, cutoff: int) -> float:
    """Twice the bound (cutoff + terms + 16) 2^-53 past 1: a weight or click sum adds terms <=
    (max_clicks + 1) rows products 16 roundings off an exact sum <= (1 + 2^-53)^cutoff."""
    return (cutoff + (max_clicks + 1) * (min(max_clicks, cutoff) + 1) + 16) * 2.0**-52


def apd_povm(det: DetectorModel, cutoff: int) -> tuple[PovmElement, PovmElement]:
    """Click/no-click pair {Pi_0, I - Pi_0} of an avalanche photodiode."""
    return tuple(pnr_povm(det, 0, cutoff))


def pnr_povm(det: DetectorModel, max_resolved: int, cutoff: int) -> list[PovmElement]:
    """Number-resolving family {Pi_0, ..., Pi_K, I - sum} for K = max_resolved."""
    max_resolved = integer("max_resolved", max_resolved, 0)
    weights = _povm_weights(det, max_resolved, cutoff)
    # accumulate adds left to right, never pairwise; as each sum is >= 0,
    # 1 - min(sum, 1) is clip(1 - sum, 0, 1) bit for bit
    total = np.add.accumulate(weights)[-1]
    rest = 1.0 - _clamped(total, _slack(max_resolved, cutoff), "POVM click sum", "terms past 1")
    return [PovmElement(c, w) for c, w in enumerate(weights)] + [PovmElement(None, rest)]


def povm_completeness_defect(det: DetectorModel, cutoff: int) -> float:
    """Max per-level deviation of sum over all click counts from identity.

    The click sum is truncated once the neglected dark-count tail is provably
    tiny: click counts above cutoff + j need at least j dark counts, so the
    truncation error at depth j is bounded by the Poisson(nu) mass above j.
    Once the bound is <= 1e-12 it stays so as j grows: that first j is bisected
    for, up to one past the deepest the weight budget admits, which is refused.
    """
    cutoff = integer("cutoff", cutoff, 0)
    nu, lo, hi = instance("det", det, DetectorModel).nu, 0, _WEIGHT_BUDGET // (cutoff + 1) - cutoff
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _poisson_tail_bound(nu, mid) <= 1e-12 else (mid + 1, hi)
    total = np.add.accumulate(_povm_weights(det, cutoff + lo, cutoff))[-1]
    return float(np.max(np.abs(total - 1.0)))


def scheme1_success(eta: float, num_channels: int, model: str = "deterministic") -> float:
    """Detection success of qubit-channel teleportation.

    "deterministic" assumes ideal Bell detection apart from efficiency,
    giving eta^(2N); "linear-optics" folds in the 1/2 success ceiling of a
    linear-optics Bell measurement, giving (1/2)^N eta^N.
    """
    eta = real("eta", eta, 0.0, 1.0)
    num_channels = integer("num_channels", num_channels, 1)
    if model == "deterministic":
        return eta ** (2 * num_channels)
    if model == "linear-optics":
        return 0.5**num_channels * eta**num_channels
    raise ValueError(f"unknown scheme-1 model {model!r}; pick from {_SCHEME1_MODELS}")


def scheme2_success(xi: float, eta: float, num_channels: int, model: str = "generic") -> float:
    """Detection success of qudit-module teleportation.

    "generic" charges one PNR detection (xi) and one efficiency factor (eta)
    per module; "quartit-interferometer" uses the linear-optics quartit
    module, 0.18 success and three PNR detections per module, so eta is not
    consumed there.
    """
    xi, eta = real("xi", xi, 0.0, 1.0), real("eta", eta, 0.0, 1.0)
    num_channels = integer("num_channels", num_channels, 1)
    if model == "generic":
        return xi**num_channels * eta**num_channels
    if model == "quartit-interferometer":
        return INTERFEROMETER_SUCCESS**num_channels * xi ** (3 * num_channels)
    raise ValueError(f"unknown scheme-2 model {model!r}; pick from {_SCHEME2_MODELS}")


def comparison_axes(eta_grid, xi_grid, model: str = "quartit-interferometer"):
    """Per-axis factors of the 11-channel vs 3-module comparison under `model`.

    Returns (p1, eta_part, xi_part): scheme one succeeds with p1[i] at
    eta_grid[i], scheme two with eta_part[i] * xi_part[j] at (eta_grid[i],
    xi_grid[j]); eta_part is None when scheme two does not consume eta.
    """
    if model not in COMPARE_MODELS:
        raise ValueError(f"unknown comparison model {model!r}; pick from {COMPARE_MODELS}")
    if np.ndim(eta_grid) != 1 or np.ndim(xi_grid) != 1:  # each entry is checked as a scalar
        raise ValueError("eta_grid and xi_grid must each be a 1-d sequence of numbers")
    # scheme1_success's and scheme2_success's check and expression, one check per value
    eta = [real("eta", e, 0.0, 1.0) for e in eta_grid]
    xi = [real("xi", x, 0.0, 1.0) for x in xi_grid]
    n, m = _QUBIT_CHANNELS, _QUARTIT_MODULES
    p1 = np.array([e ** (2 * n) for e in eta] if model == "deterministic"
                  else [0.5**n * e**n for e in eta])
    if model == "quartit-interferometer":
        return p1, None, np.array([INTERFEROMETER_SUCCESS**m * x ** (3 * m) for x in xi])
    # generic modules: xi^m eta^m factorizes exactly, as xi^m * 1.0^m and 1.0^m * eta^m
    return p1, np.array([e**m for e in eta]), np.array([x**m for x in xi])


def advantage_region(eta_grid, xi_grid) -> np.ndarray:
    """Where the quartit modules beat the qubit channels at matched fidelity.

    Entry [i, j] is True iff scheme two at (xi_grid[j], 3 quartit modules)
    outperforms scheme one at (eta_grid[i], 11 linear-optics qubit channels),
    i.e. 0.18^3 xi^9 > (1/2)^11 eta^11.
    """
    qubit, _, quartit = comparison_axes(eta_grid, xi_grid)
    return quartit[None, :] > qubit[:, None]
