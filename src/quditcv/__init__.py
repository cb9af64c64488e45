"""Qudit-mediated teleportation of continuous-variable states.

Exact combinatorics for photon-number truncation, the closed-form
split/truncate/recombine teleportation pipeline, the underlying discrete
qudit protocol, a brute-force multimode cross-check, detector POVMs, and
scheme-comparison calculators, all surfaced through a CSV-producing CLI.
"""

# each module's __all__ is its public API; the package re-exports all of them
from . import combinatorics, detectors, multimode, qudit, teleport
from .combinatorics import *  # noqa: F403
from .detectors import *  # noqa: F403
from .multimode import *  # noqa: F403
from .qudit import *  # noqa: F403
from .teleport import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *combinatorics.__all__,
    *detectors.__all__,
    *multimode.__all__,
    *qudit.__all__,
    *teleport.__all__,
]
