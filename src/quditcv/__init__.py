"""Qudit-mediated teleportation of continuous-variable states.

Exact combinatorics for photon-number truncation, the closed-form
split/truncate/recombine teleportation pipeline, the underlying discrete
qudit protocol, a brute-force multimode cross-check, detector POVMs, and
scheme-comparison calculators, all surfaced through a CSV-producing CLI.
"""

import importlib

__version__ = "0.1.0"

# each module's __all__ is its public API, re-exported here and loaded on first use (PEP 562)
_EXPORTING = ("combinatorics", "detectors", "multimode", "qudit", "teleport")


def __getattr__(name: str):
    if name in _EXPORTING or name == "cli":  # `from . import x` asks for x: load x alone
        return importlib.import_module(f"{__name__}.{name}")
    if name.startswith("_") and name != "__all__":  # a probe, or a private module to import
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    names = globals()
    if "__all__" not in names:  # the first export asked for binds every one, as `import *` would
        modules = [importlib.import_module(f"{__name__}.{module}") for module in _EXPORTING]
        names.update((export, getattr(m, export)) for m in modules for export in m.__all__)
        names["__all__"] = ["__version__", *(export for m in modules for export in m.__all__)]
    if name not in names:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return names[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
