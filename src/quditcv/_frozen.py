"""Read-only array fields for the package's frozen dataclasses."""

import numpy as np


def freeze_field(obj, name: str, dtype) -> np.ndarray:
    """Store a read-only `dtype` copy of field `name` on the frozen dataclass `obj`."""
    arr = np.array(getattr(obj, name), dtype=dtype)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


def squared_norm(x: np.ndarray) -> float:
    """Sum of |x_i|^2 over a complex vector: np.linalg.norm's own sum, without its wrapper."""
    return x.real.dot(x.real) + x.imag.dot(x.imag)
