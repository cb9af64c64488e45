"""Read-only array fields for the package's frozen dataclasses, and its argument checks."""

import numbers

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


def integer(name: str, value, low: int | None = None) -> int:
    """`int(value)`, refused if a bool, not an integer or below `low`; an int skips the ABC checks."""
    if type(value) is not int and (type(value) is bool or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def real(name: str, value):
    """`value`, refused if a bool or not a real number; a float skips the ABC checks."""
    if type(value) is not float and (type(value) is bool or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value
