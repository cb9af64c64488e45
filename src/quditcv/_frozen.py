"""Read-only array fields for the package's frozen dataclasses, and its argument checks."""

import numbers

import numpy as np


_NOT_NUMBERS = (bool, np.bool_, str, bytes)


def freeze_field(obj, name: str, dtype) -> np.ndarray:
    """Store a read-only `dtype` copy of field `name` on `obj`; refuse bool, bytes and str input."""
    value = getattr(obj, name)
    if not (type(value) is np.ndarray and value.dtype.kind in "fc"):  # fast path: one copy
        given, value = value, np.asarray(value)
        # entry by entry: np.asarray turns [True, 0.0] into floats, and astype parses a str
        if any(isinstance(x, _NOT_NUMBERS) for x in np.asarray(given, object).flat):
            raise ValueError(f"{name} must hold numbers, got {given!r}")
    arr = value.astype(dtype)  # np.array(value, dtype=dtype) byte for byte, with less overhead
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


def squared_norm(x: np.ndarray) -> float:
    """Sum of |x_i|^2 over a complex vector: np.linalg.norm's own sum, without its wrapper."""
    return x.real.dot(x.real) + x.imag.dot(x.imag)


def instance(name: str, value, kind: type):
    """`value`, refused unless it is a `kind`: a state or parameter object, not its raw data."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


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


def complex_number(name: str, value):
    """`value`, refused if a bool or not a complex number; a complex or float skips the ABCs."""
    kind = type(value)
    if kind is not complex and kind is not float and (
            kind is bool or not isinstance(value, numbers.Complex)):
        raise ValueError(f"{name} must be a complex number, got {value!r}")
    return value
