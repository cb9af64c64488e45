"""Read-only array fields for the package's frozen dataclasses, and its argument checks."""

import numbers

import numpy as np


_LARGEST = float(np.finfo(float).max)  # `real`'s default top: a range up to it refuses inf and NaN


def freeze_field(obj, name: str, dtype) -> np.ndarray:
    """Store a read-only `dtype` copy of field `name` on `obj`; refuse entries `_number` refuses."""
    value = getattr(obj, name)
    kinds = "fciu" if dtype is complex else "fiu"  # numbers by dtype: one copy below, no check
    if not (type(value) is np.ndarray and value.dtype.kind in kinds):
        try:
            given, value = value, np.asarray(value)
        except ValueError:  # numpy's words for a ragged nested sequence name no field
            raise ValueError(f"{name} must be a rectangular array, got a ragged sequence") from None
        try:  # entry by entry: np.asarray turns [True, 0.0] into floats, and astype parses a str
            for x in (value if type(given) is np.ndarray else np.asarray(given, object)).flat:
                _number(name, x, numbers.Complex if dtype is complex else numbers.Real)
        except ValueError as refusal:  # _number's words for the entry: they print no huge int
            raise ValueError(f"{name} must hold numbers, got {str(refusal).partition('got ')[2]}")
    arr = value.astype(dtype)  # np.array(value, dtype=dtype) byte for byte, with less overhead
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


def adopt(cls, **fields):
    """A `cls` holding `fields` as given, its own checks not run: the caller has checked them, and
    an array field is one it made and froze, stored without a copy."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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


def real(name: str, value, low: float | None = None, high: float = _LARGEST) -> float:
    """`float(value)`, refused if a bool, not a real number or past the float range; given `low`,
    refused outside [low, high] too, so NaN and inf are.  A float skips the ABC checks."""
    if type(value) is not float:
        value = _number(name, value, numbers.Real)
    if low is not None and not low <= value <= high:
        bounds = f"be finite and >= {low:g}" if high == _LARGEST else f"lie in [{low:g}, {high:g}]"
        raise ValueError(f"{name} must {bounds}, got {value}")
    return value


def complex_number(name: str, value) -> float | complex:
    """`value` as a float if real, else as a complex, refused as `real` refuses."""
    if (kind := type(value)) is complex or kind is float:  # skips the ABC checks
        return value
    return _number(name, value, numbers.Complex)


def _number(name: str, value, kind: type):
    """A float if `value` is real, else a complex; refused if a bool, not a `kind` or too large."""
    if type(value) is bool or not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__.lower()} number, got {value!r}")
    try:
        return float(value) if isinstance(value, numbers.Real) else complex(value)
    except OverflowError:  # no digits: an int can have more than its repr will print
        given = type(value).__name__
        raise ValueError(f"{name} must fit a float, got {given} past {_LARGEST:.2g}") from None
