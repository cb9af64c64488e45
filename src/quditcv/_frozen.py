"""The package's frozen records, with their read-only array fields, and its argument checks."""

import numbers

import numpy as np


_LARGEST = float(np.finfo(float).max)  # `real`'s default top: a range up to it refuses inf and NaN


class Record:
    """A frozen record: `__init__` (an array through `_freeze`) or `_adopt` stores each field once
    in `__dict__`, in annotation order, and refuses any later assignment or deletion; `repr` lists
    them.  A value record, `class R(Record, value=True)`, compares and hashes by its fields within
    its own class; any other record by identity."""

    def __init_subclass__(cls, value: bool = False) -> None:
        if value:
            cls.__eq__, cls.__hash__ = cls._same_fields, cls._hash_fields

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def _same_fields(self, other) -> bool:
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def _hash_fields(self) -> int:
        return hash(tuple(vars(self).values()))

    def _freeze(self, name: str, value, dtype) -> np.ndarray:
        """Store a read-only `dtype` copy of `value` as field `name`; refuse what `_number` does."""
        kinds = "fciu" if dtype is complex else "fiu"  # numbers by dtype: one copy below, no check
        if not (type(value) is np.ndarray and value.dtype.kind in kinds):
            try:
                given, value = value, np.asarray(value)
            except ValueError:  # numpy's words for a ragged nested sequence name no field
                raise ValueError(f"{name} must be a rectangular array, got a ragged sequence"
                                 ) from None
            try:  # entry by entry: np.asarray turns [True, 0.0] into floats, astype parses a str
                for x in (value if type(given) is np.ndarray else np.asarray(given, object)).flat:
                    _number(name, x, numbers.Complex if dtype is complex else numbers.Real)
            except ValueError as err:  # _number's words for the entry: they print no huge int
                raise ValueError(f"{name} must hold numbers, got {str(err).partition('got ')[2]}")
        arr = value.astype(dtype)  # np.array(value, dtype=dtype) byte for byte, with less overhead
        arr.setflags(False)  # write=False, given by position: numpy parses a keyword slowly
        self.__dict__[name] = arr
        return arr

    @classmethod
    def _adopt(cls, **fields):
        """A `cls` holding `fields` unchecked and uncopied: arrays the caller made and froze."""
        obj = object.__new__(cls)
        obj.__dict__.update(fields)
        return obj


def squared_norm(x: np.ndarray) -> float:
    """Sum of |x_i|^2 over a complex vector: np.linalg.norm's own sum, without its wrapper."""
    re, im = x.real, x.imag
    return re.dot(re) + im.dot(im)


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
