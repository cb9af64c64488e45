"""Public surface: frozen array fields, and every exported or traced name resolves."""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

import quditcv
from quditcv.detectors import PovmElement
from quditcv.multimode import ModeMatrix, MultimodeState
from quditcv.qudit import JointQuditState, QuditKet
from quditcv.teleport import FockVector

MODULES = ("combinatorics", "teleport", "qudit", "multimode", "detectors", "cli")

# (type, array field, stored dtype, values); each is given as a writable integer
# array (the copy converts) and as one of the stored dtype (a no-copy view would do)
FROZEN = [
    (FockVector, "amplitudes", np.complex128, [0, 1, 0]),
    (QuditKet, "amplitudes", np.complex128, [0, 1]),
    (JointQuditState, "amplitudes", np.complex128, [[0, 1], [0, 0]]),
    (ModeMatrix, "entries", np.complex128, [[0, 1], [1, 0]]),
    (MultimodeState, "amplitudes", np.complex128, [[1, 0], [0, 0]]),
    (PovmElement, "weights", np.float64, [1, 0, 1]),
]


@pytest.mark.parametrize("same_dtype", [False, True], ids=["int-input", "same-dtype-input"])
@pytest.mark.parametrize("cls, field, dtype, values", FROZEN, ids=[f[0].__name__ for f in FROZEN])
def test_array_field_is_a_read_only_copy(cls, field, dtype, values, same_dtype):
    given = np.array(values, dtype=dtype if same_dtype else None)
    stored = getattr(cls(0, given) if cls is PovmElement else cls(given), field)
    assert stored.dtype == dtype
    assert not stored.flags.writeable
    with pytest.raises(ValueError):
        stored.flat[0] = 0
    assert given.flags.writeable
    given.flat[0] = 7
    assert np.array_equal(stored, np.array(values, dtype=dtype))


def _traced_names():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names in module.TRACED.values() for name in names]


def test_every_traced_name_resolves():
    missing = [
        f"{mod}.{name}"
        for mod, name in _traced_names()
        if not callable(getattr(importlib.import_module(mod), name, None))
    ]
    assert missing == []


def test_every_exported_name_exists():
    missing = [
        f"quditcv.{mod}.{name}"
        for mod in MODULES
        for name in importlib.import_module(f"quditcv.{mod}").__all__
        if not hasattr(importlib.import_module(f"quditcv.{mod}"), name)
    ]
    missing += [f"quditcv.{name}" for name in quditcv.__all__ if not hasattr(quditcv, name)]
    assert missing == []
