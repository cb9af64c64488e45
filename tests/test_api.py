"""Public surface: frozen array fields, every exported or traced name resolves, and the
package loads a module only when it is used."""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

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


# run in a fresh interpreter: the commands but verify, then verify, each noting which of the
# modules only verify and library callers need are loaded
_LAZY_SCRIPT = """
import contextlib, io, sys
import quditcv, quditcv.cli
LAZY = ("quditcv.multimode", "quditcv.qudit", "fractions", "decimal")
COMMANDS = [["gains"], ["compare"], ["povm"], ["teleport", "--alpha", "0.5", "--n", "3",
            "--d", "2"], ["epr-sweep"], ["verify"]]
seen = [[name for name in LAZY if name in sys.modules]]
for argv in COMMANDS:
    with contextlib.redirect_stdout(io.StringIO()):
        code = quditcv.cli.main(argv)
    seen.append([argv[0], code, [name for name in LAZY if name in sys.modules]])
print(repr(seen))
"""


def test_only_verify_loads_multimode_qudit_and_fractions():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-c", _LAZY_SCRIPT], env=env, capture_output=True,
                         text=True, check=True)
    lazy = ["quditcv.multimode", "quditcv.qudit", "fractions", "decimal"]
    assert ast.literal_eval(run.stdout) == [
        [], *([command, 0, []] for command in ("gains", "compare", "povm", "teleport",
                                               "epr-sweep")), ["verify", 0, lazy]]


def test_package_exports_every_module_all_in_order():
    modules = [importlib.import_module(f"quditcv.{mod}")
               for mod in ("combinatorics", "detectors", "multimode", "qudit", "teleport")]
    assert quditcv.__all__ == ["__version__", *(name for m in modules for name in m.__all__)]
    exported = {}
    exec("from quditcv import *", exported)
    del exported["__builtins__"]
    assert list(exported) == quditcv.__all__
    for name, value in exported.items():
        assert vars(quditcv)[name] is value  # bound in the package: later lookups pay nothing
        assert name == "__version__" or any(vars(m).get(name) is value for m in modules)
    assert set(quditcv.__all__) <= set(dir(quditcv))


def test_unknown_package_attribute_names_module_and_attribute():
    with pytest.raises(AttributeError, match=r"^module 'quditcv' has no attribute 'nope'$"):
        quditcv.nope  # noqa: B018


_PROBE_SCRIPT = """
import inspect, sys
import quditcv
missing = hasattr(quditcv, "_nope")
unwrapped = inspect.unwrap(quditcv) is quditcv  # asks for __wrapped__
from quditcv import _frozen
print(repr([missing, unwrapped, _frozen.__name__,
            sorted(name for name in sys.modules if name.startswith("quditcv"))]))
"""


def test_private_name_probes_load_no_exporting_module():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-c", _PROBE_SCRIPT], env=env, capture_output=True,
                         text=True, check=True)
    assert ast.literal_eval(run.stdout) == [False, True, "quditcv._frozen",
                                            ["quditcv", "quditcv._frozen"]]
