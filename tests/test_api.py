"""Public surface: frozen records and their array fields, every exported or traced name
resolves, and the package loads a module only when it is used."""

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
from quditcv.detectors import DetectorModel, PovmElement
from quditcv.multimode import ModeMatrix, MultimodeState
from quditcv.qudit import JointQuditState, QuditKet
from quditcv.teleport import FockVector, SchemeParams, SqueezingParams, TeleportOutcome

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


# each record type built from narrow or integer input, and its repr as the frozen dataclasses
# gave it: TeleportOutcome's holds its state's, and tests/test_boundary.py compares reprs.
# Every outcome holds one state: a state compares by identity
STATE = FockVector([1])
RECORDS = {
    "SchemeParams": (lambda: SchemeParams(np.int64(3), 2),
                     "SchemeParams(num_modes=3, photon_cutoff=2)"),
    "SqueezingParams": (lambda: SqueezingParams(np.float32(0.3)),
                        "SqueezingParams(chi=0.30000001192092896)"),
    "TeleportOutcome": (lambda: TeleportOutcome(STATE, 0.5), "TeleportOutcome("
                        "state=FockVector(amplitudes=array([1.+0.j])), success_probability=0.5)"),
    "DetectorModel": (lambda: DetectorModel(1), "DetectorModel(eta=1.0, nu=0.0)"),
    "FockVector": (lambda: FockVector([0.6, 0.8j]),
                   "FockVector(amplitudes=array([0.6+0.j , 0. +0.8j]))"),
    "PovmElement": (lambda: PovmElement(np.int64(2), [0.5, 1]),
                    "PovmElement(clicks=2, weights=array([0.5, 1. ]))"),
    "QuditKet": (lambda: QuditKet([0, 1]), "QuditKet(amplitudes=array([0.+0.j, 1.+0.j]))"),
    "JointQuditState": (lambda: JointQuditState([[0, 1], [0, 0]]),
                        "JointQuditState(amplitudes=array([[0.+0.j, 1.+0.j],\n"
                        "       [0.+0.j, 0.+0.j]]))"),
    "ModeMatrix": (lambda: ModeMatrix([[0, 1], [1, 0]]),
                   "ModeMatrix(entries=array([[0.+0.j, 1.+0.j],\n       [1.+0.j, 0.+0.j]]))"),
    "MultimodeState": (lambda: MultimodeState([[1, 0], [0, 0]]),
                       "MultimodeState(amplitudes=array([[1.+0.j, 0.+0.j],\n"
                       "       [0.+0.j, 0.+0.j]]))"),
}
VALUE_RECORDS = ("SchemeParams", "SqueezingParams", "TeleportOutcome", "DetectorModel")


@pytest.mark.parametrize("make, text", RECORDS.values(), ids=RECORDS.keys())
def test_record_repr(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make", [make for make, _ in RECORDS.values()], ids=RECORDS.keys())
def test_record_refuses_assignment_and_deletion(make):
    record = make()
    fields, text = dict(vars(record)), repr(record)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert vars(record) == fields and repr(record) == text


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_record_compares_and_hashes_by_fields(name):
    make = RECORDS[name][0]
    first, second = make(), make()
    assert first == second and not first != second and hash(first) == hash(second)
    assert first != tuple(vars(first).values())  # a record, not the tuple of its fields
    assert len({first, second}) == 1


def test_value_records_compare_their_stored_fields():
    assert SchemeParams(np.int64(3), 2) == SchemeParams(3, 2)
    assert hash(SchemeParams(np.int64(3), 2)) == hash(SchemeParams(3, 2))
    assert SchemeParams(3, 2) != SchemeParams(2, 3)
    assert SqueezingParams(np.float64(0.25)) == SqueezingParams(0.25) != SqueezingParams(0.5)
    assert DetectorModel(0.7) == DetectorModel(0.7, 0) != DetectorModel(0.7, 0.05)
    assert TeleportOutcome(STATE, 0.5) == TeleportOutcome(STATE, 0.5) != TeleportOutcome(STATE, 1)
    assert TeleportOutcome(STATE, 0.5) != TeleportOutcome(FockVector([1]), 0.5)  # equal amplitudes


@pytest.mark.parametrize("name", [name for name in RECORDS if name not in VALUE_RECORDS])
def test_array_record_compares_and_hashes_by_identity(name):
    first, second = RECORDS[name][0](), RECORDS[name][0]()
    assert first == first and first != second and not first == second
    assert hash(first) == object.__hash__(first)


def test_records_take_their_fields_by_keyword():
    assert SchemeParams(num_modes=3, photon_cutoff=2) == SchemeParams(3, 2)
    assert SqueezingParams(chi=0.25) == SqueezingParams(0.25)
    assert DetectorModel(eta=0.7, nu=0.05) == DetectorModel(0.7, 0.05)
    default = DetectorModel(0.7)
    assert default.nu == 0.0 and type(default.nu) is float
    assert TeleportOutcome(state=STATE, success_probability=0.5) == TeleportOutcome(STATE, 0.5)
    assert repr(FockVector(amplitudes=[1])) == repr(STATE)
    assert repr(PovmElement(clicks=None, weights=[1])) == (
        "PovmElement(clicks=None, weights=array([1.]))")
    for record in (QuditKet(amplitudes=[0, 1]), JointQuditState(amplitudes=[[0, 1], [0, 0]]),
                   ModeMatrix(entries=[[0, 1], [1, 0]]),
                   MultimodeState(amplitudes=[[1, 0], [0, 0]])):
        assert repr(record) == RECORDS[type(record).__name__][1]


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
# modules only verify and library callers need are loaded; no command loads dataclasses
_LAZY_SCRIPT = """
import contextlib, io, sys
import quditcv, quditcv.cli
LAZY = ("quditcv.multimode", "quditcv.qudit", "fractions", "decimal", "dataclasses")
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


def test_importtime_lists_every_loaded_module():
    # -X importtime logs only what the import statement loads, so a submodule the package
    # loaded another way would hide its cost in its importer's self time
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")}
    script = ("import sys, quditcv, quditcv.cli; "
              "print(*sorted(name for name in sys.modules if name.startswith('quditcv')))")
    run = subprocess.run([sys.executable, "-X", "importtime", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    logged = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
              if line.startswith("import time:")}
    loaded = run.stdout.split()
    assert "quditcv.detectors" in loaded
    assert [name for name in loaded if name not in logged] == []


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
