"""Every public integer, real and complex argument is checked where it enters the package.

An integer argument refuses a bool, a float and a string; a real argument refuses
a bool, a string and a complex number; a complex argument refuses a bool, a string
and None.  Each refusal is a ValueError whose message starts with the argument's
name, and a numpy scalar of a valid value is accepted.  A real or complex argument
reaches the core as a plain float or complex, so a numpy scalar or a Fraction gives
the bytes its float or complex gives; a value past the float range is refused, as a
range check refuses NaN and the infinities, each naming the argument.  A requested
qudit Bell outcome must be a pair of integers.  The state, parameter and random-generator
arguments of the protocols, the oracle and the detector functions must be objects
of their classes.  The array fields of the frozen classes hold each entry to the
complex rule, or to the real rule for PovmElement.weights, and the grids of the scheme
comparison are 1-d sequences whose entries take the real rule; each refusal names the
argument or field.  Range checks on those fields refuse NaN, a mode matrix refuses an
infinite entry, and each shape and range refusal of a field is reached.  A POVM click
count, a norm tolerance and a coherent-state cutoff are checked too, the cutoff against
a size budget before anything is built, and so are the click and Fock-level counts of
a POVM request.  A ragged nested sequence is refused naming its field, and an integer
array takes the float array's path, its entries numbers by their dtype.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from quditcv import _frozen, teleport
from quditcv import (
    DetectorModel,
    FockVector,
    JointQuditState,
    ModeMatrix,
    MultimodeState,
    PovmElement,
    QuditKet,
    SchemeParams,
    SqueezingParams,
    TeleportOutcome,
    advantage_region,
    apd_povm,
    coherent_fock,
    comparison_axes,
    conventional_cv_fidelity,
    depolarized_fidelity,
    embed_input,
    enumerate_compositions,
    fock_gain,
    gain_vector,
    haar_random_ket,
    maximally_entangled,
    n_splitter,
    oracle_teleport,
    pnr_povm,
    povm_completeness_defect,
    povm_element,
    restricted_weight,
    restricted_weight_log,
    scheme1_success,
    scheme2_success,
    singlet_fraction_fidelity,
    squeezing_from_chi,
    squeezing_from_r,
    squeezing_from_vs,
    state_fidelity,
    teleport_coherent,
    teleport_epr,
    teleport_qudit,
    teleport_qudit_branches,
    teleport_state,
    truncate_mode,
    vacuum_postselect,
)

ME = maximally_entangled(2)
KET = QuditKet([1.0, 0.0])
DET = DetectorModel(0.5, 0.05)
PARAMS = SchemeParams(2, 1)
SPLIT = embed_input(FockVector([0, 1]), 2)  # two modes, cap 1


def _rng():
    return np.random.default_rng(0)


# (argument name, call with that argument set to x, a valid value for it)
INTEGERS = {
    "restricted_weight(x, 1, 1)": ("n_modes", lambda x: restricted_weight(x, 1, 1), 2),
    "restricted_weight(2, x, 1)": ("total_photons", lambda x: restricted_weight(2, x, 1), 1),
    "restricted_weight(2, 1, x)": ("per_mode_cutoff", lambda x: restricted_weight(2, 1, x), 1),
    "restricted_weight_log(x, 1, 1)": ("n_modes", lambda x: restricted_weight_log(x, 1, 1), 2),
    "restricted_weight_log(2, x, 1)":
        ("total_photons", lambda x: restricted_weight_log(2, x, 1), 1),
    "restricted_weight_log(2, 1, x)":
        ("per_mode_cutoff", lambda x: restricted_weight_log(2, 1, x), 1),
    "enumerate_compositions(x, 1, 1)":
        ("n_modes", lambda x: list(enumerate_compositions(x, 1, 1)), 2),
    "enumerate_compositions(2, x, 1)":
        ("total_photons", lambda x: list(enumerate_compositions(2, x, 1)), 1),
    "enumerate_compositions(2, 1, x)":
        ("per_mode_cutoff", lambda x: list(enumerate_compositions(2, 1, x)), 1),
    "SchemeParams(x, 1)": ("num_modes", lambda x: SchemeParams(x, 1), 2),
    "SchemeParams(2, x)": ("photon_cutoff", lambda x: SchemeParams(2, x), 1),
    "fock_gain(x, PARAMS)": ("k", lambda x: fock_gain(x, PARAMS), 1),
    "coherent_fock(0.0, x)": ("cutoff", lambda x: coherent_fock(0.0, x), 1),
    "maximally_entangled(x)": ("dim", maximally_entangled, 2),
    "teleport_qudit(KET, ME, outcome=(x, 0))":
        ("ell", lambda x: teleport_qudit(KET, ME, outcome=(x, 0)), 0),
    "teleport_qudit(KET, ME, outcome=(0, x))":
        ("kk", lambda x: teleport_qudit(KET, ME, outcome=(0, x)), 0),
    "depolarized_fidelity(0.5, x)": ("dim", lambda x: depolarized_fidelity(0.5, x), 2),
    "singlet_fraction_fidelity(0.5, x)": ("dim", lambda x: singlet_fraction_fidelity(0.5, x), 2),
    "haar_random_ket(x, _rng())": ("dim", lambda x: haar_random_ket(x, _rng()), 2),
    "n_splitter(x)": ("num_modes", n_splitter, 2),
    "embed_input(FockVector([0, 1]), x)":
        ("num_modes", lambda x: embed_input(FockVector([0, 1]), x), 2),
    "truncate_mode(SPLIT, x, 0)": ("mode_index", lambda x: truncate_mode(SPLIT, x, 0), 1),
    "truncate_mode(SPLIT, 0, x)": ("max_photons", lambda x: truncate_mode(SPLIT, 0, x), 0),
    "vacuum_postselect(SPLIT, x)": ("kept_mode", lambda x: vacuum_postselect(SPLIT, x), 0),
    "povm_element(x, DET, 3)": ("clicks", lambda x: povm_element(x, DET, 3), 1),
    "povm_element(1, DET, x)": ("cutoff", lambda x: povm_element(1, DET, x), 3),
    "pnr_povm(DET, x, 3)": ("max_resolved", lambda x: pnr_povm(DET, x, 3), 1),
    "pnr_povm(DET, 1, x)": ("cutoff", lambda x: pnr_povm(DET, 1, x), 3),
    "apd_povm(DET, x)": ("cutoff", lambda x: apd_povm(DET, x), 3),
    "povm_completeness_defect(DET, x)": ("cutoff", lambda x: povm_completeness_defect(DET, x), 3),
    "scheme1_success(0.5, x)": ("num_channels", lambda x: scheme1_success(0.5, x), 2),
    "scheme2_success(0.5, 0.5, x)": ("num_channels", lambda x: scheme2_success(0.5, 0.5, x), 2),
}

REALS = {
    "squeezing_from_chi(x)": ("chi", squeezing_from_chi, 0.5),
    "squeezing_from_vs(x)": ("v_s", squeezing_from_vs, 3.0),
    "squeezing_from_r(x)": ("r", squeezing_from_r, 0.5),
    "SqueezingParams(x)": ("chi", SqueezingParams, 0.0),
    "conventional_cv_fidelity(x)": ("r", conventional_cv_fidelity, 0.5),
    "depolarized_fidelity(x, 2)": ("p", lambda x: depolarized_fidelity(x, 2), 0.5),
    "singlet_fraction_fidelity(x, 2)":
        ("singlet_fraction", lambda x: singlet_fraction_fidelity(x, 2), 0.5),
    "DetectorModel(x)": ("eta", DetectorModel, 0.5),
    "DetectorModel(0.5, x)": ("nu", lambda x: DetectorModel(0.5, x), 0.1),
    "scheme1_success(x, 2)": ("eta", lambda x: scheme1_success(x, 2), 0.5),
    "scheme2_success(x, 0.5, 2)": ("xi", lambda x: scheme2_success(x, 0.5, 2), 0.5),
    "scheme2_success(0.5, x, 2)": ("eta", lambda x: scheme2_success(0.5, x, 2), 0.5),
}


@pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("name, call, good", INTEGERS.values(), ids=INTEGERS.keys())
def test_integer_argument_refuses_non_integers(name, call, good, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("name, call, good", INTEGERS.values(), ids=INTEGERS.keys())
def test_integer_argument_accepts_numpy_integers(name, call, good):
    call(np.int64(good))
    call(np.int8(good))


@pytest.mark.parametrize("bad", [True, "0.5", 0.5j], ids=["bool", "str", "complex"])
@pytest.mark.parametrize("name, call, good", REALS.values(), ids=REALS.keys())
def test_real_argument_refuses_non_reals(name, call, good, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        call(bad)


@pytest.mark.parametrize("name, call, good", REALS.values(), ids=REALS.keys())
def test_real_argument_accepts_numpy_reals(name, call, good):
    call(np.float64(good))
    call(np.float32(good))


COMPLEXES = {
    "coherent_fock(x, 30)": ("alpha", lambda x: coherent_fock(x, 30), 1.0),
    "teleport_coherent(x, PARAMS)": ("alpha", lambda x: teleport_coherent(x, PARAMS), 1.0),
}


@pytest.mark.parametrize("bad", [True, np.True_, "1", None], ids=["bool", "np-bool", "str", "none"])
@pytest.mark.parametrize("name, call, good", COMPLEXES.values(), ids=COMPLEXES.keys())
def test_complex_argument_refuses_non_numbers(name, call, good, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a complex number, got "):
        call(bad)


@pytest.mark.parametrize("name, call, good", COMPLEXES.values(), ids=COMPLEXES.keys())
def test_complex_argument_accepts_numbers(name, call, good):
    for kind in (complex, float, int, np.complex128, np.complex64, np.float64, np.float32,
                 np.int64):
        call(kind(good))


EPR_PARAMS = SchemeParams(20, 3)


def _downstream(result):
    """What `result` carries into the core, as types and bytes: equal only if exactly equal."""
    if isinstance(result, SqueezingParams):
        epr = teleport_epr(result, EPR_PARAMS)
        return (*map(_downstream, (result.chi, epr.success_probability, epr.fidelity)),
                epr.schmidt.tobytes())
    if isinstance(result, DetectorModel):
        return (_downstream(result.eta), _downstream(result.nu),
                *(element.weights.tobytes() for element in pnr_povm(result, 3, 5)))
    if isinstance(result, TeleportOutcome):
        return _downstream(result.success_probability), _downstream(result.state)
    if isinstance(result, FockVector):
        return result.amplitudes.tobytes()
    return type(result), repr(result)


# a numpy scalar or Fraction of a value a float32 cannot hold gives what its float gives
NARROW_REALS = {"float16": np.float16, "float32": np.float32, "float64": np.float64,
                "fraction": lambda x: Fraction(str(x))}


@pytest.mark.parametrize("kind", NARROW_REALS.values(), ids=NARROW_REALS.keys())
@pytest.mark.parametrize("name, call, good", REALS.values(), ids=REALS.keys())
def test_real_argument_reaches_the_core_as_a_float(name, call, good, kind):
    value = kind(good + 0.3)
    want = _downstream(call(float(value)))
    assert _downstream(call(value)) == want


@pytest.mark.parametrize("kind", [*NARROW_REALS.values(), np.complex64, np.complex128],
                         ids=[*NARROW_REALS.keys(), "complex64", "complex128"])
@pytest.mark.parametrize("name, call, good", COMPLEXES.values(), ids=COMPLEXES.keys())
def test_complex_argument_reaches_the_core_as_a_float_or_complex(name, call, good, kind):
    value = kind(good + 0.3) if kind in NARROW_REALS.values() else kind(good + 0.3 + 0.4j)
    plain = complex(value) if isinstance(value, np.complexfloating) else float(value)
    want = _downstream(call(plain))
    assert _downstream(call(value)) == want


def _evict_chi_rows():
    teleport_epr(squeezing_from_chi(0.9), EPR_PARAMS)  # the EPR row cache keeps the last chi


# each narrow chi once left its rows in the cache for the plain chi it compares equal to,
# giving a wrong fidelity or a refused P_suc
@pytest.mark.parametrize("narrow, plain", [
    (lambda: squeezing_from_vs(np.float32(10.0)), lambda: squeezing_from_vs(10.0)),
    (lambda: squeezing_from_chi(np.float16(0.3)), lambda: squeezing_from_chi(0.3)),
    (lambda: squeezing_from_chi(np.float32(0.3)), lambda: squeezing_from_chi(0.3)),
], ids=["vs-float32", "chi-float16", "chi-float32"])
def test_narrow_chi_then_plain_chi_gives_fresh_bytes(narrow, plain):
    _evict_chi_rows()
    fresh = _downstream(plain())
    _evict_chi_rows()
    _downstream(narrow())
    assert _downstream(plain()) == fresh


@pytest.mark.parametrize("name, call, good", [*REALS.values(), *COMPLEXES.values()],
                         ids=[*REALS.keys(), *COMPLEXES.keys()])
@pytest.mark.parametrize("huge", [10**400, -10**5000, Fraction(10**400, 3)],
                         ids=["int", "int-past-repr", "fraction"])
def test_value_past_the_float_range_is_refused(name, call, good, huge):
    # 10**5000 has more digits than int's repr will print
    message = f"^{name} must fit a float, got {type(huge).__name__} past 1.8e\\+308$"
    with pytest.raises(ValueError, match=message):
        call(huge)


@pytest.mark.parametrize("nu", [1e10, np.float64(1e10)], ids=["float", "float64"])
def test_dark_counts_overflow_alike_for_every_float(nu):
    # a numpy nu once reached the power check as a numpy scalar, which warns, not raises
    message = r"^40 clicks over Fock levels 0\.\.10 \(nu=10000000000\.0\) overflow a float"
    with pytest.raises(ValueError, match=message):
        pnr_povm(DetectorModel(0.5, nu), 40, 10)


# each real argument's range and a value just outside it; NaN and the infinities are outside too
OUT_OF_RANGE = {
    "squeezing_from_chi(x)": ("lie in [0, 1)", 1.0),
    "squeezing_from_vs(x)": ("be finite and >= 1", 0.5),
    "squeezing_from_r(x)": ("be finite and >= 0", -0.5),
    "SqueezingParams(x)": ("lie in [0, 1)", -0.5),
    "conventional_cv_fidelity(x)": ("be finite and >= 0", -0.5),
    "depolarized_fidelity(x, 2)": ("lie in [0, 1]", 1.5),
    "singlet_fraction_fidelity(x, 2)": ("lie in [0, 1]", -0.5),
    "DetectorModel(x)": ("lie in [0, 1]", 1.5),
    "DetectorModel(0.5, x)": ("be finite and >= 0", -0.5),
    "scheme1_success(x, 2)": ("lie in [0, 1]", 1.5),
    "scheme2_success(x, 0.5, 2)": ("lie in [0, 1]", -0.5),
    "scheme2_success(0.5, x, 2)": ("lie in [0, 1]", 1.5),
}


@pytest.mark.parametrize("bad", ["outside", math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", OUT_OF_RANGE)
def test_real_argument_out_of_range_names_it(key, bad):
    (name, call, _), (bounds, outside) = REALS[key], OUT_OF_RANGE[key]
    bad = outside if bad == "outside" else bad
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must {bounds}, got {bad}')}$"):
        call(bad)


# each of these once returned a value or raised a TypeError
SEEN = {
    "scheme1_success(0.5, 2.5)": ("num_channels", lambda: scheme1_success(0.5, 2.5)),
    "scheme1_success(True, 2)": ("eta", lambda: scheme1_success(True, 2)),
    "DetectorModel(True)": ("eta", lambda: DetectorModel(True)),
    "DetectorModel('0.5')": ("eta", lambda: DetectorModel("0.5")),
    "pnr_povm(det, 2.5, 10)": ("max_resolved", lambda: pnr_povm(DET, 2.5, 10)),
    "fock_gain(True, p)": ("k", lambda: fock_gain(True, PARAMS)),
    "coherent_fock(1.0, 30.5)": ("cutoff", lambda: coherent_fock(1.0, 30.5)),
    "conventional_cv_fidelity(True)": ("r", lambda: conventional_cv_fidelity(True)),
    "restricted_weight(True, 1, 1)": ("n_modes", lambda: restricted_weight(True, 1, 1)),
    "coherent_fock(True, 30)": ("alpha", lambda: coherent_fock(True, 30)),
    "coherent_fock('x', 3)": ("alpha", lambda: coherent_fock("x", 3)),
    "n_splitter(2.5)": ("num_modes", lambda: n_splitter(2.5)),
    "n_splitter(True)": ("num_modes", lambda: n_splitter(True)),
}


@pytest.mark.parametrize("name, call", SEEN.values(), ids=SEEN.keys())
def test_calls_that_once_passed_or_failed_deep_inside(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


LOWER_BOUNDS = [
    ("total_photons", lambda x: restricted_weight(2, x, 1), 0),
    ("n_modes", lambda x: restricted_weight_log(x, 1, 1), 1),
    ("k", lambda x: fock_gain(x, PARAMS), 0),
    ("cutoff", lambda x: coherent_fock(0.0, x), 0),
    ("dim", maximally_entangled, 2),
    ("num_modes", n_splitter, 1),
    ("max_photons", lambda x: truncate_mode(SPLIT, 0, x), 0),
    ("max_resolved", lambda x: pnr_povm(DET, x, 3), 0),
    ("num_channels", lambda x: scheme1_success(0.5, x), 1),
]


@pytest.mark.parametrize("name, call, low", LOWER_BOUNDS, ids=[row[0] for row in LOWER_BOUNDS])
def test_lower_bounds_name_the_argument(name, call, low):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}, got {low - 1}$"):
        call(low - 1)
    call(low)


FOCK = FockVector([1.0])
SQUEEZE = squeezing_from_chi(0.5)

# (argument name, the type it must have, call with that argument set to x)
PROTOCOL_ARGUMENTS = [
    ("phi", "QuditKet", lambda x: teleport_qudit(x, ME, outcome=(0, 0))),
    ("phi", "QuditKet", lambda x: list(teleport_qudit_branches(x, ME))),
    ("resource", "JointQuditState", lambda x: teleport_qudit(KET, x, outcome=(0, 0))),
    ("resource", "JointQuditState", lambda x: list(teleport_qudit_branches(KET, x))),
    ("state", "FockVector", lambda x: teleport_state(x, PARAMS)),
    ("params", "SchemeParams", lambda x: teleport_state(FOCK, x)),
    ("params", "SchemeParams", lambda x: teleport_coherent(1.0, x)),
    ("squeeze", "SqueezingParams", lambda x: teleport_epr(x, PARAMS)),
    ("params", "SchemeParams", lambda x: teleport_epr(SQUEEZE, x)),
    ("params", "SchemeParams", gain_vector),
    ("params", "SchemeParams", lambda x: fock_gain(0, x)),
    ("a", "FockVector", lambda x: state_fidelity(x, FOCK)),
    ("b", "FockVector", lambda x: state_fidelity(FOCK, x)),
    ("state", "FockVector", lambda x: oracle_teleport(x, PARAMS)),
    ("params", "SchemeParams", lambda x: oracle_teleport(FOCK, x)),
    ("state", "FockVector", lambda x: embed_input(x, 2)),
    ("det", "DetectorModel", lambda x: pnr_povm(x, 1, 3)),
    ("det", "DetectorModel", lambda x: apd_povm(x, 3)),
    ("det", "DetectorModel", lambda x: povm_element(1, x, 3)),
    ("det", "DetectorModel", lambda x: povm_completeness_defect(x, 3)),
    ("rng", "Generator", lambda x: haar_random_ket(2, x)),
]


@pytest.mark.parametrize("bad", ["x", [1.0, 0.0], np.eye(2) / np.sqrt(2.0), None, (2, 1)],
                         ids=["str", "list", "ndarray", "none", "tuple"])
@pytest.mark.parametrize("name, kind, call", PROTOCOL_ARGUMENTS,
                         ids=[f"{row[0]}-{i}" for i, row in enumerate(PROTOCOL_ARGUMENTS)])
def test_protocol_arguments_must_be_states(name, kind, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a {kind}, got {type(bad).__name__}$"):
        call(bad)


@pytest.mark.parametrize("outcome", [(0,), (0, 0, 0), 5, "a", ()], ids=repr)
def test_outcome_must_be_a_pair(outcome):
    with pytest.raises(ValueError, match=r"^outcome must be a pair \(ell, kk\), got "):
        teleport_qudit(KET, ME, outcome=outcome)
    teleport_qudit(KET, ME, outcome=[0, 1])  # any two-item sequence still serves


@pytest.mark.parametrize("position", ["ell", "kk"])
@pytest.mark.parametrize("index", [2, 5, -1, -2, np.int64(2)], ids=repr)
def test_outcome_indices_must_lie_below_the_dimension(position, index):
    def at(x):
        return (x, 0) if position == "ell" else (0, x)

    with pytest.raises(ValueError, match=r"^outcome indices must lie in 0\.\.1, got "):
        teleport_qudit(KET, ME, outcome=at(index))
    for valid in (0, 1, np.int8(1)):
        teleport_qudit(KET, ME, outcome=at(valid))


# teleport_qudit reads rng only to draw an outcome; a requested outcome never consults it
@pytest.mark.parametrize("bad", ["x", [1.0, 0.0], np.eye(2), (2, 1), np.random.RandomState(0)],
                         ids=["str", "list", "ndarray", "tuple", "random-state"])
def test_teleport_qudit_refuses_a_bad_rng(bad):
    with pytest.raises(ValueError, match=f"^rng must be a Generator, got {type(bad).__name__}$"):
        teleport_qudit(KET, ME, rng=bad)
    teleport_qudit(KET, ME, rng=bad, outcome=(0, 1))


# (field name, call with that field set to x, a valid value for it)
ARRAY_FIELDS = [
    ("amplitudes", QuditKet, [1.0, 0.0]),
    ("amplitudes", FockVector, [0.0, 1.0]),
    ("amplitudes", JointQuditState, [[1.0, 0.0], [0.0, 0.0]]),
    ("entries", ModeMatrix, [[1.0, 0.0], [0.0, 1.0]]),
    ("weights", lambda x: PovmElement(0, x), [1.0, 0.0]),
    ("amplitudes", MultimodeState, [[1.0, 0.0], [0.0, 0.0]]),
]


def _first_entry(x):
    """The valid value `good` with its first entry replaced by `x`, as nested lists."""
    def bad(good):
        entries = np.array(good, dtype=object)
        entries.flat[0] = x
        return entries.tolist()
    return bad


NON_NUMBERS = {
    "str": lambda good: np.asarray(good).astype(str).tolist(),
    "bytes": lambda good: np.asarray(good).astype(bytes).tolist(),
    "bool": lambda good: (np.asarray(good) != 0.0).tolist(),
    "bool-ndarray": lambda good: np.asarray(good) != 0.0,
    "bool-scalar": lambda good: True,
    # each of these once stored NaN, a day count or a number parsed from a date, or raised a
    # TypeError or an OverflowError
    "none-entry": _first_entry(None),
    "dict": lambda good: {},
    "object": lambda good: object(),
    "dict-entry": _first_entry({}),
    "int-past-float": _first_entry(10**400),
    "int-past-repr": _first_entry(10**5000),
    "datetime64-days": lambda good: np.full(np.shape(good), np.datetime64("2020-01-01")),
    "datetime64-ns": lambda good: np.full(np.shape(good), np.datetime64("2020-01-01", "ns")),
}


@pytest.mark.parametrize("bad", NON_NUMBERS.values(), ids=NON_NUMBERS.keys())
@pytest.mark.parametrize("name, call, good", ARRAY_FIELDS,
                         ids=[f"{row[0]}-{i}" for i, row in enumerate(ARRAY_FIELDS)])
def test_array_fields_refuse_strings_bytes_and_bools(name, call, good, bad):
    with pytest.raises(ValueError, match=f"^{name} must hold numbers, got "):
        call(bad(good))


@pytest.mark.parametrize("name, call, good", ARRAY_FIELDS,
                         ids=[f"{row[0]}-{i}" for i, row in enumerate(ARRAY_FIELDS)])
def test_array_fields_accept_numbers(name, call, good):
    values = [good, np.array(good, dtype=float), np.array(good, dtype=np.int64),
              np.vectorize(Fraction, otypes=[object])(np.array(good, dtype=int))]
    if name != "weights":  # the one real-valued field
        values += [np.array(good, dtype=complex), np.array(good, dtype=np.complex64)]
    for value in values:
        kept = getattr(call(value), name)
        assert np.array_equal(kept, np.asarray(good)) and not kept.flags.writeable
        if isinstance(value, np.ndarray):
            assert kept is not value and value.flags.writeable  # one copy, the input untouched


# each of these once returned a value or failed deep inside with an AttributeError
SEEN_STATES = {
    "QuditKet(['1', '0'])": ("amplitudes", lambda: QuditKet(["1", "0"])),
    "QuditKet([True, 0.0])": ("amplitudes", lambda: QuditKet([True, 0.0])),
    "FockVector([Fraction(1), '0'])": ("amplitudes", lambda: FockVector([Fraction(1), "0"])),
    "teleport_qudit_branches(ket, 'x')":
        ("resource", lambda: list(teleport_qudit_branches(KET, "x"))),
    "teleport_qudit_branches([1, 0], me)":
        ("phi", lambda: list(teleport_qudit_branches([1, 0], ME))),
    "teleport_qudit(ket, me, outcome=(0,))":
        ("outcome", lambda: teleport_qudit(KET, ME, outcome=(0,))),
    "haar_random_ket(2, None)": ("rng", lambda: haar_random_ket(2, None)),
    "teleport_qudit(ket, me, rng='x')": ("rng", lambda: teleport_qudit(KET, ME, rng="x")),
}


@pytest.mark.parametrize("name, call", SEEN_STATES.values(), ids=SEEN_STATES.keys())
def test_state_calls_that_once_passed_or_failed_deep_inside(name, call):
    with pytest.raises(ValueError, match=f"^{name} must "):
        call()


# each of these was once accepted: a range check written as `x > bound` lets NaN pass.  An
# infinite ModeMatrix entry was refused only after numpy warned inside the unitarity product
SEEN_NAN = {
    "ModeMatrix([[nan]])": ("^matrix is not unitary to 1e-12$", lambda: ModeMatrix([[np.nan]])),
    "ModeMatrix([[inf]])": ("^matrix is not unitary to 1e-12$", lambda: ModeMatrix([[np.inf]])),
    "ModeMatrix([[-inf]])": ("^matrix is not unitary to 1e-12$", lambda: ModeMatrix([[-np.inf]])),
    "ModeMatrix([[infj]])":
        ("^matrix is not unitary to 1e-12$", lambda: ModeMatrix([[complex(0, np.inf)]])),
    "PovmElement(0, [nan])":
        (r"^weights must lie in \[0, 1\]$", lambda: PovmElement(0, [np.nan])),
}


@pytest.mark.parametrize("message, call", SEEN_NAN.values(), ids=SEEN_NAN.keys())
def test_range_checks_refuse_nan(message, call):
    with pytest.raises(ValueError, match=message):
        call()


# the one real-valued array field refuses a complex entry, even with no imaginary part: it
# once kept the real part behind a ComplexWarning
@pytest.mark.parametrize("bad", [[1 + 1j], [1.0, 0.5j], np.array([1 + 1j]), np.array([1.0 + 0j]),
                                 np.array([1.0], dtype=np.complex64)],
                         ids=["list", "list-second", "ndarray", "ndarray-real", "complex64"])
def test_real_array_field_refuses_complex_entries(bad):
    with pytest.raises(ValueError, match="^weights must hold numbers, got "):
        PovmElement(0, bad)


def test_array_field_refusal_names_the_entry():
    with pytest.raises(ValueError, match=r"^amplitudes must hold numbers, got None$"):
        FockVector([1, None])
    past = r"^amplitudes must hold numbers, got int past 1\.8e\+308$"
    with pytest.raises(ValueError, match=past):
        FockVector([0, 10**5000])  # past int's repr limit: no digits are printed
    with pytest.raises(ValueError, match=r"^weights must hold numbers, got \(1\+1j\)$"):
        PovmElement(0, [1 + 1j])


# comparison_axes and advantage_region hold each grid entry to the scalar rule of
# scheme1_success and scheme2_success; each of these once scored an efficiency or raised a
# TypeError
GRID_ENTRIES = {"bool": True, "str": "0.5", "none": None, "dict": {}, "complex": 0.5j}
GRID_CALLS = {
    "comparison_axes": comparison_axes,
    "comparison_axes-generic": lambda eta, xi: comparison_axes(eta, xi, "linear-optics"),
    "advantage_region": advantage_region,
}


@pytest.mark.parametrize("axis", ["eta", "xi"])
@pytest.mark.parametrize("entry", GRID_ENTRIES.values(), ids=GRID_ENTRIES.keys())
@pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
def test_grid_entries_take_the_scalar_rule(call, entry, axis):
    grids = ([entry], [0.5]) if axis == "eta" else ([0.5], [entry])
    with pytest.raises(ValueError, match=f"^{axis} must be a real number, got "):
        call(*grids)


NOT_GRIDS = {
    "int": lambda: 5, "none": lambda: None, "str": lambda: "0.5", "set": lambda: {0.5},
    "dict": lambda: {0.5: 1}, "generator": lambda: (x for x in [0.5]),
    "0-d": lambda: np.array(0.5), "2-d": lambda: [[0.5]], "2-d-ndarray": lambda: np.eye(2),
}


@pytest.mark.parametrize("axis", ["eta", "xi"])
@pytest.mark.parametrize("grid", NOT_GRIDS.values(), ids=NOT_GRIDS.keys())
@pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
def test_grid_must_be_a_1d_sequence(call, grid, axis):
    grids = (grid(), [0.5]) if axis == "eta" else ([0.5], grid())
    with pytest.raises(ValueError, match="^eta_grid and xi_grid must each be a 1-d sequence "):
        call(*grids)


GRID_KINDS = {"tuple": tuple, "ndarray": np.array, "float32": lambda g: np.array(g, np.float32),
              "fraction": lambda g: [Fraction(str(x)) for x in g]}


@pytest.mark.parametrize("model", ["quartit-interferometer", "linear-optics", "deterministic"])
@pytest.mark.parametrize("kind", GRID_KINDS.values(), ids=GRID_KINDS.keys())
def test_grid_of_numbers_gives_the_bytes_its_floats_give(kind, model):
    eta, xi = kind([0.0, 0.3, 1.0, 0.7]), kind([1.0, 0.05, 0.5])
    want = comparison_axes([float(e) for e in eta], [float(x) for x in xi], model)
    got = comparison_axes(eta, xi, model)
    assert [None if a is None else a.tobytes() for a in got] == \
           [None if b is None else b.tobytes() for b in want]


# PovmElement.clicks once stored any of these as given
@pytest.mark.parametrize("bad, message", [
    ("x", "an integer, got 'x'"), (True, "an integer, got True"), (2.5, "an integer, got 2.5"),
    (-3, "an integer >= 0, got -3"),
], ids=["str", "bool", "float", "negative"])
def test_povm_clicks_is_a_count_or_none(bad, message):
    with pytest.raises(ValueError, match=f"^clicks must be {re.escape(message)}$"):
        PovmElement(bad, [1.0])


@pytest.mark.parametrize("clicks", [None, 0, 3, np.int64(2), np.uint8(1)], ids=repr)
def test_povm_clicks_accepts_counts(clicks):
    kept = PovmElement(clicks, [1.0]).clicks
    assert kept == clicks and type(kept) is (type(None) if clicks is None else int)


# FockVector.is_normalized(tol) once raised a TypeError for these, or took True as 1
@pytest.mark.parametrize("bad, message", [
    (None, "be a real number, got None"), ("x", "be a real number, got 'x'"),
    (True, "be a real number, got True"), (1j, "be a real number, got 1j"),
    (-1e-9, "be finite and >= 0, got -1e-09"), (math.nan, "be finite and >= 0, got nan"),
    (math.inf, "be finite and >= 0, got inf"),
], ids=["none", "str", "bool", "complex", "negative", "nan", "inf"])
def test_is_normalized_tolerance_is_a_real_number(bad, message):
    with pytest.raises(ValueError, match=f"^tol must {re.escape(message)}$"):
        FockVector([1.0]).is_normalized(bad)


@pytest.mark.parametrize("tol", [0, 0.0, 1e-12, np.float32(1e-3), Fraction(1, 10**9)], ids=repr)
def test_is_normalized_accepts_real_tolerances(tol):
    assert FockVector([1.0]).is_normalized(tol)
    assert FockVector([0.6, 0.8 + 1e-6]).is_normalized(tol) == (tol >= 2e-6)


def _never(*args):
    raise AssertionError("the request was not refused up front")


class _Built(Exception):
    pass


def _built(*args):
    raise _Built


# a cutoff of 10^9 once passed every check and began building rows of tens of GB; 10**400
# raised an OverflowError inside the tail bound
@pytest.mark.parametrize("cutoff", [10**7, 10**9, 10**400, 10**5000, np.int64(2**62)],
                         ids=["budget", "1e9", "past-float", "past-repr", "int64"])
def test_coherent_fock_refuses_a_cutoff_past_its_budget(cutoff, monkeypatch):
    monkeypatch.setattr(teleport, "_coherent_amplitudes", _never)
    monkeypatch.setattr(teleport, "_poisson_tail_bound", _never)
    with pytest.raises(ValueError, match=r"^budget exceeded: cutoff \+ 1 amplitudes pass 1e\+07$"):
        coherent_fock(1.0, cutoff)


def test_coherent_fock_budget_admits_its_last_cutoff(monkeypatch):
    monkeypatch.setattr(teleport, "_coherent_amplitudes", _built)  # nothing is allocated
    with pytest.raises(_Built):
        coherent_fock(1.0, 10**7 - 1)


# refusals of a wrongly shaped field, a range or a probability that no other test reaches
SHAPES = {
    "FockVector([])": ("amplitudes must form a non-empty 1-d sequence", lambda: FockVector([])),
    "FockVector([[1.0]])":
        ("amplitudes must form a non-empty 1-d sequence", lambda: FockVector([[1.0]])),
    "FockVector(1.0)": ("amplitudes must form a non-empty 1-d sequence", lambda: FockVector(1.0)),
    "PovmElement(0, [])": ("weights must form a non-empty 1-d vector", lambda: PovmElement(0, [])),
    "PovmElement(0, [[1.0]])":
        ("weights must form a non-empty 1-d vector", lambda: PovmElement(0, [[1.0]])),
    "ModeMatrix([1.0])": ("entries must form a square matrix", lambda: ModeMatrix([1.0])),
    "ModeMatrix(2x3)": ("entries must form a square matrix", lambda: ModeMatrix(np.eye(2, 3))),
    "ModeMatrix(0x0)": ("entries must form a square matrix", lambda: ModeMatrix(np.eye(0))),
    "MultimodeState(1.0)":
        ("amplitudes must carry at least one mode axis", lambda: MultimodeState(1.0)),
    "MultimodeState(2x3)":
        ("every mode must share one common photon cap", lambda: MultimodeState(np.eye(2, 3))),
    "QuditKet([1.0])":
        ("a qudit needs a 1-d amplitude vector of dimension >= 2", lambda: QuditKet([1.0])),
    "QuditKet(2x2)": ("a qudit needs a 1-d amplitude vector of dimension >= 2",
                      lambda: QuditKet(np.eye(2) / math.sqrt(2.0))),
    "JointQuditState(2x1)": ("each subsystem needs dimension >= 2",
                             lambda: JointQuditState([[1.0], [0.0]])),
    "JointQuditState(1.0)": ("each subsystem needs dimension >= 2", lambda: JointQuditState(1.0)),
    "truncate_mode(SPLIT, 2, 0)": ("mode index 2 out of range", lambda: truncate_mode(SPLIT, 2, 0)),
    "truncate_mode(SPLIT, -1, 0)":
        ("mode index -1 out of range", lambda: truncate_mode(SPLIT, -1, 0)),
    "vacuum_postselect(SPLIT, 2)":
        ("mode index 2 out of range", lambda: vacuum_postselect(SPLIT, 2)),
    "vacuum_postselect(SPLIT, -1)":
        ("mode index -1 out of range", lambda: vacuum_postselect(SPLIT, -1)),
    "TeleportOutcome(FOCK, 0.0)": ("success probability must lie in (0, 1], got 0.0",
                                   lambda: TeleportOutcome(FOCK, 0.0)),
    "TeleportOutcome(FOCK, 1.5)": ("success probability must lie in (0, 1], got 1.5",
                                   lambda: TeleportOutcome(FOCK, 1.5)),
    "TeleportOutcome(FOCK, nan)": ("success probability must lie in (0, 1], got nan",
                                   lambda: TeleportOutcome(FOCK, math.nan)),
}


@pytest.mark.parametrize("message, call", SHAPES.values(), ids=SHAPES.keys())
def test_shape_and_range_refusals(message, call):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# FockVector([[1, 2], [3]]) once raised numpy's own "inhomogeneous shape" message
@pytest.mark.parametrize("name, call, good", ARRAY_FIELDS,
                         ids=[f"{row[0]}-{i}" for i, row in enumerate(ARRAY_FIELDS)])
def test_array_fields_name_a_ragged_sequence(name, call, good):
    with pytest.raises(ValueError, match=f"^{name} must be a rectangular array, got a ragged "
                                         "sequence$"):
        call([good, good[:1]])


# an integer array once took the entry-by-entry check: FockVector(np.arange(10**5)) in about
# 55 ms, not 1; a bool or object array still takes it (test_array_fields_refuse_...)
@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.uint64])
@pytest.mark.parametrize("name, call, good", ARRAY_FIELDS,
                         ids=[f"{row[0]}-{i}" for i, row in enumerate(ARRAY_FIELDS)])
def test_integer_arrays_take_the_fast_path(name, call, good, dtype, monkeypatch):
    value = np.array(good, dtype=dtype)
    monkeypatch.setattr(_frozen, "_number", _never)  # no entry is checked on its own
    kept = getattr(call(value), name)
    want = np.asarray(value).astype(float if name == "weights" else complex)
    assert kept.dtype == want.dtype and kept.tobytes() == want.tobytes()
    assert not kept.flags.writeable and value.flags.writeable


_DET = DetectorModel(0.5, 0.1)

# (clicks + 1) x (cutoff + 1) POVM weights past 10^7: a cutoff of 10^8 once asked for about
# 8 GB, and 10^6 clicks spent seconds on 10^6! before the overflow refusal
POVM_PAST_BUDGET = {
    "element-clicks": lambda: povm_element(10**7, _DET, 0),
    "element-cutoff": lambda: povm_element(0, _DET, 10**7),
    "element-past-repr": lambda: povm_element(10**5000, _DET, 10**400),
    "pnr-cutoff": lambda: pnr_povm(_DET, 0, 10**8),
    "pnr-both": lambda: pnr_povm(_DET, 1999, 5000),  # 2,000 x 5,001 weights
    "pnr-int64": lambda: pnr_povm(_DET, np.int64(2**40), np.int64(2**40)),
    "apd": lambda: apd_povm(_DET, 10**7),
    "completeness": lambda: povm_completeness_defect(_DET, 3162),  # 3,163 x 3,163 and more
}


@pytest.mark.parametrize("call", POVM_PAST_BUDGET.values(), ids=POVM_PAST_BUDGET.keys())
def test_povm_builders_refuse_a_request_past_their_budget(call, monkeypatch):
    for name in ("zeros", "array"):  # nothing is allocated
        monkeypatch.setattr(np, name, _never)
    monkeypatch.setattr(math, "factorial", _never)  # not even the overflow check runs
    with pytest.raises(ValueError, match=r"^budget exceeded: \(clicks \+ 1\) x \(cutoff \+ 1\) "
                                         r"POVM weights pass 1e\+07$"):
        call()


# 40 x 250,000 weights: exactly the budget, with terms that fit a float
@pytest.mark.parametrize("call", [lambda: pnr_povm(_DET, 39, 249_999),
                                  lambda: povm_element(39, _DET, 249_999)], ids=["pnr", "element"])
def test_povm_budget_admits_its_last_size(call, monkeypatch):
    monkeypatch.setattr(np, "zeros", _built)  # the weight matrix is not allocated
    with pytest.raises(_Built):
        call()


def test_povm_overflow_check_builds_no_large_factorial(monkeypatch):
    factorial = math.factorial
    monkeypatch.setattr(math, "factorial", lambda k: _never() if k > 171 else factorial(k))
    with pytest.raises(ValueError, match=r"^1000000 clicks over Fock levels 0\.\.0 .* overflow"):
        povm_element(10**6, _DET, 0)
