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
of their classes, and the array fields of the frozen classes refuse bool, bytes and
str input, as an array or entry by entry, each with a message that names the
argument or field.
Range checks on those fields refuse NaN, and a mode matrix refuses an infinite entry.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from quditcv import (
    DetectorModel,
    FockVector,
    JointQuditState,
    ModeMatrix,
    PovmElement,
    QuditKet,
    SchemeParams,
    SqueezingParams,
    TeleportOutcome,
    apd_povm,
    coherent_fock,
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
    "embed_input(FockVector([0, 1]), 2, x)":
        ("cap", lambda x: embed_input(FockVector([0, 1]), 2, x), 2),
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
]


NON_NUMBERS = {
    "str": lambda good: np.asarray(good).astype(str).tolist(),
    "bytes": lambda good: np.asarray(good).astype(bytes).tolist(),
    "bool": lambda good: (np.asarray(good) != 0.0).tolist(),
    "bool-ndarray": lambda good: np.asarray(good) != 0.0,
    "bool-scalar": lambda good: True,
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
