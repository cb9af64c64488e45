"""Every public integer and real argument is checked where it enters the package.

An integer argument refuses a bool, a float and a string; a real argument refuses
a bool, a string and a complex number.  Each refusal is a ValueError whose message
starts with the argument's name, and a numpy scalar of a valid value is accepted.
"""

import numpy as np
import pytest

from quditcv import (
    DetectorModel,
    FockVector,
    SchemeParams,
    SqueezingParams,
    apd_povm,
    bell_measure,
    coherent_fock,
    conventional_cv_fidelity,
    depolarized_fidelity,
    embed_input,
    enumerate_bell_outcomes,
    enumerate_compositions,
    fock_gain,
    fourier_state,
    haar_random_ket,
    maximally_entangled,
    n_splitter,
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
    truncate_mode,
    vacuum_postselect,
    x_op,
    xor_gate,
    z_op,
)

ME = maximally_entangled(2)
DET = DetectorModel(0.5, 0.05)
PARAMS = SchemeParams(2, 1)
SPLIT = embed_input(FockVector([0, 1]), 2)  # two modes, cap 1


def _rng():
    return np.random.default_rng(0)


# (argument name, call with that argument set to x, a valid value for it)
INTEGERS = [
    ("n_modes", lambda x: restricted_weight(x, 1, 1), 2),
    ("total_photons", lambda x: restricted_weight(2, x, 1), 1),
    ("per_mode_cutoff", lambda x: restricted_weight(2, 1, x), 1),
    ("n_modes", lambda x: restricted_weight_log(x, 1, 1), 2),
    ("total_photons", lambda x: restricted_weight_log(2, x, 1), 1),
    ("per_mode_cutoff", lambda x: restricted_weight_log(2, 1, x), 1),
    ("n_modes", lambda x: list(enumerate_compositions(x, 1, 1)), 2),
    ("total_photons", lambda x: list(enumerate_compositions(2, x, 1)), 1),
    ("per_mode_cutoff", lambda x: list(enumerate_compositions(2, 1, x)), 1),
    ("num_modes", lambda x: SchemeParams(x, 1), 2),
    ("photon_cutoff", lambda x: SchemeParams(2, x), 1),
    ("k", lambda x: fock_gain(x, PARAMS), 1),
    ("cutoff", lambda x: coherent_fock(0.0, x), 1),
    ("dim", maximally_entangled, 2),
    ("control", lambda x: xor_gate(ME, x, 1), 0),
    ("target", lambda x: xor_gate(ME, 0, x), 1),
    ("index", lambda x: z_op(ME, x), 0),
    ("power", lambda x: z_op(ME, 0, x), 1),
    ("index", lambda x: x_op(ME, x), 0),
    ("power", lambda x: x_op(ME, 0, x), 1),
    ("ell", lambda x: fourier_state(x, 2), 1),
    ("dim", lambda x: fourier_state(0, x), 2),
    ("sys1", lambda x: bell_measure(ME, x, 1, outcome=(0, 0)), 0),
    ("sys2", lambda x: bell_measure(ME, 0, x, outcome=(0, 0)), 1),
    ("ell", lambda x: bell_measure(ME, 0, 1, outcome=(x, 0)), 0),
    ("kk", lambda x: bell_measure(ME, 0, 1, outcome=(0, x)), 0),
    ("sys1", lambda x: list(enumerate_bell_outcomes(ME, x, 1)), 0),
    ("sys2", lambda x: list(enumerate_bell_outcomes(ME, 0, x)), 1),
    ("dim", lambda x: depolarized_fidelity(0.5, x), 2),
    ("dim", lambda x: singlet_fraction_fidelity(0.5, x), 2),
    ("dim", lambda x: haar_random_ket(x, _rng()), 2),
    ("num_modes", n_splitter, 2),
    ("num_modes", lambda x: embed_input(FockVector([0, 1]), x), 2),
    ("cap", lambda x: embed_input(FockVector([0, 1]), 2, x), 2),
    ("mode_index", lambda x: truncate_mode(SPLIT, x, 0), 1),
    ("max_photons", lambda x: truncate_mode(SPLIT, 0, x), 0),
    ("kept_mode", lambda x: vacuum_postselect(SPLIT, x), 0),
    ("clicks", lambda x: povm_element(x, DET, 3), 1),
    ("cutoff", lambda x: povm_element(1, DET, x), 3),
    ("max_resolved", lambda x: pnr_povm(DET, x, 3), 1),
    ("cutoff", lambda x: pnr_povm(DET, 1, x), 3),
    ("cutoff", lambda x: apd_povm(DET, x), 3),
    ("cutoff", lambda x: povm_completeness_defect(DET, x), 3),
    ("num_channels", lambda x: scheme1_success(0.5, x), 2),
    ("num_channels", lambda x: scheme2_success(0.5, 0.5, x), 2),
]

REALS = [
    ("chi", squeezing_from_chi, 0.5),
    ("v_s", squeezing_from_vs, 3.0),
    ("r", squeezing_from_r, 0.5),
    ("r", lambda x: SqueezingParams(x, 0.0, 1.0), 0.0),
    ("chi", lambda x: SqueezingParams(0.0, x, 1.0), 0.0),
    ("v_s", lambda x: SqueezingParams(0.0, 0.0, x), 1.0),
    ("r", conventional_cv_fidelity, 0.5),
    ("p", lambda x: depolarized_fidelity(x, 2), 0.5),
    ("singlet_fraction", lambda x: singlet_fraction_fidelity(x, 2), 0.5),
    ("eta", DetectorModel, 0.5),
    ("nu", lambda x: DetectorModel(0.5, x), 0.1),
    ("eta", lambda x: scheme1_success(x, 2), 0.5),
    ("xi", lambda x: scheme2_success(x, 0.5, 2), 0.5),
    ("eta", lambda x: scheme2_success(0.5, x, 2), 0.5),
]


def _ids(table):
    return [f"{name}-{i}" for i, (name, _, _) in enumerate(table)]


@pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("name, call, good", INTEGERS, ids=_ids(INTEGERS))
def test_integer_argument_refuses_non_integers(name, call, good, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("name, call, good", INTEGERS, ids=_ids(INTEGERS))
def test_integer_argument_accepts_numpy_integers(name, call, good):
    call(np.int64(good))
    call(np.int8(good))


@pytest.mark.parametrize("bad", [True, "0.5", 0.5j], ids=["bool", "str", "complex"])
@pytest.mark.parametrize("name, call, good", REALS, ids=_ids(REALS))
def test_real_argument_refuses_non_reals(name, call, good, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        call(bad)


@pytest.mark.parametrize("name, call, good", REALS, ids=_ids(REALS))
def test_real_argument_accepts_numpy_reals(name, call, good):
    call(np.float64(good))
    call(np.float32(good))


# each of these once returned a value, measured the wrong system, or raised a TypeError
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
    "z_op(me, 1.5)": ("index", lambda: z_op(ME, 1.5)),
    "xor_gate(me, 0.0, 1)": ("control", lambda: xor_gate(ME, 0.0, 1)),
    "bell_measure(me, True, 0)": ("sys1", lambda: bell_measure(ME, True, 0, outcome=(0, 0))),
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
