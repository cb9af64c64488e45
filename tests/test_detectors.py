import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import povm_weights_reference

from quditcv import detectors
from quditcv.detectors import (
    COMPARE_MODELS,
    INTERFEROMETER_SUCCESS,
    DetectorModel,
    advantage_region,
    apd_povm,
    comparison_axes,
    pnr_povm,
    povm_completeness_defect,
    povm_element,
    scheme1_success,
    scheme2_success,
)


class TestPovmElement:
    def test_perfect_detector_projects(self):
        det = DetectorModel(eta=1.0, nu=0.0)
        for clicks in range(4):
            weights = povm_element(clicks, det, cutoff=6).weights
            expected = np.zeros(7)
            expected[clicks] = 1.0
            assert np.allclose(weights, expected, atol=1e-15)

    def test_no_click_weights_without_darks(self):
        det = DetectorModel(eta=0.4, nu=0.0)
        weights = povm_element(0, det, cutoff=5).weights
        assert np.allclose(weights, 0.6 ** np.arange(6), atol=1e-14)

    def test_blind_detector_never_clicks(self):
        det = DetectorModel(eta=0.0, nu=0.0)
        assert np.allclose(povm_element(0, det, cutoff=5).weights, 1.0, atol=1e-15)
        assert np.allclose(povm_element(1, det, cutoff=5).weights, 0.0, atol=1e-15)

    def test_dark_counts_alone(self):
        # nothing enters (m = 0): clicks are pure Poisson darks
        det = DetectorModel(eta=0.7, nu=0.3)
        for clicks in range(4):
            weight = povm_element(clicks, det, cutoff=3).weights[0]
            expected = math.exp(-0.3) * 0.3**clicks / math.factorial(clicks)
            assert weight == pytest.approx(expected, rel=1e-13)

    def test_one_click_hand_computed(self):
        # m = 1, eta = 0.5, nu = 0: click iff the photon is seen
        det = DetectorModel(eta=0.5, nu=0.0)
        assert povm_element(1, det, cutoff=2).weights[1] == pytest.approx(0.5, abs=1e-15)

    @given(
        eta=st.floats(min_value=0.0, max_value=1.0),
        nu=st.floats(min_value=0.0, max_value=0.2),
        clicks=st.integers(min_value=0, max_value=6),
    )
    def test_weights_stay_in_unit_interval(self, eta, nu, clicks):
        weights = povm_element(clicks, DetectorModel(eta, nu), cutoff=8).weights
        assert np.all(weights >= 0.0) and np.all(weights <= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(eta=1.5, nu=0.0)
        with pytest.raises(ValueError):
            DetectorModel(eta=0.5, nu=-0.1)
        with pytest.raises(ValueError):
            povm_element(-1, DetectorModel(0.5, 0.0), 5)

    @pytest.mark.parametrize("eta,nu", [(0.5, math.nan), (0.5, math.inf), (math.nan, 0.0)])
    def test_non_finite_parameters_rejected(self, eta, nu):
        # a NaN or infinite rate used to yield NaN weights that passed every check
        with pytest.raises(ValueError):
            DetectorModel(eta, nu)


class TestPovmFamilies:
    def test_apd_perfect(self):
        dark, bright = apd_povm(DetectorModel(1.0, 0.0), cutoff=4)
        assert np.allclose(dark.weights, [1, 0, 0, 0, 0], atol=1e-15)
        assert np.allclose(bright.weights, [0, 1, 1, 1, 1], atol=1e-15)

    def test_apd_pair_sums_to_identity(self):
        dark, bright = apd_povm(DetectorModel(0.55, 0.02), cutoff=9)
        assert np.allclose(dark.weights + bright.weights, 1.0, atol=1e-12)

    def test_apd_half_efficiency_level_two(self):
        dark, _ = apd_povm(DetectorModel(0.5, 0.0), cutoff=4)
        assert dark.weights[2] == pytest.approx(0.25, abs=1e-15)

    def test_pnr_element_count_and_closure(self):
        family = pnr_povm(DetectorModel(0.7, 0.01), max_resolved=1, cutoff=12)
        assert len(family) == 3
        assert family[0].clicks == 0 and family[1].clicks == 1
        assert family[2].clicks is None
        stack = sum(e.weights for e in family)
        assert np.allclose(stack, 1.0, atol=1e-12)

    def test_pnr_perfect_detector_fock_projectors(self):
        family = pnr_povm(DetectorModel(1.0, 0.0), max_resolved=2, cutoff=6)
        for clicks in range(3):
            expected = np.zeros(7)
            expected[clicks] = 1.0
            assert np.allclose(family[clicks].weights, expected, atol=1e-15)

    @given(
        eta=st.floats(min_value=0.0, max_value=1.0),
        nu=st.floats(min_value=0.0, max_value=0.2),
        resolved=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40)
    def test_pnr_families_complete(self, eta, nu, resolved):
        family = pnr_povm(DetectorModel(eta, nu), resolved, cutoff=10)
        stack = sum(e.weights for e in family)
        assert np.allclose(stack, 1.0, atol=1e-12)

    def test_click_sum_past_one_is_clamped_within_its_bound(self, monkeypatch):
        # the largest overshoot measured over 1,764 families: 19 ulps, against 3,837
        det = DetectorModel(1 / 3)
        total = np.add.accumulate(detectors._povm_weights(det, 60, 100))[-1]
        assert 1.0 < total.max() <= 1.0 + detectors._slack(60, 100) / 100
        assert pnr_povm(det, 60, 100)[-1].weights.min() == 0.0
        monkeypatch.setattr(detectors, "_slack", lambda max_clicks, cutoff: 0.0)
        with pytest.raises(ValueError, match="POVM click sum"):
            pnr_povm(det, 60, 100)

    @pytest.mark.parametrize("eta", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("nu", [0.0, 0.05, 0.2])
    def test_click_sum_resolves_identity(self, eta, nu):
        defect = povm_completeness_defect(DetectorModel(eta, nu), cutoff=15)
        assert defect < 1e-8


def bits(weights):
    return np.asarray(weights, dtype="<f8").tobytes()


class TestPovmMatchesPerTermLoop:
    """The shared-table builders equal the per-term scalar loop bit for bit."""

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 0.123456789, 1.0])
    @pytest.mark.parametrize("nu", [0.0, 0.05, 1.7])
    @pytest.mark.parametrize("clicks,cutoff", [(0, 0), (1, 3), (4, 2), (12, 25), (40, 60)])
    def test_element(self, eta, nu, clicks, cutoff):
        weights = povm_element(clicks, DetectorModel(eta, nu), cutoff).weights
        assert bits(weights) == bits(povm_weights_reference(clicks, eta, nu, cutoff))

    @given(
        eta=st.floats(min_value=0.0, max_value=1.0),
        nu=st.floats(min_value=0.0, max_value=3.0),
        resolved=st.integers(min_value=0, max_value=8),
        cutoff=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_pnr_family(self, eta, nu, resolved, cutoff):
        family = pnr_povm(DetectorModel(eta, nu), resolved, cutoff)
        for clicks, element in enumerate(family[:-1]):
            assert bits(element.weights) == bits(povm_weights_reference(clicks, eta, nu, cutoff))

    @pytest.mark.parametrize("eta,nu,defect", [
        # verify's povm-completeness grid, captured as float.hex
        (0.3, 0.0, "0x1.0000000000000p-50"),
        (0.3, 0.05, "0x1.c000000000000p-51"),
        (0.7, 0.0, "0x1.0000000000000p-52"),
        (0.7, 0.05, "0x1.c000000000000p-51"),
        (1.0, 0.0, "0x0.0p+0"),
        (1.0, 0.05, "0x1.4e00000000000p-43"),
    ])
    def test_completeness_defect_bits_on_the_verify_grid(self, eta, nu, defect):
        assert povm_completeness_defect(DetectorModel(eta, nu), cutoff=15).hex() == defect

    def test_completeness_defect_sums_reference_elements(self):
        eta, nu, cutoff = 0.7, 0.05, 15
        total = np.zeros(cutoff + 1)
        for clicks in range(cutoff + 7):  # the Poisson(0.05) tail drops below 1e-12 at depth 6
            total += povm_weights_reference(clicks, eta, nu, cutoff)
        defect = povm_completeness_defect(DetectorModel(eta, nu), cutoff)
        assert defect == float(np.max(np.abs(total - 1.0)))

    def test_completeness_refuses_a_tail_past_the_budget_in_few_steps(self, monkeypatch):
        # at nu = 1e300 the tail bound is 1 at every depth: a scan one depth at a time never ended
        depths = []
        bound = detectors._poisson_tail_bound
        monkeypatch.setattr(detectors, "_poisson_tail_bound",
                            lambda nu, depth: depths.append(depth) or bound(nu, depth))
        with pytest.raises(ValueError, match=r"^budget exceeded: \(clicks \+ 1\) x \(cutoff \+ 1\) "
                                             r"POVM weights pass 1e\+07$"):
            povm_completeness_defect(DetectorModel(0.5, 1e300), cutoff=5)
        assert 0 < len(depths) <= 64

    @pytest.mark.parametrize("nu", [0.0, 0.05, 1.0, 30.0, 1e3, 1e5])
    def test_completeness_depth_is_the_first_below_its_bound(self, nu, monkeypatch):
        depth = 0  # the scan the bisection replaced
        while detectors._poisson_tail_bound(nu, depth) > 1e-12:
            depth += 1
        asked = []

        def weights(det, max_clicks, cutoff):
            asked.append(max_clicks - cutoff)
            return np.zeros((max_clicks + 1, cutoff + 1))

        monkeypatch.setattr(detectors, "_povm_weights", weights)
        povm_completeness_defect(DetectorModel(0.5, nu), cutoff=5)
        assert asked == [depth]

    def test_one_row_request_holds_no_list_per_level(self):
        # 10^5 levels: a 0.8 MB matrix, which per-level Python lists of the (1 - eta)^j and
        # the C(m, n) as floats, built beside it, took to an 8 MB peak
        tracemalloc.start()
        try:
            pnr_povm(DetectorModel(0.5), 0, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize(
        "clicks,det,cutoff",
        [
            (600, DetectorModel(0.5), 1100),  # 600! and C(1100, 550) overflow
            (171, DetectorModel(0.5), 5),  # 171! > 1.8e308
            (170, DetectorModel(0.5), 5000),  # C(5000, 170) > 1.8e308
            (40, DetectorModel(0.5, 1e10), 3),  # nu^40 > 1.8e308
        ],
    )
    def test_overflow_is_refused_up_front(self, clicks, det, cutoff):
        with pytest.raises(ValueError, match="overflow"):
            povm_element(clicks, det, cutoff)
        with pytest.raises(ValueError, match="overflow"):
            pnr_povm(det, clicks, cutoff)

    def test_largest_finite_factorial_still_served(self):
        weights = povm_element(170, DetectorModel(0.5, 0.0), 5).weights
        assert bits(weights) == bits(povm_weights_reference(170, 0.5, 0.0, 5))


class TestSchemeComparison:
    def test_scheme1_models(self):
        assert scheme1_success(1.0, 4) == 1.0
        assert scheme1_success(0.9, 3) == pytest.approx(0.9**6, rel=1e-14)
        assert scheme1_success(0.9, 11, model="linear-optics") == pytest.approx(
            0.5**11 * 0.9**11, rel=1e-14
        )

    def test_scheme1_monotone_in_channels(self):
        values = [scheme1_success(0.8, n) for n in range(1, 8)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_scheme2_models(self):
        assert scheme2_success(1.0, 1.0, 5) == 1.0
        assert scheme2_success(0.7, 0.9, 1) == pytest.approx(0.63, rel=1e-14)
        assert scheme2_success(0.7, 1.0, 3, model="quartit-interferometer") == pytest.approx(
            INTERFEROMETER_SUCCESS**3 * 0.7**9, rel=1e-14
        )

    def test_unknown_models_rejected(self):
        with pytest.raises(ValueError, match="model"):
            scheme1_success(0.5, 2, model="bogus")
        with pytest.raises(ValueError, match="model"):
            scheme2_success(0.5, 0.5, 2, model="bogus")

    def test_advantage_at_perfect_detectors(self):
        region = advantage_region([1.0], [1.0])
        assert region.shape == (1, 1) and bool(region[0, 0])
        ratio = scheme2_success(1.0, 1.0, 3, "quartit-interferometer") / scheme1_success(
            1.0, 11, "linear-optics"
        )
        assert ratio == pytest.approx(0.18**3 * 2**11, rel=1e-12)

    def test_advantage_vanishes_without_pnr_efficiency(self):
        region = advantage_region(np.linspace(0.01, 1.0, 5), [0.0])
        assert not region.any()

    def test_boundary_curve(self):
        # on the boundary xi^9 / eta^11 equals (1/2)^11 / 0.18^3
        eta = 0.9
        xi = (0.5**11 * eta**11 / INTERFEROMETER_SUCCESS**3) ** (1.0 / 9.0)
        below = advantage_region([eta], [xi * 0.999])
        above = advantage_region([eta], [xi * 1.001])
        assert not below[0, 0] and above[0, 0]

    def test_region_monotone_along_axes(self):
        eta = np.linspace(0.0, 1.0, 21)
        xi = np.linspace(0.0, 1.0, 21)
        region = advantage_region(eta, xi)
        # more PNR efficiency can only help scheme two
        assert not (region[:, :-1] & ~region[:, 1:]).any()
        # more single-photon efficiency can only help scheme one
        assert not (region[1:, :] & ~region[:-1, :]).any()

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            advantage_region([1.5], [0.5])
        with pytest.raises(ValueError):
            advantage_region([0.5], [float("nan")])

    @pytest.mark.parametrize("model", COMPARE_MODELS)
    def test_axes_match_scalar_scheme_functions(self, model):
        eta = np.linspace(0.0, 1.0, 13)
        xi = np.linspace(0.05, 0.95, 11)
        p1, eta_part, xi_part = comparison_axes(eta, xi, model)
        scheme1 = "deterministic" if model == "deterministic" else "linear-optics"
        scheme2 = "quartit-interferometer" if model == "quartit-interferometer" else "generic"
        for i, e in enumerate(eta.tolist()):
            assert p1[i] == scheme1_success(e, 11, scheme1)
            for j, x in enumerate(xi.tolist()):
                p2 = xi_part[j] if eta_part is None else eta_part[i] * xi_part[j]
                assert p2 == scheme2_success(x, e, 3, scheme2)

    def test_unknown_comparison_model(self):
        with pytest.raises(ValueError, match="model"):
            comparison_axes([0.5], [0.5], "bogus")
