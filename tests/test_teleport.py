import cmath
import enum
import hashlib
import math
import re
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    coherent_factorial_reference,
    coherent_teleport_reference,
    gain_vector_reference,
)

from quditcv import combinatorics, teleport
from quditcv.combinatorics import restricted_weight
from quditcv.teleport import (
    FockVector,
    SchemeParams,
    SqueezingParams,
    coherent_fock,
    conventional_cv_fidelity,
    fock_gain,
    gain_vector,
    squeezing_from_chi,
    squeezing_from_r,
    squeezing_from_vs,
    state_fidelity,
    teleport_coherent,
    teleport_epr,
    teleport_state,
)

# Reference values frozen from an exact-rational evaluation of the closed
# forms (weights and gains as Fractions, probabilities converted at the end).
EPR_REFERENCE = {
    # (photon_cutoff d, num_modes N): (P_suc, fidelity) at chi = 9/11
    (1, 11): (0.7550685993775735, 0.9428692928821941),
    (3, 3): (0.9140217497713005, 0.9791005609075681),
    (2, 3): (0.8144248289297182, 0.9447054817508866),
    (1, 2): (0.5889100064858055, 0.815664959505927),
}
COHERENT_P_SUC_A1_N2_D1 = 0.781743812489315

# sha256 of the little-endian float64 bytes of teleport_epr's Schmidt vector
# at V_s = 10, on both sides of the N*d = 60 exact/log boundary.  A change to
# how the gains are evaluated that moves any last digit changes these.
EPR_SCHMIDT_SHA256 = {
    # (num_modes N, photon_cutoff d): digest
    (11, 1): "cceea3be88c9667c0d71c9734cb34b47b9c31bf2389106a79e04110620ffc3a8",
    (20, 3): "d170051c124e5e03b57ec881626c7dd8a3e70945f40305877811c58457b93386",
    (21, 3): "66695a0d6125dee33760825aa6e2e76109f13aa8cc496e0278598de4e98d9bc0",
    (50, 3): "998c1234dee1c2dd104903f50f4f2e31a5b81b73a8ecb624db92c61f74c6ff98",
    (100, 10): "825c4abe20158f4a14af52bc4b39969f2c4cdf845779b3f26d208df2bc07e226",
}

# sha256 over d = 1..10 (outer) and N = 1..100 of teleport_epr's little-endian
# Schmidt vector, P_suc and fidelity, captured before the chi rows were cached
EPR_GRID_SHA256 = {
    10.0: "490b21fc7e8bcaa062d61624436354bca6fe47a58991bc32d343c40357c2cd8a",
    3.0: "1fdfbb965b69138563d03db4f879b7c290605aed44dc895e8cfa8db4131db48c",
}

# request_digest of teleport_state and teleport_coherent at the six state_stream
# configurations, on both sides of N*d = 60.  A change to the request path that
# moves any last digit of an amplitude or of P_suc changes these.
REQUEST_SHA256 = {
    # (num_modes N, photon_cutoff d): (teleport_state digest, teleport_coherent digest)
    (2, 1): ("a9828203635f738d8f21608cdb09f2f9a08d520790fa4254d72e583fb27441af",
             "85f1b5c85e87f02de338ef4e0233e5e614ecb5e066bdc9133bba8c01f4130095"),
    (3, 2): ("b8335f37ddb07353a29914842a8d71791b5e4d891fe5a0bbcebb78039a76a4a8",
             "1afd04bd794b111307f0c6a3050a27cb6bffc107bc8058d9d287a0df44bc6bc7"),
    (11, 1): ("d63a9b5284091141758d77ce8fcf6a195927576271c8e1eda5eac6222364ef10",
              "706d19d0a81be2da412800df3379f8d3281c192b7ed18adba6e698b2b8c405aa"),
    (3, 3): ("8c27edb1db8c4954fb2d0bf433cc07586d190bf6f104b53931b710f896c3e45c",
             "0ea15688e770f2b4f6c60bcf6005752a0e3542657bd98d5392060310274e6e1e"),
    (20, 4): ("2cabcf218aa13facbc4121c87e0311d906137bf32ba5f26b44f26d4f03f694ac",
              "d27b95c84addab93c6bdb0e5a992551e9a3915de91a8cfc9bd3ef0930eb2c3ec"),
    (50, 3): ("54ee13be83b13e4cadafd058120c986e8a20ef316a7cd53f4ecbdfcffb471d7d",
              "0cbd0ebf761d44ecbab8e82be820ea44e874724f624798b139b3eb3450b91c63"),
}

# sha256 of the little-endian float64 (r, chi, v_s) of 5,815 squeezing_from_* results, captured
# when SqueezingParams stored all three: v_s = 1 + k/8 (k < 2000) and 10^1..10^15, r = k/100
# (k < 1800), chi = k/2000 (k < 2000)
SQUEEZING_SHA256 = "49e6094eb458bb49713da8a6eb04d0169cd6a7894e7cd08deb9b840b0d81fde4"


def fock_basis(k: int, cutoff: int) -> FockVector:
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[k] = 1.0
    return FockVector(amps)


def random_state(rng, cutoff: int) -> FockVector:
    z = rng.standard_normal(cutoff + 1) + 1j * rng.standard_normal(cutoff + 1)
    return FockVector(z / np.linalg.norm(z))


def request_digest(kind: str, n: int, d: int) -> str:
    """sha256 of the little-endian amplitudes and P_suc of twenty seeded requests."""
    rng = np.random.default_rng([n, d])
    params = SchemeParams(n, d)
    digest = hashlib.sha256()
    for _ in range(20):
        if kind == "state":
            out = teleport_state(random_state(rng, 40), params)
        else:
            out = teleport_coherent(rng.uniform(0.0, 4.0) * cmath.exp(2j * math.pi * rng.random()),
                                    params)
        digest.update(out.state.amplitudes.astype("<c16").tobytes())
        digest.update(np.float64(out.success_probability).astype("<f8").tobytes())
    return digest.hexdigest()


class TestFockGain:
    def test_vacuum_and_single_photon(self):
        for n in (1, 2, 5, 9):
            for d in (1, 2, 4):
                params = SchemeParams(n, d)
                assert fock_gain(0, params) == 1.0
                assert fock_gain(1, params) == 1.0

    def test_identity_region_is_exact(self):
        for n in range(1, 9):
            for d in range(1, 6):
                for k in range(0, d + 1):
                    assert fock_gain(k, SchemeParams(n, d)) == 1.0

    def test_two_photons_single_cutoff(self):
        assert fock_gain(2, SchemeParams(4, 1)) == 0.75
        for n in range(2, 30):
            expected = float(Fraction(n - 1, n))
            assert fock_gain(2, SchemeParams(n, 1)) == expected

    def test_zero_beyond_capacity(self):
        assert fock_gain(3, SchemeParams(2, 1)) == 0.0
        assert fock_gain(100, SchemeParams(3, 3)) == 0.0

    @given(
        n=st.integers(min_value=1, max_value=10),
        d=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=0, max_value=50),
    )
    def test_bounds(self, n, d, k):
        g = fock_gain(k, SchemeParams(n, d))
        assert 0.0 <= g <= 1.0

    def test_fixed_budget_dominance(self):
        # at fixed d*N = 20, larger per-mode cutoffs keep more of every |k>
        best = [fock_gain(k, SchemeParams(5, 4)) for k in range(21)]
        mid = [fock_gain(k, SchemeParams(10, 2)) for k in range(21)]
        worst = [fock_gain(k, SchemeParams(20, 1)) for k in range(21)]
        for b, m, w in zip(best, mid, worst):
            assert b >= m >= w

    def test_log_path_matches_exact_rational(self):
        # d*N = 75 forces the log-domain path; compare against the exact value
        params = SchemeParams(25, 3)
        for k in (5, 12, 30, 60):
            weight = restricted_weight(25, k, 3)
            exact = float(weight * math.factorial(k) / Fraction(25) ** k)
            assert fock_gain(k, params) == pytest.approx(exact, rel=1e-10)

    def test_negative_photon_number_rejected(self):
        with pytest.raises(ValueError):
            fock_gain(-1, SchemeParams(2, 1))

    @pytest.mark.parametrize("n,d", [(1, 1), (4, 1), (20, 3), (21, 3), (61, 1), (13, 5)])
    def test_fock_gain_reads_the_gain_vector(self, n, d):
        params = SchemeParams(n, d)
        gains = gain_vector(params)
        assert len(gains) == n * d + 1
        for k in range(n * d + 1):
            assert fock_gain(k, params) == gains[k]
        for k in (n * d + 1, n * d + 7):
            assert fock_gain(k, params) == 0.0

    @pytest.mark.parametrize(
        "n,d",
        [(n, d) for d in range(1, 11) for n in (*range(1, 8), 12, 30, 59, 60, 61, 100)]
        + [(300, 5), (1000, 1)],
    )
    def test_gain_vector_bytes_equal_the_fraction_reference(self, n, d):
        # both sides of N*d = 60: the Fraction DP, and one scalar exp per entry
        gains = gain_vector(SchemeParams(n, d))
        assert gains.tobytes() == gain_vector_reference(n, d).tobytes()

    def test_gain_vector_is_cached_and_read_only(self):
        gains = gain_vector(SchemeParams(30, 3))
        assert gain_vector(SchemeParams(30, 3)) is gains
        with pytest.raises(ValueError):
            gains[5] = 0.5
        assert np.all(gains[:4] == 1.0)

    def test_libm_exp_is_math_exp_bit_for_bit(self):
        # the log-gain exponents reach the subnormal range and past it near N*d = 10^4
        x = np.random.default_rng(18).uniform(-750.0, 5.0, 20_000)
        x[:2000] = np.random.default_rng(19).uniform(-746.0, -700.0, 2000)
        expected = np.array([math.exp(v) for v in x.tolist()])
        assert np.any((expected > 0.0) & (expected < np.finfo(float).tiny))
        assert np.any(expected == 0.0)
        got = teleport._libm_exp(x)
        assert got.flags.c_contiguous and got.flags.writeable
        assert got.tobytes() == expected.tobytes()

    def test_gain_cache_drops_the_least_recently_used_past_its_bound(self, monkeypatch):
        monkeypatch.setattr(teleport, "_GAIN_CACHE_BYTES", 64 * 1024)
        kept = SchemeParams(2, 1)
        swept = {n: gain_vector(SchemeParams(n, 1)) for n in (1, 100)}
        held = gain_vector(kept)
        for n in range(101, 301):  # 8 (n + 1) bytes each, about 320 KB in all
            gain_vector(SchemeParams(n, 1))
            assert gain_vector(kept) is held  # touched every step, so never the oldest
        assert gain_vector(SchemeParams(300, 1)) is gain_vector(SchemeParams(300, 1))
        for n, old in swept.items():  # dropped, and rebuilt with the same bytes
            again = gain_vector(SchemeParams(n, 1))
            assert again is not old and again.tobytes() == old.tobytes()

    def test_gain_cache_keeps_the_bench_grid(self):
        grid = [SchemeParams(n, d) for d in range(1, 11) for n in range(1, 101)]
        first = [gain_vector(params) for params in grid]
        assert all(gain_vector(params) is gains for params, gains in zip(grid, first))


class TestSchemeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeParams(0, 1)
        with pytest.raises(ValueError):
            SchemeParams(1, 0)

    @pytest.mark.parametrize("bad", [True, False, 2.5, 2.0, "2", None, Fraction(2),
                                     pytest.param(np.True_, id="np.True_"),
                                     pytest.param(np.float64(2.0), id="np.float64")])
    def test_non_integers_rejected(self, bad):
        with pytest.raises(ValueError, match="num_modes must be an integer"):
            SchemeParams(bad, 1)
        with pytest.raises(ValueError, match="photon_cutoff must be an integer"):
            SchemeParams(2, bad)

    def test_numpy_integers_become_ints(self):
        params = SchemeParams(np.int64(3), np.int32(2))
        assert type(params.num_modes) is int and type(params.photon_cutoff) is int
        assert params == SchemeParams(3, 2)

    def test_max_photons(self):
        assert SchemeParams(4, 3).max_photons == 12

    def test_int_subclasses_become_ints(self):
        class Modes(enum.IntEnum):
            THREE = 3

        params = SchemeParams(Modes.THREE, Modes.THREE)
        assert type(params.num_modes) is int and type(params.photon_cutoff) is int
        assert params == SchemeParams(3, 3)

    def test_numpy_integers_share_the_gain_cache(self):
        assert gain_vector(SchemeParams(np.int64(3), 2)) is gain_vector(SchemeParams(3, 2))

    @pytest.mark.parametrize("bad", [0, -1, np.int64(0)])
    def test_small_integers_rejected_with_their_repr(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"num_modes must be an integer >= 1, got {bad!r}")):
            SchemeParams(bad, 1)

    def test_photon_budget_boundary(self):
        for n, d in [(10**4, 1), (1000, 10), (100, 100), (1, 10**4)]:
            assert SchemeParams(n, d).max_photons == 10**4
        for n, d in [(10**4 + 1, 1), (101, 100), (1, 10**4 + 1), (10**9, 10**9)]:
            with pytest.raises(ValueError, match="budget exceeded: N\\*d = "):
                SchemeParams(n, d)


class TestTeleportState:
    def test_single_photon_is_fixed_point(self):
        out = teleport_state(fock_basis(1, 1), SchemeParams(3, 1))
        assert out.success_probability == pytest.approx(1.0, abs=1e-15)
        assert state_fidelity(out.state, fock_basis(1, 1)) == pytest.approx(1.0, abs=1e-15)

    def test_vacuum_is_fixed_point(self):
        out = teleport_state(fock_basis(0, 0), SchemeParams(2, 2))
        assert out.success_probability == 1.0
        assert out.state.amplitudes[0] == 1.0

    def test_identity_region_single_mode(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 4)
        out = teleport_state(state, SchemeParams(1, 4))
        assert out.success_probability == pytest.approx(1.0, abs=1e-12)
        assert state_fidelity(out.state, state) == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30)
    def test_success_probability_formula(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, 6)
        params = SchemeParams(3, 2)
        out = teleport_state(state, params)
        expected = sum(
            abs(state.amplitudes[k]) ** 2 * fock_gain(k, params) ** 2 for k in range(7)
        )
        assert out.success_probability == pytest.approx(expected, rel=1e-12)
        assert out.state.is_normalized(1e-12)

    def test_vanishing_state(self):
        with pytest.raises(ValueError, match="vanishing state: no amplitude survives"):
            teleport_state(fock_basis(3, 3), SchemeParams(2, 1))

    def test_success_just_past_one_is_clamped(self):
        # |c_0|^2 = 1 + 9e-10: the norm check admits it, and P_suc is clamped to 1
        out = teleport_state(FockVector([math.sqrt(1.0 + 9e-10)]), SchemeParams(2, 1))
        assert out.success_probability == 1.0

    def test_success_past_the_rounding_slack_is_refused(self):
        with pytest.raises(ValueError, match="passes 1 by more than rounding: input not normalized"):
            teleport._renormalized(np.array([1.0, 1e-4j]))

    def test_requires_normalized_input(self):
        with pytest.raises(ValueError, match="normalized"):
            teleport_state(FockVector([0.5, 0.5]), SchemeParams(2, 1))

    @pytest.mark.parametrize("amps, n, d, kept", [
        ([1e-200, 0.0, 1.0], 1, 1, [Fraction(1e-200)]),
        ([0.0, 0.0, 1e-200, 1.0], 2, 1, [Fraction(1e-200) / 2]),
        ([1e-200, 3e-200j, 0.0, 1.0], 2, 1, [Fraction(1e-200), Fraction(3e-200)]),
    ])
    def test_underflowing_success_reports_its_log(self, amps, n, d, kept):
        # amplitudes survive the filter, but sum |c_k g(k)|^2 is below the smallest double
        p_suc = sum(x * x for x in kept)
        expected = math.log(p_suc.numerator) - math.log(p_suc.denominator)
        with pytest.raises(ValueError, match="vanishing state: P_suc underflows") as excinfo:
            teleport_state(FockVector(amps), SchemeParams(n, d))
        reported = float(str(excinfo.value).rsplit("=", 1)[1])
        assert reported == pytest.approx(expected, rel=1e-6)


class TestCoherent:
    def test_vacuum_alpha(self):
        state = coherent_fock(0.0, 3)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0.0)

    def test_alpha_one_amplitudes(self):
        state = coherent_fock(1.0, 30)
        assert state.amplitudes[0].real == pytest.approx(math.exp(-0.5), rel=1e-14)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    @given(
        re=st.floats(min_value=-2.0, max_value=2.0),
        im=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_normalization(self, re, im):
        state = coherent_fock(complex(re, im), 60)
        assert abs(state.norm() ** 2 - 1.0) <= 1e-12

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError, match="cutoff too small"):
            coherent_fock(3.0, 5)

    def test_teleport_vacuum(self):
        out = teleport_coherent(0.0, SchemeParams(2, 1))
        assert out.success_probability == 1.0
        assert abs(out.state.amplitudes[0]) == pytest.approx(1.0, abs=1e-15)

    def test_teleport_reference_value(self):
        out = teleport_coherent(1.0, SchemeParams(2, 1))
        assert out.success_probability == pytest.approx(COHERENT_P_SUC_A1_N2_D1, rel=1e-12)

    def test_success_monotone_in_modes(self):
        probs = [
            teleport_coherent(1.0, SchemeParams(n, 1)).success_probability
            for n in range(1, 8)
        ]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            coherent_fock(alpha, 5)
        with pytest.raises(ValueError, match="alpha must be finite"):
            teleport_coherent(alpha, SchemeParams(2, 1))

    @pytest.mark.parametrize(
        "alpha", [100.5, -200.0, 1e8, 1e20j, 1e200, complex(80.0, 80.0), complex(1.7e308, 1.7e308)]
    )
    def test_alpha_past_limit_rejected(self, alpha):
        # refused at the boundary, before |alpha|^2, exp() or a vector can
        # overflow or run out of memory
        with pytest.raises(ValueError, match="alpha must be finite"):
            coherent_fock(alpha, 5)
        with pytest.raises(ValueError, match="alpha must be finite"):
            teleport_coherent(alpha, SchemeParams(2, 1))

    @pytest.mark.parametrize("alpha, n, d", [(30.0, 3, 2), (100.0, 2, 1), (-100j, 61, 1)])
    def test_underflowing_success_reports_its_log(self, alpha, n, d):
        # P_suc = sum_k e^-m m^k / k! g(k)^2 is far below the smallest double
        mean = abs(alpha) ** 2
        terms = []
        for k in range(n * d + 1):
            gain = restricted_weight(n, k, d) * math.factorial(k) / Fraction(n) ** k
            log_gain = math.log(gain.numerator) - math.log(gain.denominator)
            terms.append(-mean + k * math.log(mean) - math.lgamma(k + 1) + 2 * log_gain)
        top = max(terms)
        expected = top + math.log(math.fsum(math.exp(t - top) for t in terms))
        assert expected < -800
        with pytest.raises(ValueError, match="vanishing state: P_suc underflows") as excinfo:
            teleport_coherent(alpha, SchemeParams(n, d))
        reported = float(str(excinfo.value).rsplit("=", 1)[1])
        assert reported == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("n", [1000, 2000, 5000])
    def test_underflow_report_matches_the_exact_perm_reference(self, n):
        # 70, 546 and 2,532 float gains underflow to 0.0 here; at N = 5000 the largest term,
        # k = 2500, is among them, so log gains read off gain_vector would move the report.
        # At d = 1, g(k) = perm(N, k) / N^k exactly, perm(N, k) = N! / (N-k)! as a running product
        assert 0.0 in gain_vector(SchemeParams(n, 1))
        mean = 1e4
        perms = accumulate(range(n, 0, -1), mul, initial=1)
        terms = [-mean + k * math.log(mean) - math.lgamma(k + 1)
                 + 2 * (math.log(perm) - k * math.log(n)) for k, perm in enumerate(perms)]
        top = max(terms)
        expected = top + math.log(math.fsum(math.exp(t - top) for t in terms))
        with pytest.raises(ValueError, match=f"log P_suc = {expected:.6g}$"):
            teleport_coherent(100.0, SchemeParams(n, 1))

    @pytest.mark.parametrize("alpha, n, d", [(100.0, 2, 1), (-100j, 61, 1), (100.0, 1000, 1)])
    def test_underflow_report_makes_no_per_k_weight_call(self, alpha, n, d, monkeypatch):
        def per_k_call(*args):
            raise AssertionError("restricted_weight_log was called")

        monkeypatch.setattr(combinatorics, "restricted_weight_log", per_k_call)
        monkeypatch.setattr(teleport, "restricted_weight_log", per_k_call, raising=False)
        with pytest.raises(ValueError, match="vanishing state: P_suc underflows"):
            teleport_coherent(alpha, SchemeParams(n, d))

    @pytest.mark.parametrize("alpha", [100.0, -100.0, 100j, complex(60.0, -80.0)])
    def test_alpha_at_limit_is_normalized(self, alpha):
        # 11,000 is ten standard deviations above the mean photon number 10^4
        assert coherent_fock(alpha, 11_000).is_normalized(1e-9)

    @pytest.mark.parametrize("n, d", [(1, 1), (2, 1), (11, 1), (3, 3), (20, 4), (50, 3),
                                      (61, 1), (30, 3)])
    @pytest.mark.parametrize("alpha", [0.0, 1e-3, 1.0, -1.0, complex(0.8, 0.3),
                                       2 * cmath.exp(0.7j), 10j])
    def test_bytes_equal_the_full_vector_reference(self, alpha, n, d):
        # c_0..c_{N*d} alone, against the whole coherent vector through teleport_state,
        # on both sides of the N*d = 60 exact/log gain boundary
        out = teleport_coherent(alpha, SchemeParams(n, d))
        ref = coherent_teleport_reference(alpha, SchemeParams(n, d))
        assert out.state.amplitudes.tobytes() == ref.state.amplitudes.tobytes()
        assert np.float64(out.success_probability).tobytes() == \
            np.float64(ref.success_probability).tobytes()

    @pytest.mark.parametrize("n, d", [(1, 1), (2, 1), (11, 1), (3, 3), (20, 4), (50, 3),
                                      (61, 1), (30, 3)])
    @pytest.mark.parametrize("alpha", [0.0, 1e-3, 1.0, -1.0, complex(0.8, 0.3),
                                       2 * cmath.exp(0.7j), 10j])
    def test_amplitudes_match_the_exact_factorial_reference(self, alpha, n, d):
        # |c_k| = exp(x_k), so an absolute error e in x_k is a relative error e in c_k;
        # x_k sums terms up to mean + k |log mean| + log k! in size, each a few ulps off
        out = teleport_coherent(alpha, SchemeParams(n, d))
        ref, p_suc = coherent_factorial_reference(alpha, SchemeParams(n, d))
        mean, k = abs(alpha) ** 2, np.arange(len(ref))
        size = 1 + mean + k * abs(math.log(mean or 1.0)) + [math.lgamma(j + 1) for j in k]
        rel = 8 * 2.0**-52 * size  # measured: at most 1 * 2^-52 * size here
        error = np.abs(out.state.amplitudes - ref)
        assert np.all(error <= (rel + rel.max()) * np.abs(ref) + 1e-300)  # ref renormalized
        assert out.success_probability == pytest.approx(p_suc, rel=2 * rel.max(), abs=0)

    @given(
        re=st.floats(min_value=-6.0, max_value=6.0),
        im=st.floats(min_value=-6.0, max_value=6.0),
        n=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60)
    def test_bytes_equal_the_full_vector_reference_anywhere(self, re, im, n, d):
        out = teleport_coherent(complex(re, im), SchemeParams(n, d))
        ref = coherent_teleport_reference(complex(re, im), SchemeParams(n, d))
        assert out.state.amplitudes.tobytes() == ref.state.amplitudes.tobytes()
        assert out.success_probability == ref.success_probability


class TestRequestBytes:
    @pytest.mark.parametrize("n,d", sorted(REQUEST_SHA256))
    @pytest.mark.parametrize("kind", ["state", "coherent"])
    def test_request_bytes_are_pinned(self, kind, n, d):
        expected = REQUEST_SHA256[n, d][kind == "coherent"]
        assert request_digest(kind, n, d) == expected

    def test_coherent_bytes_do_not_depend_on_the_grid_cache(self, monkeypatch):
        monkeypatch.setattr(teleport, "_GRID", np.zeros((3, 0)))
        requests = [(complex(0.8, 0.3), SchemeParams(20, 4)), (-1.5, SchemeParams(50, 3)),
                    (2j, SchemeParams(61, 1)), (1.0, SchemeParams(2, 1))]

        def outputs():
            return [teleport_coherent(alpha, params) for alpha, params in requests]

        cold = outputs()
        big = coherent_fock(100.0, 11_000)  # grows the cached grid far past every window
        grown, warm = outputs(), outputs()
        for a, b, c in zip(cold, grown, warm):
            assert a.state.amplitudes.tobytes() == b.state.amplitudes.tobytes() \
                == c.state.amplitudes.tobytes()
            assert a.success_probability == b.success_probability == c.success_probability
        grid = teleport._GRID
        assert grid.shape[1] >= 11_001 and not grid.flags.writeable
        for out in [big, *(o.state for o in cold + grown + warm)]:
            assert not np.shares_memory(out.amplitudes, grid)


class TestSqueezing:
    def test_vs_ten_gives_chi_nine_elevenths(self):
        assert squeezing_from_vs(10.0).chi == 9.0 / 11.0

    def test_trivial_point(self):
        params = squeezing_from_vs(1.0)
        assert params.chi == 0.0 and params.r == 0.0

    def test_from_r(self):
        assert squeezing_from_r(math.atanh(0.5)).chi == pytest.approx(0.5, abs=1e-15)

    @given(chi=st.floats(min_value=0.0, max_value=0.99))
    def test_round_trips(self, chi):
        params = squeezing_from_chi(chi)
        assert squeezing_from_r(params.r).chi == pytest.approx(chi, abs=1e-12)
        assert squeezing_from_vs(params.v_s).chi == pytest.approx(chi, abs=1e-12)

    @pytest.mark.parametrize("bad_call", [
        lambda: squeezing_from_vs(0.5),
        lambda: squeezing_from_chi(1.0),
        lambda: squeezing_from_chi(-0.1),
        lambda: squeezing_from_r(-1.0),
    ])
    def test_domain_errors(self, bad_call):
        with pytest.raises(ValueError):
            bad_call()

    @pytest.mark.parametrize("make, arg, value", [
        (squeezing_from_vs, "v_s", math.inf),
        (squeezing_from_vs, "v_s", math.nan),
        (squeezing_from_r, "r", math.inf),
        (squeezing_from_r, "r", math.nan),
        (squeezing_from_chi, "chi", math.nan),
        (SqueezingParams, "chi", math.nan),
        (SqueezingParams, "chi", 1.0),
    ])
    def test_non_finite_input_names_its_argument(self, make, arg, value):
        with pytest.raises(ValueError, match=f"^{arg} must"):
            make(value)

    def test_r_and_v_s_derive_from_chi(self):
        # a tiny chi cannot be paired with an r or v_s that disagrees with it
        params = SqueezingParams(4e-13)
        assert params == squeezing_from_chi(4e-13)
        assert (params.r, params.v_s) == (math.atanh(4e-13), (1.0 + 4e-13) / (1.0 - 4e-13))

    def test_constructor_bytes_are_pinned(self):
        calls = ([(squeezing_from_vs, 1.0 + k / 8) for k in range(2000)]
                 + [(squeezing_from_vs, 10.0**e) for e in range(1, 16)]
                 + [(squeezing_from_r, k / 100) for k in range(1800)]
                 + [(squeezing_from_chi, k / 2000) for k in range(2000)])
        results = [make(x) for make, x in calls]
        assert all(SqueezingParams(p.chi) == p for p in results)
        rows = np.array([(p.r, p.chi, p.v_s) for p in results], "<f8")
        assert hashlib.sha256(rows.tobytes()).hexdigest() == SQUEEZING_SHA256

    @pytest.mark.parametrize("make, arg", [
        (squeezing_from_vs, "v_s"), (squeezing_from_r, "r"), (squeezing_from_chi, "chi"),
    ])
    @pytest.mark.parametrize("value", [True, False, "3", None, 3 + 0j, np.bool_(False)])
    def test_bools_and_non_reals_are_refused_by_name(self, make, arg, value):
        with pytest.raises(ValueError, match=f"^{arg} must be a real number, got "):
            make(value)

    def test_other_reals_are_accepted(self):
        assert squeezing_from_vs(10) == squeezing_from_vs(10.0)
        assert squeezing_from_vs(np.float64(10.0)) == squeezing_from_vs(10.0)
        assert squeezing_from_r(np.float32(0.5)).chi == math.tanh(np.float32(0.5))
        assert squeezing_from_chi(Fraction(1, 2)).v_s == 3.0


class TestTeleportEpr:
    def test_zero_squeezing(self):
        out = teleport_epr(squeezing_from_chi(0.0), SchemeParams(3, 1))
        assert out.success_probability == 1.0
        assert out.fidelity == 1.0
        assert out.schmidt[0] == pytest.approx(1.0, abs=1e-15)
        assert np.all(out.schmidt[1:] == 0.0)

    def test_identity_limit_large_cutoff(self):
        # with d far past the chi-weighted support the channel is identity
        # (first filtered level k = 17 carries chi^34 * (1 - g^2) ~ 1e-15)
        out = teleport_epr(squeezing_from_chi(0.5), SchemeParams(2, 16))
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)
        assert out.success_probability == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d,n", sorted(EPR_REFERENCE))
    def test_reference_values(self, d, n):
        p_ref, f_ref = EPR_REFERENCE[(d, n)]
        out = teleport_epr(squeezing_from_vs(10.0), SchemeParams(n, d))
        assert out.success_probability == pytest.approx(p_ref, rel=1e-12)
        assert out.fidelity == pytest.approx(f_ref, rel=1e-12)

    def test_schmidt_squares_sum_to_one(self):
        out = teleport_epr(squeezing_from_vs(10.0), SchemeParams(4, 2))
        assert np.sum(out.schmidt**2) == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.schmidt >= 0.0)

    def test_fidelity_squared_property(self):
        out = teleport_epr(squeezing_from_vs(10.0), SchemeParams(2, 1))
        assert out.fidelity_squared == out.fidelity**2

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fidelity_monotone_in_modes(self, d):
        squeeze = squeezing_from_vs(10.0)
        fids = [
            teleport_epr(squeeze, SchemeParams(n, d)).fidelity for n in range(1, 26)
        ]
        assert all(b >= a for a, b in zip(fids, fids[1:]))

    def test_tuple_unpacking(self):
        schmidt, p_suc, fidelity = teleport_epr(squeezing_from_vs(10.0), SchemeParams(2, 1))
        assert 0.0 < p_suc <= 1.0 and 0.0 < fidelity <= 1.0
        assert len(schmidt) == 3

    @pytest.mark.parametrize("v_s", [3.0, 30.0, 100.0, 1000.0])
    def test_overshoots_stay_well_inside_the_clamp_bound(self, v_s, monkeypatch):
        # at v_s = 1000 and (1, 10^4), P_suc passed 1 by 48 ulps against a bound of 281
        seen = []

        def spy(value, slack, name="P_suc", cause=""):
            seen.append((value - 1.0) / slack)
            return min(value, 1.0)

        monkeypatch.setattr(teleport, "_clamped", spy)
        squeeze = squeezing_from_vs(v_s)
        for n, d in [(1, 1), (2, 16), (7, 9), (30, 100), (1, 10**4)]:
            teleport_epr(squeeze, SchemeParams(n, d))
        assert len(seen) == 10 and max(seen) < 0.2

    def test_a_gain_above_one_is_refused(self, monkeypatch):
        monkeypatch.setattr(teleport, "gain_vector", lambda params: np.full(501, 1.0 + 1e-9))
        with pytest.raises(ValueError, match="P_suc = .* passes 1 by more than rounding: a gain"):
            teleport_epr(squeezing_from_vs(10.0), SchemeParams(50, 10))

    @pytest.mark.parametrize("v_s", sorted(EPR_GRID_SHA256))
    def test_bench_grid_bytes_are_pinned(self, v_s):
        squeeze, digest = squeezing_from_vs(v_s), hashlib.sha256()
        for d in range(1, 11):
            for n in range(1, 101):
                out = teleport_epr(squeeze, SchemeParams(n, d))
                digest.update(out.schmidt.astype("<f8").tobytes())
                digest.update(np.array([out.success_probability, out.fidelity], "<f8").tobytes())
        assert digest.hexdigest() == EPR_GRID_SHA256[v_s]

    def test_bytes_do_not_depend_on_the_chi_rows_cache(self, monkeypatch):
        monkeypatch.setattr(teleport, "_CHI_ROWS", (None, np.zeros((2, 0))))

        def fresh(squeeze, params):
            # the parent's expression, with chi^k built for this request alone
            chi, gains = squeeze.chi, gain_vector(params)
            chi_pow = chi ** np.arange(len(gains), dtype=float)
            p_suc = (1.0 - chi**2) * float(np.sum(chi_pow**2 * gains**2))
            fidelity = (1.0 - chi**2) / math.sqrt(p_suc) * float(np.sum(chi_pow**2 * gains))
            schmidt = math.sqrt(1.0 - chi**2) * chi_pow * gains / math.sqrt(p_suc)
            return schmidt.tobytes(), min(p_suc, 1.0), min(fidelity, 1.0)

        squeezes = [squeezing_from_vs(10.0), squeezing_from_vs(3.0), squeezing_from_chi(0.0),
                    squeezing_from_chi(-0.0), squeezing_from_r(2.5)]
        requests = [SchemeParams(n, d) for n, d in [(3, 2), (61, 1), (20, 4), (2, 1), (100, 10)]]
        for squeeze in squeezes + squeezes[::-1]:  # cold, grown past, warm and alternating chi
            for params in requests + requests[::-1]:
                out = teleport_epr(squeeze, params)
                assert (out.schmidt.tobytes(), out.success_probability, out.fidelity) \
                    == fresh(squeeze, params)
                key, rows = teleport._CHI_ROWS
                size = len(out.schmidt)
                assert key[0] == squeeze.chi and rows.shape[1] >= size
                assert not rows.flags.writeable and not np.shares_memory(out.schmidt, rows)
                for width in (size, rows.shape[1]):
                    cold = squeeze.chi ** np.arange(width, dtype=float)
                    assert rows[:, :width].tobytes() == np.array([cold, cold**2]).tobytes()
        assert np.signbit(teleport_epr(squeezes[3], requests[0]).schmidt[1])  # -0.0 keeps its sign

    @pytest.mark.parametrize("n,d", sorted(EPR_SCHMIDT_SHA256))
    def test_schmidt_bytes_are_pinned(self, n, d):
        out = teleport_epr(squeezing_from_vs(10.0), SchemeParams(n, d))
        digest = hashlib.sha256(out.schmidt.astype("<f8").tobytes()).hexdigest()
        assert digest == EPR_SCHMIDT_SHA256[n, d]


class TestConventionalFidelity:
    def test_baseline(self):
        assert conventional_cv_fidelity(0.0) == 0.5

    def test_large_squeezing_limit(self):
        assert conventional_cv_fidelity(20.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_point(self):
        r = -0.5 * math.log(0.01)
        assert conventional_cv_fidelity(r) == pytest.approx(1.0 / 1.01, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            conventional_cv_fidelity(-0.1)


class TestStateFidelity:
    def test_identical(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 5)
        assert state_fidelity(state, state) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_fock_states(self):
        assert state_fidelity(fock_basis(0, 2), fock_basis(1, 2)) == 0.0

    def test_superposition_against_vacuum(self):
        plus = FockVector(np.array([1.0, 1.0]) / math.sqrt(2.0))
        assert state_fidelity(plus, fock_basis(0, 0)) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-14
        )

    def test_padding_is_transparent(self):
        short = FockVector([1.0])
        long = FockVector([1.0, 0.0, 0.0, 0.0])
        assert state_fidelity(short, long) == 1.0
