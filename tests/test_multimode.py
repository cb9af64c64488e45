import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_pipeline_reference

from quditcv.multimode import (
    ModeMatrix,
    MultimodeState,
    apply_mode_unitary,
    embed_input,
    n_splitter,
    oracle_teleport,
    truncate_mode,
    vacuum_postselect,
)
from quditcv.teleport import (
    FockVector,
    SchemeParams,
    coherent_fock,
    state_fidelity,
    teleport_state,
)


def fock_basis(k: int, cutoff: int) -> FockVector:
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[k] = 1.0
    return FockVector(amps)


def random_sector_state(rng, num_modes: int, cap: int) -> MultimodeState:
    # random support restricted to total photon number <= cap, so any mode
    # unitary acts unitarily on it
    shape = (cap + 1,) * num_modes
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    totals = np.sum(np.indices(shape), axis=0)
    amps[totals > cap] = 0.0
    return MultimodeState(amps / np.linalg.norm(amps))


class TestModeMatrix:
    def test_two_mode_splitter_is_fifty_fifty(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert np.allclose(n_splitter(2).entries, expected, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_splitter_unitary_with_uniform_first_column(self, n):
        mat = n_splitter(n).entries
        assert np.allclose(mat @ mat.conj().T, np.eye(n), atol=1e-13)
        assert np.allclose(mat[:, 0], np.full(n, 1.0 / math.sqrt(n)), atol=1e-14)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            ModeMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_inverse(self):
        mat = n_splitter(3)
        assert np.allclose(
            mat.entries @ mat.inverse().entries, np.eye(3), atol=1e-13
        )


class TestApplyModeUnitary:
    def test_identity_leaves_state_alone(self):
        rng = np.random.default_rng(2)
        state = random_sector_state(rng, 3, 3)
        out = apply_mode_unitary(state, ModeMatrix(np.eye(3)))
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-13)

    def test_identity_is_safe_even_above_cap_sectors(self):
        # occupation (2, 2) exceeds a total of cap = 2, but the identity
        # never moves photons between modes, so nothing can spill
        amps = np.zeros((3, 3), dtype=complex)
        amps[2, 2] = 1.0
        out = apply_mode_unitary(MultimodeState(amps), ModeMatrix(np.eye(2)))
        assert out.amplitudes[2, 2] == pytest.approx(1.0, abs=1e-14)

    def test_single_photon_maps_to_column(self):
        state = embed_input(fock_basis(1, 1), num_modes=3)
        out = apply_mode_unitary(state, n_splitter(3))
        for j, occupation in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            assert out.amplitudes[occupation] == pytest.approx(
                n_splitter(3).entries[j, 0], abs=1e-14
            )

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        state = random_sector_state(rng, 2, 4)
        out = apply_mode_unitary(state, n_splitter(2))
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_split_then_unsplit_is_identity(self):
        rng = np.random.default_rng(8)
        state = random_sector_state(rng, 3, 3)
        splitter = n_splitter(3)
        back = apply_mode_unitary(apply_mode_unitary(state, splitter), splitter.inverse())
        assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_cap_exceeded_detection(self):
        amps = np.zeros((3, 3), dtype=complex)
        amps[2, 2] = 1.0  # 4 photons total, cap 2: any mixing spills
        with pytest.raises(ValueError, match="cap exceeded"):
            apply_mode_unitary(MultimodeState(amps), n_splitter(2))

    def test_size_mismatch(self):
        state = embed_input(fock_basis(0, 1), num_modes=2)
        with pytest.raises(ValueError, match="modes"):
            apply_mode_unitary(state, n_splitter(3))

    def test_coherent_state_factorizes(self):
        # |alpha> split over N modes equals the product of |alpha/sqrt(N)>
        # wherever the dense grid can represent it (total photons <= cap)
        alpha, n = 0.8, 3
        single = coherent_fock(alpha, 14)
        split = apply_mode_unitary(embed_input(single, n), n_splitter(n))
        part = coherent_fock(alpha / math.sqrt(n), 14).amplitudes
        product = np.einsum("i,j,k->ijk", part, part, part)
        totals = np.sum(np.indices(split.amplitudes.shape), axis=0)
        mask = totals <= split.per_mode_cap
        assert np.allclose(split.amplitudes[mask], product[mask], atol=1e-10)


class TestTruncateAndPostselect:
    def test_truncation_is_identity_at_full_cap(self):
        rng = np.random.default_rng(3)
        state = random_sector_state(rng, 2, 3)
        out, discarded = truncate_mode(state, 0, 3)
        assert discarded == 0.0
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_two_photon_state_fully_discarded(self):
        state = embed_input(fock_basis(2, 2), num_modes=2)
        out, discarded = truncate_mode(state, 0, 1)
        assert discarded == pytest.approx(1.0, abs=1e-15)
        assert out.norm() == 0.0

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20)
    def test_mass_accounting(self, seed):
        rng = np.random.default_rng(seed)
        state = random_sector_state(rng, 2, 4)
        out, discarded = truncate_mode(state, 1, 2)
        assert out.norm() ** 2 + discarded == pytest.approx(state.norm() ** 2, abs=1e-12)

    def test_postselect_product_state(self):
        state = embed_input(fock_basis(1, 2), num_modes=3)
        kept, prob = vacuum_postselect(state, 0)
        assert prob == pytest.approx(1.0, abs=1e-14)
        assert state_fidelity(kept, fock_basis(1, 2)) == pytest.approx(1.0, abs=1e-14)

    def test_postselect_spread_photon(self):
        n = 4
        spread = apply_mode_unitary(embed_input(fock_basis(1, 1), n), n_splitter(n))
        _, prob = vacuum_postselect(spread, 0)
        assert prob == pytest.approx(1.0 / n, rel=1e-12)

    def test_postselect_needs_two_modes(self):
        state = embed_input(fock_basis(1, 1), num_modes=1)
        with pytest.raises(ValueError, match="two modes"):
            vacuum_postselect(state, 0)

    def test_postselect_zero_probability(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[1, 1] = 1.0
        with pytest.raises(ValueError, match="zero-probability"):
            vacuum_postselect(MultimodeState(amps), 0)


class TestOracleTeleport:
    def test_single_photon_fixed_point(self):
        out = oracle_teleport(fock_basis(1, 1), SchemeParams(3, 1))
        assert out.success_probability == pytest.approx(1.0, abs=1e-12)
        assert state_fidelity(out.state, fock_basis(1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_fixed_point(self):
        out = oracle_teleport(fock_basis(0, 0), SchemeParams(2, 1))
        assert out.success_probability == pytest.approx(1.0, abs=1e-14)

    def test_reference_superposition(self):
        # (|0> + |2>)/sqrt(2) with N=2, d=1: the |2> amplitude halves
        state = FockVector(np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0))
        out = oracle_teleport(state, SchemeParams(2, 1))
        assert out.success_probability == pytest.approx((1.0 + 0.25) / 2.0, rel=1e-12)
        ratio = out.state.amplitudes[2] / out.state.amplitudes[0]
        assert ratio == pytest.approx(0.5, rel=1e-12)

    def test_single_mode_is_pure_truncation(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        state = FockVector(z / np.linalg.norm(z))
        out = oracle_teleport(state, SchemeParams(1, 2))
        expected_mass = float(np.sum(np.abs(state.amplitudes[:3]) ** 2))
        assert out.success_probability == pytest.approx(expected_mass, rel=1e-12)

    def test_vanishing_input(self):
        with pytest.raises(ValueError, match="vanishing state"):
            oracle_teleport(fock_basis(3, 3), SchemeParams(2, 1))

    def test_budget_guard(self):
        # N * C(top+N, N) index-map entries, top = min(cap, N*d): 1.8e6 and 2.0e8
        for n in (11, 20):
            with pytest.raises(ValueError, match="budget exceeded"):
                oracle_teleport(fock_basis(0, 9), SchemeParams(n, 1))
        # the sizes the dense grid refused are well inside the sector budget
        rng = np.random.default_rng(79)
        for n in (7, 8):
            z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            state, params = FockVector(z / np.linalg.norm(z)), SchemeParams(n, 1)
            brute, closed = oracle_teleport(state, params), teleport_state(state, params)
            assert brute.success_probability == pytest.approx(
                closed.success_probability, abs=1e-10
            )
            assert state_fidelity(brute.state, closed.state) >= 1.0 - 1e-10

    @pytest.mark.parametrize(
        "n,cap,d", [(1, 4, 2), (2, 6, 1), (3, 5, 2), (4, 4, 2), (4, 8, 3), (5, 6, 2)]
    )
    def test_matches_dense_pipeline(self, n, cap, d):
        # reading <s_k|psi> off the split columns is the inverse split plus
        # vacuum post-selection, step for step
        rng = np.random.default_rng(1000 * n + 10 * cap + d)
        params = SchemeParams(n, d)
        for _ in range(3):
            z = rng.standard_normal(cap + 1) + 1j * rng.standard_normal(cap + 1)
            state = FockVector(z / np.linalg.norm(z))
            read_off = oracle_teleport(state, params)
            stepwise = dense_pipeline_reference(state, params)
            assert read_off.success_probability == pytest.approx(
                stepwise.success_probability, abs=1e-12
            )
            assert np.max(np.abs(read_off.state.amplitudes - stepwise.state.amplitudes)) <= 1e-12

    def test_dense_pipeline_vanishing_input(self):
        for run in (oracle_teleport, dense_pipeline_reference):
            with pytest.raises(ValueError, match="vanishing state"):
                run(fock_basis(3, 3), SchemeParams(2, 1))

    @pytest.mark.parametrize(
        "n,d", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (5, 2), (6, 1), (7, 1), (8, 2)]
    )
    def test_matches_closed_form(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        params = SchemeParams(n, d)
        for _ in range(5):
            z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            state = FockVector(z / np.linalg.norm(z))
            brute = oracle_teleport(state, params)
            closed = teleport_state(state, params)
            assert brute.success_probability == pytest.approx(
                closed.success_probability, abs=1e-10
            )
            assert state_fidelity(brute.state, closed.state) >= 1.0 - 1e-10
