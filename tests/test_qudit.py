import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcv import qudit
from quditcv.qudit import (
    JointQuditState,
    QuditKet,
    bell_measure,
    depolarized_fidelity,
    enumerate_bell_outcomes,
    fourier_state,
    haar_random_ket,
    maximally_entangled,
    singlet_fraction_fidelity,
    teleport_qudit,
    teleport_qudit_branches,
    x_op,
    xor_gate,
    z_op,
)


def basis_ket(dim: int, m: int) -> QuditKet:
    amps = np.zeros(dim, dtype=complex)
    amps[m] = 1.0
    return QuditKet(amps)


def basis_joint(dims: tuple[int, ...], occupation: tuple[int, ...]) -> JointQuditState:
    amps = np.zeros(dims, dtype=complex)
    amps[occupation] = 1.0
    return JointQuditState(amps)


def product_resource(dim: int, a: int, b: int) -> JointQuditState:
    amps = np.zeros((dim, dim), dtype=complex)
    amps[a, b] = 1.0
    return JointQuditState(amps)


def overlap(a: QuditKet, b: QuditKet) -> float:
    return abs(np.vdot(a.amplitudes, b.amplitudes))


# sha256 of teleport_qudit_branches over three seeded inputs per dimension:
# every probability and every ket ("none" for a zero-probability branch), as
# little-endian bytes.  "entangled" uses maximally_entangled(D), "random" a
# seeded random two-qudit resource, and "product" |1>|D-1> with inputs that
# vanish on odd basis states, so some branches have zero probability.
# A change to the branch correction that moves any last digit changes these.
BRANCHES_SHA256 = {
    (2, "entangled"): "d3097b31ca44b5a20d265dba7cbf99f6a17a462bc475c90fa73f14480db46500",
    (2, "product"): "6eb73f37d3414e7937bbfac97d170a53fbcd8aba3e34486346f27219537b8e46",
    (2, "random"): "34573b502071f5fe8470ec97ac51fbd3fadfda6ed408850ff0cf749dd234a77f",
    (3, "entangled"): "d365d62fd883aa8570dfcd1724753a7c7134f981db9e11f0805898d88a685eaf",
    (3, "product"): "a960cf193a1f59c2d8b5fad7f8979f9f88927cfe67b9c91abb504299bfae43b1",
    (3, "random"): "c04886887cac6d8e80620518fe710d7745895ef553a20e1edd3321e01f484344",
    (5, "entangled"): "1ea4a041cbe2b380ecdf26668c303a313e86a7a8337dafdd99f138dd8841d89f",
    (5, "product"): "2694660316304e62198751fc9b6c6ffeebaf6b71f6ee92d50cc55da98b50bebe",
    (5, "random"): "e1906deb81d76498e1b6803999e1dc722290623ac3033f3317e763e51cf08cc6",
    (7, "entangled"): "00a13705244871300bd66b34befd27fbb9cd02c41f251c9981c50663f5d0a46b",
    (7, "product"): "b13035745fd428910ef07ba9cc7eddc5472f7851a7c89b98d0bd1e39e882934d",
    (7, "random"): "719b61cb040485019849b918c31365c1f1a69bc466db9fc401c84601681d5b04",
    (16, "entangled"): "f77523e8282bba2b44fc8a54deee935f50e2d637402885e9cfef875be2c00854",
    (16, "product"): "809a3ffcf1e944c15c09721e29243a92cb6b50238053c2c6b7e0be19a3b2a2fb",
    (16, "random"): "9f05d048c19dcd08e403a16f5615869bf7ea30a6283140a6a4dfd121eb548033",
}

# sha256 of teleport_qudit's ket and probability at fixed outcomes, through a
# seeded random resource
TELEPORT_SHA256 = {
    2: "d58d67588cd830875160ba097f4c671e9a2b2cabb2649146448ede4ec7932bb9",
    3: "57f56d0717dd653106dbfdc3d9e99f637dd22a923bc8c5675e3031a74999153d",
    5: "5e4edd5800fed3777ea1f01e2698d63254c01f04fc8f70dca341b770055e3ae3",
    7: "fb5659f7cdca790b82cab2a173d27798ac9c4c92451d3f6a5da00ed0cc554a71",
    16: "dece70c0645198f175c33a3fd12f46d2b4608ea14d47f98e77a5c8a1c6ccb1ca",
}


def random_joint(rng, dims: tuple[int, ...]) -> JointQuditState:
    z = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return JointQuditState(z / np.linalg.norm(z))


def pinned_inputs(dim: int, kind: str):
    """Three seeded (input, resource) pairs of one kind."""
    rng = np.random.default_rng([dim, len(kind)])
    for _ in range(3):
        phi = haar_random_ket(dim, rng)
        if kind == "entangled":
            yield phi, maximally_entangled(dim)
        elif kind == "random":
            yield phi, random_joint(rng, (dim, dim))
        else:
            sparse = phi.amplitudes.copy()
            sparse[1::2] = 0.0
            yield QuditKet(sparse / np.linalg.norm(sparse)), product_resource(dim, 1, dim - 1)


def branches_digest(dim: int, kind: str) -> str:
    digest = hashlib.sha256()
    for phi, resource in pinned_inputs(dim, kind):
        for outcome, ket in teleport_qudit_branches(phi, resource):
            digest.update(np.float64(outcome.probability).astype("<f8").tobytes())
            digest.update(b"none" if ket is None else ket.amplitudes.astype("<c16").tobytes())
    return digest.hexdigest()


def teleport_digest(dim: int) -> str:
    digest = hashlib.sha256()
    for phi, resource in pinned_inputs(dim, "random"):
        for outcome in [(0, 0), (dim - 1, 1), (1, dim - 1)]:
            ket, result = teleport_qudit(phi, resource, outcome=outcome)
            digest.update(np.float64(result.probability).astype("<f8").tobytes())
            digest.update(ket.amplitudes.astype("<c16").tobytes())
    return digest.hexdigest()


class TestStates:
    def test_maximally_entangled_qubits(self):
        state = maximally_entangled(2)
        expected = np.array([[1.0, 0.0], [0.0, 1.0]]) / math.sqrt(2.0)
        assert np.allclose(state.amplitudes, expected, atol=1e-15)

    def test_maximally_entangled_diagonal(self):
        state = maximally_entangled(3)
        for i in range(3):
            for j in range(3):
                expected = 1.0 / math.sqrt(3.0) if i == j else 0.0
                assert state.amplitudes[i, j] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_reduced_state_is_maximally_mixed(self, dim):
        amps = maximally_entangled(dim).amplitudes
        rho = np.einsum("ij,kj->ik", amps, amps.conj())
        assert np.allclose(rho, np.eye(dim) / dim, atol=1e-14)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            QuditKet([1.0, 1.0])
        with pytest.raises(ValueError, match="normalized"):
            JointQuditState(np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_amplitudes_refused(self, bad):
        # abs(x - 1) > tol is False for NaN, so the check must read "not <= tol"
        with pytest.raises(ValueError, match="qudit amplitudes must be normalized"):
            QuditKet([bad, 0.0])
        with pytest.raises(ValueError, match="joint amplitudes must be normalized"):
            JointQuditState(np.full((2, 2), bad))
        mixed = np.eye(2, dtype=complex) / math.sqrt(2.0)
        mixed[0, 1] = bad
        with pytest.raises(ValueError, match="joint amplitudes must be normalized"):
            JointQuditState(mixed)  # so no Bell branch can carry a NaN probability


class TestOperators:
    def test_xor_reference_case(self):
        # D=3: target carrying j=1, control carrying i=0 -> target 0-1 = 2 mod 3
        state = basis_joint((3, 3), (1, 0))
        out = xor_gate(state, control=1, target=0)
        assert out.amplitudes[2, 0] == 1.0

    def test_xor_fixes_vacuum(self):
        state = basis_joint((2, 2), (0, 0))
        out = xor_gate(state, control=1, target=0)
        assert out.amplitudes[0, 0] == 1.0

    def test_xor_is_involution_for_qubits(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        state = JointQuditState(z / np.linalg.norm(z))
        twice = xor_gate(xor_gate(state, 0, 1), 0, 1)
        assert np.allclose(twice.amplitudes, state.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_xor_is_unitary(self, dim):
        # columns of the induced matrix stay orthonormal
        cols = []
        for j in range(dim):
            for i in range(dim):
                out = xor_gate(basis_joint((dim, dim), (j, i)), control=1, target=0)
                cols.append(out.amplitudes.ravel())
        mat = np.array(cols).T
        assert np.allclose(mat.conj().T @ mat, np.eye(dim * dim), atol=1e-14)

    def test_xor_dimension_mismatch(self):
        state = basis_joint((2, 3), (0, 0))
        with pytest.raises(ValueError, match="mismatch"):
            xor_gate(state, 0, 1)

    def test_qubit_z_and_x_matrices(self):
        minus = z_op(basis_joint((2, 2), (1, 0)), 0)
        assert minus.amplitudes[1, 0] == pytest.approx(-1.0, abs=1e-15)
        flipped = x_op(basis_joint((2, 2), (0, 0)), 0)
        assert flipped.amplitudes[1, 0] == 1.0

    def test_quartit_phase(self):
        # omega = i for D=4, so Z on |3> multiplies by i^3 = -i
        out = z_op(basis_joint((4, 4), (3, 0)), 0)
        assert out.amplitudes[3, 0] == pytest.approx(-1j, abs=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    def test_operator_order(self, dim):
        rng = np.random.default_rng(dim)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        state = JointQuditState(z / np.linalg.norm(z))
        assert np.allclose(
            x_op(state, 0, dim).amplitudes, state.amplitudes, atol=1e-15
        )
        assert np.allclose(
            z_op(state, 0, dim).amplitudes, state.amplitudes, atol=1e-15
        )

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    def test_zx_commutation_phase(self, dim):
        # Z X = omega X Z on every basis state
        omega = np.exp(2j * np.pi / dim)
        for m in range(dim):
            state = basis_joint((dim, dim), (m, 0))
            zx = z_op(x_op(state, 0), 0)
            xz = x_op(z_op(state, 0), 0)
            assert np.allclose(zx.amplitudes, omega * xz.amplitudes, atol=1e-14)


class TestFourierStates:
    def test_zero_index_is_uniform(self):
        state = fourier_state(0, 5)
        assert np.allclose(state.amplitudes, np.full(5, 1.0 / math.sqrt(5.0)), atol=1e-15)

    def test_qubit_minus_state(self):
        state = fourier_state(1, 2)
        expected = np.array([1.0, -1.0]) / math.sqrt(2.0)
        assert np.allclose(state.amplitudes, expected, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    def test_orthonormal(self, dim):
        gram = np.array(
            [
                [
                    np.vdot(fourier_state(a, dim).amplitudes, fourier_state(b, dim).amplitudes)
                    for b in range(dim)
                ]
                for a in range(dim)
            ]
        )
        assert np.allclose(gram, np.eye(dim), atol=1e-14)

    def test_index_range(self):
        with pytest.raises(ValueError):
            fourier_state(3, 3)


class TestBellMeasurement:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_uniform_outcomes_with_entangled_resource(self, dim):
        rng = np.random.default_rng(11)
        phi = haar_random_ket(dim, rng)
        joint = JointQuditState(
            np.multiply.outer(phi.amplitudes, maximally_entangled(dim).amplitudes)
        )
        entangled = xor_gate(joint, control=1, target=0)
        probs = [
            out.probability for out, _ in enumerate_bell_outcomes(entangled, 0, 1)
        ]
        assert len(probs) == dim * dim
        assert np.allclose(probs, 1.0 / dim**2, atol=1e-12)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one_generic(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        state = JointQuditState(z / np.linalg.norm(z))
        total = sum(out.probability for out, _ in enumerate_bell_outcomes(state, 0, 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_request_raises(self):
        # |00> has no support on k' = 1 branches
        state = basis_joint((2, 2), (0, 0))
        with pytest.raises(ValueError, match="zero-probability"):
            bell_measure(state, 0, 1, outcome=(0, 1))

    def test_two_system_measurement_leaves_nothing(self):
        state = basis_joint((2, 2), (0, 0))
        outcome, remainder = bell_measure(state, 0, 1, outcome=(1, 0))
        assert remainder is None
        # k is pinned to 0 by |00>, the Fourier index is uniform over 2 values
        assert outcome.probability == pytest.approx(0.5, abs=1e-15)

    def test_requires_rng_or_outcome(self):
        state = maximally_entangled(2)
        with pytest.raises(ValueError, match="rng"):
            bell_measure(state, 0, 1)

    def test_sampling_is_reproducible(self):
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        state = maximally_entangled(3)
        out_a, _ = bell_measure(state, 0, 1, rng=rng_a)
        out_b, _ = bell_measure(state, 0, 1, rng=rng_b)
        assert (out_a.ell, out_a.kk) == (out_b.ell, out_b.kk)

    def test_sampled_branch_matches_enumeration(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        state = JointQuditState(z / np.linalg.norm(z))
        outcome, remainder = bell_measure(state, 0, 1, outcome=(1, 1))
        listed = {
            (out.ell, out.kk): (out.probability, rem)
            for out, rem in enumerate_bell_outcomes(state, 0, 1)
        }
        p_listed, rem_listed = listed[(1, 1)]
        assert outcome.probability == pytest.approx(p_listed, rel=1e-14)
        assert np.allclose(remainder.amplitudes, rem_listed.amplitudes, atol=1e-14)


class TestTeleportation:
    def test_basis_state_every_outcome(self):
        phi = basis_ket(3, 0)
        resource = maximally_entangled(3)
        branches = list(teleport_qudit_branches(phi, resource))
        assert len(branches) == 9
        for outcome, ket in branches:
            assert outcome.probability == pytest.approx(1.0 / 9.0, abs=1e-13)
            assert overlap(ket, phi) == pytest.approx(1.0, abs=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.sampled_from([2, 3, 4, 5, 8]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_identity_on_random_inputs(self, dim, seed):
        rng = np.random.default_rng(seed)
        phi = haar_random_ket(dim, rng)
        for outcome, ket in teleport_qudit_branches(phi, maximally_entangled(dim)):
            assert outcome.probability == pytest.approx(1.0 / dim**2, abs=1e-12)
            assert overlap(ket, phi) >= 1.0 - 1e-12

    def test_sampled_run(self):
        rng = np.random.default_rng(0)
        phi = haar_random_ket(4, rng)
        ket, outcome = teleport_qudit(phi, maximally_entangled(4), rng=rng)
        assert overlap(ket, phi) == pytest.approx(1.0, abs=1e-12)
        assert 0 <= outcome.ell < 4 and 0 <= outcome.kk < 4

    def test_product_resource_ignores_input_phases(self):
        # an unentangled resource cannot carry phase information across
        rng = np.random.default_rng(21)
        mags = np.array([0.5, 0.5, math.sqrt(0.5)])
        phases = np.exp(2j * np.pi * rng.random(3))
        plain = QuditKet(mags)
        scrambled = QuditKet(mags * phases)
        resource = product_resource(3, 0, 0)
        for (out_a, ket_a), (out_b, ket_b) in zip(
            teleport_qudit_branches(plain, resource),
            teleport_qudit_branches(scrambled, resource),
        ):
            assert out_a.probability == pytest.approx(out_b.probability, abs=1e-13)
            if ket_a is None:
                assert ket_b is None
                continue
            # outputs collapse to the same basis state regardless of phases
            assert np.allclose(np.abs(ket_a.amplitudes), np.abs(ket_b.amplitudes), atol=1e-13)
            assert np.count_nonzero(np.abs(ket_a.amplitudes) > 1e-12) == 1

    def test_subnormal_branch_is_refused(self):
        # p = 1e-320 is subnormal, so branch / sqrt(p) is off unit norm by far more than 1e-9
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0], amps[1, 1] = 1.0, 1e-160
        resource = JointQuditState(amps)
        with pytest.raises(ValueError, match="joint amplitudes must be normalized"):
            next(teleport_qudit_branches(basis_ket(2, 0), resource))
        with pytest.raises(ValueError, match="joint amplitudes must be normalized"):
            teleport_qudit(basis_ket(2, 0), resource, outcome=(0, 1))

    def test_resource_shape_validation(self):
        phi = basis_ket(2, 0)
        with pytest.raises(ValueError, match="resource"):
            teleport_qudit(phi, maximally_entangled(3), outcome=(0, 0))


class TestCorrectionBytes:
    @pytest.mark.parametrize("dim,kind", sorted(BRANCHES_SHA256))
    def test_branches_keep_their_bytes(self, dim, kind):
        assert branches_digest(dim, kind) == BRANCHES_SHA256[dim, kind]

    @pytest.mark.parametrize("dim", sorted(TELEPORT_SHA256))
    def test_fixed_outcomes_keep_their_bytes(self, dim):
        assert teleport_digest(dim) == TELEPORT_SHA256[dim]

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 7, 8, 16])
    @pytest.mark.parametrize("kind", ["entangled", "random", "product"])
    def test_batched_correction_equals_the_operators(self, dim, kind):
        # z_op and x_op stay the reference for the correction of every branch; a
        # zero-probability branch is never divided, so no floating-point warning is raised
        for phi, resource in pinned_inputs(dim, kind):
            joint = JointQuditState(np.multiply.outer(phi.amplitudes, resource.amplitudes))
            entangled = xor_gate(joint, control=1, target=0)
            with np.errstate(all="raise"):
                branches = list(teleport_qudit_branches(phi, resource))
            for (outcome, remainder), (result, ket) in zip(
                enumerate_bell_outcomes(entangled, 0, 1), branches, strict=True
            ):
                assert result == outcome
                if remainder is None:
                    assert ket is None
                    continue
                fixed = x_op(z_op(remainder, 0, outcome.ell), 0, -outcome.kk)
                assert ket.amplitudes.tobytes() == fixed.amplitudes.tobytes()
                single, _ = teleport_qudit(phi, resource, outcome=(outcome.ell, outcome.kk))
                assert single.amplitudes.tobytes() == fixed.amplitudes.tobytes()


class TestFidelityLaws:
    def test_depolarized_endpoints(self):
        assert depolarized_fidelity(1.0, 5) == 1.0
        assert depolarized_fidelity(0.0, 2) == 0.5

    def test_singlet_fraction_endpoints(self):
        assert singlet_fraction_fidelity(1.0, 7) == 1.0
        assert singlet_fraction_fidelity(0.5, 2) == pytest.approx(2.0 / 3.0, rel=1e-15)

    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        dim=st.integers(min_value=2, max_value=16),
    )
    def test_consistency_identity(self, p, dim):
        singlet_fraction = p + (1.0 - p) / dim**2
        assert singlet_fraction_fidelity(singlet_fraction, dim) == pytest.approx(
            depolarized_fidelity(p, dim), abs=1e-12
        )

    @pytest.mark.parametrize("bad_call", [
        lambda: depolarized_fidelity(-0.1, 2),
        lambda: depolarized_fidelity(1.1, 2),
        lambda: depolarized_fidelity(0.5, 1),
        lambda: singlet_fraction_fidelity(-0.2, 2),
        lambda: singlet_fraction_fidelity(1.2, 2),
        lambda: singlet_fraction_fidelity(0.5, 1),
    ])
    def test_domain_errors(self, bad_call):
        with pytest.raises(ValueError):
            bad_call()


class TestIntegerArguments:
    @pytest.mark.parametrize("name,bad_call", [
        ("dim", lambda: maximally_entangled(2.5)),
        ("dim", lambda: haar_random_ket(2.0, np.random.default_rng(0))),
        ("ell", lambda: fourier_state(True, 3)),
        ("ell", lambda: fourier_state(1.0, 3)),
        ("dim", lambda: fourier_state(0, 2.5)),
        ("dim", lambda: fourier_state(-1, 2.5)),
        ("dim", lambda: depolarized_fidelity(0.5, 2.5)),
        ("dim", lambda: singlet_fraction_fidelity(0.5, True)),
        ("power", lambda: z_op(maximally_entangled(2), 0, 1.5)),
        ("power", lambda: x_op(maximally_entangled(2), 0, 1.5)),
        ("ell", lambda: bell_measure(maximally_entangled(2), 0, 1, outcome=(True, 0))),
        ("ell", lambda: bell_measure(maximally_entangled(2), 0, 1, outcome=(0.5, 0))),
        ("kk", lambda: teleport_qudit(basis_ket(2, 0), maximally_entangled(2), outcome=(0, 1.0))),
    ])
    def test_bools_and_non_integers_refused(self, name, bad_call):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            bad_call()

    def test_numpy_integers_accepted(self):
        out, _ = bell_measure(maximally_entangled(3), 0, 1, outcome=(np.int64(2), np.int8(1)))
        assert out.probability == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert fourier_state(np.int32(1), np.int64(2)).amplitudes[1] == pytest.approx(
            -1.0 / math.sqrt(2.0), abs=1e-15)


class TestBatchedKets:
    """teleport_qudit_branches wraps views of one checked, read-only array as its kets."""

    @pytest.mark.parametrize("dim,kind", sorted(BRANCHES_SHA256))
    def test_each_ket_equals_quditket_of_its_row(self, dim, kind):
        for phi, resource in pinned_inputs(dim, kind):
            for outcome, ket in teleport_qudit_branches(phi, resource):
                if ket is None:
                    continue
                single, _ = teleport_qudit(phi, resource, outcome=(outcome.ell, outcome.kk))
                rebuilt = QuditKet(ket.amplitudes)
                for reference in (single, rebuilt):
                    assert type(ket) is QuditKet and ket.dim == dim
                    assert ket.amplitudes.dtype == reference.amplitudes.dtype
                    assert ket.amplitudes.shape == reference.amplitudes.shape
                    assert ket.amplitudes.strides == reference.amplitudes.strides
                    assert ket.amplitudes.tobytes() == reference.amplitudes.tobytes()

    def test_batch_constructor_equals_the_public_one(self):
        rng = np.random.default_rng(17)
        z = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        rows = z / np.linalg.norm(z, axis=1, keepdims=True)
        for row, ket in zip(rows, qudit._kets(rows.copy()), strict=True):
            assert ket.amplitudes.tobytes() == QuditKet(row).amplitudes.tobytes()
            assert ket.amplitudes.dtype == np.complex128 and ket.amplitudes.flags.c_contiguous

    @pytest.mark.parametrize("dim,kind", [(2, "entangled"), (5, "random"), (7, "product")])
    def test_kets_are_read_only(self, dim, kind):
        phi, resource = next(pinned_inputs(dim, kind))
        kets = [ket for _, ket in teleport_qudit_branches(phi, resource) if ket is not None]
        assert kets
        for ket in kets:
            assert not ket.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                ket.amplitudes.setflags(write=True)
            with pytest.raises(ValueError):
                ket.amplitudes[0] = 0.0

    @pytest.mark.parametrize("row", [0, -1], ids=["first-row", "last-row"])
    @pytest.mark.parametrize("damage", [math.nan, math.inf, 1e-8, -1e-8],
                             ids=["nan", "inf", "over-1e-8", "under-1e-8"])
    def test_a_bad_corrected_row_is_refused_before_any_ket(self, monkeypatch, row, damage):
        corrected = qudit._corrected

        def damaged(remainders, ells, kks):
            out = corrected(remainders, ells, kks)
            out[row] *= damage if not math.isfinite(damage) else math.sqrt(1.0 + damage)
            return out

        monkeypatch.setattr(qudit, "_corrected", damaged)
        phi, resource = next(pinned_inputs(3, "entangled"))
        branches = teleport_qudit_branches(phi, resource)
        with pytest.raises(ValueError, match="^qudit amplitudes must be normalized$"):
            next(branches)

    @pytest.mark.parametrize("damage", [5e-10, -5e-10, 2e-9, 1e-8, math.nan])
    def test_the_batch_check_agrees_with_quditket(self, damage):
        row = fourier_state(1, 3).amplitudes * math.sqrt(1.0 + damage)
        try:
            QuditKet(row)
        except ValueError:
            with pytest.raises(ValueError, match="^qudit amplitudes must be normalized$"):
                qudit._kets(np.array([row]))
        else:
            assert qudit._kets(np.array([row]))[0].amplitudes.tobytes() == row.tobytes()

    @pytest.mark.parametrize("call, message", [
        (lambda: teleport_qudit_branches([1.0, 0.0], maximally_entangled(2)), "^phi must be a "),
        (lambda: teleport_qudit_branches(basis_ket(2, 0), "x"), "^resource must be a "),
        (lambda: teleport_qudit_branches(basis_ket(2, 0), maximally_entangled(3)), "^resource "),
    ], ids=["phi", "resource-type", "resource-shape"])
    def test_errors_surface_on_the_first_next(self, call, message):
        branches = call()  # a generator: nothing runs until the first next()
        with pytest.raises(ValueError, match=message):
            next(branches)
