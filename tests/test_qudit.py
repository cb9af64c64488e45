import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fourier_ket, x_power, xor_reference, z_power
from quditcv import qudit
from quditcv.qudit import (
    JointQuditState,
    QuditKet,
    depolarized_fidelity,
    haar_random_ket,
    maximally_entangled,
    singlet_fraction_fidelity,
    teleport_qudit,
    teleport_qudit_branches,
)


def basis_ket(dim: int, m: int) -> QuditKet:
    amps = np.zeros(dim, dtype=complex)
    amps[m] = 1.0
    return QuditKet(amps)


def basis_array(dims: tuple[int, ...], occupation: tuple[int, ...]) -> np.ndarray:
    amps = np.zeros(dims, dtype=complex)
    amps[occupation] = 1.0
    return amps


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

# sha256 of teleport_qudit's sampled outcome (ell, kk as little-endian int64), its
# probability and its ket: four draws from one seeded rng per input, over the
# entangled and random inputs of pinned_inputs.  Seeded runs keep their outcomes.
SAMPLED_SHA256 = {
    2: "5b722adc9e8aba468fd4fedf1aa00a9d02d14d95200011885d8afa5696c9689a",
    3: "89125cff671671801920309309d9f6bf88d82b6249c006c609479c4f1536e210",
    5: "a8b1a7e3a7a03faaf89d56f9e93af29e9e9857f25a6bd4210f68effc41456043",
    7: "b613819d77be7fa026d3aa7f955323bb01bb19cc37ca26d6bbfef79f9d5da1f4",
    16: "13960642af6979e49cfb6ba92601db3949a3f24c5c6c7b9fadb4599c2c33412c",
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


def sampled_digest(dim: int) -> str:
    digest = hashlib.sha256()
    rng = np.random.default_rng([dim, 97])
    for kind in ("entangled", "random"):
        for phi, resource in pinned_inputs(dim, kind):
            for _ in range(4):
                ket, result = teleport_qudit(phi, resource, rng=rng)
                digest.update(np.array([result.ell, result.kk], dtype="<i8").tobytes())
                digest.update(np.float64(result.probability).astype("<f8").tobytes())
                digest.update(ket.amplitudes.astype("<c16").tobytes())
    return digest.hexdigest()


def sent(phi: QuditKet, resource: JointQuditState) -> np.ndarray:
    """phi (x) resource after the sender's XOR, from the textbook reference."""
    joint = np.multiply.outer(phi.amplitudes, resource.amplitudes)
    return xor_reference(joint, control=1, target=0)


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
    """The textbook operators the protocol is held to, and the protocol's own XOR."""

    def test_xor_reference_case(self):
        # D=3: target carrying j=1, control carrying i=0 -> target 0-1 = 2 mod 3
        out = xor_reference(basis_array((3, 3), (1, 0)), control=1, target=0)
        assert out[2, 0] == 1.0

    def test_xor_fixes_vacuum(self):
        out = xor_reference(basis_array((2, 2), (0, 0)), control=1, target=0)
        assert out[0, 0] == 1.0

    def test_xor_is_involution_for_qubits(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        state = z / np.linalg.norm(z)
        twice = xor_reference(xor_reference(state, 0, 1), 0, 1)
        assert np.allclose(twice, state, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    def test_xor_is_unitary(self, dim):
        # columns of the induced matrix stay orthonormal
        cols = []
        for j in range(dim):
            for i in range(dim):
                cols.append(xor_reference(basis_array((dim, dim), (j, i)), 1, 0).ravel())
        mat = np.array(cols).T
        assert np.allclose(mat.conj().T @ mat, np.eye(dim * dim), atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_protocol_xor_equals_the_reference(self, dim):
        rng = np.random.default_rng(dim)
        z = rng.standard_normal((dim, dim, dim)) + 1j * rng.standard_normal((dim, dim, dim))
        reference = xor_reference(z, control=1, target=0)
        assert qudit._xor(z).tobytes() == reference.tobytes()

    def test_qubit_z_and_x_matrices(self):
        minus = z_power(basis_array((2, 2), (1, 0)), 0, 1)
        assert minus[1, 0] == pytest.approx(-1.0, abs=1e-15)
        flipped = x_power(basis_array((2, 2), (0, 0)), 0, 1)
        assert flipped[1, 0] == 1.0

    def test_quartit_phase(self):
        # omega = i for D=4, so Z on |3> multiplies by i^3 = -i
        out = z_power(basis_array((4, 4), (3, 0)), 0, 1)
        assert out[3, 0] == pytest.approx(-1j, abs=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    def test_operator_order(self, dim):
        rng = np.random.default_rng(dim)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        state = z / np.linalg.norm(z)
        assert np.allclose(x_power(state, 0, dim), state, atol=1e-15)
        assert np.allclose(z_power(state, 0, dim), state, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    def test_zx_commutation_phase(self, dim):
        # Z X = omega X Z on every basis state
        omega = np.exp(2j * np.pi / dim)
        for m in range(dim):
            state = basis_array((dim, dim), (m, 0))
            zx = z_power(x_power(state, 0, 1), 0, 1)
            xz = x_power(z_power(state, 0, 1), 0, 1)
            assert np.allclose(zx, omega * xz, atol=1e-14)


class TestFourierStates:
    def test_zero_index_is_uniform(self):
        assert np.allclose(fourier_ket(0, 5), np.full(5, 1.0 / math.sqrt(5.0)), atol=1e-15)

    def test_qubit_minus_state(self):
        expected = np.array([1.0, -1.0]) / math.sqrt(2.0)
        assert np.allclose(fourier_ket(1, 2), expected, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    def test_orthonormal(self, dim):
        kets = np.array([fourier_ket(ell, dim) for ell in range(dim)])
        assert np.allclose(kets.conj() @ kets.T, np.eye(dim), atol=1e-14)


class TestBellMeasurement:
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_projection_equals_the_explicit_one(self, dim):
        # branch[l, k] = (<k| (x) <nu_l|) on systems 0 and 1, the receiver's axis left open
        rng = np.random.default_rng(dim)
        z = rng.standard_normal((dim, dim, dim)) + 1j * rng.standard_normal((dim, dim, dim))
        amps = z / np.linalg.norm(z)
        branch, probs = qudit._projected(amps)
        for ell in range(dim):
            for kk in range(dim):
                explicit = fourier_ket(ell, dim).conj() @ amps[kk]
                assert np.allclose(branch[ell, kk], explicit, atol=1e-14)
                assert probs[ell, kk] == pytest.approx(np.vdot(explicit, explicit).real,
                                                       abs=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_uniform_outcomes_with_entangled_resource(self, dim):
        rng = np.random.default_rng(11)
        phi = haar_random_ket(dim, rng)
        _, probs = qudit._projected(sent(phi, maximally_entangled(dim)))
        assert probs.shape == (dim, dim)
        assert np.allclose(probs, 1.0 / dim**2, atol=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_probabilities_sum_to_one_generic(self, dim):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((dim, dim, dim)) + 1j * rng.standard_normal((dim, dim, dim))
        _, probs = qudit._projected(z / np.linalg.norm(z))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_zero_probability_request_raises(self, dim):
        # |0> through |00> leaves |000> after the XOR: no support on k' = 1 branches
        with pytest.raises(ValueError, match="zero-probability"):
            teleport_qudit(basis_ket(dim, 0), product_resource(dim, 0, 0), outcome=(0, 1))

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_product_resource_pins_k_and_spreads_l(self, dim):
        resource = product_resource(dim, 0, 0)
        ket, outcome = teleport_qudit(basis_ket(dim, 0), resource, outcome=(dim - 1, 0))
        # k is pinned to 0 by |000>, the Fourier index is uniform over D values
        assert outcome.probability == pytest.approx(1.0 / dim, abs=1e-15)
        assert overlap(ket, basis_ket(dim, 0)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_requires_rng_or_outcome(self, dim):
        with pytest.raises(ValueError, match="rng"):
            teleport_qudit(basis_ket(dim, 0), maximally_entangled(dim))

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_sampling_is_reproducible(self, dim):
        phi = haar_random_ket(dim, np.random.default_rng(3))
        resource = maximally_entangled(dim)
        ket_a, out_a = teleport_qudit(phi, resource, rng=np.random.default_rng(42))
        ket_b, out_b = teleport_qudit(phi, resource, rng=np.random.default_rng(42))
        assert out_a == out_b
        assert ket_a.amplitudes.tobytes() == ket_b.amplitudes.tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_sampled_branch_matches_enumeration(self, dim):
        rng = np.random.default_rng(9)
        phi = haar_random_ket(dim, rng)
        resource = random_joint(rng, (dim, dim))
        single, outcome = teleport_qudit(phi, resource, outcome=(1, 1))
        listed = {(out.ell, out.kk): (out.probability, ket)
                  for out, ket in teleport_qudit_branches(phi, resource)}
        p_listed, ket_listed = listed[(1, 1)]
        assert outcome.probability == p_listed
        assert single.amplitudes.tobytes() == ket_listed.amplitudes.tobytes()


class TestTeleportation:
    @pytest.mark.parametrize("dim,m", [(3, 0), (2, 1), (5, 2), (8, 7)])
    def test_basis_state_every_outcome(self, dim, m):
        phi = basis_ket(dim, m)
        resource = maximally_entangled(dim)
        branches = list(teleport_qudit_branches(phi, resource))
        assert len(branches) == dim * dim
        for outcome, ket in branches:
            assert outcome.probability == pytest.approx(1.0 / dim**2, abs=1e-13)
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

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    def test_sampled_run(self, dim):
        rng = np.random.default_rng(0)
        phi = haar_random_ket(dim, rng)
        ket, outcome = teleport_qudit(phi, maximally_entangled(dim), rng=rng)
        assert overlap(ket, phi) == pytest.approx(1.0, abs=1e-12)
        assert 0 <= outcome.ell < dim and 0 <= outcome.kk < dim

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

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_inputs_within_their_norm_tolerance_are_accepted(self, dim):
        # |phi|^2 = |R|^2 = 1 + 0.8e-9 each pass the 1e-9 check; the joint tensor, at about
        # 1 + 1.6e-9, takes its norm from them and is not checked again
        scale = math.sqrt(1.0 + 0.8e-9)
        unit = haar_random_ket(dim, np.random.default_rng(dim))
        phi = QuditKet(unit.amplitudes * scale)
        resource = JointQuditState(maximally_entangled(dim).amplitudes * scale)
        for outcome, ket in teleport_qudit_branches(phi, resource):
            assert outcome.probability == pytest.approx(1.0 / dim**2, abs=1e-8)
            assert overlap(ket, unit) == pytest.approx(1.0, abs=1e-12)
        ket, outcome = teleport_qudit(phi, resource, outcome=(1, dim - 1))
        assert overlap(ket, unit) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim,resource", [
        (2, maximally_entangled(3)),
        (3, maximally_entangled(2)),
        (2, JointQuditState(np.ones((2, 3)) / math.sqrt(6.0))),
        (2, JointQuditState(np.ones((2, 2, 2)) / math.sqrt(8.0))),
    ], ids=["2-in-3x3", "3-in-2x2", "2-in-2x3", "2-in-2x2x2"])
    def test_resource_shape_validation(self, dim, resource):
        message = f"^resource must be a two-system state of dimension {dim} each, got systems "
        with pytest.raises(ValueError, match=message):
            teleport_qudit(basis_ket(dim, 0), resource, outcome=(0, 0))


class TestCorrectionBytes:
    @pytest.mark.parametrize("dim,kind", sorted(BRANCHES_SHA256))
    def test_branches_keep_their_bytes(self, dim, kind):
        assert branches_digest(dim, kind) == BRANCHES_SHA256[dim, kind]

    @pytest.mark.parametrize("dim", sorted(TELEPORT_SHA256))
    def test_fixed_outcomes_keep_their_bytes(self, dim):
        assert teleport_digest(dim) == TELEPORT_SHA256[dim]

    @pytest.mark.parametrize("dim", sorted(SAMPLED_SHA256))
    def test_sampled_outcomes_keep_their_bytes(self, dim):
        assert sampled_digest(dim) == SAMPLED_SHA256[dim]

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 7, 8, 16])
    @pytest.mark.parametrize("kind", ["entangled", "random", "product"])
    def test_batched_correction_equals_the_operators(self, dim, kind):
        # the textbook Z and X stay the reference for the correction of every branch; a
        # zero-probability branch is never divided, so no floating-point warning is raised
        for phi, resource in pinned_inputs(dim, kind):
            branch, probs = qudit._projected(sent(phi, resource))
            with np.errstate(all="raise"):
                branches = list(teleport_qudit_branches(phi, resource))
            assert len(branches) == dim * dim
            for result, ket in branches:
                p = probs[result.ell, result.kk]
                assert result.probability == p
                if p == 0.0:
                    assert ket is None
                    continue
                remainder = branch[result.ell, result.kk] / math.sqrt(p)
                fixed = x_power(z_power(remainder, 0, result.ell), 0, -result.kk)
                assert ket.amplitudes.tobytes() == fixed.tobytes()
                single, outcome = teleport_qudit(phi, resource, outcome=(result.ell, result.kk))
                assert outcome == result
                assert single.amplitudes.tobytes() == fixed.tobytes()


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
        ("dim", lambda: depolarized_fidelity(0.5, 2.5)),
        ("dim", lambda: singlet_fraction_fidelity(0.5, True)),
        ("ell", lambda: teleport_qudit(basis_ket(2, 0), maximally_entangled(2), outcome=(True, 0))),
        ("ell", lambda: teleport_qudit(basis_ket(2, 0), maximally_entangled(2), outcome=(0.5, 0))),
        ("kk", lambda: teleport_qudit(basis_ket(2, 0), maximally_entangled(2), outcome=(0, 1.0))),
        ("kk", lambda: teleport_qudit(basis_ket(2, 0), maximally_entangled(2), outcome=(0, True))),
        ("kk", lambda: teleport_qudit(basis_ket(2, 0), maximally_entangled(2), outcome=(0, "1"))),
        ("ell", lambda: teleport_qudit(basis_ket(2, 0), maximally_entangled(2),
                                       outcome=(np.float64(1.0), 0))),
        ("ell", lambda: teleport_qudit(basis_ket(2, 0), maximally_entangled(2),
                                       outcome=(np.True_, 0))),
        ("dim", lambda: haar_random_ket(True, np.random.default_rng(0))),
        ("dim", lambda: maximally_entangled(np.float64(2.0))),
    ])
    def test_bools_and_non_integers_refused(self, name, bad_call):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            bad_call()

    @pytest.mark.parametrize("kind", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64])
    def test_numpy_integers_accepted(self, kind):
        phi = haar_random_ket(3, np.random.default_rng(1))
        _, out = teleport_qudit(phi, maximally_entangled(3), outcome=(kind(2), np.int8(1)))
        assert out.probability == pytest.approx(1.0 / 9.0, abs=1e-15)
        # the outcome holds plain ints, not the numpy scalars it was given
        assert type(out.ell) is int and type(out.kk) is int
        assert (out.ell, out.kk) == (2, 1)


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
        row = fourier_ket(1, 3) * math.sqrt(1.0 + damage)
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
