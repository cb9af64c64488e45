import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cut_modes,
    dense_pipeline_reference,
    dft_splitter,
    embed,
    full_sector_norms,
    lift,
    vacuum_read_off,
)

from quditcv import multimode
from quditcv.combinatorics import enumerate_compositions
from quditcv.multimode import ModeMatrix, MultimodeState, apply_mode_unitary, oracle_teleport
from quditcv.teleport import (
    FockVector,
    SchemeParams,
    coherent_fock,
    state_fidelity,
    teleport_state,
)


# sha256 of oracle_teleport's little-endian amplitudes and P_suc for five seeded
# states at each oracle_check configuration (N, cap, d).  A change to how the
# oracle builds its splitter or sectors that moves any last digit changes these.
# (2, 8, 1) and (3, 8, 2), whose cap passes N*d, were re-captured when the output
# was cut to teleport_state's min(cap, N*d) + 1 entries.
ORACLE_SHA256 = {
    (2, 8, 1): "d384796e18187c5439ce5778d628759b3d00c7e734c1b539d0d27c5276365f6f",
    (3, 8, 2): "019d9e50eb8b5d1f5961207db20679e0d4b6657bc908801ffd1ebc8581ac678b",
    (4, 6, 2): "95d49b95aee86be67f8234b4bdba8a554ba76d3de083411fdcfeabb6bf406f7a",
    (4, 8, 3): "59ecc453b1a4c4b98ae6e1fc101dd61f5f74d067a13b42a9722d8c51b64acda8",
    (5, 5, 2): "108e19f98af44e1aa997e945d7740285dc9dea55f2b9bc92ecfd5518936155c5",
    (5, 6, 2): "8b0e64ae6bfa3aabc2fe72757e73700a0293764726958f3732d43192f47f126b",
}


def oracle_digest(n: int, cap: int, d: int) -> str:
    rng = np.random.default_rng([n, cap, d])
    params, digest = SchemeParams(n, d), hashlib.sha256()
    for _ in range(5):
        z = rng.standard_normal(cap + 1) + 1j * rng.standard_normal(cap + 1)
        out = oracle_teleport(FockVector(z / np.linalg.norm(z)), params)
        digest.update(out.state.amplitudes.astype("<c16").tobytes())
        digest.update(np.float64(out.success_probability).astype("<f8").tobytes())
    return digest.hexdigest()


SPILL = "cap exceeded: a creation operator pushed an occupation past the per-mode cap"


def fock_basis(k: int, cutoff: int) -> FockVector:
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[k] = 1.0
    return FockVector(amps)


def random_sector_grid(rng, num_modes: int, cap: int) -> np.ndarray:
    # random support restricted to total photon number <= cap, so any mode
    # unitary acts unitarily on it
    shape = (cap + 1,) * num_modes
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    totals = np.sum(np.indices(shape), axis=0)
    amps[totals > cap] = 0.0
    return amps / np.linalg.norm(amps)


class TestModeMatrix:
    def test_two_mode_splitter_is_fifty_fifty(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert np.allclose(dft_splitter(2), expected, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_splitter_unitary_with_uniform_first_column(self, n):
        mat = ModeMatrix(dft_splitter(n)).entries
        assert np.allclose(mat @ mat.conj().T, np.eye(n), atol=1e-13)
        assert np.allclose(mat[:, 0], np.full(n, 1.0 / math.sqrt(n)), atol=1e-14)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            ModeMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_inverse(self):
        # the reference unsplits with the conjugate transpose
        mat = dft_splitter(3)
        assert np.allclose(mat @ ModeMatrix(mat.conj().T).entries, np.eye(3), atol=1e-13)


class TestApplyModeUnitary:
    def test_identity_leaves_state_alone(self):
        rng = np.random.default_rng(2)
        state = random_sector_grid(rng, 3, 3)
        assert np.allclose(lift(state, np.eye(3)), state, atol=1e-13)

    def test_identity_is_safe_even_above_cap_sectors(self):
        # occupation (2, 2) exceeds a total of cap = 2, but the identity
        # never moves photons between modes, so nothing can spill
        amps = np.zeros((3, 3), dtype=complex)
        amps[2, 2] = 1.0
        assert lift(amps, np.eye(2))[2, 2] == pytest.approx(1.0, abs=1e-14)

    def test_single_photon_maps_to_column(self):
        out = lift(embed(fock_basis(1, 1), 3), dft_splitter(3))
        for j, occupation in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            assert out[occupation] == pytest.approx(dft_splitter(3)[j, 0], abs=1e-14)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        out = lift(random_sector_grid(rng, 2, 4), dft_splitter(2))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_split_then_unsplit_is_identity(self):
        rng = np.random.default_rng(8)
        state = random_sector_grid(rng, 3, 3)
        splitter = dft_splitter(3)
        assert np.allclose(lift(lift(state, splitter), splitter.conj().T), state, atol=1e-12)

    def test_cap_exceeded_detection(self):
        amps = np.zeros((3, 3), dtype=complex)
        amps[2, 2] = 1.0  # 4 photons total, cap 2: any mixing spills
        with pytest.raises(ValueError, match="cap exceeded"):
            lift(amps, dft_splitter(2))

    def test_size_mismatch(self):
        state = MultimodeState(embed(fock_basis(0, 1), 2))
        with pytest.raises(ValueError, match="^matrix mixes 3 modes but the state carries 2$"):
            apply_mode_unitary(state, ModeMatrix(dft_splitter(3)))

    @pytest.mark.parametrize("occupation, modes, message", [
        ((1, 1), 2, f"{SPILL} 1"),
        ((1, 2), 2, f"{SPILL} 2"),
        ((2, 2), 2, f"{SPILL} 2"),
        ((1,), 2, "matrix mixes 2 modes but the state carries 1"),
        ((1, 0, 0), 2, "matrix mixes 2 modes but the state carries 3"),
    ])
    def test_refusals_name_the_cause(self, occupation, modes, message):
        amps = np.zeros((max(occupation) + 1,) * len(occupation), dtype=complex)
        amps[occupation] = 1.0
        with pytest.raises(ValueError, match=f"^{message}$"):
            lift(amps, dft_splitter(modes))

    def test_coherent_state_factorizes(self):
        # |alpha> split over N modes equals the product of |alpha/sqrt(N)>
        # wherever the dense grid can represent it (total photons <= cap)
        alpha, n = 0.8, 3
        split = lift(embed(coherent_fock(alpha, 14), n), dft_splitter(n))
        part = coherent_fock(alpha / math.sqrt(n), 14).amplitudes
        product = np.einsum("i,j,k->ijk", part, part, part)
        mask = np.sum(np.indices(split.shape), axis=0) <= 14
        assert np.allclose(split[mask], product[mask], atol=1e-10)


class TestTruncateAndPostselect:
    def test_truncation_is_identity_at_full_cap(self):
        rng = np.random.default_rng(3)
        state = random_sector_grid(rng, 2, 3)
        out, discarded = cut_modes(state, 3)
        assert discarded == 0.0
        assert np.allclose(out, state, atol=1e-15)

    def test_two_photon_state_fully_discarded(self):
        out, discarded = cut_modes(embed(fock_basis(2, 2), 2), 1)
        assert discarded == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(out) == 0.0

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20)
    def test_mass_accounting(self, seed):
        rng = np.random.default_rng(seed)
        state = random_sector_grid(rng, 2, 4)
        out, discarded = cut_modes(state, 2)
        assert np.linalg.norm(out) ** 2 + discarded == pytest.approx(
            np.linalg.norm(state) ** 2, abs=1e-12
        )

    @pytest.mark.parametrize("n, mode", [(n, j) for n in range(1, 5) for j in range(n)])
    def test_every_mode_is_cut(self, n, mode):
        # d photons in any one mode pass the cut at d, d + 1 photons do not
        d = 1
        for photons, kept in ((d, 1.0), (d + 1, 0.0)):
            grid = np.zeros((d + 2,) * n, dtype=complex)
            grid[tuple(photons if j == mode else 0 for j in range(n))] = 1.0
            out, discarded = cut_modes(grid, d)
            assert np.linalg.norm(out) ** 2 == kept
            assert discarded == 1.0 - kept

    def test_postselect_single_mode_keeps_the_state(self):
        # one mode: no other mode to find in vacuum, so the read-off is the renormalized grid
        kept, prob = vacuum_read_off(np.array([0.6, 0.0, 0.8j]))
        assert prob == 1.0
        assert np.allclose(kept.amplitudes, [0.6, 0.0, 0.8j], atol=1e-15)

    def test_postselect_product_state(self):
        kept, prob = vacuum_read_off(embed(fock_basis(1, 2), 3))
        assert prob == pytest.approx(1.0, abs=1e-14)
        assert state_fidelity(kept, fock_basis(1, 2)) == pytest.approx(1.0, abs=1e-14)

    def test_postselect_spread_photon(self):
        n = 4
        _, prob = vacuum_read_off(lift(embed(fock_basis(1, 1), n), dft_splitter(n)))
        assert prob == pytest.approx(1.0 / n, rel=1e-12)


class TestOracleTeleport:
    def test_single_photon_fixed_point(self):
        out = oracle_teleport(fock_basis(1, 1), SchemeParams(3, 1))
        assert out.success_probability == pytest.approx(1.0, abs=1e-12)
        assert state_fidelity(out.state, fock_basis(1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_fixed_point(self):
        out = oracle_teleport(fock_basis(0, 0), SchemeParams(2, 1))
        assert out.success_probability == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 5) for d in range(1, 4)])
    def test_output_window_equals_the_closed_form(self, n, d):
        rng = np.random.default_rng(10 * n + d)
        params = SchemeParams(n, d)
        for cutoff in (0, 1, 2, 5, 9):
            z = rng.standard_normal(cutoff + 1) + 1j * rng.standard_normal(cutoff + 1)
            state = FockVector(z / np.linalg.norm(z))
            brute, closed = oracle_teleport(state, params), teleport_state(state, params)
            assert len(brute.state.amplitudes) == len(closed.state.amplitudes) \
                == min(cutoff, n * d) + 1

    def test_photons_past_the_window_are_dropped(self):
        state = FockVector([0.6, 0.0, 0.8])
        for run in (oracle_teleport, teleport_state):
            out = run(state, SchemeParams(1, 1))
            assert out.state.amplitudes.tolist() == [1.0, 0.0]
            assert out.success_probability == pytest.approx(0.36, abs=1e-15)

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

    @pytest.mark.parametrize("amps, n, d, log_p", [
        ([1e-200, 0.0, 1.0], 1, 1, "-921.034"),
        ([0.0, 0.0, 1e-200, 1.0], 2, 1, "-922.42"),
    ])
    def test_underflow_is_reported_as_the_closed_form_reports_it(self, amps, n, d, log_p):
        # amplitudes survive the cutoffs, but P_suc is below the smallest double
        message = f"^vanishing state: P_suc underflows double precision, log P_suc = {log_p}$"
        for run in (oracle_teleport, teleport_state):
            with pytest.raises(ValueError, match=message):
                run(FockVector(amps), SchemeParams(n, d))

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

    @pytest.mark.parametrize("n,cap,d", [(1, 10**4, 10**4), (2, 998, 499)])
    def test_budget_counts_scatter_add_steps(self, n, cap, d, monkeypatch):
        # 10,001 and 999,000 index-map entries, but 10^4 and 1,996 steps at 100 each
        monkeypatch.setattr(multimode, "_next_sector", fail_if_called)
        with pytest.raises(ValueError, match="^budget exceeded: "):
            oracle_teleport(fock_basis(0, cap), SchemeParams(n, d))

    @pytest.mark.parametrize("n", [2000, 10**4])
    def test_many_modes_never_build_the_splitter_matrix(self, n):
        # a vacuum input passes the sector budget at any N; of the N x N splitter the oracle
        # reads only its first column
        out = oracle_teleport(FockVector([1.0]), SchemeParams(n, 1))
        assert out.success_probability == 1.0
        assert out.state.amplitudes.tolist() == [1.0]

    def test_low_mode_counts_stay_inside_the_budget(self):
        # 501 entries and 500 steps at N = 1: a cost of 50,501
        rng = np.random.default_rng(80)
        z = rng.standard_normal(501) + 1j * rng.standard_normal(501)
        state, params = FockVector(z / np.linalg.norm(z)), SchemeParams(1, 500)
        assert oracle_teleport(state, params).success_probability == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,cap,d", [
        (1, 4, 2), (2, 6, 1), (3, 5, 2), (4, 4, 2), (4, 8, 3), (5, 6, 2),
        (1, 2, 3), (2, 4, 2), (3, 2, 3), (6, 3, 1),
    ])
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
            # the oracle keeps teleport_state's window; past N*d photons the dense output is 0
            top = min(cap, n * d)
            kept, tail = np.split(stepwise.state.amplitudes, [top + 1])
            assert np.max(np.abs(read_off.state.amplitudes - kept)) <= 1e-12
            assert not np.any(tail)

    @pytest.mark.parametrize("n,cap,d", sorted(ORACLE_SHA256))
    def test_oracle_keeps_its_bytes(self, n, cap, d):
        assert oracle_digest(n, cap, d) == ORACLE_SHA256[n, cap, d]

    def test_dense_pipeline_vanishing_input(self):
        for run in (oracle_teleport, dense_pipeline_reference):
            with pytest.raises(ValueError, match="vanishing state"):
                run(fock_basis(3, 3), SchemeParams(2, 1))

    @pytest.mark.parametrize("k, n, d", [(2, 1, 1), (3, 1, 2), (4, 3, 1), (5, 2, 2), (7, 3, 2)])
    def test_dense_pipeline_refuses_what_the_oracle_refuses(self, k, n, d):
        # |k> with k > N*d: every split occupation has some mode above d
        for run in (oracle_teleport, dense_pipeline_reference):
            with pytest.raises(ValueError, match="^vanishing state: "):
                run(fock_basis(k, k), SchemeParams(n, d))

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


def oracle_bytes(n: int, cap: int, d: int) -> bytes:
    """Raw bytes of one oracle call on a seeded state: amplitudes, then P_suc."""
    rng = np.random.default_rng([n, cap, d, 1])
    z = rng.standard_normal(cap + 1) + 1j * rng.standard_normal(cap + 1)
    out = oracle_teleport(FockVector(z / np.linalg.norm(z)), SchemeParams(n, d))
    return out.state.amplitudes.tobytes() + np.float64(out.success_probability).tobytes()


def fail_if_called(*args):
    raise AssertionError("a sector was built")


class TestKeptNorms:
    """||P s_k||^2 depends on (N, d, k) alone, so the oracle keeps it per (N, d)."""

    @pytest.fixture(autouse=True)
    def cold_caches(self, monkeypatch):
        monkeypatch.setattr(multimode, "_NORMS", {})

    def test_warm_call_returns_the_cold_bytes_and_builds_nothing(self, monkeypatch):
        cold = oracle_bytes(5, 6, 2)
        monkeypatch.setattr(multimode, "_next_sector", fail_if_called)
        assert oracle_bytes(5, 6, 2) == cold
        assert oracle_digest(5, 6, 2) == ORACLE_SHA256[5, 6, 2]
        # a smaller top reads a prefix of the kept norms
        oracle_bytes(5, 3, 2)
        assert len(multimode._NORMS[5, 2]) == 6

    def test_call_order_does_not_move_the_bytes(self, monkeypatch):
        order = [(5, 5, 2), (5, 6, 2), (5, 3, 2), (5, 6, 1)]  # the last: norms are per d too
        cold = {}
        for config in order:
            monkeypatch.setattr(multimode, "_NORMS", {})
            cold[config] = oracle_bytes(*config)
        monkeypatch.setattr(multimode, "_NORMS", {})
        for config in order:
            assert oracle_bytes(*config) == cold[config]

    def test_budget_refusal_comes_before_any_cache_use(self, monkeypatch):
        class Untouchable(dict):
            def fail(self, *args):
                raise AssertionError("the norm cache was used")

            get = __getitem__ = __setitem__ = __contains__ = setdefault = fail

        monkeypatch.setattr(multimode, "_NORMS", Untouchable())
        monkeypatch.setattr(multimode, "_next_sector", fail_if_called)
        with pytest.raises(ValueError, match="^budget exceeded: "):
            oracle_teleport(fock_basis(0, 9), SchemeParams(11, 1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kept_norms_equal_the_full_sector_build(self, n, monkeypatch):
        # top = N*d, lowered until the full sectors stay small: N * C(top+N, N) <= 2 * 10^6
        tops = {}
        for d in range(1, 7):
            tops[d] = n * d
            while n * math.comb(tops[d] + n, n) > 2 * 10**6:
                tops[d] -= 1
        reference = full_sector_norms(n, max(tops.values()), tops)
        for d, top in tops.items():
            monkeypatch.setattr(multimode, "_NORMS", {})
            kept = multimode._kept_norms(n, d, top)
            assert np.array(kept).tobytes() == np.array(reference[d][:top]).tobytes(), (n, d)

    @pytest.mark.parametrize("d, top", [(300, 200), (260, 520)])
    def test_kept_norms_past_a_byte_of_photons(self, d, top):
        # a cutoff past 255, then a mode holding more than 255 photons: occupations are plain
        # ints, so nothing wraps at a byte
        kept = multimode._kept_norms(2, d, top)
        reference = full_sector_norms(2, top, [d])[d]
        assert np.array(kept).tobytes() == np.array(reference).tobytes()

    @pytest.mark.parametrize("n, d, top", [(1, 4, 4), (2, 1, 2), (3, 2, 6), (4, 1, 4), (5, 3, 9),
                                           (6, 2, 10), (8, 4, 11), (2, 300, 300)])
    def test_sectors_are_ranked_in_composition_order(self, n, d, top, monkeypatch):
        # the rank recurrence relies on each sector's kept rows coming in enumerate_compositions'
        # order, and every kept raise of row r in mode j must land on row r plus e_j
        sectors, build = [], multimode._next_sector

        def recorded(below, *args):
            sector = build(below, *args)
            sectors.append((below, *sector[:2]))
            return sector

        monkeypatch.setattr(multimode, "_next_sector", recorded)
        multimode._kept_norms(n, d, top)
        assert len(sectors) == top
        for k, (below, raised, above) in enumerate(sectors, start=1):
            assert above.tolist() == [list(c) for c in enumerate_compositions(n, k, d)]
            j, r = np.indices(raised.shape).reshape(2, -1)
            kept = below[r, j] < d
            assert np.all(raised[j[~kept], r[~kept]] == -1)
            ranks = raised[j[kept], r[kept]]
            assert np.all(ranks >= 0)
            assert np.array_equal(above[ranks], below[r[kept]] + np.eye(n, dtype=int)[j[kept]])

    def test_only_kept_occupations_are_built(self, monkeypatch):
        # at d = 1, P keeps the C(10, k) occupations with k single photons, of C(k+9, k)
        sizes, build = [], multimode._next_sector

        def recorded(*args):
            sector = build(*args)
            sizes.append(len(sector[1]))
            return sector

        monkeypatch.setattr(multimode, "_next_sector", recorded)
        oracle_bytes(10, 9, 1)
        assert sizes == [math.comb(10, k) for k in range(1, 10)]

    def test_cold_call_keeps_nothing_but_its_norms(self):
        # five seeded states at (N, cap, d) = (10, 9, 1), captured on the full-sector build
        digest = "21066130b9298745e53269bebec5fd22aab7adea19486bb0e20bb4771be87c83"
        assert oracle_digest(10, 9, 1) == digest
        held = [name for name, value in vars(multimode).items()
                if isinstance(value, (dict, list, tuple, np.ndarray)) and not name.startswith("__")]
        assert held == ["_NORMS"]
        assert list(multimode._NORMS) == [(10, 1)] and len(multimode._NORMS[10, 1]) == 9
