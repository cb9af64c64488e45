"""CLI behaviour: CSV shape, determinism, exit codes, verification gate."""

import argparse
import contextlib
import csv
import functools
import hashlib
import importlib.util
import io
import json
import math
import pathlib
import platform
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quditcv
from quditcv import cli, combinatorics, detectors, teleport


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


class TestGains:
    def test_header_and_identity_region(self, capsys):
        code, out, _ = run_cli(["gains", "--d", "2,4", "--n", "4,2"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["d", "N", "k", "gain"]
        # k runs over the full shared budget d*N = 8 for every pair
        assert len(rows) == 2 * 9
        for d, n, k, gain in rows:
            if int(k) <= int(d):
                assert gain == "1"

    def test_known_gain_value(self, capsys):
        _, out, _ = run_cli(["gains", "--d", "1", "--n", "20"], capsys)
        _, rows = parse_csv(out)
        by_k = {int(row[2]): float(row[3]) for row in rows}
        assert by_k[2] == pytest.approx(19 / 20, rel=1e-12)
        assert by_k[20] == pytest.approx(math.factorial(20) / 20**20, rel=1e-12)

    def test_rows_sorted_even_for_unsorted_flags(self, capsys):
        _, out, _ = run_cli(["gains", "--d", "4,2", "--n", "2,4"], capsys)
        _, rows = parse_csv(out)
        keys = [(int(d), int(n), int(k)) for d, n, k, _ in rows]
        assert keys == sorted(keys)

    def test_mismatched_budget_is_config_error(self, capsys):
        code, _, err = run_cli(["gains", "--d", "1,2", "--n", "3,2"], capsys)
        assert code == 2
        assert "budget" in err

    def test_unequal_list_lengths_rejected(self, capsys):
        code, _, _ = run_cli(["gains", "--d", "1,2,4", "--n", "4,2"], capsys)
        assert code == 2


class TestEprSweep:
    def test_matches_library_values(self, capsys):
        code, out, _ = run_cli(["epr-sweep", "--vs", "10", "--d", "2", "--n", "1:3"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["d", "N", "chi", "f", "P_suc"]
        squeeze = teleport.squeezing_from_vs(10.0)
        assert all(row[2] == format(9 / 11, ".12g") for row in rows)
        for row in rows:
            outcome = teleport.teleport_epr(squeeze, teleport.SchemeParams(int(row[1]), 2))
            assert float(row[3]) == pytest.approx(outcome.fidelity, rel=1e-11)
            assert float(row[4]) == pytest.approx(outcome.success_probability, rel=1e-11)

    def test_default_grid_shape(self, capsys):
        _, out, _ = run_cli(["epr-sweep"], capsys)
        _, rows = parse_csv(out)
        assert len(rows) == 5 * 25
        assert {row[0] for row in rows} == {"1", "2", "3", "4", "5"}

    @pytest.mark.parametrize("d, n, sorted_d, sorted_n", [
        ("2,1", ",".join(map(str, range(40, 0, -1))), "1,2", "1:40"),
        ("3,1,3", "35,2,35,1,2", "1,3,3", "1,2,2,35,35"),
    ])
    def test_unsorted_and_repeated_lists_print_the_sorted_bytes(self, d, n, sorted_d,
                                                                 sorted_n, capsys):
        # cells run in (d, N) order, and rows with equal (d, N) are identical
        _, out, _ = run_cli(["epr-sweep", "--d", d, "--n", n], capsys)
        _, expected, _ = run_cli(["epr-sweep", "--d", sorted_d, "--n", sorted_n], capsys)
        assert out == expected

    def test_a_sweep_keeps_one_table_of_each_kind(self, monkeypatch, capsys):
        monkeypatch.setattr(combinatorics, "_TABLES", {})
        fresh_gains = functools.cache(teleport.gain_vector.__wrapped__)
        monkeypatch.setattr(teleport, "gain_vector", fresh_gains)
        code, _, _ = run_cli(["epr-sweep", "--d", "1:3", "--n", "1:200"], capsys)
        assert code == 0
        # counts serve N*d <= 60 and log weights the rest; each kind keeps only its last table,
        # built at the last d for its last N
        tables = combinatorics._TABLES
        assert set(tables) == {combinatorics._add_mode_count, combinatorics._add_mode_log}
        d, n_exact, counts = tables[combinatorics._add_mode_count]
        assert (d, n_exact, len(counts)) == (3, 20, 60 + 1)
        d, n_log, log_weights = tables[combinatorics._add_mode_log]
        assert (d, n_log, len(log_weights)) == (3, 200, 3 * 200 + 1)

    def test_vs_below_one_rejected(self, capsys):
        code, out, err = run_cli(["epr-sweep", "--vs", "0.5"], capsys)
        assert code == 2 and out == ""
        assert err == "error: v_s must be finite and >= 1, got 0.5\n"

    def test_vs_whose_chi_rounds_to_one_names_v_s(self, capsys):
        code, out, err = run_cli(["epr-sweep", "--vs", "1e16"], capsys)
        assert code == 2 and out == ""
        assert err == "error: v_s must leave chi = (v_s-1)/(v_s+1) below 1 as a float, got 1e+16\n"


class TestCompare:
    def test_default_model_corner_values(self, capsys):
        code, out, _ = run_cli(["compare", "--eta", "0,1", "--xi", "0,1"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["eta", "xi", "scheme1", "scheme2", "advantage"]
        table = {(row[0], row[1]): row[2:] for row in rows}
        s1, s2, adv = table[("1", "1")]
        assert float(s1) == pytest.approx(0.5**11, rel=1e-12)
        assert float(s2) == pytest.approx(0.18**3, rel=1e-12)
        assert float(s2) / float(s1) == pytest.approx(11.943935999999999, rel=1e-12)
        assert adv == "1"
        assert table[("1", "0")][2] == "0"
        assert table[("0", "0")][2] == "0"

    def test_quartit_model_ignores_eta_in_scheme2(self, capsys):
        _, out, _ = run_cli(["compare", "--eta", "0.2,0.9", "--xi", "0.7"], capsys)
        _, rows = parse_csv(out)
        assert rows[0][3] == rows[1][3]

    def test_alternative_models(self, capsys):
        _, out_lin, _ = run_cli(
            ["compare", "--eta", "1", "--xi", "1", "--model", "linear-optics"], capsys
        )
        _, rows = parse_csv(out_lin)
        assert float(rows[0][2]) == pytest.approx(0.5**11)
        assert float(rows[0][3]) == pytest.approx(1.0)

        _, out_det, _ = run_cli(
            ["compare", "--eta", "1", "--xi", "1", "--model", "deterministic"], capsys
        )
        _, rows = parse_csv(out_det)
        assert float(rows[0][2]) == pytest.approx(1.0)
        # equal success probabilities: no strict advantage
        assert rows[0][4] == "0"

    @pytest.mark.parametrize("flag", ["--eta=0.5,nan", "--eta=inf", "--xi=1.5", "--xi=0.2,-0.1"])
    def test_rejects_every_value_outside_unit_interval(self, flag, capsys):
        code, out, err = run_cli(["compare", flag], capsys)
        assert code == 2 and out == "" and "must lie in [0, 1]" in err

    def test_unknown_model_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["compare", "--model", "nonsense"])
        assert excinfo.value.code == 2

    def test_run_of_equal_eta_holds_no_grid_sized_index(self, tmp_path):
        # 1,000 copies of one eta by 1,000 xi: a run as long as the grid.  Ordering it by a
        # stable argsort of xi tiled per row peaked at 15.9 MB; the blocks hold 1.4 MB
        argv = ["compare", "--eta=" + ",".join(["0.5"] * 1000), "--xi=0:1:1000",
                "--out", str(tmp_path / "run.csv")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @given(eta=st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.5, 0.75, 1.0]), min_size=1,
                        max_size=12),
           xi=st.lists(st.sampled_from([0.0, -0.0, 0.3, 0.5, 1.0]), min_size=1, max_size=12),
           model=st.sampled_from(detectors.COMPARE_MODELS))
    @settings(max_examples=200, deadline=None)
    def test_rows_follow_the_stable_sort_across_small_blocks(self, eta, xi, model):
        # blocks of 5 cells split runs of equal eta and tie classes of xi at any cell
        argv = ["compare", "--eta=" + ",".join(map(repr, eta)),
                "--xi=" + ",".join(map(repr, xi)), "--model", model]

        def written():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0
            return out.getvalue()

        whole = written()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK", 5)
            assert written() == whole
        eta_flat, xi_flat = np.repeat(eta, len(xi)), np.tile(xi, len(eta))  # the eta-major grid
        expected = [f"{eta_flat[i]:.12g},{xi_flat[i]:.12g}"
                    for i in np.lexsort((xi_flat, eta_flat))]
        assert [",".join(line.split(",")[:2]) for line in whole.splitlines()[1:]] == expected

    def test_grid_matches_advantage_region(self, capsys):
        _, out, _ = run_cli(["compare", "--eta", "0:1:5", "--xi", "0:1:5"], capsys)
        _, rows = parse_csv(out)
        grid = detectors.advantage_region(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
        flags = np.array([int(row[4]) for row in rows], dtype=bool).reshape(5, 5)
        assert np.array_equal(flags, grid)


class TestTeleportCommand:
    def test_file_input_reference_point(self, tmp_path, capsys):
        infile = tmp_path / "state.txt"
        infile.write_text("1,0\n0,0\n1,0\n")
        code, out, _ = run_cli(["teleport", str(infile), "--n", "2", "--d", "1"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["k", "re", "im", "p_suc"]
        assert all(row[3] == "0.625" for row in rows)
        amps = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)
        assert abs(amps[0]) / abs(amps[2]) == pytest.approx(2.0, rel=1e-12)

    def test_input_normalized_on_load(self, tmp_path, capsys):
        infile = tmp_path / "state.txt"
        infile.write_text("3,0\n0,0\n3,0\n")
        _, out, _ = run_cli(["teleport", str(infile), "--n", "2", "--d", "1"], capsys)
        _, rows = parse_csv(out)
        assert rows[0][3] == "0.625"

    def test_alpha_input_matches_library(self, capsys):
        code, out, _ = run_cli(["teleport", "--alpha", "1", "--n", "2", "--d", "1"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        outcome = teleport.teleport_coherent(1.0, teleport.SchemeParams(2, 1))
        assert float(rows[0][3]) == pytest.approx(outcome.success_probability, rel=1e-11)

    def test_requires_exactly_one_input(self, tmp_path, capsys):
        code, _, err = run_cli(["teleport", "--n", "2", "--d", "1"], capsys)
        assert code == 2
        infile = tmp_path / "state.txt"
        infile.write_text("1,0\n")
        code, _, _ = run_cli(
            ["teleport", str(infile), "--alpha", "1", "--n", "2", "--d", "1"], capsys
        )
        assert code == 2

    def test_missing_file_is_config_error(self, capsys):
        code, _, err = run_cli(["teleport", "/no/such/file", "--n", "1", "--d", "1"], capsys)
        assert code == 2
        assert "amplitude file" in err

    def test_malformed_line_is_config_error(self, tmp_path, capsys):
        infile = tmp_path / "bad.txt"
        infile.write_text("1,0\n0.5\n")
        code, _, err = run_cli(["teleport", str(infile), "--n", "1", "--d", "1"], capsys)
        assert code == 2
        assert "re,im" in err

    def test_non_numeric_entry_is_config_error(self, tmp_path, capsys):
        infile = tmp_path / "bad.txt"
        infile.write_text("1,0\n1,x\n")
        code, out, err = run_cli(["teleport", str(infile), "--n", "1", "--d", "1"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {infile}:2: amplitude entries must be numbers, got '1,x'\n"

    def test_zero_state_is_config_error(self, tmp_path, capsys):
        infile = tmp_path / "zero.txt"
        infile.write_text("0,0\n0,0\n")
        code, _, _ = run_cli(["teleport", str(infile), "--n", "1", "--d", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("text, lineno", [
        ("nan,0\n", 1), ("inf,0\n", 1), ("1,0\n0,-inf\n", 2), ("1,0\n\n1e999,0\n", 3),
    ])
    def test_non_finite_entry_is_config_error(self, tmp_path, capsys, text, lineno):
        # once a numpy RuntimeWarning, then "teleport_state requires a normalized input"
        infile = tmp_path / "bad.txt"
        infile.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["teleport", str(infile), "--n", "2", "--d", "1"], capsys)
        line = text.splitlines()[lineno - 1]
        assert (code, out) == (2, "")
        assert err == f"error: {infile}:{lineno}: amplitude entries must be finite, got {line!r}\n"

    def test_overflowing_norm_is_config_error(self, tmp_path, capsys):
        infile = tmp_path / "big.txt"
        infile.write_text("1e308,0\n" * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["teleport", str(infile), "--n", "2", "--d", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {infile}: the norm of the amplitudes overflows a float\n"

    def test_large_finite_entries_print_as_unit_ones(self, tmp_path, capsys):
        outputs = []
        for scale in ("1", "1e150"):
            infile = tmp_path / f"state-{scale}.txt"
            infile.write_text(f"{scale},0\n0,0\n{scale},0\n")
            outputs.append(run_cli(["teleport", str(infile), "--n", "2", "--d", "1"], capsys))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0


class TestPovmCommand:
    def test_matches_library_weights(self, capsys):
        code, out, _ = run_cli(
            ["povm", "--eta", "0.5", "--nu", "0.1", "--cutoff", "4", "--max-resolved", "2"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["element", "m", "weight"]
        family = detectors.pnr_povm(
            detectors.DetectorModel(0.5, 0.1), max_resolved=2, cutoff=4
        )
        labels = [row[0] for row in rows]
        assert labels == ["0"] * 5 + ["1"] * 5 + ["2"] * 5 + ["rest"] * 5
        for element, chunk in zip(family, range(0, 20, 5)):
            for m, row in enumerate(rows[chunk : chunk + 5]):
                assert float(row[2]) == pytest.approx(element.weights[m], abs=1e-12)

    def test_overflow_is_config_error(self, capsys):
        code, out, err = run_cli(["povm", "--max-resolved", "600", "--cutoff", "1100"], capsys)
        assert code == 2 and out == "" and "overflow" in err

    @pytest.mark.parametrize("nu", ["nan", "inf"])
    def test_non_finite_dark_rate_is_config_error(self, nu, capsys):
        code, out, err = run_cli(["povm", "--eta", "0.5", "--nu", nu], capsys)
        assert code == 2 and out == "" and err == f"error: nu must be finite and >= 0, got {nu}\n"

    def test_perfect_detector_is_projector(self, capsys):
        _, out, _ = run_cli(["povm", "--eta", "1", "--cutoff", "3"], capsys)
        _, rows = parse_csv(out)
        table = {(row[0], int(row[1])): float(row[2]) for row in rows}
        assert table[("0", 0)] == 1.0
        assert table[("1", 1)] == 1.0
        assert table[("1", 0)] == 0.0
        assert table[("rest", 3)] == 1.0


class TestDeterminism:
    def test_identical_bytes_across_runs(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        argv = ["epr-sweep", "--d", "1,3", "--n", "1:6"]
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert b"\r" not in first.read_bytes()

    def test_stdout_and_file_agree(self, tmp_path, capsys):
        out_path = tmp_path / "g.csv"
        assert cli.main(["gains", "--d", "2", "--n", "3", "--out", str(out_path)]) == 0
        capsys.readouterr()
        _, out, _ = run_cli(["gains", "--d", "2", "--n", "3"], capsys)
        assert out == out_path.read_text()

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(["epr-sweep", "--d", "3", "--n", "2"], capsys)
        _, rows = parse_csv(out)
        assert rows[0][2] == "0.818181818182"


class TestVerify:
    def test_clean_run_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert all("PASS" in line for line in lines[:6])
        assert lines[-1] == "verification passed"
        for name in (
            "combinatorics-identities",
            "gain-bounds",
            "oracle-equivalence",
            "protocol-identity",
            "povm-completeness",
            "epr-arm",
        ):
            assert any(name in line for line in lines)

    @staticmethod
    def bend_gains(patch, eps):
        """Scale the gain core by (1 + eps)^k, as a faulty evaluation would."""
        original = teleport.gain_vector

        def bent(params):
            gains = original(params)
            return gains * (1.0 + eps) ** np.arange(len(gains))

        patch.setattr(teleport, "gain_vector", bent)

    def test_perturbed_gain_fails(self, capsys, monkeypatch):
        self.bend_gains(monkeypatch, 1e-6)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 1
        lines = out.strip().splitlines()
        # both the direct bound check and the closed form against the
        # independent oracle must see a 1e-6 relative error
        for name in ("gain-bounds", "oracle-equivalence"):
            (line,) = [line for line in lines if f" {name} " in line]
            assert "FAIL" in line
        assert lines[-1] == "verification FAILED"

    def test_perturbed_epr_fidelity_fails(self, capsys, monkeypatch):
        original = teleport.teleport_epr

        def low(squeeze, params):
            out = original(squeeze, params)
            return out._replace(fidelity=out.fidelity * (1.0 - 1e-6))

        monkeypatch.setattr(teleport, "teleport_epr", low)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 1
        lines = out.strip().splitlines()
        assert [line for line in lines if line.endswith("FAIL")] == \
            [line for line in lines if " epr-arm " in line]
        assert lines[-1] == "verification FAILED"

    def test_perturbation_is_reverted_afterwards(self, capsys, monkeypatch):
        with monkeypatch.context() as patch:
            self.bend_gains(patch, 1e-3)
            assert run_cli(["verify"], capsys)[0] == 1
        assert teleport.fock_gain(1, teleport.SchemeParams(2, 1)) == 1.0
        assert teleport.fock_gain(2, teleport.SchemeParams(4, 1)) == 0.75
        assert run_cli(["verify"], capsys)[0] == 0

    def test_seed_changes_nothing_for_pass(self, capsys):
        code, _, _ = run_cli(["verify", "--seed", "7"], capsys)
        assert code == 0

    def test_negative_seed_is_a_usage_error(self, capsys):
        # refused before any suite runs, not reported as a failed suite
        assert run_cli(["verify", "--seed", "-1"], capsys) == \
            (2, "", "error: seed must be an integer >= 0, got -1\n")


# sha256 of whole CSV outputs, captured before compare and povm were
# vectorized.  The compare grids are unsorted and repeat values, with -0 and
# 0 on both axes, so the row order of the stable (eta, xi) sort is pinned.
COMPARE_GRIDS = {
    # name: (--eta, --xi)
    "signed-zeros": ("0.5,-0,0,0.5", "0.3,0,-0"),
    "unsorted": ("0.9,0.1,0.9,1", "-0,0.7,0,0.7"),
    "401x401": ("0.1:0.9:401", "0.05:0.95:401"),
    # 16,800 rows at 150 xi, a width that does not divide the 4,096-cell write block: lone
    # eta rows on both sides of a 30-row run of 0.5 wider than a block, and a -0/0 pair;
    # xi unsorted, with duplicates and -0, 0 and 0.  Its digests were captured when compare
    # still wrote one chunk per eta row.
    "blocks": (",".join([f"{i / 100:g}" for i in range(40, 0, -1)] + ["0.5"] * 15 + ["-0"]
                        + ["0.5"] * 15 + ["0"] + [f"{i / 100:g}" for i in range(51, 91)]),
               ",".join([f"{7 * i % 146 / 146:.6g}" for i in range(146)]
                        + ["-0", "0.25", "0", "0.25"])),
    # runs of 0.5 (41 rows) and of -0/0 (4 rows) over xi in 7 tie classes of 33 or 34, with
    # -0 and 0 tied: tie classes cross the 4,096-cell blocks.  Digests captured when a run was
    # ordered by a stable argsort of xi tiled once per row.
    "tied-runs": (",".join(["0.5"] * 20 + ["-0", "0.2", "0", "0"] + ["0.5"] * 21 + ["0", "0.7"]),
                  ",".join([f"{i % 7 / 7:.6g}" for i in range(230)] + ["-0", "0"])),
}
COMPARE_SHA256 = {
    # (grid, model): digest
    ("signed-zeros", "quartit-interferometer"):
        "ecb6bb01f556e4cc68976642933ecac96cf1fd76c51efb61da230ee6bc7b2ecb",
    ("unsorted", "quartit-interferometer"):
        "e5a1ed1928521386c085c7ed55f823660bd2a5012aa75948bcbc7151f44dcdac",
    ("401x401", "quartit-interferometer"):
        "1a79573ce844895f9176cdd58453de9d48a897506d5cec91bab63a67370d2f79",
    ("signed-zeros", "linear-optics"):
        "d7e97c60e7f0fb6118c8db358640e8c6d329d3ea27e4bea93f99810bc32817af",
    ("unsorted", "linear-optics"):
        "d660614ec61ab61dfb560008c9fda72acc70d40e11348dad8609a81006c84f1e",
    ("401x401", "linear-optics"):
        "8a43cc7dc47f25b7f040577bf0a1b6e135b5b8a08b42682c6dcecd0234006881",
    ("signed-zeros", "deterministic"):
        "8d1724ee3dbf1e507cc70e9c0701a7f7186f5e4de0296dc35ed071234bb0a6a4",
    ("unsorted", "deterministic"):
        "20273a27cea286df23382df4ef55a3de386d1e85d6150baadc293f0960e3d141",
    ("401x401", "deterministic"):
        "531773d1cad8f4211cbcb148159f3107f9b3398bca033732e4016f17b135dfcc",
    ("blocks", "quartit-interferometer"):
        "67360ae91946ca823d4959d622e931c8bf3b984548773f30d5b3f2b07b9bb0a1",
    ("blocks", "linear-optics"):
        "364f0fd2c3051aa198ea6b68901e7d8f1709f8d78e3ceded1d122572e55deddd",
    ("blocks", "deterministic"):
        "51db081e41680712696e543927cf354ed8180154e0d4d4423d0d5fb41293909f",
    ("tied-runs", "quartit-interferometer"):
        "48d8f5d4fd906689867441f32095c601c2054e75b2fc57f499f68c1ada183494",
    ("tied-runs", "linear-optics"):
        "35a405f5d374b49cfb6cb50068e624e8a8745381cbd450db40b90466f2429303",
    ("tied-runs", "deterministic"):
        "47627219bc8682a7fd47c2300cb000c6efd7a213d0fa4ee7b6171826751f5d14",
}
COMPARE_DEFAULT_SHA256 = "715ad2038a6488262715186463d9ab18a2016bd634227f745330ccde1d5bfe17"
POVM_SHA256 = {
    # (--eta, --nu, --max-resolved, --cutoff): digest
    ("0", "0", 0, 0): "a51b7500d27571d263c307a93f3ff5023dee9a67d0b3daf52a45cec66fceb481",
    ("0", "0", 3, 2): "437df6a1d1d0d201a29ec1769d3e628f6e56a52281730984614e073495775829",
    ("0", "0", 5, 30): "1f00f116dfcaebbc6a37e50bb98c9ec12f9fb65d209875fc41b1c6bd6c0f341d",
    ("0", "0", 50, 200): "ddc77803cabd41494b61414a0b983ba3f5b374ae9b94bb58981a39d234ac5683",
    ("0", "0.05", 0, 0): "f40eb418dfd84341c5a773a005dce22cf76802893c540ad801d01c54f598f9cd",
    ("0", "0.05", 3, 2): "5e48da7d48cec0b27985c4b32e25e4419d0882d0e3b177fe7d6d69a05cfbdf1a",
    ("0", "0.05", 5, 30): "6ea44a69baf9fe6a1a6275a592fcbfb7eeb3ba4ae0d3377da179e2ca3d091ccb",
    ("0", "0.05", 50, 200): "17da99f1ffaa4f33c899633744a78603fa8e0d3ff739ea57bcb565cea87a687f",
    ("0.5", "0", 0, 0): "a51b7500d27571d263c307a93f3ff5023dee9a67d0b3daf52a45cec66fceb481",
    ("0.5", "0", 3, 2): "91b80abc3882004b7c32cbd8d78f578d9cc00ae4f2d0e58e42b09c0244dffbb6",
    ("0.5", "0", 5, 30): "d30e5e77c770010d26b080ac4772a6ff85616d4b515198b94052700fa977c443",
    ("0.5", "0", 50, 200): "4075f32c58a32d1720e729a77b46a9fb841a146002d65018d9aded2b7b5a4d12",
    ("0.5", "0.05", 0, 0): "f40eb418dfd84341c5a773a005dce22cf76802893c540ad801d01c54f598f9cd",
    ("0.5", "0.05", 3, 2): "2bbbb63717aad8770ed07dfa11f563f9a15f49390f56585da8365ae165cf9899",
    ("0.5", "0.05", 5, 30): "db5888b7fe497863e0bfa3c8167e7cd4e1ed2e84358d91a6a8d0438a82d7149a",
    ("0.5", "0.05", 50, 200): "d220b438e2d978b6a61be805a15b7f4187068fa6e03856e4748e1029d9343b1f",
    ("1", "0", 0, 0): "a51b7500d27571d263c307a93f3ff5023dee9a67d0b3daf52a45cec66fceb481",
    ("1", "0", 3, 2): "d3866093437d17a56ae874558d0bf2c6b70ab4faaedc40e4bc1f2e3fd3fba56b",
    ("1", "0", 5, 30): "e19bd37e17fe5932ea6121f3a359b1c0c83947d6282a617ca49e062af2ee434c",
    ("1", "0", 50, 200): "a938453b87814b18e6b1574f0ac1d664b81bc5ae13cbe69e97c78cc349037efe",
    ("1", "0.05", 0, 0): "f40eb418dfd84341c5a773a005dce22cf76802893c540ad801d01c54f598f9cd",
    ("1", "0.05", 3, 2): "146a2d7cd4b1264719aadc100fe0eb9996609ad737d3189396a294aab6021ed6",
    ("1", "0.05", 5, 30): "c20cb64be05d2fbc30943ba03628217d504fc162762759c4a8491ff5c31b39b3",
    ("1", "0.05", 50, 200): "0c8e67b16f9b9cd7e0ef47e2db32c3ef8fc359554997abc68b2bd506c3cc824b",
}

POVM_CLOSURE_SHA256 = {
    # (--eta, --nu, --max-resolved) at --cutoff 0, where the closure sums one column of K+1
    # weights: a pairwise sum there moves the last digits, e.g. rest,0,1.23911991778e-12
    ("0", "2.5", 8): "2c5dcd391fb1dd8c3c1033e4bbb505e027f2c812d2bc62c784103f256eb1622e",
    ("0", "2.5", 9): "f503b8e7a3991275b7611845f409002e78cce1d2d6817072368c9db7a5c421d8",
    ("0", "2.5", 33): "692319cf6d586e4ddc281f1ddbd083b39d75214c5f10e5fde50b15c2ed0aedfe",
    ("0", "2.5", 60): "c1d5e3a2e3c78a6a63ebafbb51b320095633cf34b3e46aee86fc02dcb251e2f5",
    ("0.5", "0.3", 8): "8b8817204adc2f4f2986256f8faaed003bf4b828d2b7e71715306d7f1eb4d9ed",
    ("0.5", "0.3", 9): "53baa4bcdaf34a1a68d822bd74fbbee9ad89af8f6995f4cc9c36c371e0be80d1",
    ("0.5", "0.3", 33): "340662f8cb1754b3ecbb8309c1eab5ea037602abf79c09b3863782c7db00cc13",
    ("0.5", "0.3", 60): "c01680b1c7ec730fcd5111ca6f4b7d8bcad9043ce7b12e6054ea2e1febeb1417",
}
REQUEST_CSV_SHA256 = {
    ("teleport", "--alpha=1.3,-0.4", "--n", "3", "--d", "2"):
        "c68cd3491502e7d4e8a11962e4d7ad4e667cac3ba7475791ac18bc0a96239e04",
    ("teleport", "--alpha=-0.7", "--n", "4", "--d", "3"):
        "1720ae940aa5c6614a016a735976950f79ee9d2880f18859ff05fbcc01ebc087",
    # unsorted pairs, (5, 2) and (1, 10) twice: repeated rows sit next to each other
    ("gains", "--d", "5,1,2,5,10,1", "--n", "2,10,5,2,1,10"):
        "5bdd786c84da0e888a6b056f282f58e89af6195b9793437a71d52dca0b1f1539",
}
# the bench's epr_sweep grid at V_s = 10, captured before the chi rows were cached
EPR_SWEEP_BENCH_GRID_SHA256 = "ad698445c9f6e701589d2654ff10e73e8aceb6eee33de5053ffa3c3f668b4ea5"


def csv_sha256(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


class TestGoldenBytes:
    @pytest.mark.parametrize("grid,model", sorted(COMPARE_SHA256))
    def test_compare(self, grid, model, capsys):
        eta, xi = COMPARE_GRIDS[grid]
        argv = ["compare", f"--eta={eta}", f"--xi={xi}", "--model", model]
        assert csv_sha256(argv, capsys) == COMPARE_SHA256[grid, model]

    def test_compare_default_grid(self, capsys):
        assert csv_sha256(["compare"], capsys) == COMPARE_DEFAULT_SHA256

    def test_signed_zero_rows_keep_stable_order(self, capsys):
        _, out, _ = run_cli(["compare", "--eta=0.5,-0,0", "--xi=0.3,0"], capsys)
        _, rows = parse_csv(out)
        assert [row[:2] for row in rows] == [
            ["-0", "0"], ["0", "0"], ["-0", "0.3"], ["0", "0.3"], ["0.5", "0"], ["0.5", "0.3"]
        ]

    @pytest.mark.parametrize("eta,nu,max_resolved,cutoff", sorted(POVM_SHA256))
    def test_povm(self, eta, nu, max_resolved, cutoff, capsys):
        argv = ["povm", "--eta", eta, "--nu", nu,
                "--max-resolved", str(max_resolved), "--cutoff", str(cutoff)]
        assert csv_sha256(argv, capsys) == POVM_SHA256[eta, nu, max_resolved, cutoff]

    @pytest.mark.parametrize("eta,nu,max_resolved", sorted(POVM_CLOSURE_SHA256))
    def test_povm_closure_of_one_level(self, eta, nu, max_resolved, capsys):
        argv = ["povm", "--eta", eta, "--nu", nu, "--max-resolved", str(max_resolved),
                "--cutoff", "0"]
        assert csv_sha256(argv, capsys) == POVM_CLOSURE_SHA256[eta, nu, max_resolved]

    @pytest.mark.parametrize("argv", sorted(REQUEST_CSV_SHA256))
    def test_teleport_and_gains(self, argv, capsys):
        assert csv_sha256(list(argv), capsys) == REQUEST_CSV_SHA256[argv]


class TestEprSweepBytes:
    def test_bench_grid_csv_is_pinned(self, capsys):
        argv = ["epr-sweep", "--vs", "10", "--d", "1:10", "--n", "1:100"]
        assert csv_sha256(argv, capsys) == EPR_SWEEP_BENCH_GRID_SHA256


class TestErrorPath:
    """Every bad input ends in one `error:` line and exit 2, never a traceback."""

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_config_error(self, where, tmp_path, capsys):
        out_path = tmp_path / "no" / "such" / "x.csv" if where == "missing-dir" else tmp_path
        code, out, err = run_cli(["gains", "--out", str(out_path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, name", [
        (["teleport", "--alpha", "inf", "--n", "2", "--d", "1"], "alpha"),
        (["teleport", "--alpha", "nan", "--n", "2", "--d", "1"], "alpha"),
        (["teleport", "--alpha", "1,-inf", "--n", "2", "--d", "1"], "alpha"),
        (["epr-sweep", "--vs", "inf"], "v_s"),
        (["epr-sweep", "--vs", "nan"], "v_s"),
        # |alpha| past the limit shares the message
        (["teleport", "--alpha", "200", "--n", "2", "--d", "1"], "alpha"),
        (["teleport", "--alpha", "1e8", "--n", "2", "--d", "1"], "alpha"),
        (["teleport", "--alpha", "1e20", "--n", "2", "--d", "1"], "alpha"),
        (["teleport", "--alpha", "1e200", "--n", "2", "--d", "1"], "alpha"),
        (["teleport", "--alpha", "1.7e308,1.7e308", "--n", "2", "--d", "1"], "alpha"),
    ])
    def test_non_finite_input_is_config_error(self, argv, name, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {name} must be finite") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["teleport", "--alpha", "1", "--n", "1,2", "--d", "1"],
        ["teleport", "--alpha", "1", "--n", "2", "--d", "1:2"],
        ["povm", "--eta", "0.5,0.6"],
        ["povm", "--nu", "0:0.1:3"],
    ])
    def test_single_value_options_reject_lists(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["epr-sweep", "--vs", "10", "--d", "1", "--n", "1:100000000000"],
        ["compare", "--eta", "0:1:100000000000", "--xi", "0:1:3"],
        ["compare", "--eta", ",".join(["0"] * (10**6 + 1))],
    ])
    def test_oversized_grid_is_usage_error(self, argv, capsys):
        # refused before the range or linspace is built, not a MemoryError
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"at most {cli._GRID_LIMIT}" in captured.err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", ["0:inf:3", "-inf:0:3", "nan:1:2", "-1e308:1e308:3"])
    def test_non_finite_grid_span_is_usage_error(self, grid, capsys):
        # refused in the parser, before linspace can warn and emit nan
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["compare", f"--eta={grid}"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite grid" in captured.err

    @pytest.mark.parametrize("argv", [
        ["povm", "--cutoff", "1000000"],
        ["povm", "--cutoff", "999999999"],
        ["povm", "--max-resolved", "1000", "--cutoff", "998"],
    ])
    def test_povm_past_row_limit_is_config_error(self, argv, capsys):
        # (max_resolved + 2) * (cutoff + 1) rows, refused before any table is built
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: budget exceeded: --max-resolved") and err.count("\n") == 1

    def test_gains_past_row_limit_is_refused_before_any_gain(self, capsys, monkeypatch):
        # 200 pairs of (1, 5000) print 200 * 5001 = 1,000,200 rows
        def no_gains(params):
            raise AssertionError("a gain was built")

        monkeypatch.setattr(teleport, "gain_vector", no_gains)
        argv = ["gains", "--d", ",".join(["1"] * 200), "--n", ",".join(["5000"] * 200)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err == "error: budget exceeded: the (d, N) pairs give 1000200 rows, " \
                      "past the 1000000 row limit\n"

    @pytest.mark.parametrize("argv, built, message", [
        # 1,001 repeated d times 1,000 N: every pair fits the photon budget, not the row limit
        (["--d", ",".join(["1"] * 1001), "--n", "1:1000"], [],
         "the (d, N) grid gives 1001000 rows, past the 1000000 row limit"),
        (["--d", "1:3000", "--n", "1:3000"], [],
         "the (d, N) grid gives 9000000 rows, past the 1000000 row limit"),
        (["--d", "1:3", "--n", "1:5000"], [(5000, 3)],
         "N*d = 15000 passes the 10000 photon-number budget"),
    ], ids=["repeated-d", "3000-by-3000", "largest-pair"])
    def test_epr_sweep_refusals_come_before_any_cell(self, argv, built, message, capsys,
                                                     monkeypatch):
        def no_cells(squeeze, params):
            raise AssertionError("a cell was evaluated")

        made, build = [], teleport.SchemeParams

        def recorded(n, d):
            made.append((n, d))
            return build(n, d)

        monkeypatch.setattr(teleport, "teleport_epr", no_cells)
        monkeypatch.setattr(teleport, "SchemeParams", recorded)
        code, out, err = run_cli(["epr-sweep", *argv], capsys)
        assert code == 2 and out == "" and made == built
        assert err == f"error: budget exceeded: {message}\n"

    @pytest.mark.parametrize("limit, code", [(9, 2), (10, 0)])
    def test_epr_sweep_row_limit_boundary(self, limit, code, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_GRID_LIMIT", limit)
        got, out, err = run_cli(["epr-sweep", "--d", "1,2", "--n", "1:5"], capsys)
        assert got == code and (err.startswith("error: budget exceeded") or out.count("\n") == 11)

    @pytest.mark.parametrize("limit, code", [(9, 2), (10, 0)])
    def test_gains_row_limit_boundary(self, limit, code, capsys, monkeypatch):
        # two pairs at d*N = 4 print 2 * 5 = 10 rows
        monkeypatch.setattr(cli, "_GRID_LIMIT", limit)
        got, out, err = run_cli(["gains", "--d", "1,2", "--n", "4,2"], capsys)
        assert got == code and (err.startswith("error: budget exceeded") or out.count("\n") == 11)

    def test_compare_past_row_limit_is_refused_before_any_axis(self, capsys, monkeypatch):
        # 3 eta by 4 xi print 12 rows
        def no_axes(*args):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(cli, "_GRID_LIMIT", 11)
        monkeypatch.setattr(detectors, "comparison_axes", no_axes)
        code, out, err = run_cli(["compare", "--eta", "0:1:3", "--xi", "0:1:4"], capsys)
        assert code == 2 and out == ""
        assert err == "error: budget exceeded: the (eta, xi) grid gives 12 rows, " \
                      "past the 11 row limit\n"

    def test_compare_at_row_limit_prints(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_GRID_LIMIT", 12)
        code, out, _ = run_cli(["compare", "--eta", "0:1:3", "--xi", "0:1:4"], capsys)
        assert code == 0 and out.count("\n") == 13

    @pytest.mark.parametrize("argv, log_p", [
        (["teleport", "--alpha", "30", "--n", "3", "--d", "2"], "-869.889"),
        (["teleport", "--alpha", "100", "--n", "2", "--d", "1"], "-9983.66"),
    ])
    def test_underflowing_success_is_reported_in_logs(self, argv, log_p, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err == (
            f"error: vanishing state: P_suc underflows double precision, log P_suc = {log_p}\n"
        )

    def test_underflowing_file_input_is_reported_in_logs(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_text("1e-200,0\n0,0\n1,0\n")
        code, out, err = run_cli(["teleport", str(path), "--n", "1", "--d", "1"], capsys)
        assert code == 2 and out == ""
        assert err == (
            "error: vanishing state: P_suc underflows double precision, log P_suc = -921.034\n"
        )

    @pytest.mark.parametrize("argv", [
        ["epr-sweep", "--vs", "10", "--d", "1", "--n", "1:999999"],
        ["epr-sweep", "--vs", "10", "--d", "100,101", "--n", "100"],
        ["gains", "--d", "1", "--n", "10001"],
        ["teleport", "--alpha", "1", "--n", "10001", "--d", "1"],
    ])
    def test_closed_form_past_photon_budget_is_config_error(self, argv, capsys):
        # every (N, d) is checked before any is evaluated
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: budget exceeded: N*d = ") and err.count("\n") == 1


_NUMBERS = st.one_of(
    st.integers(-3 * 10**6, 3 * 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["", " ", "inf", "-inf", "nan", "1e308", "-1e308", "1_0", "0x1", "1e999"]),
)
_GRID_TEXTS = st.one_of(
    st.text(alphabet="0123456789:,.-+e inf", max_size=16),
    st.lists(_NUMBERS, min_size=1, max_size=4).map(",".join),
    st.lists(_NUMBERS, min_size=1, max_size=4).map(":".join),
    st.tuples(_NUMBERS, _NUMBERS, st.integers(-2, 10**6 + 2).map(str)).map(":".join),
)


class TestGridGrammar:
    """Every text either parses to at most _GRID_LIMIT entries or is a usage error."""

    @pytest.mark.parametrize("parse", [cli._parse_int_list, cli._parse_float_grid])
    @given(text=_GRID_TEXTS)
    @example(text="0:1.7976931348623157e+308:73")  # finite span whose linspace step overflows
    @settings(max_examples=300, deadline=None)
    def test_parsers_return_a_bounded_tuple_or_refuse(self, parse, text):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = parse(text)
        except argparse.ArgumentTypeError:
            return
        assert isinstance(values, tuple) and 1 <= len(values) <= cli._GRID_LIMIT


class TestCachedParser:
    GAINS = ["gains", "--d", "1,2,4", "--n", "4,2,1"]
    COMPARE = ["compare", "--eta", "0:1:7", "--xi=0.9,-0,0.2", "--model", "linear-optics"]

    def test_errors_leave_the_shared_parser_intact(self, capsys):
        fresh = []
        for argv in (self.GAINS, self.COMPARE):
            cli._build_parser.cache_clear()
            fresh.append(run_cli(argv, capsys))
        cli._build_parser.cache_clear()
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["compare", "--eta", "nope"])
        assert excinfo.value.code == 2
        assert run_cli(["gains", "--d", "1,2", "--n", "3,2"], capsys)[0] == 2
        assert run_cli(self.GAINS, capsys) == fresh[0]
        assert run_cli(self.COMPARE, capsys) == fresh[1]
        assert cli._build_parser() is cli._build_parser()


# sha256 of the five figure datasets, as written before compare and povm were
# vectorized
FIGURE_SHA256 = {
    "gains.csv": "b3c830d47aaa5ade76989ad867cd891b9d2d8162bd3ce5d962eca83f5cced8aa",
    "epr_sweep_vs10.csv": "0a290156eed9f9d89078cc8453a82fa8750794c3f8edbfcbc63367a95426be10",
    "epr_sweep_vs3.csv": "ec6460ad2cce1422aed7bc287fbc8ca80582acd3e8d98b52dbac04e0ed3df732",
    "advantage.csv": "c546512e6082ca12db06b8ff882497ee36a1dd2ff1e31878c79d9a5cf62b2dfa",
    "povm_apd.csv": "1db2d45f2d8692bccf8b09ea884960ce7107d822aba9e3f607c828fba255e8f0",
}


def test_reproduce_figures_manifest(tmp_path, capsys, monkeypatch):
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
    spec = importlib.util.spec_from_file_location("reproduce_figures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--outdir", str(tmp_path)])
    assert module.main() == 0
    out = capsys.readouterr().out
    assert out == "".join(f"wrote {tmp_path / name}\n" for name in FIGURE_SHA256)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["quditcv"] == quditcv.__version__
    assert manifest["numpy"] == np.__version__
    assert manifest["python"] == platform.python_version()
    assert [job["argv"] for job in manifest["jobs"]] == [argv for _, argv in module.JOBS]
    for job in manifest["jobs"]:
        data = (tmp_path / job["csv"]).read_bytes()
        assert job["sha256"] == hashlib.sha256(data).hexdigest() == FIGURE_SHA256[job["csv"]]


class TestRefusalsNotReachedElsewhere:
    @pytest.mark.parametrize("alpha", ["1,2,3", "x", "1,y", ""])
    def test_bad_alpha_is_usage_error(self, alpha, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["teleport", "--alpha", alpha, "--n", "2", "--d", "1"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"expected re or re,im for a coherent amplitude, got {alpha!r}" in captured.err

    @pytest.mark.parametrize("text", ["", "\n\n", "  \n"], ids=["empty", "blank", "spaces"])
    def test_file_without_amplitudes_is_config_error(self, text, tmp_path, capsys):
        infile = tmp_path / "empty.txt"
        infile.write_text(text)
        code, out, err = run_cli(["teleport", str(infile), "--n", "2", "--d", "1"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {infile}: no amplitudes found\n"

    def test_crashing_suite_fails_and_names_its_error(self, capsys, monkeypatch):
        def crash():
            raise RuntimeError("suite crashed")

        monkeypatch.setattr(cli, "_suite_povm_completeness", crash)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 1
        lines = out.splitlines()
        (line,) = [line for line in lines if " povm-completeness " in line]
        assert "max deviation inf " in line and line.endswith("FAIL  (suite crashed)")
        assert sum("PASS" in line for line in lines) == 5
        assert lines[-1] == "verification FAILED"


# sha256 of CSVs whose floats are printed in one `%` pass per chunk and that no pin above
# covered, captured while each float was still printed by its own f-string
EPR_SWEEP_SHA256 = {
    # extra flags: digest; the default grid at the default V_s = 10, then the two figure sweeps
    (): "0a290156eed9f9d89078cc8453a82fa8750794c3f8edbfcbc63367a95426be10",
    ("--vs", "10"): "0a290156eed9f9d89078cc8453a82fa8750794c3f8edbfcbc63367a95426be10",
    ("--vs", "3"): "ec6460ad2cce1422aed7bc287fbc8ca80582acd3e8d98b52dbac04e0ed3df732",
}
# -0.0 imaginary parts, which print as 0 (the normalization's division by a real norm drops
# the sign), and entries that print in e-notation
AMPLITUDE_TEXT = "0.8,0.1\n3e-7,-0.0\n-2.5e-9,1e-12\n0.4,-0\n1e-5,-3e-6\n"
TELEPORT_FILE_SHA256 = {
    # (--n, --d): digest
    (1, 1): "b301e240bad40ab7e4923d6e2e3863860c3e00e47cf70bf3d5e18e88e201187f",
    (2, 3): "2cccc26211541814cdd02754e374d2dad3424a3dda1051b35733eabf95e269be",
    (3, 2): "ce92838270fe8aa28c3723ac87facff88add66460c69277eb694a11615aceded",
}
GAINS_PAST_EXACT_SHA256 = {
    # (--d, --n) at N*d = 100, served by the log path; (10, 10) listed twice: digest
    ("1,10", "100,10"): "7285fdb7624feaad23fe889089af14344965d6ec979ef7534870ed588bebe019",
    ("10,1,10,2,5", "10,100,10,50,20"):
        "82cdaf12e4223062b27548eaa8a0d894428adf3889b9c98b86f348400eb131d8",
}


class TestOnePassBytes:
    @pytest.mark.parametrize("flags", sorted(EPR_SWEEP_SHA256))
    def test_epr_sweep(self, flags, capsys):
        assert csv_sha256(["epr-sweep", *flags], capsys) == EPR_SWEEP_SHA256[flags]

    @pytest.mark.parametrize("n,d", sorted(TELEPORT_FILE_SHA256))
    def test_teleport_from_a_file(self, n, d, tmp_path, capsys):
        infile = tmp_path / "state.txt"
        infile.write_text(AMPLITUDE_TEXT)
        argv = ["teleport", str(infile), "--n", str(n), "--d", str(d)]
        assert csv_sha256(argv, capsys) == TELEPORT_FILE_SHA256[n, d]

    @pytest.mark.parametrize("d,n", sorted(GAINS_PAST_EXACT_SHA256))
    def test_gains_past_the_exact_limit(self, d, n, capsys):
        assert csv_sha256(["gains", "--d", d, "--n", n], capsys) == GAINS_PAST_EXACT_SHA256[d, n]

    @given(value=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(value=0.0)
    @example(value=-0.0)
    @example(value=5e-324)  # the smallest subnormal
    @example(value=-2.2250738585072014e-308)
    @example(value=math.inf)
    @example(value=-math.inf)
    @example(value=math.nan)
    @example(value=-math.nan)
    @example(value=1e-4)  # the switch points to and from e-notation, and their neighbours
    @example(value=9.99999999999949e-05)
    @example(value=9.9999999999995e-05)
    @example(value=999999999999.4)
    @example(value=999999999999.5)
    @example(value=1e12)
    @settings(max_examples=2000, deadline=None)
    def test_percent_template_prints_what_format_prints(self, value):
        assert "%.12g" % value == format(value, ".12g")
        assert "%.12g" % np.float64(value) == format(np.float64(value), ".12g")
