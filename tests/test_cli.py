"""CLI behaviour: CSV shape, determinism, exit codes, verification gate."""

import csv
import math

import numpy as np
import pytest

from quditcv import cli, detectors, teleport


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

    def test_vs_below_one_rejected(self, capsys):
        code, _, err = run_cli(["epr-sweep", "--vs", "0.5"], capsys)
        assert code == 2
        assert "--vs" in err


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

    def test_unknown_model_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["compare", "--model", "nonsense"])
        assert excinfo.value.code == 2

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

    def test_zero_state_is_config_error(self, tmp_path, capsys):
        infile = tmp_path / "zero.txt"
        infile.write_text("0,0\n0,0\n")
        code, _, _ = run_cli(["teleport", str(infile), "--n", "1", "--d", "1"], capsys)
        assert code == 2


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
        assert len(lines) == 6
        assert all("PASS" in line for line in lines[:5])
        assert lines[-1] == "verification passed"
        for name in (
            "combinatorics-identities",
            "gain-bounds",
            "oracle-equivalence",
            "protocol-identity",
            "povm-completeness",
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
