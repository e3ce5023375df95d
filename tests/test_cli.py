"""
Command-line interface tests, run in-process through ``qihe.cli.main``.

Exit-code contract:
    0  success
    1  verification suite reported a failure
    2  invalid configuration or input (bad values, missing files)
    3  requested dimension exceeds the capacity limit
    64 command-line usage errors
"""

import json

import numpy as np
import pytest

from qihe.cli import main
from qihe.coding import (
    holevo_chi,
    orthogonal_pure_alphabet,
    save_alphabet,
    zero_plus_alphabet,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def walk_numeric_units(node, path=""):
    """Yield (path, has_units) for every numeric leaf in a report document."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key.endswith("_units"):
                continue
            sub = f"{path}.{key}" if path else key
            if isinstance(value, (dict, list)):
                yield from walk_numeric_units(value, sub)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                yield sub, f"{key}_units" in node
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from walk_numeric_units(value, f"{path}[{i}]")


class TestWorkCommand:
    def test_pure_qubit_default(self, capsys):
        code, out, _ = run_cli(capsys, "work", "--state", "pure-qubit")
        assert code == 0
        doc = json.loads(out)
        assert doc["work"] == 1.0
        assert doc["work_units"] == "bit-unit"

    def test_si_units(self, capsys):
        code, out, _ = run_cli(
            capsys, "work", "--state", "pure-qubit", "--units", "SI", "--temperature", "300"
        )
        doc = json.loads(out)
        np.testing.assert_allclose(doc["work"], 1.380649e-23 * np.log(2) * 300, rtol=1e-12)
        assert doc["work_units"] == "J"

    def test_maximally_mixed_is_worthless(self, capsys):
        code, out, _ = run_cli(capsys, "work", "--state", "maximally-mixed", "--d", "4")
        assert json.loads(out)["work"] == 0.0

    def test_every_numeric_field_names_its_units(self, capsys):
        _, out, _ = run_cli(capsys, "work", "--state", "bell-pair")
        doc = json.loads(out)
        missing = [p for p, ok in walk_numeric_units(doc) if not ok]
        assert missing == []

    def test_pretty_output(self, capsys):
        code, out, _ = run_cli(capsys, "work", "--state", "pure-qubit", "--output", "pretty")
        assert code == 0
        assert "work: 1.0" in out


class TestCarnotCommand:
    def test_oracle_value(self, capsys):
        _, out, _ = run_cli(capsys, "carnot", "--t-low", "300", "--t-high", "600")
        doc = json.loads(out)
        np.testing.assert_allclose(
            doc["work_per_qubit"], 1.380649e-23 * np.log(2) * 300, rtol=1e-12
        )
        assert doc["efficiency"] == 0.5
        assert doc["work_per_qubit_units"] == "J"

    def test_bad_temperature_is_a_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "carnot", "--t-low", "-5", "--t-high", "600")
        assert code == 2


class TestProtocolCommands:
    def test_bell_reports_two_bits(self, capsys):
        _, out, _ = run_cli(capsys, "protocol", "bell")
        doc = json.loads(out)
        assert doc["parties"]["B"]["work"] == 2.0

    def test_bell_intercepted(self, capsys):
        _, out, _ = run_cli(capsys, "protocol", "bell", "--intercept")
        doc = json.loads(out)
        assert abs(doc["interceptor"]["work"]) <= 1e-12

    def test_classical_pair_is_half(self, capsys):
        _, out, _ = run_cli(capsys, "protocol", "classical")
        assert json.loads(out)["parties"]["B"]["work"] == 1.0

    def test_ghz_unlock(self, capsys):
        _, out, _ = run_cli(capsys, "protocol", "ghz", "--n", "4", "--initiator", "1")
        doc = json.loads(out)
        assert doc["parties"]["A2"]["work"] == 0.0
        for pid in ("A1", "A3", "A4"):
            assert doc["parties"][pid]["work"] == 1.0

    def test_ghz_capacity_limit(self, capsys):
        code, _, _ = run_cli(capsys, "protocol", "ghz", "--n", "30")
        assert code == 3

    @pytest.mark.parametrize("which", ["ghz", "parity"])
    def test_capacity_flag_bounds_the_register(self, capsys, which):
        code, out, err = run_cli(capsys, "protocol", which, "--n", "5", "--capacity", "8")
        assert code == 3
        assert out == ""
        assert "capacity" in err
        code, _, _ = run_cli(capsys, "protocol", which, "--n", "3", "--capacity", "8")
        assert code == 0

    def test_parity_reveal(self, capsys):
        _, out, _ = run_cli(
            capsys, "protocol", "parity", "--n", "3", "--reveal", "0:1", "--reveal", "1:0"
        )
        doc = json.loads(out)
        assert doc["parties"]["A3"]["work"] == 1.0
        assert doc["broadcast_log"] == [["A1", 1], ["A2", 0]]

    def test_parity_trials_report(self, capsys):
        _, out, _ = run_cli(
            capsys, "protocol", "parity", "--n", "4", "--trials", "3", "--seed", "9"
        )
        doc = json.loads(out)
        assert doc["trials"] == 3
        assert doc["worst_rho1_deviation"] < 1e-9
        assert doc["worst_rho12_deviation"] < 1e-9

    def test_parity_contradictory_evidence(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "protocol", "parity", "--n", "3",
            "--reveal", "0:1", "--reveal", "1:0", "--reveal", "2:0",
        )
        assert code == 2

    def test_malformed_reveal_spec(self, capsys):
        code, _, _ = run_cli(capsys, "protocol", "parity", "--n", "3", "--reveal", "0=1")
        assert code == 2


class TestCodingCommands:
    def test_holevo_from_alphabet_file(self, capsys, tmp_path):
        path = str(tmp_path / "zp.json")
        save_alphabet(zero_plus_alphabet(), path)
        _, out, _ = run_cli(capsys, "holevo", "--alphabet", path)
        doc = json.loads(out)
        np.testing.assert_allclose(doc["chi_bits"], holevo_chi(zero_plus_alphabet()), rtol=1e-12)

    def test_missing_alphabet_file(self, capsys):
        code, _, _ = run_cli(capsys, "holevo", "--alphabet", "/nonexistent/alpha.json")
        assert code == 2

    def test_corrupt_alphabet_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "holevo", "--alphabet", str(path))
        assert code == 2

    def test_tradeoff_csv_block_sweep(self, capsys, tmp_path):
        path = str(tmp_path / "zp.json")
        save_alphabet(zero_plus_alphabet(), path)
        code, out, _ = run_cli(
            capsys, "tradeoff", "--alphabet", path, "--block", "3", "--output", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header == "n,comm_bits_per_letter,energy_bits_per_letter"
        assert len(rows) == 3
        rates = [float(r.split(",")[2]) for r in rows]
        assert rates == sorted(rates)  # energy rate per letter is nondecreasing

    def test_csv_refused_for_scalar_reports(self, capsys):
        code, _, _ = run_cli(capsys, "work", "--output", "csv")
        assert code == 2

    def test_typical_subspace_command(self, capsys):
        _, out, _ = run_cli(
            capsys, "typical", "--p", "0.9", "--L", "8", "--delta", "0.2"
        )
        doc = json.loads(out)
        assert doc["dim"] == 8
        np.testing.assert_allclose(doc["capture_probability"], 0.38263752, atol=1e-7)

    def test_refactor_command_includes_unitary_check_for_small_blocks(self, capsys, tmp_path):
        path = str(tmp_path / "orth.json")
        save_alphabet(orthogonal_pure_alphabet(), path)
        _, out, _ = run_cli(capsys, "refactor", "--alphabet", path, "--L", "2", "--delta", "0.1")
        doc = json.loads(out)
        assert doc["net_per_letter"] == 0.0
        assert doc["unitarity_residual"] == 0.0
        assert doc["mapping_residual"] == 0.0
        assert doc["typical_dim"] == 4

    def test_refactor_non_diagonal_alphabet_at_long_blocks(self, capsys, tmp_path):
        path = str(tmp_path / "zp.json")
        save_alphabet(zero_plus_alphabet(), path)
        code, out, _ = run_cli(
            capsys, "refactor", "--alphabet", path, "--L", "2000", "--delta", "0.03"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lower_bound"] <= doc["net_per_letter"] <= doc["upper_bound"]
        assert "unitarity_residual" not in doc

    def test_refactor_large_block_skips_the_matrix(self, capsys, tmp_path):
        path = str(tmp_path / "orth.json")
        save_alphabet(orthogonal_pure_alphabet(), path)
        _, out, _ = run_cli(capsys, "refactor", "--alphabet", path, "--L", "10", "--delta", "0.1")
        doc = json.loads(out)
        assert doc["net_per_letter"] == 0.0
        assert "unitarity_residual" not in doc
        assert doc["typical_dim"] == 1024


class TestUsageAndDeterminism:
    def test_unknown_flag_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "work", "--no-such-flag")
        assert code == 64
        assert "usage" in err.lower()

    def test_unknown_command_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 64

    def test_no_arguments_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 64

    def test_capacity_flag_validated(self, capsys):
        code, _, _ = run_cli(capsys, "work", "--capacity", "2")
        assert code == 2

    def test_malformed_capacity_environment_is_a_validation_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QIHE_MAX_DIM", "abc")
        code, out, err = run_cli(capsys, "work")
        assert code == 2
        assert out == ""
        assert "QIHE_MAX_DIM" in err
        assert "Traceback" not in err

    def test_capacity_environment_is_the_default_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("QIHE_MAX_DIM", "8")
        code, _, _ = run_cli(capsys, "protocol", "ghz", "--n", "4")
        assert code == 3
        code, _, _ = run_cli(capsys, "protocol", "ghz", "--n", "3")
        assert code == 0

    def test_json_reports_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "protocol", "parity", "--n", "4", "--trials", "5", "--seed", "9")
        _, second, _ = run_cli(capsys, "protocol", "parity", "--n", "4", "--trials", "5", "--seed", "9")
        assert first == second

    def test_verify_exits_zero_and_reports_every_criterion(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert len(doc["criteria"]) == 9
        for i in range(1, 10):
            assert f"criterion {i}" in err
