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
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qihe.cli
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


def unit_table(node, table=None):
    """Map every numeric field name in a report to its ``_units`` label.

    Fails on a numeric field without a label, and on a name that carries
    two different labels within one report.
    """
    table = {} if table is None else table
    if isinstance(node, dict):
        for key, value in node.items():
            if key.endswith("_units"):
                continue
            if isinstance(value, (dict, list)):
                unit_table(value, table)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                unit = node.get(f"{key}_units")
                assert unit is not None, f"{key} has no units"
                assert table.setdefault(key, unit) == unit, f"{key} is labelled two ways"
    elif isinstance(node, list):
        for value in node:
            unit_table(value, table)
    return table


def _protocol_units(energy, **extra):
    return {"entropy_delta_bits": "bit", "landauer_reset": energy, "work": energy, **extra}


def _refactor_units(energy):
    return {
        "L": "dimensionless", "delta": "dimensionless", "epsilon": "dimensionless",
        "lower_bound": energy, "mapping_residual": "dimensionless",
        "net_per_letter": energy, "success_probability": "dimensionless",
        "typical_dim": "dimensionless", "unitarity_residual": "dimensionless",
        "upper_bound": energy, "w1": energy, "w_ancilla": energy,
    }


# The label of every numeric field, per report, as the CLI has always written it.
UNIT_TABLES = [
    ("work-bell-pair", "work --state bell-pair",
     {"dimension": "dimensionless", "entropy_bits": "bit", "temperature": "K",
      "work": "bit-unit", "work_bits": "bit"}),
    ("work-si", "work --state maximally-mixed --d 3 --units SI",
     {"dimension": "dimensionless", "entropy_bits": "bit", "temperature": "K",
      "work": "J", "work_bits": "bit"}),
    ("carnot", "carnot --t-low 300 --t-high 600",
     {"efficiency": "dimensionless", "heat_from_hot": "J", "t_high": "K", "t_low": "K",
      "work_per_qubit": "J"}),
    ("protocol-bell", "protocol bell --intercept", _protocol_units("bit-unit")),
    ("protocol-bell-si", "protocol bell --units SI", _protocol_units("J")),
    ("protocol-classical", "protocol classical", _protocol_units("bit-unit")),
    ("protocol-ghz", "protocol ghz --n 3",
     _protocol_units("bit-unit", initiator="dimensionless", n="dimensionless")),
    ("protocol-parity-reveal", "protocol parity --n 3 --reveal 0:1 --reveal 1:0",
     _protocol_units("bit-unit", n="dimensionless")),
    ("protocol-parity-trials", "protocol parity --n 3 --trials 2",
     {"n": "dimensionless", "seed": "dimensionless", "trials": "dimensionless",
      "worst_rho12_deviation": "dimensionless", "worst_rho1_deviation": "dimensionless"}),
    ("holevo", "holevo --alphabet {alphabet}",
     {"avg_letter_entropy_bits": "bit", "chi_bits": "bit", "dims": "dimensionless",
      "ensemble_entropy_bits": "bit", "n_letters": "dimensionless"}),
    ("tradeoff", "tradeoff --alphabet {alphabet} --block 2",
     {"avg_letter_entropy_bits": "bit", "capacity_bits": "bit", "comm_bits": "bit",
      "comm_bits_per_letter": "dimensionless", "energy_bits": "bit",
      "energy_bits_per_letter": "dimensionless", "n": "dimensionless"}),
    ("typical", "typical --p 0.9 --L 8 --delta 0.2",
     {"L": "dimensionless", "capture_probability": "dimensionless",
      "delta": "dimensionless", "dim": "dimensionless", "dim_bound_bits": "bit",
      "p": "dimensionless", "source_entropy_bits": "bit"}),
    ("refactor", "refactor --alphabet {alphabet} --L 3 --delta 0.5",
     _refactor_units("bit-unit")),
    ("refactor-si", "refactor --alphabet {alphabet} --L 3 --delta 0.5 --units SI",
     _refactor_units("J")),
    ("verify", "verify --seed 7",
     {"bell_work": "bit-unit", "ceiling": "dimensionless", "channels_per_n": "dimensionless",
      "chi_eigenvalue_oracle": "dimensionless", "chi_error": "dimensionless",
      "chi_zero_plus": "dimensionless", "classical_work": "bit-unit",
      "endpoint_error": "dimensionless", "epsilon": "dimensionless",
      "interceptor_work": "bit-unit", "lower_bound": "bit-unit",
      "natural_work": "bit-unit", "net_per_letter": "bit-unit", "number": "dimensionless",
      "seed": "dimensionless", "si_relative_error": "dimensionless", "si_work": "J",
      "trials": "dimensionless", "upper_bound": "bit-unit",
      "worst_completion_entropy": "bit", "worst_identity_residual": "dimensionless",
      "worst_mapping_residual": "dimensionless",
      "worst_marginal_deviation": "dimensionless", "worst_oracle_error": "dimensionless",
      "worst_reduced_state_deviation": "dimensionless",
      "worst_relative_residual": "dimensionless",
      "worst_unitarity_residual": "dimensionless"}),
]


class TestReportUnits:
    @pytest.mark.parametrize(
        "command, expected", [(cmd, units) for _, cmd, units in UNIT_TABLES],
        ids=[case_id for case_id, _, _ in UNIT_TABLES],
    )
    def test_every_numeric_field_names_its_units(self, capsys, tmp_path, command, expected):
        path = str(tmp_path / "zp.json")
        save_alphabet(zero_plus_alphabet(), path)
        code, out, _ = run_cli(capsys, *command.format(alphabet=path).split())
        assert code == 0
        assert unit_table(json.loads(out)) == expected

    def test_import_leaves_scipy_unloaded(self):
        # nor does a full verify or a run of the Haar-channel parity trials
        src = os.path.dirname(os.path.dirname(qihe.cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        for argv in ([], ["verify", "--seed", "7"],
                     ["protocol", "parity", "--n", "4", "--trials", "2"]):
            probe = ("import sys, qihe.cli; argv = sys.argv[1:]; "
                     "code = qihe.cli.run(argv) if argv else 0; "
                     "print(code, 'scipy' in sys.modules)")
            out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, check=True,
                                 capture_output=True, text=True).stdout
            assert out.splitlines()[-1] == "0 False", argv


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

    @pytest.mark.parametrize("d", ["0", "-3"])
    def test_dimension_below_one_names_the_flag(self, capsys, d):
        code, out, err = run_cli(capsys, "work", "--state", "maximally-mixed", "--d", d)
        assert code == 2
        assert out == ""
        assert "--d" in err

    def test_dimension_above_the_cap_is_a_capacity_error(self, capsys):
        code, out, err = run_cli(capsys, "work", "--state", "maximally-mixed", "--d", "10000000")
        assert code == 3
        assert out == ""
        assert "capacity" in err
        assert "Traceback" not in err

    # classical-pair: three calls validate the mixture and its two components,
    # and one takes its entropy
    @pytest.mark.parametrize("state, eigvalsh_calls", [
        ("pure-qubit", 0), ("bell-pair", 0), ("maximally-mixed", 0), ("classical-pair", 4),
    ])
    def test_one_entropy_per_state(self, capsys, monkeypatch, state, eigvalsh_calls):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(np.shape(a)) or eigvalsh(a))
        code, out, _ = run_cli(capsys, "work", "--state", state, "--d", "8")
        assert code == 0
        assert len(calls) == eigvalsh_calls
        doc = json.loads(out)
        assert doc["work_bits"] == math.log2(doc["dimension"]) - doc["entropy_bits"]

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

    @pytest.mark.parametrize("extra", [
        ("ghz",), ("parity", "--trials", "2"), ("parity", "--reveal", "0:1"),
    ], ids=["ghz", "parity-trials", "parity-reveal"])
    def test_capacity_flag_raises_the_environment_cap(self, capsys, monkeypatch, extra):
        monkeypatch.setenv("QIHE_MAX_DIM", "8")
        code, _, _ = run_cli(capsys, "protocol", *extra, "--n", "4")
        assert code == 3
        code, _, _ = run_cli(capsys, "protocol", *extra, "--n", "4", "--capacity", "16")
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

    @pytest.mark.parametrize("n", ["2", "1", "-3"])
    def test_parity_trials_need_three_qubits(self, capsys, n):
        code, out, err = run_cli(capsys, "protocol", "parity", "--n", n, "--trials", "2")
        assert code == 2
        assert out == ""
        assert "n >= 3" in err

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

    @pytest.mark.parametrize("text, names", [
        ('{"dims": 2, "letters": [1], "probs": [1]}', "'letters'"),
        ('{"dims": 2, "letters": [[[1, 0], [0, 0]]], "probs": [1]}', "'letters'"),
        ('[{"dims": 2}]', "JSON object"),
        ('{"dims": 2, "letters": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]], "probs": null}',
         "'probs'"),
        ('{"letters": [], "probs": []}', "'dims'"),
        ('{"dims": 2, "letters": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], '
         '[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]], "probs": [NaN, NaN]}', "sum to 1"),
        ('{"dims": 2, "letters": [[[[NaN, 0], [0, 0]], [[0, 0], [NaN, 0]]]], "probs": [1]}',
         "Hermitian"),
    ])
    def test_malformed_alphabet_is_a_validation_error(self, capsys, tmp_path, text, names):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "holevo", "--alphabet", str(path))
        assert code == 2
        assert out == ""
        assert names in err
        assert "Traceback" not in err

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

    def test_tradeoff_computes_the_entropy_budget_once(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "zp.json")
        save_alphabet(zero_plus_alphabet(), path)
        calls = []
        budget = qihe.coding._entropy_budget
        monkeypatch.setattr(qihe.coding, "_entropy_budget",
                            lambda alphabet: calls.append(alphabet) or budget(alphabet))
        code, out, _ = run_cli(capsys, "tradeoff", "--alphabet", path)
        assert code == 0
        assert len(calls) == 1
        doc = json.loads(out)
        assert doc["curve"]["full_communication"]["comm_bits"] == doc["point"]["comm_bits"]

    def test_negative_block_is_a_validation_error(self, capsys, tmp_path):
        path = str(tmp_path / "zp.json")
        save_alphabet(zero_plus_alphabet(), path)
        code, out, err = run_cli(capsys, "tradeoff", "--alphabet", path, "--block", "-1")
        assert code == 2
        assert out == ""
        assert "--block" in err

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

    def test_memory_error_is_a_capacity_error(self, capsys, monkeypatch):
        def exhausted(args, cfg):
            raise MemoryError("Unable to allocate 1.42 PiB")

        monkeypatch.setitem(qihe.cli._HANDLERS, "work", exhausted)
        code, out, err = run_cli(capsys, "work")
        assert code == 3
        assert out == ""
        assert err == "qihe: capacity error: Unable to allocate 1.42 PiB\n"

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
