"""
Command-line interface tests, run in-process through ``qihe.cli.main``.

Exit-code contract:
    0  success
    1  verification suite reported a failure
    2  invalid configuration or input (bad values, missing files)
    3  requested dimension exceeds the capacity limit
    64 command-line usage errors
"""

import hashlib
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qihe.cli
from qihe import qcore
from qihe.cli import main
from qihe.coding import (
    Alphabet,
    holevo_chi,
    orthogonal_pure_alphabet,
    save_alphabet,
    typical_subspace,
    zero_plus_alphabet,
)
from qihe.qcore import CapacityError, ValidationError, basis_state, make_density
from qihe.verify import run_acceptance, summary

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The run-wide flags, each with a value that is valid wherever it is offered.
COMMON_FLAGS = {"--units": "SI", "--temperature": "250", "--capacity": "4096",
                "--seed": "3", "--output": "pretty"}
THERMAL = {"--units", "--temperature"}
# A valid command line per subcommand, and the run-wide flags its handler reads.
SUBCOMMANDS = {
    "work": ("work", THERMAL | {"--capacity", "--output"}),
    "carnot": ("carnot --t-low 300 --t-high 600", {"--output"}),
    "protocol-bell": ("protocol bell", THERMAL | {"--output"}),
    "protocol-classical": ("protocol classical", THERMAL | {"--output"}),
    "protocol-ghz": ("protocol ghz --n 3", THERMAL | {"--capacity", "--output"}),
    "protocol-parity": ("protocol parity --n 3 --trials 2", set(COMMON_FLAGS)),
    "holevo": ("holevo --alphabet {alphabet}", {"--output"}),
    "tradeoff": ("tradeoff --alphabet {alphabet}", {"--capacity", "--output"}),
    "typical": ("typical --p 0.9 --L 8 --delta 0.2", {"--output"}),
    "refactor": ("refactor --alphabet {alphabet} --L 3 --delta 0.5",
                 THERMAL | {"--capacity", "--output"}),
    "verify": ("verify", {"--seed", "--output"}),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv):
    """``python -m qihe.cli`` in its own interpreter, with this checkout's ``src`` first."""
    src = os.path.dirname(os.path.dirname(qihe.cli.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    return subprocess.run([sys.executable, "-m", "qihe.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


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


def subcommand_argv(name, tmp_path):
    """``SUBCOMMANDS[name]``'s command line, with a saved {|0>,|+>} alphabet."""
    path = tmp_path / "zp.json"
    if not path.exists():
        save_alphabet(zero_plus_alphabet(), str(path))
    return SUBCOMMANDS[name][0].format(alphabet=path).split()


def readme_blocks(language):
    """The ``language`` code blocks of README's "Command-line usage" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command-line usage\n", 1)[1].split("\n## ", 1)[0]
    return [block[len(language) + 1:] for block in section.split("```")[1::2]
            if block.startswith(language + "\n")]


# The argv of each ``qihe`` line in those blocks, its comment dropped.
README_COMMANDS = [shlex.split(line, comments=True)[1:] for block in readme_blocks("bash")
                   for line in block.splitlines() if line.startswith("qihe ")]


def _protocol_units(energy, **extra):
    return {"entropy_delta_bits": "bit", "work": energy, **extra}


def _refactor_units(energy):
    return {
        "L": "dimensionless", "delta": "dimensionless", "epsilon": "dimensionless",
        "lower_bound": energy, "mapping_residual": "dimensionless",
        "net_per_letter": energy, "success_probability": "dimensionless",
        "typical_dim": "dimensionless", "unitarity_residual": "dimensionless",
        "upper_bound": energy, "w1": energy, "w_ancilla": energy,
    }


# The label of every numeric field, per report.
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
      "comm_bits_per_letter": "bit", "energy_bits": "bit",
      "energy_bits_per_letter": "bit", "n": "dimensionless"}),
    ("typical", "typical --p 0.9 --L 8 --delta 0.2",
     {"L": "dimensionless", "capture_probability": "dimensionless",
      "delta": "dimensionless", "dim": "dimensionless", "dim_bound_bits": "bit",
      "p": "dimensionless", "source_entropy_bits": "bit"}),
    ("refactor", "refactor --alphabet {alphabet} --L 3 --delta 0.5",
     _refactor_units("bit-unit")),
    ("refactor-si", "refactor --alphabet {alphabet} --L 3 --delta 0.5 --units SI",
     _refactor_units("J")),
    # verify offers no --units, so criterion 8's energies are always bit-units
    ("verify", "verify --seed 7",
     {"bell_work": "bit-unit", "ceiling": "bit", "channels_per_n": "dimensionless",
      "chi_eigenvalue_oracle": "bit", "chi_error": "bit",
      "chi_zero_plus": "bit", "classical_work": "bit-unit",
      "endpoint_error": "bit", "epsilon": "dimensionless",
      "interceptor_work": "bit-unit", "lower_bound": "bit-unit",
      "natural_work": "bit-unit", "net_per_letter": "bit-unit", "number": "dimensionless",
      "seed": "dimensionless", "si_relative_error": "dimensionless", "si_work": "J",
      "trials": "dimensionless", "upper_bound": "bit-unit",
      "worst_completion_entropy": "bit", "worst_identity_residual": "bit",
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

    # classical-pair: three calls validate the mixture and its two components;
    # the entropy reuses the mixture's validation spectrum
    @pytest.mark.parametrize("state, eigvalsh_calls", [
        ("pure-qubit", 0), ("bell-pair", 0), ("maximally-mixed", 0), ("classical-pair", 3),
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

    @pytest.mark.parametrize("t_low, t_high", [("300", "1e-320"), ("1e300", "1e-10")])
    def test_temperatures_past_the_float_range_are_named(self, capsys, t_low, t_high):
        """t1/t2 overflows, or k_B ln2 t2 underflows: exit 2 naming the
        temperatures, not the report's internal self-check."""
        code, out, err = run_cli(capsys, "carnot", "--t-low", t_low, "--t-high", t_high)
        assert code == 2 and out == ""
        assert "t1" in err and "t2" in err and "inconsistent" not in err


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

    def test_parity_reveal_and_trials_exclude_each_other(self, capsys):
        code, out, err = run_cli(capsys, "protocol", "parity", "--n", "3",
                                 "--reveal", "0:1", "--trials", "2")
        assert (code, out) == (64, "")
        assert "not allowed with argument" in err

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
        *((f'{{"dims": {dims}, "letters": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]], "probs": [1]}}',
           "'dims'") for dims in ("2.7", "1.5", "true", "false", "Infinity", "NaN", '"2"')),
    ])
    def test_malformed_alphabet_is_a_validation_error(self, capsys, tmp_path, text, names):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "holevo", "--alphabet", str(path))
        assert code == 2
        assert out == ""
        assert names in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("dims", ["2.0"])
    def test_integral_dims_read_as_the_integer(self, capsys, tmp_path, dims):
        text = json.dumps(zero_plus_alphabet().to_dict())
        path = tmp_path / "zp.json"
        path.write_text(text)
        exact = run_cli(capsys, "holevo", "--alphabet", str(path))
        path.write_text(text.replace('"dims": 2', f'"dims": {dims}'))
        assert run_cli(capsys, "holevo", "--alphabet", str(path)) == exact
        assert exact[0] == 0

    def test_infinite_letter_entry_exits_2_without_a_warning(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"dims": 2, "letters": [[[[Infinity, 0], [0, 0]], [[0, 0], [0, 0]]]], '
                        '"probs": [1]}')
        proc = run_cli_process("holevo", "--alphabet", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Hermitian" in proc.stderr
        assert "Warning" not in proc.stderr

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

    def test_csv_refused_for_scalar_reports(self, capsys, tmp_path):
        for name in SUBCOMMANDS.keys() - {"tradeoff"}:
            code, out, err = run_cli(capsys, *subcommand_argv(name, tmp_path), "--output", "csv")
            assert (code, out) == (64, ""), name
            assert "invalid choice: 'csv'" in err

    def test_typical_subspace_command(self, capsys):
        _, out, _ = run_cli(
            capsys, "typical", "--p", "0.9", "--L", "8", "--delta", "0.2"
        )
        doc = json.loads(out)
        assert doc["dim"] == 8
        np.testing.assert_allclose(doc["capture_probability"], 0.38263752, atol=1e-7)

    def test_typical_refuses_a_qubit_block_past_2_63(self):
        """A two-letter census at ``L >= 2**63`` is a validation error, not a
        traceback from ``math.comb``."""
        run = run_cli_process("typical", "--p", "0.9", "--L", str(10 ** 20), "--delta", "0.0001")
        assert (run.returncode, run.stdout) == (2, "")
        assert "Traceback" not in run.stderr
        assert f"L = {10 ** 20}" in run.stderr and "2**63" in run.stderr

    def test_typical_refuses_a_block_past_the_float_range(self):
        """``--L`` past the float range is a validation error of a few bytes, not
        an ``OverflowError`` traceback from the typicality window."""
        run = run_cli_process("typical", "--p", "0.9", "--L", str(10 ** 400), "--delta", "0.1")
        assert (run.returncode, run.stdout) == (2, "")
        assert "Traceback" not in run.stderr and len(run.stderr.encode()) < 200
        assert "block length L is out of the float range, got 2**1328 or more" in run.stderr

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

    def test_refactor_reports_a_short_block_above_the_asymptotic_ceiling(self, capsys,
                                                                          tmp_path):
        """At L = 2 the p = (0.9, 0.1) orthogonal source keeps one class, so the
        per-letter net outruns the asymptotic ceiling; the ledger says so and exits 0."""
        path = str(tmp_path / "orth91.json")
        save_alphabet(Alphabet(tuple(basis_state(i, 2).density() for i in range(2)),
                               (0.9, 0.1)), path)
        code, out, err = run_cli(capsys, "refactor", "--alphabet", path, "--L", "2",
                                 "--delta", "0.36")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["within_asymptotic_ceiling"] is False
        assert "within_asymptotic_ceiling_units" not in doc
        assert doc["net_per_letter"] == 0.6200000000000001
        assert doc["upper_bound"] == 0.5310044064107188
        assert doc["lower_bound"] <= doc["net_per_letter"]

    def test_refactor_large_block_skips_the_matrix(self, capsys, tmp_path):
        path = str(tmp_path / "orth.json")
        save_alphabet(orthogonal_pure_alphabet(), path)
        _, out, _ = run_cli(capsys, "refactor", "--alphabet", path, "--L", "10", "--delta", "0.1")
        doc = json.loads(out)
        assert doc["net_per_letter"] == 0.0
        assert "unitarity_residual" not in doc
        assert doc["typical_dim"] == 1024
        assert doc["within_asymptotic_ceiling"] is True

    def test_refactor_refuses_a_qutrit_block_past_int64(self, capsys, tmp_path):
        path = str(tmp_path / "qutrit.json")
        save_alphabet(orthogonal_pure_alphabet(3), path)
        code, out, err = run_cli(capsys, "refactor", "--alphabet", path,
                                 "--L", str(2 ** 63), "--delta", "0.05")
        assert code == 2
        assert out == ""
        assert f"L = {2 ** 63}" in err and "2**63" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("output", ["json", "pretty"])
    @pytest.mark.parametrize("argv, key, p, L, delta", [
        (("typical", "--p", "0.5"), "dim", 0.5, 20000, 0.1),
        (("typical", "--p", "0.9"), "dim", 0.9, 30000, 0.01),
        # the orthogonal qubit alphabet's ensemble state is diag(1/2, 1/2)
        (("refactor", "--alphabet", "ORTH"), "typical_dim", 0.5, 20000, 0.1),
    ])
    def test_exact_dimensions_print_at_any_size(self, capsys, tmp_path, argv, key, p, L,
                                                delta, output):
        """A typical dimension past Python's 4300-digit int-to-str limit
        prints exactly, and the limit is back in place afterwards."""
        path = str(tmp_path / "orth.json")
        save_alphabet(orthogonal_pure_alphabet(), path)
        argv = [path if a == "ORTH" else a for a in argv]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none (Python < 3.11)
        code, out, err = run_cli(capsys, *argv, "--L", str(L), "--delta", str(delta),
                                 "--output", output)
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        want = typical_subspace(make_density(np.diag([p, 1.0 - p])), L, delta).dim
        assert want.bit_length() * math.log10(2) > 4300
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            if output == "json":
                got = json.loads(out)[key]
            else:
                got = int(next(line for line in out.splitlines()
                               if line.startswith(f"{key}: ")).split()[1])
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert got == want

    def test_reports_print_without_the_int_digit_limit(self, capsys, monkeypatch):
        """CPython before 3.10.7 has no ``sys.get_int_max_str_digits``."""
        argv = ("typical", "--p", "0.9", "--L", "8", "--delta", "0.2", "--output", "pretty")
        expected = run_cli(capsys, *argv)
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert run_cli(capsys, *argv) == expected
        assert expected[0] == 0


_EDGE = 0.99e-10  # as far past unit trace as TRACE_TOL and the probability check allow

# Alphabets whose every letter and probability passes its own check at the
# edge of a tolerance: (letters, probs).
EDGE_ALPHABETS = {
    "qubit-traces": ([np.diag([0.8, 0.2 + _EDGE]), [[0.5, 0.5], [0.5, 0.5 + _EDGE]]],
                     [0.3, 0.7 + _EDGE]),
    "qutrit-trace": ([np.diag([0.2, 0.3, 0.5 + _EDGE])], [1.0]),
    "qubit-imaginary-diagonal": ([np.diag([0.99 + 3e-11j, 0.01 - 3e-11j])], [1.0]),
}


def save_matrices(path, letters, probs):
    """Write ``letters`` (complex matrices) and ``probs`` in the alphabet file format."""
    letters = [np.asarray(m, dtype=complex) for m in letters]
    doc = {"dims": len(letters[0]), "probs": probs,
           "letters": [[[[z.real, z.imag] for z in row] for row in m] for m in letters]}
    path.write_text(json.dumps(doc))
    return str(path)


def eigvalsh_entropy(m):
    """Test-local oracle: ``-sum lambda log2 lambda`` over the positive ``eigvalsh(m)``."""
    lam = np.linalg.eigvalsh(m)
    lam = lam[lam > 0]
    return float(-(lam * np.log2(lam)).sum())


def eigvalsh_budget(letters, probs, n=1):
    """Test-local oracle: ``(S(rho_B), <S_a>, capacity)`` of the ``n``-letter blocks,
    from ``eigvalsh`` of raw-numpy Kronecker powers and their weighted sum."""
    powers = []
    for m in letters:
        m = np.asarray(m, dtype=complex)
        power = m
        for _ in range(n - 1):
            power = np.kron(power, m)
        powers.append(power)
    s_b = eigvalsh_entropy(sum(p * m for p, m in zip(probs, powers)))
    avg = sum(p * eigvalsh_entropy(m) for p, m in zip(probs, powers))
    return s_b, avg, n * math.log2(len(letters[0]))


class TestToleranceEdgeInputs:
    """A power or a mixture of accepted letters is accepted: runs whose
    letters and probabilities each pass at a tolerance edge exit 0, with
    numbers within 1e-12 of ``eigvalsh`` of the raw-numpy states."""

    def test_holevo_and_tradeoff_on_letters_and_probabilities_above_unit_trace(
            self, capsys, tmp_path):
        letters, probs = EDGE_ALPHABETS["qubit-traces"]
        path = save_matrices(tmp_path / "edge.json", letters, probs)
        s_b, avg, cap = eigvalsh_budget(letters, probs)
        code, out, err = run_cli(capsys, "holevo", "--alphabet", path)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert abs(doc["ensemble_entropy_bits"] - s_b) <= 1e-12
        assert abs(doc["avg_letter_entropy_bits"] - avg) <= 1e-12
        assert abs(doc["chi_bits"] - (s_b - avg)) <= 1e-12
        code, out, err = run_cli(capsys, "tradeoff", "--alphabet", path, "--block", "6")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert abs(doc["point"]["energy_bits"] - (cap - s_b)) <= 1e-12
        for row in doc["blocking"]:
            n = row["n"]
            s_b, avg, cap = eigvalsh_budget(letters, probs, n)
            assert abs(row["comm_bits_per_letter"] - (s_b - avg) / n) <= 1e-12
            assert abs(row["energy_bits_per_letter"] - (cap - s_b) / n) <= 1e-12

    def test_refactor_on_letters_and_probabilities_above_unit_trace(self, capsys, tmp_path):
        """At L = 2 and delta = 0.5 only the class of the larger eigenvalue of
        ``rho_B`` (about 0.86) is typical: one dimension, captured with its square."""
        letters, probs = EDGE_ALPHABETS["qubit-traces"]
        path = save_matrices(tmp_path / "edge.json", letters, probs)
        code, out, err = run_cli(capsys, "refactor", "--alphabet", path, "--L", "2",
                                 "--delta", "0.5")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        rho_b = sum(p * np.asarray(m, dtype=complex) for p, m in zip(probs, letters))
        top = np.linalg.eigvalsh(rho_b)[-1]
        s_b = eigvalsh_entropy(rho_b)
        assert doc["typical_dim"] == 1
        assert abs(doc["success_probability"] - top ** 2) <= 1e-12
        assert abs(doc["upper_bound"] - (1.0 - s_b)) <= 1e-12
        eps = 1.0 - top ** 2
        assert abs(doc["lower_bound"] - ((1.0 - 2.0 * eps) - s_b - 0.5)) <= 1e-12

    @pytest.mark.parametrize("name", ["qutrit-trace", "qubit-imaginary-diagonal"])
    def test_blocked_tradeoff_on_an_edge_letter(self, capsys, tmp_path, name):
        letters, probs = EDGE_ALPHABETS[name]
        path = save_matrices(tmp_path / "edge.json", letters, probs)
        code, out, err = run_cli(capsys, "tradeoff", "--alphabet", path, "--block", "2")
        assert (code, err) == (0, "")
        for row in json.loads(out)["blocking"]:
            n = row["n"]
            s_b, avg, cap = eigvalsh_budget(letters, probs, n)
            assert abs(row["comm_bits_per_letter"] - (s_b - avg) / n) <= 1e-12
            assert abs(row["energy_bits_per_letter"] - (cap - s_b) / n) <= 1e-12

    @pytest.mark.parametrize("letter, problem", [
        (np.diag([0.2, 0.8 + 1.01e-10]), "trace must be 1"),
        (np.diag([0.99 + 6e-11j, 0.01 - 6e-11j]), "not Hermitian"),
    ], ids=["trace", "hermiticity"])
    def test_a_letter_past_a_tolerance_still_exits_2(self, capsys, tmp_path, letter, problem):
        path = save_matrices(tmp_path / "bad.json", [letter], [1.0])
        for argv in (("holevo",), ("tradeoff", "--block", "2")):
            code, out, err = run_cli(capsys, *argv, "--alphabet", path)
            assert (code, out) == (2, "")
            assert problem in err


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("name, flag", [(n, f) for n in SUBCOMMANDS for f in COMMON_FLAGS],
                             ids=[f"{n}{f}" for n in SUBCOMMANDS for f in COMMON_FLAGS])
    def test_a_flag_runs_where_it_is_read_and_is_refused_elsewhere(self, capsys, tmp_path,
                                                                   name, flag):
        argv = subcommand_argv(name, tmp_path) + [flag, COMMON_FLAGS[flag]]
        code, out, err = run_cli(capsys, *argv)
        if flag in SUBCOMMANDS[name][1]:
            assert code == 0, err
            assert out
        else:
            assert (code, out) == (64, "")
            assert "usage" in err
            assert f"unrecognized arguments: {flag}" in err


class TestCapacityAnswers:
    @pytest.mark.parametrize("argv", [
        "protocol ghz --n 20000",
        "protocol parity --n 20000 --trials 1",
        "protocol parity --n 20000 --reveal 0:1",
        "refactor --alphabet {alphabet} --L 3 --delta 0.1",
    ])
    def test_every_request_above_the_cap_exits_3(self, capsys, tmp_path, argv):
        """Each names the flag that fixes it on one short line: a 2**20000
        register is not printed in digits, and the swap of a d = 26 block,
        whose 26**3 basis is itself above the cap, is not silently left out."""
        path = tmp_path / "d26.json"
        save_alphabet(Alphabet((basis_state(0, 26).density(),), (1.0,)), str(path))
        code, out, err = run_cli(capsys, *argv.format(alphabet=path).split())
        assert (code, out) == (3, "")
        assert err.startswith("qihe: capacity error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err) <= 300
        assert "--capacity" in err

    def test_blocked_qubit_rows_keep_the_cap_and_build_no_blocked_matrix(self, capsys,
                                                                         tmp_path):
        """Every row takes the spin blocks, yet each is still checked
        against the cap on ``2**n``: ``--block 7`` passes a cap of 64 and exits
        3.  At the default cap ``--block 14`` allocates under 1 MiB at its peak,
        where one dense row of side 2**14 would take 4 GiB."""
        path = str(tmp_path / "zp.json")
        save_alphabet(zero_plus_alphabet(), path)
        code, out, _ = run_cli(capsys, "tradeoff", "--alphabet", path, "--block", "6",
                               "--capacity", "64")
        assert code == 0
        assert [row["n"] for row in json.loads(out)["blocking"]] == list(range(1, 7))
        code, out, err = run_cli(capsys, "tradeoff", "--alphabet", path, "--block", "7",
                                 "--capacity", "64")
        assert (code, out) == (3, "")
        assert "--capacity" in err
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "tradeoff", "--alphabet", path, "--block", "14",
                                   "--capacity", str(2 ** 14))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        rates = [row["energy_bits_per_letter"] for row in json.loads(out)["blocking"]]
        assert len(rates) == 14
        assert rates == sorted(rates) and rates[-1] <= 1.0
        assert peak < 2 ** 20

    @pytest.mark.parametrize("block, size", [("9", "19683"), ("1000000000", "2**")])
    def test_the_sweep_refuses_its_largest_row_before_running_any(self, capsys, tmp_path,
                                                                  monkeypatch, block, size):
        """A qutrit sweep whose last row, ``3**n``, is over the default cap
        exits 3 naming that size, and no budget row runs first; a block
        length far past the cap is refused without raising 3 to it."""
        path = save_matrices(tmp_path / "qutrit.json",
                             [np.diag([0.5, 0.3, 0.2]), np.full((3, 3), 1 / 3)], [0.5, 0.5])
        rows = []
        budget = qihe.cli._entropy_budget
        monkeypatch.setattr(qihe.cli, "_entropy_budget",
                            lambda alphabet: rows.append(alphabet.n) or budget(alphabet))
        monkeypatch.delenv("QIHE_MAX_DIM", raising=False)
        code, out, err = run_cli(capsys, "tradeoff", "--alphabet", path, "--block", block)
        assert (code, out, rows) == (3, "", [])
        assert f"total dimension {size}" in err
        assert "--capacity" in err


class TestCapacityScope:
    """``--capacity`` is the cap of one run: ``cli.run`` sets it over
    ``QIHE_MAX_DIM`` and resets it when the run ends, however it ends, and
    ``qcore.max_dimension`` is the one reader of either."""

    def test_the_flag_does_not_outlive_its_run(self, capsys, monkeypatch):
        monkeypatch.setenv("QIHE_MAX_DIM", "8")
        caps, real = [], qihe.cli._HANDLERS["protocol"]
        monkeypatch.setitem(qihe.cli._HANDLERS, "protocol",
                            lambda args, ctx: caps.append(qcore.max_dimension()) or real(args, ctx))
        assert run_cli(capsys, "protocol", "ghz", "--n", "4", "--capacity", "16")[0] == 0
        assert run_cli(capsys, "protocol", "ghz", "--n", "4")[0] == 3
        assert caps == [16, 8]
        assert qcore.max_dimension() == 8

    @pytest.mark.parametrize("error, code", [(RuntimeError, None), (ValidationError, 2),
                                             (CapacityError, 3)])
    def test_the_flag_does_not_outlive_a_run_whose_handler_raised(self, capsys, monkeypatch,
                                                                  error, code):
        monkeypatch.setenv("QIHE_MAX_DIM", "8")
        real = qihe.cli._HANDLERS["protocol"]

        def broken(args, ctx):
            assert qcore.max_dimension() == 16
            raise error("the handler failed")

        monkeypatch.setitem(qihe.cli._HANDLERS, "protocol", broken)
        argv = ("protocol", "ghz", "--n", "4", "--capacity", "16")
        if code is None:
            with pytest.raises(RuntimeError, match="the handler failed"):
                main(list(argv))
        else:
            assert run_cli(capsys, *argv)[0] == code
        monkeypatch.setitem(qihe.cli._HANDLERS, "protocol", real)
        assert qcore.max_dimension() == 8
        assert run_cli(capsys, "protocol", "ghz", "--n", "4")[0] == 3
        assert run_cli(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("raw", ["-5", "2"])
    @pytest.mark.parametrize("argv", [("verify", "--seed", "1"), ("work",)], ids=" ".join)
    def test_an_environment_cap_below_4_is_a_validation_error(self, capsys, monkeypatch,
                                                              raw, argv):
        """One rule for a valid cap, an integer of at least 4, whichever
        source gives it: ``verify``, which offers no ``--capacity``, no longer
        exits 3 on a negative cap."""
        monkeypatch.setenv("QIHE_MAX_DIM", raw)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"QIHE_MAX_DIM must be at least 4, got {raw}" in err

    @pytest.mark.parametrize("raw", ["9" * 5000, "-" + "9" * 4000], ids=["5000 nines", "-4000 nines"])
    def test_a_long_environment_cap_gives_a_short_error(self, capsys, monkeypatch, raw):
        """A malformed or huge ``QIHE_MAX_DIM`` is quoted by its first 20
        characters and its length, or by its size, never whole."""
        monkeypatch.setenv("QIHE_MAX_DIM", raw)
        code, out, err = run_cli(capsys, "work")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err.encode()) < 200 and "QIHE_MAX_DIM" in err

    def test_a_flag_below_4_is_named_in_the_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QIHE_MAX_DIM", "abc")
        code, out, err = run_cli(capsys, "work", "--capacity", "2")
        assert (code, out) == (2, "")
        assert "--capacity must be at least 4, got 2" in err

    @pytest.mark.parametrize("raw", ["-5", "2", "abc"])
    @pytest.mark.parametrize("name", ["carnot", "holevo", "protocol-bell", "protocol-classical",
                                      "typical"])
    def test_subcommands_that_read_no_cap_run_under_any(self, capsys, monkeypatch, tmp_path,
                                                        name, raw):
        argv = subcommand_argv(name, tmp_path)
        monkeypatch.setenv("QIHE_MAX_DIM", raw)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out


class TestReadmeExamples:
    def test_examples_are_found(self):
        assert len(README_COMMANDS) >= 10
        assert len(readme_blocks("json")) == 1

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_command_line_example_exits_zero(self, capsys, tmp_path, monkeypatch, argv):
        """Each ``qihe`` line of the usage block, run beside README's alphabet file."""
        (tmp_path / "alphabet.json").write_text(readme_blocks("json")[0], encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out


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

    def test_malformed_capacity_environment_reaches_only_dense_requests(self, capsys,
                                                                        monkeypatch):
        """``typical`` reads only the census, which needs no cap; ``verify``
        builds swap unitaries and tensor powers under the default cap."""
        monkeypatch.setenv("QIHE_MAX_DIM", "abc")
        code, out, _ = run_cli(capsys, "typical", "--p", "0.9", "--L", "8", "--delta", "0.2")
        assert code == 0
        assert json.loads(out)["dim"] == 8
        code, out, err = run_cli(capsys, "verify", "--seed", "1")
        assert (code, out) == (2, "")
        assert "QIHE_MAX_DIM" in err

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

    @pytest.mark.parametrize("seed, md5", [
        ("7", "d4d071d77683058ce2e511b0f42e7cab"),
        ("11", "058c29e311a1d960ca551e2334cc1b47"),
    ])
    def test_verify_stdout_matches_its_golden_md5(self, seed, md5):
        """The ``verify`` report is pinned byte for byte.

        A speed-up must leave these hashes alone.  They were last moved by
        the criterion-9 rates at n = 1..4, now taken from the spin blocks,
        and by the parity weights summed in numpy, which moves the last ulps
        of the criterion-5 deviations; CHANGES.md records the old and new
        values.
        """
        proc = run_cli_process("verify", "--seed", seed)
        assert proc.returncode == 0
        assert hashlib.md5(proc.stdout.encode()).hexdigest() == md5

    @pytest.mark.parametrize("argv", [
        ("verify", "--seed", "-1"),
        ("protocol", "parity", "--n", "3", "--trials", "1", "--seed", "-1"),
    ], ids=["verify", "parity"])
    def test_a_negative_seed_exits_2_naming_it(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "qihe: validation error: seed must be non-negative, got -1\n"

    def test_run_acceptance_reads_its_seed_as_an_integer(self):
        """A negative seed or a bool names ``seed`` before any criterion runs;
        a numpy integer gives the report of the equal ``int``, and a seed past
        64 bits passes."""
        for seed in (-1, True):
            with pytest.raises(ValidationError, match=r"^seed must be"):
                run_acceptance(seed)
        assert summary(run_acceptance(np.int64(3))) == summary(run_acceptance(3))
        assert summary(run_acceptance(2 ** 100))["all_passed"]

    def test_verify_exits_zero_and_reports_every_criterion(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert len(doc["criteria"]) == 9
        for i in range(1, 10):
            assert f"criterion {i}" in err
