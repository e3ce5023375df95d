"""The four seeded workloads of the qihe benchmark.

A workload is a fixed, seeded list of operations, produced round by
round: round ``r`` of a workload draws its inputs from
``numpy.random.default_rng([seed, stream, r])``, so the same seed gives
the same operations in the same order.  Every round covers the same
sizes; only the drawn content changes.

Each operation is one public call into qihe (one ``python -m qihe.cli``
process in ``cli-cold``).  Its inputs are built before the call and its
result is checked against an independent oracle after it, both outside
the timed interval.  ``round()`` is a generator: the runner sends each
operation's result back (``None`` if it failed), so later operations of
a round can take an earlier result as input.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import oracles
from oracles import close, expect

# Size guard.  Dense working sets grow 4x per qubit (72 MiB at D = 1024 for
# the dense typical route, about 18 GiB extrapolated at D = 16384), so no
# operation may materialize a matrix side above this.
MAX_DENSE_DIM = 1024
# Sizes of the cli-cold subcommands other than ``verify``.
CLI_MAX_DIM = 64
# qihe's default dense cap; ``typical_subspace`` takes the census route
# only above it, so census-workload sizes must exceed it.
QIHE_DEFAULT_CAP = 2 ** 14

_TOL = 1e-9


class SizeGuardError(Exception):
    """A workload asked for a dense size beyond the benchmark's guard."""


@dataclass
class Op:
    """One timed public call.

    ``family`` names the layer and function (``protocols.ghz_unlock``);
    ``dim`` is the largest dense matrix side the call builds (0 for pure
    census work).  ``counters``, if given, maps the result to computed
    counts recorded on the call's span in traced runs.
    """

    family: str
    dim: int
    call: Callable[[], Any]
    check: Callable[[Any], None]
    counters: Callable[[Any], dict] | None = None

    def __post_init__(self) -> None:
        if self.dim > MAX_DENSE_DIM:
            raise SizeGuardError(
                f"{self.family} would build a {self.dim}-dimensional dense matrix; "
                f"the benchmark allows at most {MAX_DENSE_DIM}"
            )


def _census_size(d: int, L: int) -> int:
    if d ** L <= QIHE_DEFAULT_CAP:
        raise SizeGuardError(f"d = {d}, L = {L} would take the dense route, not the census")
    return 0


def _qubit_letters(rng: np.random.Generator, k: int) -> tuple[list[np.ndarray], np.ndarray]:
    """``k`` full-rank Ginibre qubit letters and their probabilities."""
    letters = [oracles.ginibre_state(rng, 2, 2)[0] for _ in range(k)]
    w = rng.random(k) + 0.2
    return letters, w / w.sum()


def _near(rng: np.random.Generator, base: tuple[float, ...]) -> tuple[float, ...]:
    """``base`` with each entry moved by up to 0.02 and renormalized.

    Small moves keep the type-class geometry, and so the census cost of
    each size, the same from round to round.
    """
    p = np.asarray(base) + rng.uniform(-0.02, 0.02, size=len(base))
    return tuple(float(x) for x in p / p.sum())


# --------------------------------------------------------------------- cli-cold

class CliCold:
    """One ``python -m qihe.cli`` process per operation, all 8 subcommands."""

    name = "cli-cold"

    def __init__(self, seed: int, root: Path, env: dict[str, str]) -> None:
        self.seed = seed
        self.env = env
        self.root = root
        self.stdouts: dict[tuple[str, ...], bytes] = {}
        work = root / ".perfbench" / "work"
        work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 0])
        self.alphabets = []
        for i in range(3):
            p = float(rng.uniform(0.3, 0.7))
            theta = float(rng.uniform(0.3, 1.2))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            a = np.array([1.0, 0.0], dtype=complex)
            b = np.array([math.cos(theta), np.exp(1j * phi) * math.sin(theta)])
            doc = {
                "dims": 2,
                "letters": [[[[float(x.real), float(x.imag)] for x in row]
                             for row in np.outer(v, v.conj())] for v in (a, b)],
                "probs": [p, 1.0 - p],
            }
            path = work / f"alphabet-{seed}-{i}.json"
            path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
            self.alphabets.append((str(path), p, math.cos(theta)))

    def specs(self, r: int) -> list[tuple[tuple[str, ...], int, Callable[[dict], None]]]:
        """Round ``r`` as ``(argv, dense dimension, report check)`` triples."""
        rng = np.random.default_rng([self.seed, 0, r])
        out = [(("verify", "--seed", str(self.seed)), 1024, _check_verify)]

        state = ("pure-qubit", "maximally-mixed", "bell-pair", "classical-pair")[int(rng.integers(4))]
        d = int(rng.integers(2, CLI_MAX_DIM + 1))
        units = ("natural", "SI")[int(rng.integers(2))]
        temp = float(rng.uniform(10.0, 1000.0))
        argv = ("work", "--state", state, "--d", str(d), "--units", units, "--temperature", repr(temp))
        dim = {"pure-qubit": 2, "maximally-mixed": d, "bell-pair": 4, "classical-pair": 4}[state]
        out.append((argv, dim, partial(_check_work, state, units, temp)))

        t_low, t_high = (float(x) for x in rng.uniform(10.0, 1000.0, size=2))
        out.append((("carnot", "--t-low", repr(t_low), "--t-high", repr(t_high)), 0,
                    partial(_check_carnot, t_low, t_high)))

        n = int(rng.integers(3, 7))
        variant = (r + self.seed) % 4
        if variant == 0:
            argv, chk = ("protocol", "bell"), partial(_check_bell_cli, False)
            if rng.integers(2):
                argv, chk = argv + ("--intercept",), partial(_check_bell_cli, True)
            dim = 4
        elif variant == 1:
            argv, chk, dim = ("protocol", "classical"), _check_classical_cli, 4
        elif variant == 2:
            init = int(rng.integers(n))
            argv = ("protocol", "ghz", "--n", str(n), "--initiator", str(init))
            chk, dim = partial(_check_ghz_cli, n, init), 2 ** n
        else:
            hidden = int(rng.integers(n))
            bits = rng.integers(0, 2, size=n)
            argv = ("protocol", "parity", "--n", str(n))
            for q in range(n):
                if q != hidden:
                    argv += ("--reveal", f"{q}:{int(bits[q])}")
            chk, dim = partial(_check_parity_unlock_cli, n, hidden), 2 ** n
            if rng.integers(2):
                trials = int(rng.integers(2, 6))
                argv = ("protocol", "parity", "--n", str(n), "--trials", str(trials),
                        "--seed", str(int(rng.integers(1000))))
                chk = _check_parity_trials_cli
        out.append((argv, dim, chk))

        path, p, overlap = self.alphabets[r % len(self.alphabets)]
        out.append((("holevo", "--alphabet", path), 2, partial(_check_holevo_cli, p, overlap)))
        block = int(rng.integers(2, 5))
        out.append((("tradeoff", "--alphabet", path, "--block", str(block)), 2 ** block,
                    partial(_check_tradeoff_cli, p, overlap, block)))

        p_typ = float(rng.uniform(0.6, 0.95))
        L = int(rng.integers(4, 7))
        delta, dim_t, cap = oracles.pick_delta(rng, (p_typ, 1.0 - p_typ), L, 0.05, 0.5)
        out.append((("typical", "--p", repr(p_typ), "--L", str(L), "--delta", repr(delta)),
                    2 ** L, partial(_check_typical_cli, dim_t, cap)))

        L = 3
        evals = oracles.pure_pair_eigenvalues(p, overlap)
        delta, dim_r, cap = oracles.pick_delta(rng, evals, L, 0.3, 3.0, ledger=True)
        out.append((("refactor", "--alphabet", path, "--L", str(L), "--delta", repr(delta)),
                    2 ** L * dim_r,
                    partial(_check_refactor_cli, oracles.ledger_values(evals, L, delta, dim_r, cap),
                            dim_r)))
        for argv, dim, _ in out[1:]:
            if dim > CLI_MAX_DIM:
                raise SizeGuardError(f"cli-cold argv {argv} exceeds D = {CLI_MAX_DIM}")
        return out

    def round(self, r: int) -> Iterator[Op]:
        for argv, dim, check_report in self.specs(r):
            yield Op(f"cli.{argv[0]}", dim, partial(self._spawn, argv),
                     partial(self._check, argv, check_report))

    def inprocess_round(self, qihe_cli, qihe_verify) -> Iterator[Op]:
        """Round 0 through ``qihe.cli.run`` in this process, then each verify criterion.

        Run after ``round(0)``: each in-process stdout must equal the
        subprocess stdout of the same argv byte for byte.
        """
        for argv, dim, check_report in self.specs(0):
            yield Op("cli.run", dim, partial(_run_inprocess, qihe_cli, argv),
                     partial(self._check, argv, check_report))
        for k in range(1, 10):
            fn = getattr(qihe_verify, f"criterion_{k}")
            yield Op(f"verify.criterion_{k}", 1024, partial(fn, self.seed), _check_criterion)

    def import_profile(self) -> dict[str, float]:
        """``-X importtime`` of ``import qihe.cli``: qihe's cumulative and scipy's own time."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qihe.cli"],
                              env=self.env, cwd=self.root, capture_output=True, text=True,
                              timeout=120, check=True)
        qihe_us = scipy_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line[12:]:
                continue
            self_us, cum_us, name = line[12:].split("|")
            if not self_us.strip().isdigit():
                continue
            if name.startswith(" qihe"):
                qihe_us += int(cum_us)
            if name.strip().split(".")[0] == "scipy":
                scipy_us += int(self_us)
        return {"cli.import.ms": qihe_us / 1e3, "cli.import.scipy_ms": scipy_us / 1e3}

    def _spawn(self, argv: tuple[str, ...]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "qihe.cli", *argv], env=self.env,
                              cwd=self.root, capture_output=True, timeout=120)

    def _check(self, argv, check_report, proc) -> None:
        expect(proc.returncode == 0,
               f"qihe {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-400:]!r}")
        first = self.stdouts.setdefault(argv, proc.stdout)
        expect(first == proc.stdout, f"qihe {' '.join(argv)}: stdout differs from an earlier run")
        check_report(json.loads(proc.stdout))


def _run_inprocess(qihe_cli, argv: tuple[str, ...]) -> subprocess.CompletedProcess:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qihe_cli.run(list(argv))
    return subprocess.CompletedProcess(argv, code, out.getvalue().encode(), err.getvalue().encode())


def _works(report: dict) -> dict[str, float]:
    return {pid: entry["work"] for pid, entry in report["parties"].items()}


def _check_verify(report: dict) -> None:
    expect(report["all_passed"] is True, "verify reports a failed criterion")
    crit = {c["number"]: c for c in report["criteria"]}
    expect(sorted(crit) == list(range(1, 10)) and all(c["passed"] for c in crit.values()),
           "verify must pass criteria 1..9")
    details = crit[2]["details"]
    close(details["bell_work"], 2.0, 1e-12, "verify Bell payout")
    close(details["interceptor_work"], 0.0, 1e-12, "verify interceptor payout")
    close(details["classical_work"], 1.0, 1e-12, "verify classical payout")
    chi = oracles.entropy_bits(oracles.pure_pair_eigenvalues(0.5, math.sqrt(0.5)))
    close(crit[6]["details"]["chi_zero_plus"], chi, 1e-10, "verify chi of {|0>,|+>}")


def _check_work(state: str, units: str, temp: float, report: dict) -> None:
    bits = {"pure-qubit": 1.0, "maximally-mixed": 0.0, "bell-pair": 2.0, "classical-pair": 1.0}[state]
    scale = 1.0 if units == "natural" else oracles.KB_LN2 * temp
    close(report["work_bits"], bits, _TOL, f"work of {state}")
    close(report["work"], bits * scale, _TOL * scale, f"work of {state} in {units} units")


def _check_carnot(t_low: float, t_high: float, report: dict) -> None:
    want = oracles.KB_LN2 * (t_high - t_low)
    close(report["work_per_qubit"], want, 1e-12 * oracles.KB_LN2 * t_high, "Carnot work")
    close(report["efficiency"], 1.0 - t_low / t_high, 1e-12, "Carnot efficiency")


def _check_bell_cli(intercepted: bool, report: dict) -> None:
    works = _works(report)
    if intercepted:
        close(report["interceptor"]["work"], 0.0, _TOL, "interceptor payout")
        close(works["B"], 0.0, _TOL, "B payout after interception")
    else:
        close(works["B"], 2.0, _TOL, "Bell payout")
    close(works["A"], 0.0, _TOL, "A payout")


def _check_classical_cli(report: dict) -> None:
    works = _works(report)
    close(works["B"], 1.0, _TOL, "classical payout")
    close(works["A"], 0.0, _TOL, "A payout")


def _check_ghz_cli(n: int, initiator: int, report: dict) -> None:
    _check_ghz_works(n, initiator, _works(report))


def _check_parity_unlock_cli(n: int, hidden: int, report: dict) -> None:
    _check_parity_works(n, hidden, _works(report))


def _check_parity_trials_cli(report: dict) -> None:
    expect(report["worst_rho1_deviation"] < 1e-9, "parity rho1 deviation above 1e-9")
    expect(report["worst_rho12_deviation"] < 1e-9, "parity rho12 deviation above 1e-9")


def _check_holevo_cli(p: float, overlap: float, report: dict) -> None:
    s_b = oracles.entropy_bits(oracles.pure_pair_eigenvalues(p, overlap))
    close(report["chi_bits"], s_b, _TOL, "Holevo chi")
    close(report["avg_letter_entropy_bits"], 0.0, _TOL, "pure-letter entropy")


def _check_tradeoff_cli(p: float, overlap: float, block: int, report: dict) -> None:
    s_b = oracles.entropy_bits(oracles.pure_pair_eigenvalues(p, overlap))
    close(report["point"]["energy_bits"], 1.0 - s_b, _TOL, "tradeoff energy")
    close(report["point"]["comm_bits"], s_b, _TOL, "tradeoff communication")
    expect(len(report["blocking"]) == block, "blocking sweep length")
    for entry in report["blocking"]:
        n = entry["n"]
        s_n = oracles.entropy_bits(oracles.pure_pair_eigenvalues(p, overlap ** n))
        close(entry["energy_bits_per_letter"], (n - s_n) / n, _TOL, f"blocked energy n={n}")
        close(entry["comm_bits_per_letter"], s_n / n, _TOL, f"blocked communication n={n}")


def _check_typical_cli(dim: int, capture: float, report: dict) -> None:
    expect(report["dim"] == dim, f"typical dim {report['dim']} != oracle {dim}")
    close(report["capture_probability"], capture, _TOL, "typical capture")


def _check_refactor_cli(ledger: dict, dim: int, report: dict) -> None:
    expect(report["typical_dim"] == dim, f"refactor typical_dim {report['typical_dim']} != {dim}")
    for key in ("w1", "w_ancilla", "net_per_letter", "lower_bound", "upper_bound", "epsilon"):
        close(report[key], ledger[key], _TOL, f"refactor {key}")
    expect(report["unitarity_residual"] < 1e-10, "swap unitary residual above 1e-10")
    expect(report["mapping_residual"] < 1e-10, "swap mapping residual above 1e-10")


def _check_criterion(result) -> None:
    expect(result.passed, f"verify criterion {result.number} failed: {result.details}")


# ---------------------------------------------------------- shared protocol checks

def _check_ghz_works(n: int, initiator: int, works: dict[str, float]) -> None:
    expect(len(works) == n, f"GHZ report has {len(works)} parties, expected {n}")
    for i in range(n):
        close(works[f"A{i + 1}"], 0.0 if i == initiator else 1.0, _TOL, f"GHZ payout of A{i + 1}")


def _check_parity_works(n: int, hidden: int, works: dict[str, float]) -> None:
    expect(len(works) == n, f"parity report has {len(works)} parties, expected {n}")
    for i in range(n):
        close(works[f"A{i + 1}"], 1.0 if i == hidden else 0.0, _TOL, f"parity payout of A{i + 1}")


# -------------------------------------------------------------- protocols-dense

class ProtocolsDense:
    """In-process protocol runs and qcore primitives at D = 64..1024."""

    name = "protocols-dense"

    def __init__(self, seed: int, root: Path, env: dict[str, str]) -> None:
        import qihe

        self.q = qihe
        self.seed = seed
        self.ctx = qihe.ThermalContext(units="natural")

    def round(self, r: int) -> Iterator[Op]:
        q, ctx = self.q, self.ctx
        rng = np.random.default_rng([self.seed, 1, r])
        for n in range(6, 11):
            init = int(rng.integers(n))
            yield Op("protocols.ghz_unlock", 2 ** n, partial(q.ghz_unlock, n, init, ctx),
                     partial(_check_ghz, n, init))
        for n in range(5, 9):
            seed = int(rng.integers(2 ** 31))
            yield Op("protocols.parity_no_information_trials", 2 ** n,
                     partial(q.parity_no_information_trials, n, 3, seed=seed),
                     partial(_check_parity_trials, 3))
        for n in range(6, 11):
            hidden = int(rng.integers(n))
            bits = rng.integers(0, 2, size=n)
            revealed = {i: int(bits[i]) for i in range(n) if i != hidden}
            yield Op("protocols.parity_unlock", 2 ** n, partial(q.parity_unlock, n, revealed, ctx),
                     partial(_check_parity_unlock, n, hidden))
        yield Op("protocols.bell_protocol", 4, partial(q.bell_protocol, ctx),
                 partial(_check_bell, False))
        yield Op("protocols.bell_protocol", 4, partial(q.bell_protocol, ctx, intercepted=True),
                 partial(_check_bell, True))
        yield Op("protocols.classical_pair_protocol", 4, partial(q.classical_pair_protocol, ctx),
                 _check_classical)

        for n in (6, 8, 9, 10):
            dim, dims = 2 ** n, (2,) * n
            m, gram = oracles.ginibre_state(rng, dim, 4)
            rho = yield Op("qcore.DensityMatrix", dim, partial(q.DensityMatrix, m, dims),
                           partial(_check_same_matrix, m, dims))
            if rho is None:
                continue
            keep = sorted(int(i) for i in rng.choice(n, size=n // 2, replace=False))
            yield Op("qcore.partial_trace", dim, partial(q.partial_trace, rho, keep),
                     partial(_check_partial_trace, m, dims, keep))
            start = int(rng.integers(n - 1))
            target = (start, start + 1)
            kraus = oracles.haar_isometry_kraus(rng, 4, 2)
            channel = q.QuantumChannel(tuple(kraus), target)
            yield Op("qcore.apply_channel", dim, partial(q.apply_channel, rho, channel),
                     partial(_check_channel, m, dims, target, kraus))
            sub = int(rng.integers(n))
            yield Op("qcore.measure_computational", dim, partial(q.measure_computational, rho, sub),
                     partial(_check_measure, m, dims, sub))
            entropy = oracles.entropy_bits(gram)
            yield Op("qcore.von_neumann_entropy", dim, partial(q.von_neumann_entropy, rho),
                     partial(close, want=entropy, tol=_TOL, what="von Neumann entropy"))
            yield Op("thermo.extractable_work", dim, partial(q.extractable_work, rho, ctx),
                     partial(_check_extractable, n - entropy))


def _check_ghz(n: int, initiator: int, outcome) -> None:
    _check_ghz_works(n, initiator, {pid: wr.work for pid, wr in outcome.per_party_work.items()})
    tag = f"A{initiator + 1}"
    expect(outcome.broadcast_log == ((tag, 0), (tag, 1)), "GHZ broadcast log must list both branches")


def _check_parity_trials(trials: int, reports) -> None:
    expect(len(reports) == trials, f"{len(reports)} parity reports for {trials} trials")
    for rep in reports:
        expect(rep.rho1_deviation < 1e-9, f"parity rho1 deviation {rep.rho1_deviation:.3e}")
        expect(rep.rho12_deviation < 1e-9, f"parity rho12 deviation {rep.rho12_deviation:.3e}")


def _check_parity_unlock(n: int, hidden: int, outcome) -> None:
    _check_parity_works(n, hidden, {pid: wr.work for pid, wr in outcome.per_party_work.items()})


def _check_bell(intercepted: bool, outcome) -> None:
    works = {pid: wr.work for pid, wr in outcome.per_party_work.items()}
    close(works["A"], 0.0, _TOL, "A payout")
    if intercepted:
        close(outcome.interceptor_work.work, 0.0, _TOL, "interceptor payout")
        close(works["B"], 0.0, _TOL, "B payout after interception")
    else:
        expect(outcome.interceptor_work is None, "uninterrupted run reports an interceptor")
        close(works["B"], 2.0, _TOL, "Bell payout")


def _check_classical(outcome) -> None:
    close(outcome.per_party_work["B"].work, 1.0, _TOL, "classical payout")
    close(outcome.per_party_work["A"].work, 0.0, _TOL, "A payout")


def _check_same_matrix(m: np.ndarray, dims: tuple[int, ...], rho) -> None:
    expect(rho.dims == dims and np.array_equal(rho.data, m), "DensityMatrix altered its input")


def _check_partial_trace(m, dims, keep, reduced) -> None:
    want = oracles.partial_trace(m, dims, keep)
    expect(reduced.dims == tuple(dims[i] for i in keep), "partial trace dims")
    close(float(np.max(np.abs(reduced.data - want))), 0.0, 1e-12, "partial trace")


def _check_channel(m, dims, target, kraus, result) -> None:
    out, norm = result
    want = oracles.apply_kraus(m, dims, target, kraus)
    close(norm, float(np.real(np.trace(want))), 1e-10, "channel normalization")
    close(float(np.max(np.abs(out.data * norm - want))), 0.0, 1e-10, "channel output")


def _check_measure(m, dims, sub, records) -> None:
    expect(len(records) == dims[sub], "one record per outcome")
    for rec in records:
        p, block = oracles.measurement_branch(m, dims, sub, rec.outcome)
        close(rec.probability, p, 1e-12, f"Born probability of outcome {rec.outcome}")
        close(float(np.max(np.abs(rec.post_state.data - block / p))), 0.0, 1e-10, "post-state")


def _check_extractable(bits: float, report) -> None:
    close(report.work, bits, _TOL, "extractable work")


# ----------------------------------------------------------------- coding-dense

_KERNEL_RHO = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)


def dense_kernel() -> float:
    """A fixed dense computation that times the host's speed.

    Most of it builds the 8-fold Kronecker power of a qubit state
    (D = 256), diagonalizes it and multiplies its typical projector back
    in, like the large dense operations; the rest is 100 rounds of 2x2
    and 4x4 numpy calls, like the small ones.  It shares no code with
    qihe.  Editing it rescales every ``coding-dense`` time (README.md,
    "Host speed").
    """
    m = _KERNEL_RHO
    for _ in range(7):
        m = np.kron(m, _KERNEL_RHO)
    vals, vecs = np.linalg.eigh(m)
    keep = vecs[:, vals > 1e-3]
    total = float(np.real(np.trace(keep @ keep.conj().T @ m)))
    for _ in range(100):
        a = np.kron(_KERNEL_RHO, _KERNEL_RHO)
        total += float(np.linalg.eigvalsh(a)[0]) + float(np.real(np.trace(a @ a)))
    return total


class CodingDense:
    """Dense-route coding: typical subspaces, ledgers and swaps at D <= 1024."""

    name = "coding-dense"
    # Reference kernel for scaling times to a steady host speed (see run.py),
    # and its median time on the machine the benchmark was written on.
    reference = staticmethod(dense_kernel)
    reference_s = 0.031

    def __init__(self, seed: int, root: Path, env: dict[str, str]) -> None:
        import qihe

        self.q = qihe
        self.seed = seed
        self.ctx = qihe.ThermalContext(units="natural")
        zero = np.array([[1, 0], [0, 0]], dtype=complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        self.zero_plus = (qihe.zero_plus_alphabet(), [zero, plus], np.array([0.5, 0.5]))

    def _ginibre(self, rng) -> tuple:
        letters, probs = _qubit_letters(rng, int(rng.integers(2, 4)))
        alphabet = self.q.Alphabet(tuple(self.q.DensityMatrix(m, (2,)) for m in letters),
                                   tuple(float(p) for p in probs))
        return alphabet, letters, probs

    def round(self, r: int) -> Iterator[Op]:
        q, ctx = self.q, self.ctx
        rng = np.random.default_rng([self.seed, 2, r])
        sources = [self.zero_plus, self._ginibre(rng)]
        for alphabet, letters, probs in sources:
            evals = oracles.qubit_eigenvalues(sum(p * m for p, m in zip(probs, letters)))
            rho_b = q.ensemble_state(alphabet)
            for L in range(6, 11):
                delta, dim, capture = oracles.pick_delta(rng, evals, L, 0.05, 0.4)
                yield Op("coding.typical_subspace.dense", 2 ** L,
                         partial(q.typical_subspace, rho_b, L, delta),
                         partial(_check_typical_dense, L, dim, capture), _dense_counters)
        for L, (alphabet, letters, probs) in zip((6, 8, 10), sources * 2):
            evals = oracles.qubit_eigenvalues(sum(p * m for p, m in zip(probs, letters)))
            delta, dim, capture = oracles.pick_delta(rng, evals, L, 0.1, 0.4, ledger=True)
            yield Op("coding.refactorization_ledger", 2 ** L,
                     partial(q.refactorization_ledger, alphabet, L, delta, ctx),
                     partial(_check_ledger, oracles.ledger_values(evals, L, delta, dim, capture), dim))
        for L, (alphabet, letters, probs) in zip((2, 3), sources):
            evals = oracles.qubit_eigenvalues(sum(p * m for p, m in zip(probs, letters)))
            delta, dim, _ = oracles.pick_delta(rng, evals, L, 0.1, 0.8, nonempty=True)
            sub = q.typical_subspace(q.ensemble_state(alphabet), L, delta)
            yield Op("coding.refactorization_unitary", 2 ** L * dim,
                     partial(q.refactorization_unitary, sub), partial(_check_unitary, sub.basis))
        alphabet, letters, probs = sources[1]
        blocked = None
        for n in (2, 4, 6):
            blocked = yield Op("coding.block_alphabet", 2 ** n, partial(q.block_alphabet, alphabet, n),
                               partial(_check_block, letters, probs, n))
        if blocked is not None:
            yield Op("coding.tradeoff_point", 2 ** 6, partial(q.tradeoff_point, blocked, ctx),
                     partial(_check_tradeoff_blocked, letters, probs, 6))
        for alphabet, letters, probs in sources:
            yield Op("coding.tradeoff_point", 2, partial(q.tradeoff_point, alphabet, ctx),
                     partial(_check_tradeoff, letters, probs))
            yield Op("coding.holevo_chi", 2, partial(q.holevo_chi, alphabet),
                     partial(_check_holevo, letters, probs))


def _dense_counters(sub) -> dict:
    arrays = [a for a in (sub.projector, sub.basis) if a is not None]
    built = sub.projector.shape[0] if sub.projector is not None else 0
    return {"kept": sub.dim, "built": built, "bytes": sum(a.nbytes for a in arrays)}


def _check_typical_dense(L: int, dim: int, capture: float, sub) -> None:
    expect(sub.dim == dim, f"typical dim {sub.dim} != oracle {dim} at L = {L}")
    close(sub.capture_probability, capture, 1e-10, f"typical capture at L = {L}")
    if sub.basis is not None:
        gram = sub.basis.conj().T @ sub.basis
        close(float(np.max(np.abs(gram - np.eye(dim)), initial=0.0)), 0.0, 1e-10,
              "typical basis orthonormality")


def _check_ledger(want: dict, dim: int, ledger) -> None:
    expect(ledger.subspace.dim == dim, f"ledger typical dim {ledger.subspace.dim} != {dim}")
    for key, value in want.items():
        close(getattr(ledger, key), value, _TOL, f"ledger {key}")


def _check_unitary(basis: np.ndarray, result) -> None:
    u = result.matrix
    total, d_anc = u.shape[0], basis.shape[1]
    e0 = np.zeros((d_anc, 1))
    e0[0, 0] = 1.0
    mapped = u @ np.kron(basis, e0)
    close(float(np.max(np.abs(u @ u.conj().T - np.eye(total)))), 0.0, 1e-10, "swap unitarity")
    close(float(np.max(np.abs(mapped - np.eye(total, d_anc)))), 0.0, 1e-10, "swap mapping")
    expect(result.unitarity_residual < 1e-10 and result.mapping_residual < 1e-10,
           "reported swap residuals above 1e-10")


def _check_block(letters, probs, n: int, blocked) -> None:
    expect(blocked.probs == tuple(float(p) for p in probs), "blocked probabilities")
    for got, m in zip(blocked.letters, letters):
        close(float(np.max(np.abs(got.data - oracles.kron_power(m, n)))), 0.0, 1e-12,
              f"blocked letter n = {n}")


def _tradeoff_oracle(letters, probs, n: int) -> tuple[float, float, float]:
    """(energy, communication, average letter entropy) in bits for n-blocks."""
    if n == 1:
        s_b = oracles.entropy_bits(oracles.qubit_eigenvalues(sum(p * m for p, m in zip(probs, letters))))
    else:
        rho_b = sum(p * oracles.kron_power(m, n) for p, m in zip(probs, letters))
        s_b = oracles.entropy_bits(np.clip(np.linalg.eigvalsh(rho_b), 0.0, None))
    avg = n * sum(p * oracles.entropy_bits(oracles.qubit_eigenvalues(m)) for p, m in zip(probs, letters))
    return n - s_b, s_b - avg, avg


def _check_tradeoff(letters, probs, point) -> None:
    energy, comm, avg = _tradeoff_oracle(letters, probs, 1)
    close(point.energy_bits, energy, _TOL, "tradeoff energy")
    close(point.comm_bits, comm, _TOL, "tradeoff communication")
    close(point.avg_letter_entropy, avg, _TOL, "tradeoff letter entropy")


def _check_tradeoff_blocked(letters, probs, n: int, point) -> None:
    energy, comm, avg = _tradeoff_oracle(letters, probs, n)
    close(point.energy_bits, energy, _TOL, f"blocked tradeoff energy n = {n}")
    close(point.comm_bits, comm, _TOL, f"blocked tradeoff communication n = {n}")
    close(point.avg_letter_entropy, avg, _TOL, f"blocked tradeoff letter entropy n = {n}")


def _check_holevo(letters, probs, chi) -> None:
    close(chi, _tradeoff_oracle(letters, probs, 1)[1], _TOL, "Holevo chi")


# ---------------------------------------------------------------- coding-census

def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


_KERNEL_LOGS = tuple(math.log2(x) for x in (0.5, 0.3, 0.2))


def census_kernel() -> int:
    """A fixed census-like computation that times the host's speed.

    Half of it enumerates the type classes of a d = 3, L = 110 source in
    Python and sums big-integer multinomials over a window, like the
    d = 3 and d = 4 censuses; the other half sums binomials at n = 4000,
    like the d = 2 censuses, so its time follows the host's speed the way
    the census workload's does.  It shares no code with qihe.  Editing it
    rescales every ``coding-census`` time (README.md, "Host speed").
    """
    dim = 0
    for counts in _compositions(110, 3):
        w = 0.0
        for m, lg in zip(counts, _KERNEL_LOGS):
            w += m * lg
        if -175.0 <= w <= -152.0:
            mult, rest = 1, 110
            for m in counts:
                mult *= math.comb(rest, m)
                rest -= m
            dim += mult
    for k in range(0, 4000, 80):
        dim += math.comb(4000, k)
    return dim


class CodingCensus:
    """Diagonal sources far beyond the dense cap: pure-Python type-class census."""

    name = "coding-census"
    # Reference kernel for scaling times to a steady host speed (see run.py),
    # and its median time on the machine the benchmark was written on.
    reference = staticmethod(census_kernel)
    reference_s = 0.027

    def __init__(self, seed: int, root: Path, env: dict[str, str]) -> None:
        import qihe

        self.q = qihe
        self.seed = seed
        self.ctx = qihe.ThermalContext(units="natural")

    def _diagonal(self, evals) -> Any:
        d = len(evals)
        return self.q.DensityMatrix(np.diag(evals).astype(complex), (d,))

    def round(self, r: int) -> Iterator[Op]:
        q, ctx = self.q, self.ctx
        rng = np.random.default_rng([self.seed, 3, r])
        p = float(rng.uniform(0.73, 0.77))
        sources = {2: (p, 1.0 - p), 3: _near(rng, (0.5, 0.3, 0.2)),
                   4: _near(rng, (0.4, 0.3, 0.2, 0.1))}
        # Three d = 3, L = 200 censuses (each with its own window) and the
        # d = 3 ledger cost about the same and sit in the middle of the 16
        # operations, so the median falls inside one group of similar cost
        # rather than on the gap between two.
        sizes = {2: (1000, 2000, 5000, 10000), 3: (100, 200, 200, 200, 250, 300), 4: (20, 40, 60)}
        # Windows of 2 to 3 standard deviations keep the census cost of each
        # size steady whatever source a round draws.
        widths = {(d, L): (oracles.clt_width(evals, L, 2.0), oracles.clt_width(evals, L, 3.0))
                  for d, evals in sources.items() for L in sizes[d]}
        for d, evals in sources.items():
            rho = self._diagonal(evals)
            for L in sizes[d]:
                delta, dim, capture = oracles.pick_delta(rng, evals, L, *widths[d, L])
                yield Op("coding.typical_subspace.census", _census_size(d, L),
                         partial(q.typical_subspace, rho, L, delta),
                         partial(_check_census, L, dim, capture),
                         partial(_census_counters, d, L))
        for d, L in ((2, 5000), (3, 200)):
            evals = sources[d]
            alphabet = q.Alphabet(tuple(q.basis_state(i, d).density() for i in range(d)), evals)
            delta, dim, capture = oracles.pick_delta(rng, evals, L, *widths[d, L], ledger=True)
            yield Op("coding.refactorization_ledger.census", _census_size(d, L),
                     partial(q.refactorization_ledger, alphabet, L, delta, ctx),
                     partial(_check_ledger, oracles.ledger_values(evals, L, delta, dim, capture), dim))
        lengths = (1000, 5000, 10000)
        delta, captures = _curve_delta(rng, sources[2], lengths, widths[2, 5000])
        yield Op("coding.qubit_capture_curve", 0,
                 partial(q.qubit_capture_curve, p, list(lengths), delta),
                 partial(_check_curve, lengths, captures))


def _census_counters(d: int, L: int, sub) -> dict:
    return {"classes": math.comb(L + d - 1, d - 1)}


def _check_census(L: int, dim: int, capture: float, sub) -> None:
    expect(sub.dim == dim, f"census dim differs from the oracle at L = {L}")
    close(sub.capture_probability, capture, _TOL, f"census capture at L = {L}")


def _curve_delta(rng, evals, lengths, width) -> tuple[float, list[float]]:
    """A width safe at every length of the curve, with the oracle captures."""
    for _ in range(100):
        delta = float(rng.uniform(*width))
        census = [oracles.typical_census(evals, L, delta) for L in lengths]
        if all(margin > oracles.WINDOW_MARGIN for _, _, margin in census):
            return delta, [min(capture, 1.0) for _, capture, _ in census]
    raise RuntimeError("no usable delta for the capture curve")


def _check_curve(lengths, captures, curve) -> None:
    expect([L for L, _ in curve] == list(lengths), "capture curve lengths")
    for (L, got), want in zip(curve, captures):
        close(got, want, _TOL, f"capture curve at L = {L}")


# Constructing a workload imports qihe (in-process workloads) and fixes its inputs.
WORKLOADS = {cls.name: cls for cls in (CliCold, ProtocolsDense, CodingDense, CodingCensus)}
