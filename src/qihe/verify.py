"""Self-contained acceptance checks runnable from the command line.

Each criterion re-derives its expected numbers from first principles
(closed-form entropies, binomial sums, hand-built matrices) rather than
from the code paths under test, runs at a fixed tolerance, and reports
pass/fail plus the measured magnitudes.  Everything is deterministic
for a given seed, so repeated runs emit byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import coding, protocols, qcore, thermo

__all__ = ["CriterionResult", "run_acceptance", "summary"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _random_density(rng: np.random.Generator, d: int) -> qcore.DensityMatrix:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return qcore.DensityMatrix(m / np.real(np.trace(m)), (d,))


def _random_alphabet(rng: np.random.Generator) -> coding.Alphabet:
    d = int(rng.integers(2, 5))
    k = int(rng.integers(1, 5))
    letters = tuple(_random_density(rng, d) for _ in range(k))
    w = rng.random(k) + 0.05
    return coding.Alphabet(letters, tuple(w / w.sum()))


def criterion_1(seed: int = 0) -> CriterionResult:
    """Unit engine run: one pure qubit is worth exactly one bit-unit."""
    natural = thermo.extractable_work(
        qcore.basis_state(0, 2), thermo.ThermalContext(units="natural")
    ).work
    si = thermo.extractable_work(
        qcore.basis_state(0, 2), thermo.ThermalContext(temperature=300.0, units="SI")
    ).work
    si_expect = 1.380649e-23 * math.log(2.0) * 300.0
    si_rel = abs(si - si_expect) / si_expect
    passed = natural == 1.0 and si_rel <= 1e-15
    return CriterionResult(1, "unit-cycle work for a pure qubit", passed, {
        "natural_work": natural,
        "si_work": si,
        "si_relative_error": si_rel,
    })


def criterion_2(seed: int = 0) -> CriterionResult:
    """Bell pair pays double the classical pair; an interceptor gets nothing."""
    ctx = thermo.ThermalContext(units="natural")
    bell = protocols.bell_protocol(ctx)
    tapped = protocols.bell_protocol(ctx, intercepted=True)
    classical = protocols.classical_pair_protocol(ctx)
    b_work = bell.per_party_work["B"].work
    i_work = tapped.interceptor_work.work
    c_work = classical.per_party_work["B"].work
    passed = (
        abs(b_work - 2.0) <= 1e-12
        and abs(i_work) <= 1e-12
        and c_work == b_work / 2.0
    )
    return CriterionResult(2, "quantum doubling of pair-distribution work", passed, {
        "bell_work": b_work,
        "interceptor_work": i_work,
        "classical_work": c_work,
    })


def criterion_3(seed: int = 0) -> CriterionResult:
    """Remote Carnot identity W = Q2 (1 - T1/T2) over random reservoir pairs."""
    rng = _rng(seed, 3)
    worst = 0.0
    for _ in range(100):
        t1, t2 = rng.uniform(1.0, 1000.0, size=2)
        rep = thermo.remote_carnot(float(t1), float(t2))
        expect = rep.heat_from_hot * (1.0 - rep.t_low / rep.t_high)
        worst = max(worst, abs(rep.work_per_qubit - expect) / abs(expect))
    return CriterionResult(3, "remote Carnot work identity", worst <= 1e-12, {
        "trials": 100,
        "worst_relative_residual": worst,
    })


def criterion_4(seed: int = 0) -> CriterionResult:
    """GHZ sharing: locked marginals, then n - 1 bit-units after broadcast."""
    ctx = thermo.ThermalContext(units="natural")
    worst_marginal = 0.0
    exact_payouts = True
    for n in range(2, 7):
        rho = protocols.ghz_state(n).density()
        for i in range(n):
            marg = qcore.partial_trace(rho, (i,))
            dev = float(np.max(np.abs(marg.data - np.eye(2) / 2.0)))
            worst_marginal = max(worst_marginal, dev)
        for branch in (0, 1):
            out = protocols.ghz_unlock(n, 0, ctx, outcome=branch)
            total = sum(
                wr.work for pid, wr in out.per_party_work.items() if pid != "A1"
            )
            if total != float(n - 1):
                exact_payouts = False
    passed = worst_marginal <= 1e-12 and exact_payouts
    return CriterionResult(4, "GHZ broadcast unlocking", passed, {
        "worst_marginal_deviation": worst_marginal,
        "payouts_exact": exact_payouts,
    })


def criterion_5(seed: int = 0) -> CriterionResult:
    """Even-parity no-information theorem, plus deterministic completion."""
    worst_dev = 0.0
    worst_completion = 0.0
    ctx = thermo.ThermalContext(units="natural")
    for n in (3, 4, 5):
        for rep in protocols.parity_no_information_trials(n, 20, seed=seed + n):
            worst_dev = max(worst_dev, rep.rho1_deviation, rep.rho12_deviation)
        rng = _rng(seed, 50 + n)
        bits = [int(b) for b in rng.integers(0, 2, size=n - 1)]
        revealed = {q: bits[q] for q in range(n - 1)}
        out = protocols.parity_unlock(n, revealed, ctx)
        final = out.per_party_work[f"A{n}"]
        worst_completion = max(worst_completion, abs(1.0 - final.work))
    passed = worst_dev < 1e-9 and worst_completion < 1e-10
    return CriterionResult(5, "parity-sharing security and unlock", passed, {
        "worst_reduced_state_deviation": worst_dev,
        "worst_completion_entropy": worst_completion,
        "channels_per_n": 20,
    })


def criterion_6(seed: int = 0) -> CriterionResult:
    """Budget identity on random alphabets; Holevo value of {|0>, |+>}."""
    rng = _rng(seed, 6)
    ctx = thermo.ThermalContext(units="natural")
    worst = 0.0
    for _ in range(100):
        point = coding.tradeoff_point(_random_alphabet(rng), ctx)
        residual = abs(point.energy_bits + point.comm_bits
                       + point.avg_letter_entropy - point.capacity_bits)
        worst = max(worst, residual)
    lam_hi = (2.0 + math.sqrt(2.0)) / 4.0
    lam_lo = (2.0 - math.sqrt(2.0)) / 4.0
    chi_expect = -(lam_hi * math.log2(lam_hi) + lam_lo * math.log2(lam_lo))
    chi = coding.holevo_chi(coding.zero_plus_alphabet())
    chi_err = abs(chi - chi_expect)
    passed = worst < 1e-12 and chi_err <= 1e-10
    return CriterionResult(6, "energy/communication budget identity", passed, {
        "worst_identity_residual": worst,
        "chi_zero_plus": chi,
        "chi_eigenvalue_oracle": chi_expect,
        "chi_error": chi_err,
    })


def _binomial_capture(p: float, L: int, delta: float) -> float:
    """Independent binomial-sum capture oracle for a diag(p, 1-p) source."""
    q = 1.0 - p
    s = -(p * math.log2(p) + q * math.log2(q))
    lo, hi = -L * (s + delta), -L * (s - delta)
    total = 0.0
    for k in range(L + 1):
        w = (L - k) * math.log2(p) + k * math.log2(q)
        if lo <= w <= hi:
            total += math.comb(L, k) * (p ** (L - k)) * (q ** k)
    return total


def criterion_7(seed: int = 0) -> CriterionResult:
    """Typical-subspace capture against the binomial oracle, and dim bound."""
    p, delta = 0.9, 0.2
    rho = qcore.DensityMatrix(np.diag([p, 1.0 - p]).astype(complex), (2,))
    captures = []
    worst_err = 0.0
    bound_ok = True
    for L in (8, 16, 24):
        sub = coding.typical_subspace(rho, L, delta)
        oracle = _binomial_capture(p, L, delta)
        worst_err = max(worst_err, abs(sub.capture_probability - oracle))
        captures.append(sub.capture_probability)
        if sub.dim > 0 and math.log2(sub.dim) > L * (sub.source_entropy + delta):
            bound_ok = False
    monotone = captures[0] <= captures[1] <= captures[2]
    passed = worst_err <= 1e-12 and monotone and bound_ok
    return CriterionResult(7, "typicality census for a biased qubit source", passed, {
        "captures": captures,
        "worst_oracle_error": worst_err,
        "monotone_in_L": monotone,
        "dimension_bound_holds": bound_ok,
    })


def criterion_8(seed: int = 0) -> CriterionResult:
    """Refactorization ledger bracket, plus the explicit small-block unitary."""
    ctx = thermo.ThermalContext(units="natural")
    alphabet = coding.orthogonal_pure_alphabet(2)
    ledger = coding.refactorization_ledger(alphabet, 10, 0.1, ctx)
    in_bracket = (ledger.lower_bound - 1e-12 <= ledger.net_per_letter
                  <= ledger.upper_bound + 1e-12)
    worst_unitarity = 0.0
    worst_mapping = 0.0
    for L in (1, 2, 3):
        sub = coding.typical_subspace(coding.ensemble_state(alphabet), L, 0.1)
        check = coding.refactorization_unitary(sub)
        worst_unitarity = max(worst_unitarity, check.unitarity_residual)
        worst_mapping = max(worst_mapping, check.mapping_residual)
    passed = in_bracket and worst_unitarity < 1e-10 and worst_mapping == 0.0
    return CriterionResult(8, "refactorization energy audit", passed, {
        "net_per_letter": ledger.net_per_letter,
        "lower_bound": ledger.lower_bound,
        "upper_bound": ledger.upper_bound,
        "epsilon": ledger.epsilon,
        "worst_unitarity_residual": worst_unitarity,
        "worst_mapping_residual": worst_mapping,
    })


def criterion_9(seed: int = 0) -> CriterionResult:
    """Blocking pushes per-letter energy monotonically toward its ceiling."""
    ctx = thermo.ThermalContext(units="natural")
    alphabet = coding.zero_plus_alphabet()
    base = coding.tradeoff_point(alphabet, ctx)
    ceiling = base.capacity_bits - base.avg_letter_entropy
    rates = []
    for n in range(1, 5):
        blocked = coding.block_alphabet(alphabet, n)
        point = coding.tradeoff_point(blocked, ctx)
        rates.append(point.energy_bits / n)
    monotone = all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    capped = all(r <= ceiling + 1e-12 for r in rates)
    curve = coding.tradeoff_curve(coding.orthogonal_pure_alphabet(2), ctx)
    endpoint_err = max(
        abs(curve[0][0] - 1.0), abs(curve[0][1] - 0.0),
        abs(curve[1][0] - 0.0), abs(curve[1][1] - 1.0),
    )
    passed = monotone and capped and endpoint_err <= 1e-12
    return CriterionResult(9, "blocking limit of the energy rate", passed, {
        "energy_rates": rates,
        "ceiling": ceiling,
        "monotone": monotone,
        "endpoint_error": endpoint_err,
    })


_CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9,
)


def run_acceptance(seed: int = 0) -> list[CriterionResult]:
    """Run every acceptance criterion, seeded by ``seed >= 0``, and collect the results."""
    seed = qcore._seed(seed)
    return [fn(seed) for fn in _CRITERIA]


def summary(results: list[CriterionResult]) -> dict:
    """JSON-ready report with one entry per criterion."""
    return {
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
