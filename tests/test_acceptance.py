"""
Acceptance suite: ten numbered criteria covering the whole library, each
with its stated tolerance and an oracle computed independently inside the
test (binomial sums via math.comb, raw-numpy channel application and
marginals, closed-form eigenvalues, CODATA constants).

Every test prints one ``PASS criterion N: ...`` / ``FAIL criterion N: ...``
line directly to the terminal, then asserts.

Run:
    pytest tests/test_acceptance.py -v
"""

import json
import math

import numpy as np

from conftest import even_parity_state
from qihe.qcore import make_density, PureState
from qihe.thermo import ThermalContext, remote_carnot, extractable_work
from qihe.protocols import (
    bell_protocol,
    classical_pair_protocol,
    ghz_state,
    ghz_unlock,
    haar_random_channel,
    parity_no_information_trials,
    parity_unlock,
)
from qihe.coding import (
    block_alphabet,
    holevo_chi,
    orthogonal_pure_alphabet,
    refactorization_ledger,
    refactorization_unitary,
    tradeoff_curve,
    tradeoff_point,
    typical_subspace,
    zero_plus_alphabet,
)
from qihe.cli import main as cli_main

NATURAL = ThermalContext(units="natural")


def report(capsys, number: int, name: str, passed: bool, details: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"{verdict} criterion {number}: {name} — {details}")
    assert passed, f"criterion {number}: {name}: {details}"


def binomial_capture(p: float, L: int, delta: float) -> float:
    """Capture probability of diag(p,1-p)^(x)L, summed with math.comb only."""
    s = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    lo, hi = -L * (s + delta), -L * (s - delta)
    total = 0.0
    for k in range(L + 1):
        w = (L - k) * math.log2(p) + k * math.log2(1 - p)
        if lo <= w <= hi:
            total += math.comb(L, k) * p ** (L - k) * (1 - p) ** k
    return total


def pure_marginal(amplitudes: np.ndarray, n: int, qubit: int) -> np.ndarray:
    """Single-qubit marginal of an n-qubit pure state, by raw tensordot."""
    t = amplitudes.reshape((2,) * n)
    others = [ax for ax in range(n) if ax != qubit]
    return np.tensordot(t, t.conj(), axes=(others, others))


def test_criterion_01_unit_of_work(capsys):
    pure = PureState(np.array([1.0, 0.0], dtype=complex), (2,))
    natural = extractable_work(pure, NATURAL).work
    si = extractable_work(pure, ThermalContext(temperature=300.0, units="SI")).work
    expected_si = 1.380649e-23 * math.log(2) * 300.0
    rel = abs(si - expected_si) / expected_si
    ok = natural == 1.0 and rel <= 1e-15
    report(
        capsys, 1, "pure-qubit cycle yields one bit-unit",
        ok, f"natural={natural!r}, SI rel err={rel:.2e}",
    )


def test_criterion_02_entangled_pair_doubles_the_classical_payout(capsys):
    quantum = bell_protocol(NATURAL).per_party_work["B"].work
    tapped = bell_protocol(NATURAL, intercepted=True)
    classical = classical_pair_protocol(NATURAL).per_party_work["B"].work
    ok = (
        abs(quantum - 2.0) <= 1e-12
        and abs(tapped.interceptor_work.work) <= 1e-12
        and classical * 2.0 == quantum
    )
    report(
        capsys, 2, "pair protocols pay 2 : 0 : 1",
        ok,
        f"quantum={quantum}, interceptor={tapped.interceptor_work.work}, classical={classical}",
    )


def test_criterion_03_two_reservoir_messenger_budget(capsys):
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        t1, t2 = (float(x) for x in rng.uniform(1.0, 1000.0, size=2))
        rep = remote_carnot(t1, t2)
        expected = rep.heat_from_hot * (1 - t1 / t2)
        scale = max(abs(expected), abs(rep.heat_from_hot))
        worst = max(worst, abs(rep.work_per_qubit - expected) / scale)
    ok = worst <= 1e-12
    report(
        capsys, 3, "work equals hot heat times the two-temperature efficiency",
        ok, f"worst relative residual over 100 pairs = {worst:.2e}",
    )


def test_criterion_04_cat_state_broadcast_unlock(capsys):
    worst_marginal = 0.0
    payouts_exact = True
    for n in range(2, 7):
        psi = ghz_state(n)
        for q in range(n):
            marg = pure_marginal(psi.amplitudes, n, q)
            worst_marginal = max(worst_marginal, float(np.max(np.abs(marg - np.eye(2) / 2))))
        for branch in (0, 1):
            out = ghz_unlock(n, 0, NATURAL, outcome=branch)
            total = sum(rep.work for rep in out.per_party_work.values())
            if total != float(n - 1):
                payouts_exact = False
            if any(
                rep.work != 1.0
                for pid, rep in out.per_party_work.items()
                if pid != "A1"
            ):
                payouts_exact = False
    ok = worst_marginal <= 1e-12 and payouts_exact
    report(
        capsys, 4, "every marginal is depolarized and broadcast unlocks n-1 bits",
        ok, f"worst marginal deviation={worst_marginal:.2e}, payouts exact={payouts_exact}",
    )


def test_criterion_05_parity_mixture_leaks_nothing_single_qubit(capsys):
    worst_dev = 0.0
    for n in (3, 4, 5):
        for rep in parity_no_information_trials(n, trials=20, seed=400 + n):
            worst_dev = max(worst_dev, rep.rho1_deviation)

    # independent cross-check with raw numpy for one random channel per n
    worst_raw = 0.0
    for n in (3, 4, 5):
        rng = np.random.default_rng(500 + n)
        tail = 2 ** (n - 2)
        ch = haar_random_channel(tail, 3, rng, target=tuple(range(2, n)))
        rho = even_parity_state(n).data
        lifted = [np.kron(np.eye(4, dtype=complex), k) for k in ch.kraus]
        out = sum(op @ rho @ op.conj().T for op in lifted)
        weight = float(np.real(np.trace(out)))
        m = out.reshape(2, 2 ** (n - 1), 2, 2 ** (n - 1))
        rho1 = np.einsum("ikjk->ij", m) / weight
        worst_raw = max(worst_raw, float(np.max(np.abs(rho1 - np.eye(2) / 2))))

    # full revelation leaves the last holder a deterministic pure bit
    completion_ok = True
    for n in (3, 4, 5):
        rng = np.random.default_rng(600 + n)
        bits = [int(b) for b in rng.integers(0, 2, size=n - 1)]
        out = parity_unlock(n, dict(enumerate(bits)), NATURAL)
        work = out.per_party_work[f"A{n}"].work
        if abs(work - 1.0) >= 1e-10:
            completion_ok = False
        # slice the diagonal directly: only the parity-completing string survives
        diag = np.real(np.diag(even_parity_state(n).data))
        base = sum(b << (n - 1 - i) for i, b in enumerate(bits))
        stay, flip = diag[base << 1 | (sum(bits) % 2)], diag[base << 1 | (1 - sum(bits) % 2)]
        if not (stay > 0 and flip == 0):
            completion_ok = False
    ok = worst_dev < 1e-9 and worst_raw < 1e-9 and completion_ok
    report(
        capsys, 5, "tail channels reveal nothing; full revelation purifies",
        ok,
        f"worst library dev={worst_dev:.2e}, worst raw-numpy dev={worst_raw:.2e}, "
        f"completion ok={completion_ok}",
    )


def test_criterion_06_energy_communication_budget(capsys):
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        letters = []
        for _ in range(k):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = g @ g.conj().T
            letters.append(make_density(m / np.real(np.trace(m)), d))
        raw = rng.random(k) + 0.1
        from qihe.coding import Alphabet

        ab = Alphabet(letters=tuple(letters), probs=tuple(float(x) for x in raw / raw.sum()))
        pt = tradeoff_point(ab, NATURAL)
        worst = max(
            worst,
            abs(pt.energy_bits + pt.comm_bits + pt.avg_letter_entropy - pt.capacity_bits),
        )

    lam = [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4]
    chi_expected = -sum(x * math.log2(x) for x in lam)
    chi_err = abs(holevo_chi(zero_plus_alphabet()) - chi_expected)
    ok = worst < 1e-12 and chi_err <= 1e-10
    report(
        capsys, 6, "energy + information + letter entropy exhausts the capacity",
        ok, f"worst budget residual={worst:.2e}, chi vs eigenvalue oracle={chi_err:.2e}",
    )


def test_criterion_07_typical_subspace_capture(capsys):
    rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
    s = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    captures, oracle_ok, bound_ok = [], True, True
    for L in (8, 16, 24):
        sub = typical_subspace(rho, L=L, delta=0.2)
        captures.append(sub.capture_probability)
        if abs(sub.capture_probability - binomial_capture(0.9, L, 0.2)) > 1e-12:
            oracle_ok = False
        if sub.dim > 0 and math.log2(sub.dim) > L * (s + 0.2):
            bound_ok = False
    monotone = captures[0] <= captures[1] <= captures[2]
    ok = oracle_ok and monotone and bound_ok
    report(
        capsys, 7, "spectral capture matches the binomial oracle and grows",
        ok,
        f"captures={['%.6f' % c for c in captures]}, oracle ok={oracle_ok}, "
        f"monotone={monotone}, dimension bound ok={bound_ok}",
    )


def test_criterion_08_refactorization_ledger_and_explicit_swap(capsys):
    led = refactorization_ledger(orthogonal_pure_alphabet(), 10, 0.1, NATURAL)
    bracket_ok = led.lower_bound <= led.net_per_letter <= led.upper_bound
    eps_ok = led.epsilon == 1.0 - led.success_probability == 0.0

    unitary_ok = True
    worst_unitarity = 0.0
    for L in (1, 2, 3):
        small = refactorization_ledger(orthogonal_pure_alphabet(), L, 0.1, NATURAL)
        ru = refactorization_unitary(small.subspace)
        worst_unitarity = max(worst_unitarity, ru.unitarity_residual)
        if ru.unitarity_residual >= 1e-10 or ru.mapping_residual != 0.0:
            unitary_ok = False
        # independent check: the image of the embedded subspace basis has no
        # support outside the leading block of coordinates
        mapped = ru.matrix @ ru.gamma_basis
        tail = mapped[small.subspace.dim :, :]
        if np.max(np.abs(tail)) != 0.0:
            unitary_ok = False
    ok = bracket_ok and eps_ok and unitary_ok
    report(
        capsys, 8, "work ledger brackets the net and the small swap is exact",
        ok,
        f"net={led.net_per_letter} in [{led.lower_bound}, {led.upper_bound}], "
        f"eps={led.epsilon}, worst unitarity residual={worst_unitarity:.2e}",
    )


def test_criterion_09_blocking_trades_information_for_energy(capsys):
    zp = zero_plus_alphabet()
    rates = []
    for n in range(1, 5):
        pt = tradeoff_point(block_alphabet(zp, n), NATURAL)
        rates.append(pt.energy_bits / n)
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    below_ceiling = all(r <= 1.0 + 1e-12 for r in rates)  # M - <S_a> = 1 here

    full_comm, full_energy = tradeoff_curve(orthogonal_pure_alphabet(), NATURAL)
    endpoints_ok = (
        abs(full_comm[0] - 1.0) <= 1e-12
        and abs(full_comm[1]) <= 1e-12
        and abs(full_energy[0]) <= 1e-12
        and abs(full_energy[1] - 1.0) <= 1e-12
    )
    ok = nondecreasing and below_ceiling and endpoints_ok
    report(
        capsys, 9, "blocked energy rate climbs toward the ceiling",
        ok,
        f"rates={['%.4f' % r for r in rates]}, endpoints ok={endpoints_ok}",
    )


def test_criterion_10_verification_is_deterministic(capsys):
    code_first = cli_main(["verify", "--seed", "11"])
    first = capsys.readouterr().out
    code_second = cli_main(["verify", "--seed", "11"])
    second = capsys.readouterr().out
    doc = json.loads(first)
    ok = (
        code_first == 0
        and code_second == 0
        and first == second
        and doc["all_passed"] is True
        and len(doc["criteria"]) == 9
    )
    report(
        capsys, 10, "verify exits 0 and repeated runs are byte-identical",
        ok,
        f"exit codes=({code_first},{code_second}), bytes equal={first == second}, "
        f"criteria={len(doc['criteria'])}",
    )
