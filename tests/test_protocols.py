"""
Distribution-protocol tests: Bell-pair superdense energy delivery, the
classical correlated baseline, cat-state broadcast unlocking, and the
even-parity mixture with its no-single-qubit-information property.

Payout oracles are worked by hand from the state definitions: a reconstructed
pure pair is worth log2(4) - 0 = 2 bit-units, a classical correlated pair
log2(4) - 1 = 1, and a maximally mixed qubit exactly 0.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import even_parity_state
from qihe import qcore
from qihe.cli import main
from qihe.qcore import (
    CapacityError,
    DensityMatrix,
    ImpossibleEvidenceError,
    QuantumChannel,
    ValidationError,
    measure_computational,
    partial_trace,
    von_neumann_entropy,
)
from qihe.thermo import ThermalContext, unit_factor
from qihe.protocols import (
    bell_pair,
    bell_protocol,
    classical_pair,
    classical_pair_protocol,
    ghz_state,
    ghz_unlock,
    haar_random_channel,
    parity_no_information_check,
    parity_no_information_trials,
    parity_unlock,
)


class TestBellProtocol:
    def test_receiver_unlocks_two_bits(self, natural_ctx):
        out = bell_protocol(natural_ctx)
        assert out.per_party_work["B"].work == 2.0
        assert out.per_party_work["A"].work == 0.0
        assert out.interceptor_work is None

    def test_interception_destroys_the_advantage(self, natural_ctx):
        out = bell_protocol(natural_ctx, intercepted=True)
        assert abs(out.interceptor_work.work) <= 1e-12
        assert abs(out.per_party_work["B"].work) <= 1e-12

    def test_quantum_pair_is_worth_twice_the_classical_pair(self, natural_ctx):
        quantum = bell_protocol(natural_ctx).per_party_work["B"].work
        classical = classical_pair_protocol(natural_ctx).per_party_work["B"].work
        assert quantum == 2.0 * classical

    def test_si_payout_scales_with_temperature(self):
        ctx = ThermalContext(temperature=77.0, units="SI")
        out = bell_protocol(ctx)
        np.testing.assert_allclose(
            out.per_party_work["B"].work, 2.0 * unit_factor(ctx), rtol=1e-12
        )
        assert out.per_party_work["B"].units == "J"

    def test_each_flying_qubit_is_maximally_mixed(self):
        rho = bell_pair().density()
        for qubit in (0, 1):
            marg = partial_trace(rho, [qubit])
            np.testing.assert_allclose(marg.data, np.eye(2) / 2, atol=1e-12)

    def test_outcome_serializes_with_units(self, natural_ctx, capsys):
        """``to_dict`` carries the numbers; the CLI report attaches their units."""
        assert "work_units" not in bell_protocol(natural_ctx).to_dict()["parties"]["B"]
        assert main(["protocol", "bell"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["parties"]["B"]["work"] == 2.0
        assert doc["parties"]["B"]["work_units"] == "bit-unit"
        assert doc["parties"]["B"]["entropy_delta_bits_units"] == "bit"
        assert doc["interceptor"] is None


class TestClassicalPairProtocol:
    def test_receiver_gets_exactly_one_bit(self, natural_ctx):
        out = classical_pair_protocol(natural_ctx)
        assert out.per_party_work["B"].work == 1.0
        assert out.per_party_work["A"].work == 0.0

    def test_pair_state_is_the_correlated_mixture(self):
        pair = classical_pair()
        np.testing.assert_array_equal(pair.data, np.diag([0.5, 0, 0, 0.5]))
        assert pair.dims == (2, 2)
        assert von_neumann_entropy(pair) == 1.0


class TestGhzProtocol:
    def test_state_amplitudes(self):
        psi = ghz_state(4)
        expect = np.zeros(16, dtype=complex)
        expect[0] = expect[15] = 1 / math.sqrt(2)
        np.testing.assert_allclose(psi.amplitudes, expect, atol=1e-15)

    def test_requires_at_least_two_parties(self):
        with pytest.raises(ValidationError):
            ghz_state(1)

    def test_single_party_marginals_maximally_mixed(self):
        for n in range(2, 7):
            rho = ghz_state(n).density()
            for q in range(n):
                marg = partial_trace(rho, [q])
                np.testing.assert_allclose(marg.data, np.eye(2) / 2, atol=1e-12)

    def test_two_party_marginal_is_classically_correlated(self):
        """Tracing a 3-qubit cat state down to two qubits kills the coherence."""
        marg = partial_trace(ghz_state(3).density(), [0, 1])
        np.testing.assert_allclose(marg.data, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)
        assert abs(von_neumann_entropy(marg) - 1.0) < 1e-12

    def test_broadcast_unlocks_one_bit_per_remote_party(self, natural_ctx):
        for n in range(2, 7):
            out = ghz_unlock(n, 0, natural_ctx)
            works = {pid: rep.work for pid, rep in out.per_party_work.items()}
            assert works["A1"] == 0.0
            for i in range(2, n + 1):
                assert works[f"A{i}"] == 1.0

    def test_both_branches_are_simulated_when_outcome_unspecified(self, natural_ctx):
        out = ghz_unlock(3, 0, natural_ctx)
        assert out.broadcast_log == (("A1", 0), ("A1", 1))

    def test_explicit_outcome_logs_single_branch(self, natural_ctx):
        out = ghz_unlock(3, 1, natural_ctx, outcome=1)
        assert out.broadcast_log == (("A2", 1),)
        assert out.per_party_work["A2"].work == 0.0
        assert out.per_party_work["A1"].work == 1.0
        assert out.per_party_work["A3"].work == 1.0

    def test_initiator_index_validated(self, natural_ctx):
        with pytest.raises(ValidationError):
            ghz_unlock(3, 3, natural_ctx)

    def test_outcome_validated_before_the_register_is_built(self, natural_ctx):
        with pytest.raises(ValidationError, match="outcome"):
            ghz_unlock(40, 0, natural_ctx, outcome=2)

    def test_unlocked_total_dominates_broadcast_cost(self, natural_ctx):
        """n-1 unlocked bits always repay the one broadcast bit for n >= 2."""
        for n in range(2, 7):
            out = ghz_unlock(n, 0, natural_ctx)
            unlocked = sum(rep.work for rep in out.per_party_work.values())
            assert unlocked == float(n - 1)
            assert unlocked >= 1.0


class TestEvenParityState:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_support_is_even_parity_strings(self, n):
        rho = even_parity_state(n)
        expect = np.zeros((2**n, 2**n), dtype=complex)
        for idx in range(2**n):
            if bin(idx).count("1") % 2 == 0:
                expect[idx, idx] = 2.0 ** (1 - n)
        assert rho.dims == (2,) * n
        assert np.array_equal(rho.data, expect)

    def test_two_qubit_case_is_the_classical_pair(self):
        rho = even_parity_state(2)
        assert np.array_equal(rho.data, np.diag([0.5, 0, 0, 0.5]).astype(complex))

    def test_every_strict_subset_is_maximally_mixed(self):
        """No coalition missing even one qubit can extract anything."""
        from itertools import combinations

        for n in (3, 4):
            rho = even_parity_state(n)
            for size in range(1, n):
                for keep in combinations(range(n), size):
                    marg = partial_trace(rho, keep)
                    d = 2**size
                    np.testing.assert_allclose(marg.data, np.eye(d) / d, atol=1e-12)


class TestParityNoInformation:
    def test_identity_channel_baseline(self):
        ch = QuantumChannel(kraus=(np.eye(2, dtype=complex),), target=(2,))
        rep = parity_no_information_check(3, ch)
        assert rep.c_even == 1.0 and rep.c_odd == 1.0
        assert rep.rho1_deviation < 1e-14
        assert rep.rho12_deviation < 1e-14
        assert abs(rep.branch_weight - 1.0) < 1e-12

    def test_selective_projector_reveals_nothing_about_first_qubit(self):
        """Projecting the last qubit onto |0> halves the norm but leaves
        the first qubit exactly maximally mixed."""
        p0 = np.diag([1.0, 0.0]).astype(complex)
        rep = parity_no_information_check(3, QuantumChannel(kraus=(p0,), target=(2,)))
        assert rep.c_even == 1.0 and rep.c_odd == 0.0
        assert rep.rho1_deviation == 0.0
        assert rep.rho12_deviation == 0.0
        assert abs(rep.branch_weight - 0.5) < 1e-12

    def test_trials_check_the_cap_before_drawing_a_channel(self, monkeypatch):
        monkeypatch.setenv("QIHE_MAX_DIM", "1024")
        with pytest.raises(CapacityError):
            parity_no_information_trials(40, trials=1)

    def test_a_negative_seed_is_refused_by_name(self):
        """A seed below 0 or a bool names ``seed``; a numpy integer gives the
        reports of the equal ``int``, and a seed past 64 bits is taken."""
        for seed in (-1, -2 ** 70, True):
            with pytest.raises(ValidationError, match=r"^seed must be"):
                parity_no_information_trials(3, 1, seed=seed)
        assert (parity_no_information_trials(3, 2, seed=np.int64(5))
                == parity_no_information_trials(3, 2, seed=5))
        assert len(parity_no_information_trials(3, 1, seed=2 ** 100)) == 1

    @pytest.mark.parametrize("build", [lambda: ghz_state(10 ** 8),
                                       lambda: parity_no_information_trials(10 ** 8, 1),
                                       lambda: parity_unlock(10 ** 8, {}, ThermalContext())],
                             ids=["ghz", "trials", "unlock"])
    def test_a_register_past_the_cap_is_refused_without_computing_its_size(self, build):
        """``2**(10**8)`` is never formed: the cap check cuts the exponent first."""
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=r"total dimension 2\*\*\d+ or more exceeds"):
            build()
        assert time.perf_counter() - start < 0.1

    def test_random_channels_leak_nothing(self):
        for n in (3, 4, 5):
            for rep in parity_no_information_trials(n, trials=5, seed=n):
                assert rep.rho1_deviation < 1e-10
                assert rep.rho12_deviation < 1e-10

    def test_pair_marginal_structure_is_parity_symmetric(self):
        """The surviving two-qubit marginal is diag(ce, co, co, ce)/2^(n-1)."""
        rng = np.random.default_rng(9)
        ch = haar_random_channel(4, 3, rng, target=(2, 3))
        rep = parity_no_information_check(4, ch)
        assert rep.rho12_deviation < 1e-12
        # trace bookkeeping: the branch weight is the trace of the predicted
        # pair marginal, 2^(1-n) * (2 ce + 2 co)
        assert abs((rep.c_even + rep.c_odd) * 2.0 ** (2 - rep.n) - rep.branch_weight) < 1e-12

    @pytest.mark.parametrize("n", [3, 6])
    def test_check_builds_and_diagonalizes_no_state(self, n, monkeypatch):
        """The check works on plain arrays: no validation body, no ``eigvalsh``."""
        ch = haar_random_channel(2 ** (n - 2), 2, np.random.default_rng(n), tuple(range(2, n)))
        calls = []
        validate, eigvalsh = qcore._validate, np.linalg.eigvalsh
        monkeypatch.setattr(qcore, "_validate",
                            lambda state, *args: calls.append("validate") or validate(state, *args))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: calls.append("eigvalsh") or eigvalsh(m))
        rep = parity_no_information_check(n, ch)
        assert calls == []
        assert rep.rho1_deviation < 1e-12 and rep.rho12_deviation < 1e-12

    @pytest.mark.parametrize("n, n_kraus", [(3, 1), (5, 3), (7, 4)])
    def test_blocks_give_the_numbers_of_the_dense_product(self, n, n_kraus):
        """The four nonzero blocks give, bit for bit, the weight and deviations
        of applying the channel to the dense parity diagonal and tracing it."""
        ch = haar_random_channel(2 ** (n - 2), n_kraus, np.random.default_rng(n),
                                 tuple(range(2, n)))
        rep = parity_no_information_check(n, ch)
        dims = (2,) * n
        dense = qcore._apply_kraus_raw(even_parity_state(n).data, dims, ch.target, ch.kraus)
        rho12 = qcore._partial_trace_raw(dense, dims, [0, 1])
        rho1 = qcore._partial_trace_raw(dense, dims, [0])
        weight = float(np.real(np.trace(rho1)))
        predicted12 = 2.0 ** (1 - n) * np.diag([rep.c_even, rep.c_odd, rep.c_odd, rep.c_even])
        assert rep.branch_weight == weight
        assert rep.rho1_deviation == float(np.max(np.abs(rho1 / weight - np.eye(2) / 2.0)))
        assert rep.rho12_deviation == float(np.max(np.abs(rho12 - predicted12)))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_parity_weights_are_the_projected_kraus_traces(self, n):
        """On Haar-random trace-preserving channels, ``c_even + c_odd`` is
        within ``1e-12 * 2**(n-2)`` of ``2**(n-2)``, and each weight is within
        1e-12, relative, of ``sum_k tr(K P K^dag)``, where ``P`` projects onto
        the columns whose bits (qubits 2..n-1) have even, or odd, weight.  A
        channel's first Kraus operator alone, a selective branch whose two
        weights differ, meets the same oracle."""
        block = 2 ** (n - 2)
        odd = np.diag([bin(i).count("1") % 2 for i in range(block)]).astype(complex)
        rng = np.random.default_rng(100 + n)
        target = tuple(range(2, n))
        for n_kraus in range(1, 5):
            ch = haar_random_channel(block, n_kraus, rng, target)
            rep = parity_no_information_check(n, ch)
            assert abs(rep.c_even + rep.c_odd - block) <= 1e-12 * block
            branch = QuantumChannel(ch.kraus[:1], target)
            cases = ((ch.kraus, rep), (branch.kraus, parity_no_information_check(n, branch)))
            for kraus, rep in cases:
                for got, proj in ((rep.c_even, np.eye(block) - odd), (rep.c_odd, odd)):
                    want = sum(np.trace(k @ proj @ k.conj().T).real for k in kraus)
                    assert abs(got - want) <= 1e-12 * abs(want)

    def test_channel_must_avoid_the_first_two_qubits(self):
        ch = QuantumChannel(kraus=(np.eye(2, dtype=complex),), target=(1,))
        with pytest.raises(ValidationError):
            parity_no_information_check(3, ch)

    def test_channel_must_cover_the_full_tail(self):
        ch = QuantumChannel(kraus=(np.eye(2, dtype=complex),), target=(2,))
        with pytest.raises(ValidationError):
            parity_no_information_check(4, ch)

    def test_needs_at_least_three_qubits(self):
        ch = QuantumChannel(kraus=(np.eye(2, dtype=complex),), target=(2,))
        with pytest.raises(ValidationError):
            parity_no_information_check(2, ch)


class TestParityUnlock:
    def test_full_revelation_completes_the_last_qubit(self, natural_ctx):
        out = parity_unlock(3, {0: 1, 1: 0}, natural_ctx)
        assert out.per_party_work["A3"].work == 1.0
        assert out.per_party_work["A1"].work == 0.0
        assert out.broadcast_log == (("A1", 1), ("A2", 0))

    def test_completion_bit_restores_even_parity(self, natural_ctx):
        """Independent check by direct conditioning: revealed bits 1,0 force
        the remaining qubit into |1> with certainty."""
        rho = even_parity_state(3)
        after_first = measure_computational(rho, 0)[1].post_state
        final = measure_computational(after_first, 0)[0].post_state
        np.testing.assert_allclose(final.data, np.diag([0.0, 1.0]), atol=1e-14)

    def test_partial_revelation_unlocks_nothing(self, natural_ctx):
        out = parity_unlock(4, {0: 1}, natural_ctx)
        for pid in ("A2", "A3", "A4"):
            assert out.per_party_work[pid].work == 0.0

    def test_contradictory_evidence_is_rejected(self, natural_ctx):
        with pytest.raises(ImpossibleEvidenceError):
            parity_unlock(3, {0: 1, 1: 0, 2: 0}, natural_ctx)

    def test_consistent_full_evidence_leaves_no_work(self, natural_ctx):
        out = parity_unlock(3, {0: 1, 1: 1, 2: 0}, natural_ctx)
        assert all(rep.work == 0.0 for rep in out.per_party_work.values())

    def test_input_validation(self, natural_ctx):
        with pytest.raises(ValidationError):
            parity_unlock(3, {0: 2}, natural_ctx)  # bits are 0/1
        with pytest.raises(ValidationError):
            parity_unlock(3, {5: 0}, natural_ctx)  # qubit index in range
        with pytest.raises(ValidationError):
            parity_unlock(1, {}, natural_ctx)  # at least two qubits


@pytest.mark.parametrize("unlock", [
    lambda ctx: ghz_unlock(7, 3, ctx),
    lambda ctx: parity_unlock(7, {1: 0, 4: 1}, ctx),
    lambda ctx: parity_unlock(7, {q: 1 for q in range(6)}, ctx),
], ids=["ghz", "parity-partial", "parity-complete"])
def test_unlocking_builds_no_matrix_above_2x2(natural_ctx, monkeypatch, unlock):
    shapes = []
    validate = DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__",
                        lambda self: shapes.append(np.shape(self.data)) or validate(self))
    unlock(natural_ctx)
    assert shapes and set(shapes) == {(2, 2)}


@pytest.mark.parametrize("call, name", [
    (lambda ctx: parity_unlock(3, {0: 1.7, 1: 0}, ctx), "revealed outcome"),
    (lambda ctx: parity_unlock(3, {0.5: 1, 1: 0}, ctx), "revealed qubit index"),
    (lambda ctx: parity_unlock(3, {0: "1", 1: 0}, ctx), "revealed outcome"),
    (lambda ctx: parity_unlock(3.0, {0: 1}, ctx), "n"),
    (lambda ctx: ghz_state(2.5), "n"),
    (lambda ctx: ghz_unlock(3, True, ctx), "initiator index"),
    (lambda ctx: ghz_unlock(3.0, 0, ctx), "n"),
    (lambda ctx: ghz_unlock(3, 0, ctx, outcome=1.0), "outcome"),
    (lambda ctx: even_parity_state(3.5), "n"),
    (lambda ctx: parity_no_information_trials(3, 2.5), "trials"),
    (lambda ctx: parity_no_information_trials(3.0, 2), "n"),
    (lambda ctx: parity_no_information_check(
        3.0, haar_random_channel(2, 1, np.random.default_rng(0), (2,))), "n"),
    (lambda ctx: haar_random_channel(2.0, 1, np.random.default_rng(0), (0,)), "dim"),
    (lambda ctx: haar_random_channel(2, True, np.random.default_rng(0), (0,)), "n_kraus"),
], ids=["reveal-outcome-float", "reveal-index-float", "reveal-outcome-str", "parity-n",
        "ghz-state-n", "ghz-initiator-bool", "ghz-n", "ghz-outcome-float", "even-parity-n",
        "trials-float", "trials-n", "check-n", "haar-dim", "haar-n-kraus"])
def test_integer_arguments_are_not_truncated(natural_ctx, call, name):
    with pytest.raises(ValidationError, match=rf"\b{name} must be an integer, got"):
        call(natural_ctx)


class TestHaarRandomChannels:
    @pytest.mark.parametrize("seed", range(5))
    def test_kraus_operators_are_blocks_of_the_scipy_draw(self, seed):
        from scipy.stats import unitary_group

        # n_kraus = 1 makes the one Kraus operator the whole unitary
        shapes = [(n, 1) for n in range(2, 65)] + [(1, 4), (2, 3), (4, 2), (8, 4)]
        for dim, n_kraus in shapes:
            ch = haar_random_channel(dim, n_kraus, np.random.default_rng(seed), target=(0,))
            big = unitary_group.rvs(dim * n_kraus, random_state=np.random.default_rng(seed))
            assert len(ch.kraus) == n_kraus
            for j, k in enumerate(ch.kraus):
                assert np.array_equal(k, big[j * dim:(j + 1) * dim, :dim]), (dim, n_kraus)

    def test_seeded_draws_are_reproducible(self):
        a = haar_random_channel(4, 3, np.random.default_rng(21), target=(2, 3))
        b = haar_random_channel(4, 3, np.random.default_rng(21), target=(2, 3))
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))

    def test_kraus_completeness(self):
        rng = np.random.default_rng(23)
        for dim, k in ((2, 1), (2, 4), (4, 3), (8, 2)):
            ch = haar_random_channel(dim, k, rng, target=tuple(range(2, 2 + int(math.log2(dim)))))
            total = sum(m.conj().T @ m for m in ch.kraus)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)
            assert ch.trace_preserving
