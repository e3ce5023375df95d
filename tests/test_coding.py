"""
Source-coding tests: alphabets and their ensemble states, the Holevo
communication bound, the energy/communication budget, letter blocking,
spectral typical subspaces, and the block-refactorization work ledger.

Independent oracles used here:
  * eigenvalues of the uniform {|0>,|+>} ensemble are (2 ± sqrt 2)/4,
    from the characteristic polynomial of [[3,1],[1,1]]/4;
  * capture probabilities for diagonal qubit sources are binomial tail
    sums computed with math.comb, bypassing the library's census;
  * typical-class membership is re-derived inline from the eigenvalue
    window definition.
"""

import json
import math

import numpy as np
import pytest

from qihe.qcore import CapacityError, DensityMatrix, ValidationError, make_density
from qihe.thermo import ThermalContext
from qihe.coding import (
    Alphabet,
    RefactorizationLedger,
    TradeoffPoint,
    block_alphabet,
    ensemble_state,
    holevo_chi,
    letter_entropies,
    load_alphabet,
    orthogonal_pure_alphabet,
    qubit_capture_curve,
    refactorization_ledger,
    refactorization_unitary,
    save_alphabet,
    tradeoff_curve,
    tradeoff_point,
    typical_subspace,
    zero_plus_alphabet,
)


def diag_qubit_alphabet(p: float) -> Alphabet:
    """Two classical letters |0><0|, |1><1| with weights (p, 1-p)."""
    return Alphabet(
        letters=(
            make_density(np.diag([1.0, 0.0]).astype(complex), 2),
            make_density(np.diag([0.0, 1.0]).astype(complex), 2),
        ),
        probs=(p, 1.0 - p),
    )


def binomial_capture(p: float, L: int, delta: float) -> float:
    """Independent capture oracle for the source diag(p, 1-p)."""
    s = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    lo, hi = -L * (s + delta), -L * (s - delta)
    total = 0.0
    for k in range(L + 1):
        w = (L - k) * math.log2(p) + k * math.log2(1 - p)
        if lo <= w <= hi:
            total += math.comb(L, k) * p ** (L - k) * (1 - p) ** k
    return total


class TestAlphabet:
    def test_probs_must_sum_to_one(self):
        letter = make_density(np.diag([1.0, 0.0]).astype(complex), 2)
        with pytest.raises(ValidationError):
            Alphabet(letters=(letter, letter), probs=(0.6, 0.6))

    def test_probs_must_be_nonnegative(self):
        letter = make_density(np.diag([1.0, 0.0]).astype(complex), 2)
        with pytest.raises(ValidationError):
            Alphabet(letters=(letter, letter), probs=(1.5, -0.5))

    @pytest.mark.parametrize("probs", [(math.nan, math.nan), (math.nan, 1.0)])
    def test_probs_must_be_finite(self, probs):
        letter = make_density(np.diag([1.0, 0.0]).astype(complex), 2)
        with pytest.raises(ValidationError, match="sum to 1"):
            Alphabet(letters=(letter, letter), probs=probs)

    @pytest.mark.parametrize("doc, field", [
        ({"dims": 2, "letters": [1], "probs": [1.0]}, "'letters'"),
        ({"dims": 2, "letters": [[[1, 0], [0, 0]]], "probs": [1.0]}, "'letters'"),
        ({"dims": 2, "letters": [[[[1, 0], [0, 0]], [[0, 0], [0]]]], "probs": [1.0]}, "'letters'"),
        ({"dims": 2, "letters": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]], "probs": None}, "'probs'"),
        ({"dims": None, "letters": [], "probs": []}, "'dims'"),
        ({"letters": [], "probs": []}, "'dims'"),
        ({"dims": 2, "probs": []}, "'letters'"),
        ({"dims": 2, "letters": []}, "'probs'"),
        ([1, 2], "JSON object"),
    ])
    def test_malformed_documents_name_the_field(self, doc, field):
        with pytest.raises(ValidationError, match=field):
            Alphabet.from_dict(doc)

    def test_letters_share_a_dimension(self):
        a = make_density(np.diag([1.0, 0.0]).astype(complex), 2)
        b = make_density(np.eye(3, dtype=complex) / 3, 3)
        with pytest.raises(ValidationError):
            Alphabet(letters=(a, b), probs=(0.5, 0.5))

    def test_needs_at_least_one_letter(self):
        with pytest.raises(ValidationError):
            Alphabet(letters=(), probs=())

    def test_capacity_bits_is_log2_of_dimension(self):
        assert orthogonal_pure_alphabet(4).capacity_bits == 2.0

    def test_json_round_trip(self, tmp_path):
        ab = zero_plus_alphabet()
        path = str(tmp_path / "alphabet.json")
        save_alphabet(ab, path)
        back = load_alphabet(path)
        assert back.probs == ab.probs
        for x, y in zip(back.letters, ab.letters):
            assert np.array_equal(x.data, y.data)
        # the on-disk document is plain JSON with an explicit dimension
        doc = json.load(open(path))
        assert doc["dims"] == 2
        assert len(doc["letters"]) == 2

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": 2, "letters": []}))
        with pytest.raises((ValidationError, KeyError)):
            load_alphabet(str(path))


class TestHolevoInformation:
    def test_orthogonal_letters_reach_full_capacity(self):
        assert holevo_chi(orthogonal_pure_alphabet()) == 1.0

    def test_zero_plus_ensemble_matrix(self):
        rho_b = ensemble_state(zero_plus_alphabet())
        np.testing.assert_allclose(
            rho_b.data, np.array([[0.75, 0.25], [0.25, 0.25]]), atol=1e-15
        )

    def test_zero_plus_chi_matches_eigenvalue_oracle(self):
        lam = [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4]
        expect = -sum(x * math.log2(x) for x in lam)
        assert abs(holevo_chi(zero_plus_alphabet()) - expect) <= 1e-10

    def test_identical_letters_carry_nothing(self):
        letter = make_density(np.diag([0.7, 0.3]).astype(complex), 2)
        ab = Alphabet(letters=(letter, letter), probs=(0.4, 0.6))
        assert holevo_chi(ab) == 0.0

    def test_information_bounds_on_random_alphabets(self, random_alphabet):
        """chi >= 0, chi <= S(rho_B), chi <= log2(#letters)."""
        from qihe.qcore import von_neumann_entropy

        rng = np.random.default_rng(47)
        for _ in range(50):
            ab = random_alphabet(rng)
            chi = holevo_chi(ab)
            assert chi >= -1e-10
            assert chi <= von_neumann_entropy(ensemble_state(ab)) + 1e-10
            assert chi <= math.log2(len(ab.letters)) + 1e-10

    def test_letter_entropies_of_pure_letters_vanish(self):
        ents = letter_entropies(zero_plus_alphabet())
        np.testing.assert_allclose(ents, [0.0, 0.0], atol=1e-12)


class TestEnergyCommunicationBudget:
    def test_budget_identity_over_random_alphabets(self, random_alphabet, natural_ctx):
        rng = np.random.default_rng(53)
        for _ in range(100):
            pt = tradeoff_point(random_alphabet(rng), natural_ctx)
            residual = pt.energy_bits + pt.comm_bits + pt.avg_letter_entropy - pt.capacity_bits
            assert abs(residual) < 1e-12

    def test_inconsistent_point_rejected(self):
        with pytest.raises(ValidationError):
            TradeoffPoint(
                energy_bits=0.5, comm_bits=0.5, avg_letter_entropy=0.5, capacity_bits=1.0
            )

    def test_negative_holevo_quantity_rejected(self):
        with pytest.raises(ValidationError, match="Holevo quantity came out negative"):
            TradeoffPoint(
                energy_bits=0.5, comm_bits=-1e-9, avg_letter_entropy=0.5 + 1e-9,
                capacity_bits=1.0,
            )

    def test_orthogonal_endpoints(self, natural_ctx):
        full_comm, full_energy = tradeoff_curve(orthogonal_pure_alphabet(), natural_ctx)
        assert abs(full_comm[0] - 1.0) <= 1e-12 and abs(full_comm[1]) <= 1e-12
        assert abs(full_energy[0]) <= 1e-12 and abs(full_energy[1] - 1.0) <= 1e-12

    def test_zero_plus_endpoints_against_closed_form(self, natural_ctx):
        lam = [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4]
        s_b = -sum(x * math.log2(x) for x in lam)
        (chi, residual_energy), (zero, ceiling) = tradeoff_curve(
            zero_plus_alphabet(), natural_ctx
        )
        assert abs(chi - s_b) <= 1e-10  # pure letters: chi = S(rho_B)
        assert abs(residual_energy - (1.0 - s_b)) <= 1e-10
        assert zero == 0.0
        assert abs(ceiling - 1.0) <= 1e-12  # pure letters: M - <S_a> = M


class TestBlocking:
    def test_block_letters_are_kron_powers(self):
        """Blocking repeats each letter n times; probabilities are untouched.
        That is what trades communication away for energy: long repeated
        words become distinguishable, so one word carries at most one
        letter's worth of choice but n letters' worth of purity."""
        ab = zero_plus_alphabet()
        b2 = block_alphabet(ab, 2)
        assert len(b2.letters) == 2
        assert b2.capacity_bits == 2.0
        assert b2.probs == ab.probs
        for blocked, single in zip(b2.letters, ab.letters):
            assert np.array_equal(blocked.data, np.kron(single.data, single.data))
            assert blocked.dims == (2, 2)

    def test_blocked_energy_rate_is_nondecreasing(self, natural_ctx):
        ab = zero_plus_alphabet()
        rates = []
        for n in range(1, 5):
            pt = tradeoff_point(block_alphabet(ab, n), natural_ctx)
            rates.append(pt.energy_bits / n)
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 1e-12
        # the rate never exceeds the asymptotic ceiling M - <S_a> = 1
        assert all(r <= 1.0 + 1e-12 for r in rates)

    def test_blocked_chi_is_subadditive(self):
        ab = zero_plus_alphabet()
        chi1 = holevo_chi(ab)
        chi2 = holevo_chi(block_alphabet(ab, 2))
        assert chi2 <= 2 * chi1 + 1e-12

    def test_blocking_diagonalizes_each_state_once(self, natural_ctx, monkeypatch):
        """block_alphabet(., 6) then tradeoff_point: one eigvalsh per state built.

        Each letter's sixth power is validated once (its intermediate
        products are arrays), and the blocked ensemble state once; every
        entropy, including the blocked-entropy self-check, reads a spectrum
        its state already holds.
        """
        ab = zero_plus_alphabet()
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(np.shape(a)[0]) or eigvalsh(a))
        tradeoff_point(block_alphabet(ab, 6), natural_ctx)
        assert calls == [64, 64, 64]

    def test_block_capacity_guard(self):
        with pytest.raises(CapacityError):
            block_alphabet(orthogonal_pure_alphabet(4), 8, max_dim=4096)


class TestTypicalSubspace:
    def test_capture_matches_binomial_oracle_both_methods(self):
        """The census and the projector built from its basis both match."""
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        sub = typical_subspace(rho, L=8, delta=0.2)
        assert sub.dim == 8  # only the one-excitation class is typical
        oracle = binomial_capture(0.9, 8, 0.2)
        np.testing.assert_allclose(sub.capture_probability, oracle, atol=1e-12)
        big_rho = np.diag(np.array([0.9, 0.1]))
        for _ in range(7):
            big_rho = np.kron(big_rho, np.diag([0.9, 0.1]))
        np.testing.assert_allclose(
            np.real(np.trace(sub.projector @ big_rho)), oracle, atol=1e-12
        )

    def test_methods_agree_at_larger_length(self):
        """The census agrees with a dense Kronecker-power eigenvalue count."""
        rho = make_density(np.diag([0.7, 0.3]).astype(complex), 2)
        sub = typical_subspace(rho, L=10, delta=0.15)
        big = np.array([[1.0]])
        for _ in range(10):
            big = np.kron(big, np.diag([0.7, 0.3]))
        lam = np.linalg.eigvalsh(big)
        s = -(0.7 * math.log2(0.7) + 0.3 * math.log2(0.3))
        inside = (np.log2(lam) >= -10 * (s + 0.15)) & (np.log2(lam) <= -10 * (s - 0.15))
        assert sub.dim == int(inside.sum())
        assert abs(sub.capture_probability - float(lam[inside].sum())) < 1e-12

    def test_projector_shape_and_idempotency(self):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        sub = typical_subspace(rho, L=8, delta=0.2)
        assert sub.projector.shape == (256, 256)
        np.testing.assert_allclose(
            sub.projector @ sub.projector, sub.projector, atol=1e-9
        )
        assert abs(np.real(np.trace(sub.projector)) - sub.dim) <= 0.5
        # basis columns are orthonormal
        gram = sub.basis.conj().T @ sub.basis
        np.testing.assert_allclose(gram, np.eye(sub.dim), atol=1e-10)

    def test_dimension_bound(self):
        rho = make_density(np.diag([0.8, 0.2]).astype(complex), 2)
        for L in (6, 12, 18):
            sub = typical_subspace(rho, L=L, delta=0.1)
            s = sub.source_entropy
            assert math.log2(max(sub.dim, 1)) <= L * (s + 0.1)

    def test_flat_spectrum_captures_everything(self):
        half = make_density(np.eye(2, dtype=complex) / 2, 2)
        sub = typical_subspace(half, L=6, delta=0.1)
        assert sub.dim == 64
        assert sub.capture_probability == 1.0

    def test_pure_source_needs_one_dimension(self):
        pure = make_density(np.diag([1.0, 0.0]).astype(complex), 2)
        sub = typical_subspace(pure, L=5, delta=0.1)
        assert sub.dim == 1
        assert sub.capture_probability == 1.0

    def test_narrow_window_can_be_empty(self):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        sub = typical_subspace(rho, L=1, delta=0.001)
        assert sub.dim == 0
        assert sub.capture_probability == 0.0

    def test_non_diagonal_source_matches_binomial_census_at_long_blocks(self):
        """{|0>,|+>} has eigenvalues (2 +/- sqrt 2)/4, so its census is binomial."""
        L, delta = 2000, 0.03
        sub = typical_subspace(ensemble_state(zero_plus_alphabet()), L=L, delta=delta)
        lp, lm = (2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4
        s = -(lp * math.log2(lp) + lm * math.log2(lm))
        dim, capture = 0, 0.0
        for k in range(L + 1):
            w = (L - k) * math.log2(lp) + k * math.log2(lm)
            if -L * (s + delta) <= w <= -L * (s - delta):
                dim += math.comb(L, k)
                capture += 2.0 ** (math.log2(math.comb(L, k)) + w)
        assert sub.dim == dim
        np.testing.assert_allclose(sub.capture_probability, capture, rtol=1e-12)
        assert sub.basis is None  # 2**2000 is far above the cap

    def test_basis_is_withheld_above_the_capacity_cap(self):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        capped = typical_subspace(rho, L=8, delta=0.2, max_dim=128)
        assert capped.dim == 8  # the census does not depend on the cap
        assert capped.basis is None
        assert capped.projector is None
        with pytest.raises(CapacityError):
            refactorization_unitary(typical_subspace(rho, L=8, delta=0.2), max_dim=128)

    def test_auto_falls_back_to_census_for_long_blocks(self):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        sub = typical_subspace(rho, L=40, delta=0.2, max_dim=2**14)
        assert sub.projector is None
        assert 0.0 <= sub.capture_probability <= 1.0
        # dimension is an exact integer census of the typical classes
        expect_dim = sum(
            math.comb(40, k)
            for k in range(41)
            if -40 * (sub.source_entropy + 0.2)
            <= (40 - k) * math.log2(0.9) + k * math.log2(0.1)
            <= -40 * (sub.source_entropy - 0.2)
        )
        assert sub.dim == expect_dim

    def test_parameter_validation(self):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        with pytest.raises(ValidationError):
            typical_subspace(rho, L=0, delta=0.2)
        with pytest.raises(ValidationError):
            typical_subspace(rho, L=4, delta=0.0)

    def test_numpy_integer_block_lengths_give_the_python_int_result(self):
        rho2 = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        rho3 = make_density(np.diag([0.5, 0.3, 0.2]).astype(complex), 3)
        for rho, L in ((rho2, 6), (rho3, 100)):
            want = typical_subspace(rho, L, 0.3)
            got = typical_subspace(rho, np.int64(L), 0.3)
            assert type(got.L) is int
            assert got == want and got.classes == want.classes
        got = qubit_capture_curve(0.8, [np.int64(1000)], 0.1)
        assert got == qubit_capture_curve(0.8, [1000], 0.1)
        assert type(got[0][0]) is int

    def test_non_integer_block_lengths_are_refused(self):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        for L in (3.5, 6.0, "6"):
            with pytest.raises(ValidationError, match="block length L must be an integer"):
                typical_subspace(rho, L, 0.3)
        with pytest.raises(ValidationError, match="block length in lengths must be an integer"):
            qubit_capture_curve(0.8, [1000.5], 0.1)
        with pytest.raises(ValidationError, match="block length in lengths must be at least 1"):
            qubit_capture_curve(0.8, [1000, 0], 0.1)
        with pytest.raises(ValidationError, match="block length n must be an integer"):
            block_alphabet(zero_plus_alphabet(), 2.5)

    def test_capture_curve_tends_to_one(self):
        curve = qubit_capture_curve(0.9, [24, 400, 2000], 0.2)
        assert [L for L, _ in curve] == [24, 400, 2000]
        captures = [c for _, c in curve]
        assert all(0.0 <= c <= 1.0 for c in captures)
        assert captures[-1] > 1 - 1e-9
        # the curve agrees with the subspace census at moderate length
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        sub = typical_subspace(rho, L=24, delta=0.2)
        assert abs(captures[0] - sub.capture_probability) < 1e-12


class TestRefactorizationLedger:
    def test_orthogonal_alphabet_balances_exactly(self, natural_ctx):
        led = refactorization_ledger(orthogonal_pure_alphabet(), 10, 0.1, natural_ctx)
        assert led.w1 == 10.0
        assert led.w_ancilla == 10.0  # flat spectrum: ancilla holds all 10 bits
        assert led.net_per_letter == 0.0
        assert led.epsilon == 0.0
        assert led.success_probability == 1.0
        assert led.lower_bound <= led.net_per_letter <= led.upper_bound
        np.testing.assert_allclose(led.lower_bound, -0.1, atol=1e-12)
        assert led.upper_bound == 0.0

    def test_single_pure_letter_nets_full_capacity(self, natural_ctx):
        single = Alphabet(
            letters=(make_density(np.diag([1.0, 0.0]).astype(complex), 2),),
            probs=(1.0,),
        )
        led = refactorization_ledger(single, 6, 0.05, natural_ctx)
        assert led.w_ancilla == 0.0  # one-dimensional typical subspace
        assert led.net_per_letter == 1.0
        assert led.upper_bound == 1.0
        assert led.epsilon == 0.0

    def test_biased_source_accounting(self, natural_ctx):
        led = refactorization_ledger(diag_qubit_alphabet(0.9), 8, 0.2, natural_ctx)
        eps = 1.0 - binomial_capture(0.9, 8, 0.2)
        np.testing.assert_allclose(led.epsilon, eps, atol=1e-12)
        assert led.w1 == 8.0
        assert led.w_ancilla == 3.0  # log2 of the 8-dimensional subspace
        np.testing.assert_allclose(
            led.net_per_letter,
            (led.w1 * (1 - 2 * led.epsilon) - led.w_ancilla) / 8,
            rtol=1e-12,
        )
        assert led.lower_bound <= led.net_per_letter <= led.upper_bound

    def test_ledger_rejects_bracket_violations(self):
        with pytest.raises(ValidationError):
            RefactorizationLedger(
                w1=10.0,
                w_ancilla=0.0,
                net_per_letter=1.0,
                lower_bound=-0.5,
                upper_bound=0.5,
                epsilon=0.0,
                success_probability=1.0,
            )

    def test_small_length_windows_can_outrun_the_asymptotic_ceiling(self, natural_ctx):
        """At L=2 the typical window of the {|0>,|+>} ensemble keeps a single
        class, the ancilla is free, and the per-letter net would exceed the
        asymptotic ceiling -- the ledger refuses to certify that."""
        with pytest.raises(ValidationError):
            refactorization_ledger(zero_plus_alphabet(), 2, 0.4, natural_ctx)

    def test_empty_subspace_is_an_error(self, natural_ctx):
        with pytest.raises(ValidationError, match="empty"):
            refactorization_ledger(diag_qubit_alphabet(0.9), 1, 0.001, natural_ctx)


class TestRefactorizationUnitary:
    def test_orthogonal_alphabet_swap_is_a_permutation(self, natural_ctx):
        led = refactorization_ledger(orthogonal_pure_alphabet(), 2, 0.1, natural_ctx)
        ru = refactorization_unitary(led.subspace)
        assert ru.unitarity_residual == 0.0
        assert ru.mapping_residual == 0.0
        d_lambda = led.subspace.dim
        assert ru.matrix.shape == (4 * d_lambda, 4 * d_lambda)
        # every row/column is a clean unit vector
        assert np.array_equal(np.abs(ru.matrix) ** 2, np.abs(ru.matrix))

    def test_generic_small_case_meets_tolerance(self, natural_ctx):
        led = refactorization_ledger(zero_plus_alphabet(), 2, 0.9, natural_ctx)
        ru = refactorization_unitary(led.subspace)
        assert ru.unitarity_residual < 1e-10
        assert ru.mapping_residual < 1e-10
        # the embedded subspace basis really lands on the leading coordinates
        d_total = ru.matrix.shape[0]
        mapped = ru.matrix @ ru.gamma_basis
        for col in range(mapped.shape[1]):
            tail = mapped[led.subspace.dim :, col]
            assert np.linalg.norm(tail) < 1e-10

    def test_census_only_subspace_cannot_build_the_matrix(self, natural_ctx):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        sub = typical_subspace(rho, L=40, delta=0.2)
        with pytest.raises(ValidationError):
            refactorization_unitary(sub)
