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
    window definition;
  * the swap unitary is checked on its full matrix by plain numpy products
    with ``np.kron(basis, e0)``.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qihe import cli, coding, qcore
from qihe.qcore import (
    TRACE_TOL,
    CapacityError,
    DensityMatrix,
    ValidationError,
    make_density,
    tensor_power,
    von_neumann_entropy,
)
from qihe.thermo import ThermalContext
from qihe.coding import (
    Alphabet,
    RefactorizationLedger,
    RefactorizationUnitary,
    TradeoffPoint,
    TypicalSubspace,
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
    _combinatorial_census,
    _typical_window,
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
        # each entry is exactly two numbers, dims an integer and each prob a number
        ({"dims": 2, "letters": [[[[1, 0, 5], [0, 0]], [[0, 0], [0, 0]]]], "probs": [1.0]},
         "'letters'"),
        ({"dims": 2, "letters": [[[["1", 0], [0, 0]], [[0, 0], [0, 0]]]], "probs": [1.0]},
         "'letters'"),
        ({"dims": 2, "letters": [[[[True, 0], [0, 0]], [[0, 0], [0, 0]]]], "probs": [1.0]},
         "'letters'"),
        ({"dims": 2, "letters": [[[[10 ** 400, 0], [0, 0]], [[0, 0], [0, 0]]]], "probs": [1.0]},
         "'letters'"),
        ({"dims": "2", "letters": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]], "probs": [1.0]},
         "'dims'"),
        ({"dims": 2, "letters": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]], "probs": ["1.0"]},
         "'probs'"),
        ({"dims": 2, "letters": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]], "probs": [True]},
         "'probs'"),
        ({"dims": 2, "letters": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]], "probs": [10 ** 400]},
         "'probs'"),
    ])
    def test_malformed_documents_name_the_field(self, doc, field):
        with pytest.raises(ValidationError, match=field):
            Alphabet.from_dict(doc)

    def test_constructor_reads_probs_as_the_file_reader_does(self):
        """A bool or a string probability is refused, as in the file format;
        numpy floats, as ``verify`` passes them, are read as Python floats."""
        letter = make_density(np.diag([1.0, 0.0]).astype(complex), 2)
        for probs in ((True,), ("1.0",)):
            with pytest.raises(ValidationError, match="each probability must be a number"):
                Alphabet((letter,), probs)
        with pytest.raises(ValidationError, match="each probability must be a number"):
            Alphabet((letter, letter), ("0.5", "0.5"))
        alphabet = Alphabet((letter, letter), tuple(np.array([0.25, 0.75])))
        assert alphabet.probs == (0.25, 0.75)
        assert all(type(p) is float for p in alphabet.probs)

    def test_letters_share_a_dimension(self):
        a = make_density(np.diag([1.0, 0.0]).astype(complex), 2)
        b = make_density(np.eye(3, dtype=complex) / 3, 3)
        with pytest.raises(ValidationError):
            Alphabet(letters=(a, b), probs=(0.5, 0.5))

    def test_letters_share_a_subsystem_signature(self):
        """Letters of one dimension but two signatures are refused where the
        alphabet is made, naming both, not by the first budget's mixture."""
        pair = tensor_power(zero_plus_alphabet().letters[1], 2)
        flat = DensityMatrix(pair.data, (4,))
        with pytest.raises(ValidationError, match=r"signature, got \(2, 2\) and \(4,\)"):
            Alphabet(letters=(pair, flat), probs=(0.5, 0.5))

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
        """block_alphabet(., n) then tradeoff_point: each state is diagonalized once.

        A blocked qubit ensemble, at every n, takes one eigvalsh per
        Schur-Weyl block, of sides n + 1, n - 1, ..., and none of side 2**n.
        A blocked qutrit ensemble goes dense: each letter's power takes its
        spectrum from the letter's (its intermediate products are arrays),
        so only the blocked ensemble state is diagonalized, once, and every
        entropy reads a spectrum its state already holds.  At n = 2 that is
        one eigvalsh of side 9.
        """
        qubits = zero_plus_alphabet()
        qutrits = Alphabet(tuple(DensityMatrix(m, (3,)) for m in (
            np.diag([0.5, 0.3, 0.2]).astype(complex), np.full((3, 3), 1 / 3, dtype=complex))),
            (0.5, 0.5))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(np.shape(a)[0]) or eigvalsh(a))
        for ab, n, sides in ((qubits, 1, [2]), (qubits, 4, [5, 3, 1]), (qubits, 6, [7, 5, 3, 1]),
                             (qutrits, 2, [9])):
            calls.clear()
            blocked = block_alphabet(ab, n)
            tradeoff_point(blocked, natural_ctx)
            tradeoff_point(blocked, natural_ctx)
            assert calls == sides

    def test_block_capacity_guard(self, monkeypatch):
        monkeypatch.setenv("QIHE_MAX_DIM", "4096")
        with pytest.raises(CapacityError):
            block_alphabet(orthogonal_pure_alphabet(4), 8)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_letters_at_the_positivity_tolerance_block(self, n):
        """A letter ``DensityMatrix`` accepts with an eigenvalue at ``-PSD_TOL`` blocks at every n.

        The clamped spectrum keeps a positive mass ``sigma = 1 + 1e-10``, so
        the power's entropy is ``n sigma**(n-1) S``, which from n = 4 on
        drifts from ``n S`` by more than 1e-9.  Below the tolerance the letter
        itself is refused.
        """
        letter = DensityMatrix(np.diag([-1e-10, 0.3, 0.7 + 1e-10]).astype(complex), (3,))
        s = von_neumann_entropy(letter)
        blocked = block_alphabet(Alphabet((letter,), (1.0,)), n)
        assert np.array_equal(blocked.letters[0].data, tensor_power(letter, n).data)
        assert abs(von_neumann_entropy(blocked.letters[0])
                   - n * (1.0 + 1e-10) ** (n - 1) * s) <= 1e-12
        with pytest.raises(ValidationError, match="positive semidefinite"):
            DensityMatrix(np.diag([-2e-10, 0.3, 0.7 + 2e-10]).astype(complex), (3,))

    def test_blocking_takes_no_entropy(self):
        """``block_alphabet`` builds the powers only: a blocked letter's entropy
        is taken when a budget reads it."""
        blocked = block_alphabet(zero_plus_alphabet(), 4)
        assert all("_entropy" not in let.__dict__ for let in blocked.letters)

    def test_a_spin_route_budget_at_n_11_peaks_under_10_mib(self, natural_ctx):
        """``block_alphabet(zero_plus_alphabet(), 11)`` and its budget build no
        power: the two ``2**11``-side complex powers alone would be 128 MiB."""
        tracemalloc.start()
        try:
            point = tradeoff_point(block_alphabet(zero_plus_alphabet(), 11), natural_ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert point.capacity_bits == 11.0
        assert peak < 10 * 2 ** 20

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_letters_are_the_powers_built_once(self, monkeypatch, n):
        """The letters are ``tensor_power(letter, n)`` byte for byte, built on
        the first read, one call per letter, and kept."""
        ab = _random_qubit_alphabet(np.random.default_rng(n), ["mixed", "pure", "exact"])
        calls = _spy_tensor_power(monkeypatch)
        blocked = block_alphabet(ab, n)
        assert calls == []
        letters = blocked.letters
        assert blocked.letters is letters
        assert calls == [n] * len(ab.letters)
        for got, let in zip(letters, ab.letters):
            want = tensor_power(let, n)
            assert got.data.tobytes() == want.data.tobytes()
            assert got.dims == want.dims == (2,) * n

    def test_reading_what_a_block_holds_builds_no_power(self, monkeypatch, natural_ctx):
        """``repr``, ``d``, ``probs``, ``capacity_bits`` and a spin-route budget
        read only the base and ``n``; ``to_dict`` builds the letters.  The
        block is an :class:`Alphabet`, and frozen."""
        ab = _random_qubit_alphabet(np.random.default_rng(3), ["mixed", "pure"])
        calls = _spy_tensor_power(monkeypatch)
        blocked = block_alphabet(ab, 6)
        assert isinstance(blocked, Alphabet)
        assert repr(blocked) == f"block_alphabet({ab!r}, 6)"
        assert (blocked.d, blocked.probs, blocked.capacity_bits) == (64, ab.probs, 6.0)
        tradeoff_point(blocked, natural_ctx)
        holevo_chi(blocked)
        with pytest.raises(dataclasses.FrozenInstanceError):
            blocked.n = 5
        assert calls == []
        doc = blocked.to_dict()
        assert calls == [6, 6]
        assert doc["dims"] == 64 and len(doc["letters"][0]) == 64

    def test_a_block_past_the_cap_is_refused_at_once(self, monkeypatch):
        """``d**n`` is checked when the alphabet is blocked, before any power:
        n = 15 is refused at the default cap."""
        monkeypatch.delenv(qcore.MAX_DIM_ENV, raising=False)
        calls = _spy_tensor_power(monkeypatch)
        with pytest.raises(CapacityError, match="total dimension 32768 exceeds the cap 16384"):
            block_alphabet(zero_plus_alphabet(), 15)
        assert calls == []

    def test_blocking_a_blocked_alphabet(self, natural_ctx):
        """Blocked by 2 and then by 3, an alphabet whose first letter's trace
        sits 0.99e-10 above 1 has letters within 1e-14 of its blocking by 6,
        and a budget within 1e-12 of ``eigvalsh`` of the raw-numpy powers."""
        edge = DensityMatrix(np.diag([0.3, 0.7 + 0.99e-10]).astype(complex), (2,))
        ab = Alphabet((edge, zero_plus_alphabet().letters[1]), (0.4, 0.6))
        nested, direct = block_alphabet(block_alphabet(ab, 2), 3), block_alphabet(ab, 6)
        for got, want in zip(nested.letters, direct.letters):
            assert np.max(np.abs(got.data - want.data)) <= 1e-14
        powers = []
        for let in ab.letters:
            power = let.data
            for _ in range(5):
                power = np.kron(power, let.data)
            powers.append(power)
        s_b = _eigvalsh_entropy(sum(p * m for p, m in zip(ab.probs, powers)))
        avg = sum(p * _eigvalsh_entropy(m) for p, m in zip(ab.probs, powers))
        for blocked in (nested, direct):
            pt = tradeoff_point(blocked, natural_ctx)
            assert abs(pt.energy_bits - (6.0 - s_b)) <= 1e-12
            assert abs(pt.comm_bits - (s_b - avg)) <= 1e-12
            assert abs(pt.avg_letter_entropy - avg) <= 1e-12
        # a block of a four-dimensional base goes dense on its powers of powers
        powers = tuple(tensor_power(tensor_power(let, 2), 3) for let in ab.letters)
        assert tradeoff_point(nested, natural_ctx) == tradeoff_point(
            Alphabet(powers, ab.probs), natural_ctx)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_letters_at_the_trace_tolerance_block(self, n):
        """A letter ``DensityMatrix`` accepts with its trace off by 0.99e-10 blocks
        at every n, although its power's trace is off by n times as much; off by
        1.01e-10 the letter itself is refused."""
        letter = DensityMatrix(np.diag([0.3, 0.7 + 0.99e-10]).astype(complex), (2,))
        blocked = block_alphabet(Alphabet((letter,), (1.0,)), n)
        assert np.array_equal(blocked.letters[0].data, tensor_power(letter, n).data)
        assert abs(np.trace(blocked.letters[0].data) - 1.0) > TRACE_TOL
        with pytest.raises(ValidationError, match="trace must be 1"):
            DensityMatrix(np.diag([0.3, 0.7 + 1.01e-10]).astype(complex), (2,))


def test_values_holding_arrays_compare_and_hash_by_identity(monkeypatch):
    """``==``, ``!=`` and ``hash`` of each frozen type that holds arrays go by
    identity: two copies of one value are unequal, and each is its own dict
    key.  Two blocks of one alphabet compare with no power built."""
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4, (2, 2))
    sub = typical_subspace(ensemble_state(orthogonal_pure_alphabet(2)), 2, 0.5)
    base = zero_plus_alphabet()
    makers = [
        zero_plus_alphabet,
        lambda: qcore.basis_state(0, 2).density(),
        lambda: qcore.basis_state(0, 2),
        lambda: qcore.QuantumChannel((np.eye(2),), (0,)),
        lambda: qcore.measure_computational(rho, 0)[0],
        lambda: refactorization_unitary(sub),
        lambda: block_alphabet(base, 3),
    ]
    calls = _spy_tensor_power(monkeypatch)
    for make in makers:
        a, b = make(), make()
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)
        keys = {a: "a", b: "b"}
        assert (keys[a], keys[b], len(keys)) == ("a", "b", 2)
    assert calls == []


def _spy_tensor_power(monkeypatch) -> list[int]:
    """The ``n`` of each call that ``coding`` makes to ``tensor_power`` from now on."""
    calls, real = [], coding.tensor_power
    monkeypatch.setattr(coding, "tensor_power",
                        lambda a, n: calls.append(n) or real(a, n))
    return calls


def _eigvalsh_entropy(m: np.ndarray) -> float:
    """Test-local oracle: ``-sum lambda log2 lambda`` over the positive ``eigvalsh(m)``."""
    lam = np.linalg.eigvalsh(m)
    lam = lam[lam > 0]
    return float(-(lam * np.log2(lam)).sum())


def _qubit_letter(rng: np.random.Generator, kind: str) -> DensityMatrix:
    """A random qubit letter: ``mixed`` (full rank), ``pure`` (a random ket),
    or ``exact`` (|0> or |+>, a rank-one letter with exact zeros)."""
    if kind == "mixed":
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = g @ g.conj().T
        return DensityMatrix(m / np.real(np.trace(m)), (2,))
    if kind == "pure":
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        return DensityMatrix(np.outer(v, v.conj()), (2,))
    return zero_plus_alphabet().letters[int(rng.integers(2))]


def _random_qubit_alphabet(rng: np.random.Generator, kinds) -> Alphabet:
    """An alphabet of one :func:`_qubit_letter` of each of ``kinds``, with random odds."""
    raw = rng.random(len(kinds)) + 0.1
    return Alphabet(tuple(_qubit_letter(rng, kind) for kind in kinds),
                    tuple(float(x) for x in raw / raw.sum()))


class TestSchurWeylBlocks:
    """A qubit alphabet blocked at any n takes its budget from the spin
    blocks of its 2 x 2 letters; every other alphabet, and every ensemble
    state, keeps one eigvalsh.

    Oracles: ``eigvalsh`` of the blocked ensemble's own dense matrix,
    :func:`qcore.mixture` of the blocked letters, and, past the dense cap,
    30-digit ``mpmath`` arithmetic on the letters' entries.
    """

    @settings(max_examples=40, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["mixed", "pure", "exact"]), min_size=1, max_size=4),
           n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_blocked_qubit_spectrum_is_that_of_eigvalsh(self, kinds, n, seed):
        """The spin blocks, each repeated by its multiplicity, have the
        spectrum of the dense blocked ensemble within 1e-12, and that
        ensemble's state is still :func:`qcore.mixture`'s."""
        ab = _random_qubit_alphabet(np.random.default_rng(seed), kinds)
        blocked = block_alphabet(ab, n)
        rho = ensemble_state(blocked)
        dense = qcore.mixture(list(zip(blocked.probs, blocked.letters)))
        assert np.array_equal(rho.data, dense.data)
        assert np.array_equal(rho._eigenvalues, dense._eigenvalues)
        # sum_k m_k (n - 2k + 1) = 2**n, with m_k = C(n, k) - C(n, k - 1)
        blocks = blocked._spin_blocks
        mults = [math.comb(n, k) - (math.comb(n, k - 1) if k else 0) for k in range(n // 2 + 1)]
        assert [m for m, _ in blocks] == mults
        assert [len(mu) for _, mu in blocks] == list(range(n + 1, 0, -2))
        assert sum(m * len(mu) for m, mu in blocks) == 2 ** n
        got = np.sort(np.concatenate([np.repeat(mu, m) for m, mu in blocks]))
        assert np.max(np.abs(got - np.linalg.eigvalsh(dense.data))) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_qutrit_blocks_keep_the_dense_numbers(self, k, seed):
        """A qutrit alphabet blocked at n = 3 gives numbers ``==`` to those of
        one eigvalsh of :func:`qcore.mixture`."""
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(k, 3, 3)) + 1j * rng.normal(size=(k, 3, 3))
        matrices = [m / np.real(np.trace(m)) for m in g @ g.conj().transpose(0, 2, 1)]
        raw = rng.random(k) + 0.1
        ab = Alphabet(tuple(DensityMatrix(m, (3,)) for m in matrices),
                      tuple(float(x) for x in raw / raw.sum()))
        blocked = block_alphabet(ab, 3)
        rho = ensemble_state(blocked)
        dense = qcore.mixture(list(zip(blocked.probs, blocked.letters)))
        assert np.array_equal(rho.data, dense.data)
        assert np.array_equal(rho._eigenvalues, dense._eigenvalues)
        assert von_neumann_entropy(rho) == von_neumann_entropy(dense)
        ctx = ThermalContext(units="natural")
        plain = Alphabet(blocked.letters, blocked.probs)
        assert tradeoff_point(blocked, ctx) == tradeoff_point(plain, ctx)

    @settings(max_examples=30, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["mixed", "pure", "exact"]), min_size=1, max_size=4),
           n=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
    def test_blocked_budget_is_that_of_eigvalsh_and_of_the_cli(self, kinds, n, seed):
        """``S(rho_B)``, chi and the energy of a blocked qubit alphabet are
        within 1e-12 of those from ``eigvalsh`` of :func:`qcore.mixture`, and
        ``tradeoff --block n`` prints the library's point, bit for bit."""
        ab = _random_qubit_alphabet(np.random.default_rng(seed), kinds)
        blocked = block_alphabet(ab, n)
        point, s_b = coding._entropy_budget(blocked)
        dense = qcore.mixture(list(zip(blocked.probs, blocked.letters)))
        want = qcore.entropy_from_eigenvalues(np.linalg.eigvalsh(dense.data))
        avg = sum(p * von_neumann_entropy(let) for p, let in zip(blocked.probs, blocked.letters))
        assert abs(s_b - want) <= 1e-12
        assert abs(point.comm_bits - (want - avg)) <= 1e-12
        assert abs(point.energy_bits - (n - want)) <= 1e-12
        assert holevo_chi(blocked) == point.comm_bits
        assert tradeoff_point(blocked, ThermalContext()) == point
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "alphabet.json")
            save_alphabet(ab, path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.run(["tradeoff", "--alphabet", path, "--block", str(n)]) == 0
        row = json.loads(out.getvalue())["blocking"][-1]
        assert row["n"] == n
        assert row["comm_bits_per_letter"] == point.comm_bits / n
        assert row["energy_bits_per_letter"] == point.energy_bits / n

    @pytest.mark.parametrize("n", [20, 30])
    def test_long_blocks_match_a_high_precision_oracle(self, n, monkeypatch):
        """Far past the dense cap, the budget of ``{|0>, |+>}`` is within 1e-12
        of its Gram-matrix entropy ``H((1 +/- <0|+>**n) / 2)``, and that of a
        mixed pair is within 1e-12 of :func:`_spin_oracle`'s."""
        zero_plus = zero_plus_alphabet()
        overlap = mpmath.sqrt(mpmath.mpf(zero_plus.letters[1].data[0, 0].real))
        with mpmath.workdps(30):
            halves = [(1 + sign * overlap ** n) / 2 for sign in (1, -1)]
            gram = float(-sum(h * mpmath.log(h, 2) for h in halves))
        mixed = Alphabet((DensityMatrix(np.array([[0.8, 0.1 - 0.2j], [0.1 + 0.2j, 0.2]]), (2,)),
                          DensityMatrix(np.array([[0.35, 0.3], [0.3, 0.65]]), (2,))), (0.4, 0.6))
        for ab, (s_b, avg) in ((zero_plus, (gram, 0.0)), (mixed, _spin_oracle(mixed, n))):
            monkeypatch.setenv("QIHE_MAX_DIM", str(2 ** n))
            point, got = coding._entropy_budget(block_alphabet(ab, n))
            assert abs(got - s_b) <= 1e-12
            assert abs(point.avg_letter_entropy - avg) <= 1e-12
            assert abs(point.comm_bits - (s_b - avg)) <= 1e-12
            assert abs(point.energy_bits - (n - s_b)) <= 1e-12
        monkeypatch.setenv("QIHE_MAX_DIM", str(2 ** n - 1))
        with pytest.raises(CapacityError):
            block_alphabet(mixed, n)

    def test_the_spin_route_builds_no_blocked_matrix(self, natural_ctx, monkeypatch, tmp_path):
        """A qubit alphabet blocked at n = 6 takes its budget, and ``tradeoff
        --block 7`` every row, with no call of ``mixture`` or ``tensor_power``;
        the sweep blocks every row, and only the unblocked point mixes its
        ``2 x 2`` ``rho_B``."""
        ab = _random_qubit_alphabet(np.random.default_rng(8), ["mixed", "pure", "exact"])
        calls = []

        def spy(module, name, size):
            real = getattr(module, name)

            def wrapped(*args, **kwargs):
                out = real(*args, **kwargs)
                calls.append((name, size(args, out)))
                return out
            monkeypatch.setattr(module, name, wrapped)

        spy(coding, "mixture", lambda args, out: out.dim)
        spy(coding, "tensor_power", lambda args, out: args[1])
        blocked = block_alphabet(ab, 6)
        tradeoff_point(blocked, natural_ctx)
        holevo_chi(blocked)
        assert calls == []
        spy(cli, "block_alphabet", lambda args, out: args[1])
        path = str(tmp_path / "alphabet.json")
        save_alphabet(ab, path)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["tradeoff", "--alphabet", path, "--block", "7"]) == 0
        assert calls == [("mixture", 2)] + [("block_alphabet", n) for n in range(1, 8)]


def _spin_oracle(alphabet: Alphabet, n: int) -> tuple[float, float]:
    """``(S(rho_B), <S_a>)`` of ``alphabet`` blocked ``n`` letters at a time, in
    20-digit ``mpmath`` arithmetic from the letters' float entries.

    ``B_k = sum_a p_a det(rho_a)^k Sym^(n-2k)(rho_a)``, repeated
    ``C(n, k) - C(n, k - 1)`` times.  Column ``j`` of ``Sym^m(M)`` holds the
    coefficients of ``x^(m-i) y^i`` in ``(a x + c y)^(m-j) (b x + d y)^j``,
    rescaled to the normalized Dicke states: a sum over every term, not the
    triangular factor the library takes.  ``S(rho^(x n)) = n tr(rho)^(n-1) S(rho)``.
    """
    with mpmath.workdps(20):
        s_b, avg, polys = mpmath.mpf(0), mpmath.mpf(0), []
        for p, letter in zip(alphabet.probs, alphabet.letters):
            (a, b), (c, d) = [[mpmath.mpc(complex(z)) for z in row] for row in letter.data.tolist()]
            det, tr = a * d - b * c, (a + d).real
            root = mpmath.sqrt(tr ** 2 - 4 * det.real)
            lams = [(tr + sign * root) / 2 for sign in (1, -1)]
            avg += p * n * tr ** (n - 1) * -sum(x * mpmath.log(x, 2) for x in lams if x > 0)
            # the coefficients in t of (a + c t)**q and of (b + d t)**q, for q = 0..n
            first, second = [[mpmath.mpf(1)]], [[mpmath.mpf(1)]]
            for _ in range(n):
                for out, (u, v) in ((first, (a, c)), (second, (b, d))):
                    out.append([u * x for x in out[-1]] + [0])
                    for i, x in enumerate(out[-2]):
                        out[-1][i + 1] += v * x
            polys.append((p, det, first, second))
        for k in range(n // 2 + 1):
            m = n - 2 * k
            block = mpmath.zeros(m + 1, m + 1)
            for p, det, first, second in polys:
                for j in range(m + 1):
                    f, g = first[m - j], second[j]
                    for i in range(m + 1):
                        z = sum(f[r] * g[i - r] for r in range(max(0, i - j), min(i, m - j) + 1))
                        block[i, j] += p * det ** k * z * mpmath.sqrt(
                            mpmath.mpf(math.comb(m, j)) / math.comb(m, i))
            mult = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            s_b -= mult * sum(x * mpmath.log(x, 2) for x in mpmath.eigh(block, eigvals_only=True)
                              if x > 0)
        return float(s_b), float(avg)


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

    def test_a_trace_above_one_keeps_its_class_within_the_bound(self):
        """The kept eigenvalue 1 + 2**-52 gives the entropy -3.2e-16, so at
        delta = 1e-16 the bound L(S + delta) is -2.2e-16, below log2(1).  The
        bound allows for a spectrum summing above 1, so the one class counts."""
        rho = DensityMatrix(np.diag([0.0, 1.0 + 2.2e-16]).astype(complex), (2,))
        assert rho._entropy < 0.0
        assert typical_subspace(rho, 1, 1e-16).dim == 1

    def test_a_real_excess_of_the_dimension_bound_raises(self):
        with pytest.raises(ValidationError, match="dimension bound violated"):
            TypicalSubspace(L=1, delta=0.5, dim=2, capture_probability=1.0,
                            source_entropy=0.0, state=make_density(np.diag([1.0, 0.0]), 2))

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
        with pytest.raises(CapacityError):  # 2**2000 is far above the cap
            sub.basis

    def test_basis_is_withheld_above_the_capacity_cap(self, monkeypatch):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        monkeypatch.setenv("QIHE_MAX_DIM", "128")
        capped = typical_subspace(rho, L=8, delta=0.2)
        assert capped.dim == 8  # the census does not depend on the cap
        with pytest.raises(CapacityError):
            capped.basis
        with pytest.raises(CapacityError):
            capped.projector
        with pytest.raises(CapacityError):
            refactorization_unitary(capped)

    def test_every_dense_request_above_the_cap_is_a_capacity_error(self):
        """The census of a 2**2000 block needs no cap; its basis, its projector
        and its swap unitary each raise, without printing a 600-digit number."""
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        sub = typical_subspace(rho, 2000, 0.1)
        assert sub.dim > 0
        for build in (lambda: sub.basis, lambda: sub.projector,
                      lambda: refactorization_unitary(sub)):
            with pytest.raises(CapacityError, match=r"2\*\*\d+ or more"):
                build()

    @pytest.mark.parametrize("build", [
        lambda: block_alphabet(orthogonal_pure_alphabet(3), 10 ** 7),
        lambda: tensor_power(orthogonal_pure_alphabet(3).letters[0], 10 ** 7),
        lambda: typical_subspace(DensityMatrix(np.diag([1.0, 0.0]), (2,)), 10 ** 30, 0.1).basis,
        lambda: refactorization_unitary(
            typical_subspace(DensityMatrix(np.diag([1.0, 0.0]), (2,)), 10 ** 30, 0.1)),
    ], ids=["block_alphabet", "tensor_power", "basis", "swap"])
    def test_a_power_past_the_cap_is_refused_without_computing_it(self, build):
        """``3**(10**7)`` and ``2**(10**30)`` are never formed: each request
        raises within 0.1 s, where forming the first took seconds and the
        second does not end."""
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=r"total dimension 2\*\*\d+ or more exceeds"):
            build()
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("raw", ["2.5", "True"])
    def test_a_non_integer_cap_is_refused_when_the_basis_is_built(self, raw, monkeypatch):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        monkeypatch.setenv("QIHE_MAX_DIM", raw)
        sub = typical_subspace(rho, 8, 0.2)
        assert sub.dim == 8
        with pytest.raises(ValidationError, match="QIHE_MAX_DIM must be an integer"):
            sub.basis

    def test_the_cap_is_read_when_the_basis_is_built(self, monkeypatch):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        monkeypatch.setenv("QIHE_MAX_DIM", "abc")
        sub = typical_subspace(rho, 8, 0.2)
        assert sub.dim == 8
        with pytest.raises(ValidationError, match="QIHE_MAX_DIM"):
            sub.basis
        monkeypatch.setenv("QIHE_MAX_DIM", "256")
        assert sub.basis.shape == (256, 8)

    def test_auto_falls_back_to_census_for_long_blocks(self, monkeypatch):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        monkeypatch.setenv("QIHE_MAX_DIM", str(2 ** 14))
        sub = typical_subspace(rho, L=40, delta=0.2)
        with pytest.raises(CapacityError):
            sub.projector
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
            assert got == want
            if L == 6:
                assert np.array_equal(got.basis, want.basis)
            else:  # 3**100 is above the cap
                for sub in (got, want):
                    with pytest.raises(CapacityError):
                        sub.basis
        got = qubit_capture_curve(0.8, [np.int64(1000)], 0.1)
        assert got == qubit_capture_curve(0.8, [1000], 0.1)
        assert type(got[0][0]) is int

    def test_the_census_diagonalizes_nothing(self, monkeypatch, natural_ctx):
        """The census reads the spectrum that validated ``rho_B``; ``basis`` makes
        one ``eigh`` of it, on first access only; the ledger reads the ensemble
        state the alphabet keeps, which ``ensemble_state`` has already built."""
        ab = zero_plus_alphabet()
        rho = ensemble_state(ab)
        calls = []
        for name in ("eigh", "eigvalsh"):
            spied = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *args, name=name, spied=spied, **kw:
                                calls.append(name) or spied(a, *args, **kw))
        sub = typical_subspace(rho, 6, 0.2)
        assert calls == []
        assert sub.basis.shape == (64, sub.dim)
        assert calls == ["eigh"]
        assert sub.basis is sub.basis and sub.projector.shape == (64, 64)
        assert calls == ["eigh"]
        calls.clear()
        refactorization_ledger(ab, 6, 0.2, natural_ctx)
        assert calls == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 4])
    def test_one_spectrum_per_state(self, seed, random_alphabet):
        """On non-diagonal d = 3 sources, ``S(rho_B)`` is the float
        ``von_neumann_entropy`` gives, and ``dim`` and the capture are the
        census of the spectrum that validated ``rho_B``, as are the basis
        columns where the block is within the cap."""
        rho = ensemble_state(random_alphabet(np.random.default_rng(seed), 3))
        for L, delta in ((2, 0.3), (5, 0.2), (40, 0.1)):
            sub = typical_subspace(rho, L, delta)
            assert sub.source_entropy == von_neumann_entropy(rho)
            window = _typical_window(von_neumann_entropy(rho), L, delta)
            dim, capture = _combinatorial_census(rho._eigenvalues, L, *window)
            assert (sub.dim, sub.capture_probability) == (dim, min(max(capture, 0.0), 1.0))
            if L < 40:
                assert sub.basis.shape == (3 ** L, dim)

    @pytest.mark.parametrize("evals, L, delta", [
        ((0.3, 0.33, 0.37), 700, 0.01),
        ((0.1, 0.12, 0.15, 0.18, 0.2, 0.25), 40, 0.005),
        ((1e-6, 2e-6, 1 - 3e-6), 10 ** 6, 1e-5),
        ((1e-3, 0.4993, 0.4997), 20000, 1e-7),
        ((0.2, 0.3, 0.5), 3000, 0.02),
    ], ids=["many-classes", "many-prefixes", "long-block", "spread-counts", "long-multinomials"])
    def test_census_keeps_no_class_list(self, evals, L, delta):
        """The census lists no typical class, for any caller, so its peak memory does not grow with their number (the d = 3,
        L = 700 census has 3 MiB of them), nor with the number of prefixes
        it solves (22 106 at d = 6, L = 40), nor with ``L`` where few classes
        are typical (a table of powers up to ``L = 10**6`` would take 8 MiB
        a letter), nor with how far apart the counts of one block lie (at
        L = 20 000 one step of the first count moves the second by about
        7 800, so a table over a block's whole range of counts would span
        most of ``L``), nor with the size of each exact multinomial (at
        L = 3000 a full block of 1024 of them, about 4 700 bits each, peaks
        at 0.83 MiB)."""
        rho = make_density(np.diag(evals).astype(complex), len(evals))
        tracemalloc.start()
        try:
            sub = typical_subspace(rho, L, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sub.dim > 0
        assert peak < 0.5 * 2 ** 20
        with pytest.raises(CapacityError):
            sub.basis

    def test_counts_past_int64_are_refused_before_the_census(self, monkeypatch):
        """The census of three or more letters holds its counts in int64, so a
        block length of 2**63 or more raises, naming it and the limit, before
        any prefix is solved."""
        def no_census(*args):
            raise AssertionError("the census started")

        monkeypatch.setattr(coding, "_prefixes", no_census)
        for evals in ((0.2, 0.3, 0.5), (0.1, 0.2, 0.3, 0.4)):
            rho = make_density(np.diag(evals).astype(complex), len(evals))
            for L in (2 ** 63, 10 ** 30):
                with pytest.raises(ValidationError, match=rf"L = {L} .*2\*\*63"):
                    typical_subspace(rho, L, 0.05)

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

    def test_block_lengths_past_the_float_range_are_refused(self):
        """A block length past the float range is refused before any float is
        formed, naming it and quoting it in a few bytes: on the rank-1 source,
        whose census is closed form at any ``L``, and along a capture curve.  The
        largest integer within the range is still a block length."""
        rank1 = make_density(np.diag([1.0, 0.0]).astype(complex), 2)
        largest = int(sys.float_info.max)
        for call, message in (
                (lambda: typical_subspace(rank1, 10 ** 400, 0.1),
                 "block length L is out of the float range, got 2**1328 or more"),
                (lambda: typical_subspace(rank1, largest + 1, 0.1),
                 "block length L is out of the float range, got 2**1023 or more"),
                (lambda: qubit_capture_curve(0.9, [10, 10 ** 400], 0.1),
                 "each block length in lengths is out of the float range, got 2**1328 or more"),
                (lambda: typical_subspace(rank1, -10 ** 5000, 0.1),
                 "block length L must be at least 1, got -2**16609 or less")):
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == message
        assert typical_subspace(rank1, largest, 0.1).dim == 1

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
    def test_capture_curve_refuses_the_delta_typical_subspace_refuses(self, delta):
        rho = make_density(np.diag([0.7, 0.3]).astype(complex), 2)
        with pytest.raises(ValidationError, match="delta must be positive and finite"):
            typical_subspace(rho, 10, delta)
        with pytest.raises(ValidationError, match="delta must be positive and finite"):
            qubit_capture_curve(0.7, [10], delta)

    @pytest.mark.parametrize("bad", ["0.1", True, np.True_, 10 ** 400, None],
                             ids=["string", "bool", "numpy-bool", "past-float-range", "none"])
    def test_delta_and_p_are_read_as_real_numbers(self, bad):
        """A string, a bool or a number past the float range is refused with a
        short message naming ``delta`` or ``p``; numpy floats are read as floats."""
        rho = make_density(np.diag([0.7, 0.3]).astype(complex), 2)
        for call, name in ((lambda: typical_subspace(rho, 10, bad), "delta"),
                           (lambda: qubit_capture_curve(0.7, [10], bad), "delta"),
                           (lambda: qubit_capture_curve(bad, [10], 0.1), "p")):
            with pytest.raises(ValidationError, match=rf"^{name} ") as info:
                call()
            assert len(str(info.value)) < 80
        sub = typical_subspace(rho, 10, np.float64(0.1))
        assert type(sub.delta) is float and sub == typical_subspace(rho, 10, 0.1)
        assert qubit_capture_curve(np.float64(0.7), [10], 0.1) == qubit_capture_curve(
            0.7, [10], 0.1)

    @pytest.mark.parametrize("L", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_boolean_block_lengths_are_refused(self, L):
        rho = make_density(np.diag([0.7, 0.3]).astype(complex), 2)
        with pytest.raises(ValidationError, match="block length in lengths must be an integer"):
            qubit_capture_curve(0.7, [L], 0.1)
        with pytest.raises(ValidationError, match="block length L must be an integer"):
            typical_subspace(rho, L, 0.1)
        with pytest.raises(ValidationError, match="block length n must be an integer"):
            block_alphabet(zero_plus_alphabet(), L)

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

    def test_ledger_refuses_the_floor_and_flags_the_ceiling(self):
        fields = dict(w1=10.0, w_ancilla=0.0, lower_bound=-0.5, upper_bound=0.5,
                      epsilon=0.0, success_probability=1.0)
        above = RefactorizationLedger(net_per_letter=1.0, **fields)
        assert above.within_asymptotic_ceiling is False
        assert RefactorizationLedger(net_per_letter=0.5 + 1e-12, **fields).within_asymptotic_ceiling
        with pytest.raises(ValidationError, match="guaranteed floor"):
            RefactorizationLedger(net_per_letter=-1.0, **fields)
        with pytest.raises(TypeError):  # derived from the fields, not set by a caller
            RefactorizationLedger(net_per_letter=0.0, within_asymptotic_ceiling=True, **fields)

    def test_small_length_windows_can_outrun_the_asymptotic_ceiling(self, natural_ctx):
        """At L=2 the typical window of the {|0>,|+>} ensemble keeps a single
        class, the ancilla is free, and the per-letter net exceeds the
        asymptotic ceiling -- the ledger reports it and still holds its floor."""
        led = refactorization_ledger(zero_plus_alphabet(), 2, 0.4, natural_ctx)
        assert led.subspace.dim == 1
        assert led.net_per_letter > led.upper_bound
        assert led.within_asymptotic_ceiling is False
        assert led.lower_bound <= led.net_per_letter

    def test_empty_subspace_is_an_error(self, natural_ctx):
        with pytest.raises(ValidationError, match="empty"):
            refactorization_ledger(diag_qubit_alphabet(0.9), 1, 0.001, natural_ctx)


@st.composite
def _rotated_subspaces(draw):
    """The typical subspace of a rotated source on ``d`` in {2, 3} of any
    rank, rank-deficient included, at ``L <= 3``, whose swap has side at most 512."""
    d = draw(st.integers(2, 3))
    weights = np.array(draw(st.lists(st.integers(1, 10), min_size=1, max_size=d)), dtype=float)
    lams = np.zeros(d)
    lams[:len(weights)] = weights / weights.sum()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    m = q @ np.diag(lams) @ q.conj().T
    sub = typical_subspace(make_density((m + m.conj().T) / 2, d),
                           draw(st.integers(1, 3)), draw(st.floats(0.05, 2.0)))
    assume(1 <= sub.dim and d ** sub.L * sub.dim <= 512)
    return sub


def _swap_oracle(sub: TypicalSubspace) -> tuple[np.ndarray, float, float]:
    """``(U, max|U U^H - I|, max|U Gamma - I|)`` by plain numpy, on ``U``'s full side.

    ``V`` is a chain of ``np.kron`` on the eigenvectors of ``eigh``: the columns
    that ``basis`` matches, in ``V``'s order, then the others, in order.  ``U`` is
    ``np.kron(V^H, I_dim)`` with rows ``i`` and ``i * dim`` swapped one pair at a
    time, and ``Gamma`` is ``np.kron(basis, e0)``.
    """
    e = np.linalg.eigh(sub.state.data)[1]
    v = e
    for _ in range(sub.L - 1):
        v = np.kron(v, e)
    kept = np.argmax(np.abs(v.conj().T @ sub.basis), axis=0)
    assert (np.diff(kept) > 0).all()
    v = v[:, np.concatenate((kept, np.setdiff1d(np.arange(len(v)), kept)))]
    u = np.kron(v.conj().T, np.eye(sub.dim))
    for i in range(1, sub.dim):
        u[[i, i * sub.dim]] = u[[i * sub.dim, i]]
    side = len(u)
    gamma = np.kron(sub.basis, np.eye(sub.dim, 1))
    return (u, np.max(np.abs(u @ u.conj().T - np.eye(side))),
            np.max(np.abs(u @ gamma - np.eye(side, sub.dim))))


def _check_swap_against_oracle(sub: TypicalSubspace) -> RefactorizationUnitary:
    """``refactorization_unitary(sub)`` is :func:`_swap_oracle`'s ``U`` entry for entry,
    its ``gamma_basis`` is ``np.kron(basis, e0)`` byte for byte, and each residual
    is the full-matrix one to 1e-15."""
    ru = refactorization_unitary(sub)
    u, unitarity, mapping = _swap_oracle(sub)
    e0 = np.zeros((sub.dim, 1), dtype=complex)
    e0[0, 0] = 1.0
    assert np.array_equal(ru.matrix, u)
    assert ru.gamma_basis.tobytes() == np.kron(sub.basis, e0).tobytes()
    assert abs(ru.unitarity_residual - unitarity) <= 1e-15
    assert abs(ru.mapping_residual - mapping) <= 1e-15
    return ru


def _qutrit_source(rank: int) -> DensityMatrix:
    """``rho_B`` of the two qutrit alphabets of the CI's refactor checks: rank 3, or
    rank 2 with a zero eigenvalue.  At ``L = 3`` their ``V`` has 27 columns."""
    if rank == 3:
        m = 0.5 * np.diag([0.5, 0.3, 0.2]) + 0.5 * np.full((3, 3), 1 / 3)
    else:
        m = 0.5 * np.diag([1.0, 0.0, 0.0]) + 0.25 * np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    return make_density(m.astype(complex), 3)


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

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_gamma_basis_is_that_of_np_kron(self, seed, L):
        """``gamma_basis`` is ``np.kron(basis, e0)`` byte for byte, signed zeros
        included, on the subspaces of random qubit sources."""
        ab = _random_qubit_alphabet(np.random.default_rng(seed), ["mixed", "pure", "exact"])
        sub = typical_subspace(ensemble_state(ab), L, 2.0)
        e0 = np.zeros((sub.dim, 1), dtype=complex)
        e0[0, 0] = 1.0
        assert refactorization_unitary(sub).gamma_basis.tobytes() == np.kron(
            sub.basis, e0).tobytes()

    def test_census_only_subspace_cannot_build_the_matrix(self, natural_ctx):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        sub = typical_subspace(rho, L=40, delta=0.2)
        with pytest.raises(CapacityError):
            refactorization_unitary(sub)

    @settings(max_examples=120, deadline=None)
    @given(_rotated_subspaces())
    def test_the_swap_meets_its_oracles_on_the_full_matrix(self, sub):
        """On random rotated sources of any rank the swap is :func:`_swap_oracle`'s,
        and on the full matrix ``U U^H`` is the identity and ``U`` sends
        ``np.kron(basis, e0)`` onto the first ``dim`` coordinates, each to 1e-12."""
        ru = _check_swap_against_oracle(sub)
        assert ru.unitarity_residual <= 1e-12 and ru.mapping_residual <= 1e-12

    @pytest.mark.parametrize("rank, stretch", [(3, 1.0), (2, 1.0), (2, 1.001)])
    def test_the_swap_is_its_kron_oracle_on_27_columns(self, monkeypatch, rank, stretch):
        """At ``L = 3`` on a qutrit source the kept columns must come first in a
        stable order: an unstable sort of 27 columns reorders them.  With the
        eigenvector of the zero eigenvalue of the rank-2 source, which no kept
        product holds, stretched by ``stretch``, ``V`` is not unitary: the
        unitarity residual reads about ``6e-3`` and the mapping residual stays
        near 0, each the full-matrix one."""
        sub = typical_subspace(_qutrit_source(rank), 3, 0.5)
        assert sub.dim == {2: 4, 3: 9}[rank]
        eigh = np.linalg.eigh

        def stretched(a):
            w, e = eigh(a)
            return w, e * [stretch, 1, 1]

        monkeypatch.setattr(np.linalg, "eigh", stretched)
        ru = _check_swap_against_oracle(sub)
        assert ru.mapping_residual < 1e-12
        assert (ru.unitarity_residual > 5e-3) == (stretch > 1)

    def test_the_swap_factors_no_matrix(self, monkeypatch, natural_ctx):
        """``V`` is one Kronecker power of the eigenvectors, with no QR and no
        product columns built letter by letter (:meth:`TypicalSubspace._products`)."""
        qr, built = [], []
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: qr.append(a) or 1 / 0)
        monkeypatch.setattr(TypicalSubspace, "_products", lambda sub: built.append(sub) or 1 / 0)
        sub = refactorization_ledger(zero_plus_alphabet(), 3, 0.9, natural_ctx).subspace
        ru = refactorization_unitary(sub)
        assert (qr, built) == ([], [])
        assert ru.mapping_residual < 1e-12 and ru.gamma_basis.shape == (8 * sub.dim, sub.dim)

    def test_the_swap_holds_little_beside_its_output(self):
        """At side 1 408 (L = 6 on a three-letter qubit alphabet) the traced
        peak of the swap, its basis included, stays under 1.5 times its
        output: the complete QR it replaced peaked at 4 times."""
        letters = ([[0.8, 0], [0, 0.2]], [[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]],
                   [[0.5, 0.5], [0.5, 0.5]])
        ab = Alphabet(tuple(make_density(np.array(m, dtype=complex), 2) for m in letters),
                      (0.3, 0.3, 0.4))
        sub = typical_subspace(ensemble_state(ab), 6, 0.5)
        tracemalloc.start()
        try:
            ru = refactorization_unitary(sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ru.matrix.shape == (1408, 1408)
        assert peak < 1.5 * ru.matrix.nbytes


class TestDerivedOnce:
    """A state takes its entropy, and an alphabet its ensemble state, once."""

    def test_one_alphabet_is_mixed_and_diagonalized_once(self, monkeypatch, natural_ctx):
        """Every budget and ledger of one alphabet reads the one ensemble state
        it keeps, and each state's entropy sum runs once, however often read."""
        ab = zero_plus_alphabet()
        shapes, spectra = [], []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw:
                            shapes.append(a.shape) or eigvalsh(a, *args, **kw))
        entropy = qcore.entropy_from_eigenvalues
        for module in (qcore, coding):
            monkeypatch.setattr(module, "entropy_from_eigenvalues",
                                lambda values: spectra.append(values) or entropy(values))

        def every_number():
            return (holevo_chi(ab), tradeoff_point(ab, natural_ctx),
                    tradeoff_curve(ab, natural_ctx),
                    [refactorization_ledger(ab, L, 0.2, natural_ctx) for L in (6, 10)])

        rho = ensemble_state(ab)
        first = every_number()
        assert shapes == [(2, 2)]
        states = (rho, *ab.letters)
        assert len(spectra) == len(states)
        assert all(any(v is s._eigenvalues for v in spectra) for s in states)
        assert every_number() == first and ensemble_state(ab) is rho
        assert shapes == [(2, 2)] and len(spectra) == len(states)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 4), k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_reused_objects_give_the_numbers_of_fresh_ones(self, d, k, seed):
        """Each number read again from an alphabet or state that keeps it is
        ``==`` the number an equal, freshly built one computes."""
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        matrices = [m / np.real(np.trace(m)) for m in g @ g.conj().transpose(0, 2, 1)]
        raw = rng.random(k) + 0.1
        probs = tuple(float(x) for x in raw / raw.sum())
        ctx = ThermalContext(units="natural")

        def fresh():
            return Alphabet(tuple(DensityMatrix(m, (d,)) for m in matrices), probs)

        def numbers(ab):
            rho = ensemble_state(ab)
            out = [rho.data.tolist(), von_neumann_entropy(rho), letter_entropies(ab),
                   holevo_chi(ab), tradeoff_point(ab, ctx), tradeoff_curve(ab, ctx),
                   tradeoff_point(block_alphabet(ab, 2), ctx)]
            for L, delta in ((3, 0.4), (7, 0.3)):
                sub = typical_subspace(rho, L, delta)
                out.append(sub)
                out.append(sub.basis.tolist() if L == 3 else sub.source_entropy)
                try:
                    out.append(refactorization_ledger(ab, L, delta, ctx))
                except ValidationError as exc:  # an empty typical subspace
                    out.append(str(exc))
            return out

        reused = fresh()
        want = numbers(reused)
        assert numbers(reused) == want
        assert numbers(fresh()) == want
