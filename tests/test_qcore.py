"""
Core state-algebra tests: construction and validation of density matrices,
tensor powers, partial traces, Kraus channels, computational-basis
measurement, and von Neumann entropy.

All expected values are either textbook closed forms computed inline or
hand-worked small matrices; random checks use fixed seeds.
"""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qihe import qcore
from qihe.qcore import (
    HERMITICITY_TOL,
    PSD_TOL,
    TRACE_TOL,
    CapacityError,
    DensityMatrix,
    NullOutcomeError,
    PureState,
    QuantumChannel,
    ValidationError,
    apply_channel,
    basis_state,
    entropy_from_eigenvalues,
    make_density,
    matrix_from_pairs,
    matrix_to_pairs,
    measure_computational,
    mixture,
    partial_trace,
    tensor_power,
    von_neumann_entropy,
)


def tensor(a, b):
    """Test-local oracle: ``a (x) b`` by ``np.kron``, with concatenated signatures."""
    return DensityMatrix(np.kron(a.data, b.data), a.dims + b.dims)


def product_spectrum(evals, n):
    """Test-local oracle: ``np.sort`` of the ``n``-fold outer-product chain of a spectrum."""
    out = evals
    for _ in range(n - 1):
        out = np.outer(out, evals).ravel()
    return np.sort(out)


_EDGE = 0.99e-10  # a trace or a weight sum off by as much as the tolerances allow
_EPS = np.finfo(float).eps


def edge_letter(d, seed, trace, herm, psd):
    """Test-local letter at the constructor's tolerance edges.

    A random full-rank letter, or with ``psd`` a diagonal one with the
    eigenvalue ``-PSD_TOL``; ``trace`` is added to its last diagonal entry.
    ``herm`` is ``"imag-diag"`` (``+-0.49e-10 i`` on the first two diagonal
    entries, a residual of 0.98e-10), ``"asym"`` (0.99e-10 added to the
    upper entry (0, 1) alone, which ``eigvalsh``, reading the lower
    triangle, does not see) or ``"none"``.
    """
    rng = np.random.default_rng(seed)
    if psd:
        rest = rng.random(d - 1) + 0.1
        m = np.diag(np.concatenate([[-PSD_TOL], rest * (1.0 + PSD_TOL) / rest.sum()]))
        m = m.astype(complex)
    else:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = g @ g.conj().T
        m /= np.real(np.trace(m))
    m[-1, -1] += trace
    if herm == "imag-diag":
        m[0, 0] += 0.49e-10j
        m[1, 1] -= 0.49e-10j
    elif herm == "asym":
        m[0, 1] += 0.99e-10 * np.exp(2j * math.pi * rng.random())
    return DensityMatrix(m, (d,))


def _edges(a):
    """``(h, t, m, s)`` of a state: its Hermiticity residual ``max |a - a^dag|``,
    its trace deviation ``|tr a - 1|`` (summed exactly), its largest entry
    modulus and the sum of its diagonal's moduli."""
    diag = np.diagonal(a.data)
    tr = complex(math.fsum(diag.real), math.fsum(diag.imag))
    return (float(np.max(np.abs(a.data - a.data.conj().T))), abs(tr - 1.0),
            float(np.max(np.abs(a.data))), float(np.sum(np.abs(diag))))


def embed_kraus(k, dims, target):
    """Test-local oracle: ``I_left (x) K (x) I_right`` on the whole register, by ``np.kron``."""
    left = math.prod(dims[: target[0]])
    right = math.prod(dims[target[-1] + 1:])
    return np.kron(np.kron(np.eye(left, dtype=complex), k), np.eye(right, dtype=complex))


def computational_dephasing(dim, target):
    """Test-local oracle: full computational-basis dephasing, one projector per basis state."""
    eye = np.eye(dim, dtype=complex)
    return QuantumChannel(tuple(np.outer(eye[:, b], eye[:, b]) for b in range(dim)), target)


class TestDensityMatrixValidation:
    """Constructor enforces Hermiticity, unit trace, and positivity eagerly."""

    def test_valid_qubit_state_accepted(self):
        m = np.array([[0.6, 0.2j], [-0.2j, 0.4]], dtype=complex)
        rho = DensityMatrix(m, (2,))
        # eigenvalues of [[.6,.2i],[-.2i,.4]] are (1 ± sqrt(0.04 + 0.16))/2
        expect = sorted([(1 + math.sqrt(0.2)) / 2, (1 - math.sqrt(0.2)) / 2])
        np.testing.assert_allclose(np.linalg.eigvalsh(rho.data), expect, atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex), (2,))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex), (2,))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex), (2,))

    def test_default_trace_bound_prints_as_before(self):
        with pytest.raises(ValidationError) as err:
            DensityMatrix(np.diag([0.5, 0.5 + 2e-10]).astype(complex), (2,))
        assert str(err.value).endswith("exceeds 1e-10")

    def test_rejects_dims_product_mismatch(self):
        with pytest.raises(ValidationError, match="subsystem dimensions"):
            DensityMatrix(np.eye(4, dtype=complex) / 4, (3,))

    @pytest.mark.parametrize("build", [
        lambda: DensityMatrix(np.eye(2) / 2, (2.7,)),
        lambda: DensityMatrix(np.eye(2) / 2, 2.7),
        lambda: DensityMatrix(np.eye(2) / 2, (2.0,)),
        lambda: DensityMatrix(np.eye(2) / 2, (True, 2)),
        lambda: DensityMatrix(np.eye(2) / 2, (np.True_, 2)),
        lambda: DensityMatrix(np.eye(2) / 2, "2"),
        lambda: PureState([1, 0], (2.9,)),
        lambda: make_density(np.eye(2) / 2, 2.7),
        lambda: QuantumChannel((np.eye(2),), (0.6,)),
        lambda: QuantumChannel((np.eye(2),), (True,)),
    ], ids=["dims-float", "dims-bare-float", "dims-integral-float", "dims-bool",
            "dims-numpy-bool", "dims-string", "pure-dims-float", "make-density-dims",
            "target-float", "target-bool"])
    def test_non_integer_dims_and_targets_rejected(self, build):
        """``int()`` would truncate 2.7 to 2 and read ``True`` as 1; both are refused."""
        with pytest.raises(ValidationError, match="must be integers"):
            build()

    def test_numpy_integer_dims_and_targets_accepted(self):
        rho = DensityMatrix(np.eye(4) / 4, (np.int64(2), np.int32(2)))
        assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
        assert DensityMatrix(np.eye(2) / 2, np.int64(2)).dims == (2,)
        ch = QuantumChannel((np.eye(2),), (np.int64(1),))
        assert ch.target == (1,) and type(ch.target[0]) is int

    def test_hermiticity_residual_holds_one_matrix_sized_temporary(self):
        """Validating a D = 1024 state peaks at 1.5x its bytes, not 2x.

        The residual ``data - data^dag`` is taken in place in one complex
        D x D array, and ``|.|`` adds a real one; both are gone before the
        read-only copy of ``data`` is made.
        """
        g = np.random.default_rng(3).normal(size=(1024, 8, 2)) @ [1.0, 1j]
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        tracemalloc.start()
        try:
            DensityMatrix(rho, (1024,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * rho.nbytes

    def test_data_is_read_only(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))
        with pytest.raises(ValueError):
            rho.data[0, 0] = 9.0

    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValidationError, match="norm"):
            PureState(np.array([1.0, 1.0], dtype=complex), (2,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad, recwarn):
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix(np.array([[bad, 0.0], [0.0, bad]], dtype=complex), (2,))
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, bad], [bad, 0.5]], dtype=complex), (2,))
        assert [str(w.message) for w in recwarn] == []

    def test_non_finite_amplitudes_rejected(self):
        with pytest.raises(ValidationError, match="norm"):
            PureState(np.array([np.nan, 0.0], dtype=complex), (2,))


class TestStateConstruction:
    def test_basis_state_density(self):
        rho = basis_state(2, (2, 2)).density()
        expect = np.zeros((4, 4), dtype=complex)
        expect[2, 2] = 1.0
        assert np.array_equal(rho.data, expect)

    @pytest.mark.parametrize("index, dims, message", [
        (1.5, 2, "basis index must be an integer, got 1.5"),
        (True, 2, "basis index must be an integer, got True"),
        (np.True_, 2, "basis index must be an integer"),
        (0, 2.5, "subsystem dimensions must be integers"),
        (0, (2, 2.0), "subsystem dimensions must be integers"),
        (0, (2, 0), "subsystem dimensions must be positive"),
        (2, 2, "basis index 2 out of range for dimension 2"),
        (-1, (2, 2), "basis index -1 out of range for dimension 4"),
    ])
    def test_basis_state_reads_its_arguments_like_the_rest_of_qcore(self, index, dims, message):
        """A non-integer index or dimension is refused by name, not as an
        ``IndexError``, a ``TypeError`` or a misleading norm error."""
        with pytest.raises(ValidationError, match=re.escape(message)):
            basis_state(index, dims)

    def test_basis_state_accepts_numpy_integers(self):
        got = basis_state(np.int64(3), (np.int64(2), 2))
        assert got.dims == (2, 2) and all(type(d) is int for d in got.dims)
        assert np.array_equal(got.amplitudes, basis_state(3, (2, 2)).amplitudes)

    def test_make_density_from_amplitudes(self):
        rho = make_density([1.0, 0.0], 2)
        assert np.array_equal(rho.data, np.diag([1.0, 0.0]).astype(complex))

    def test_make_density_from_matrix_rows(self):
        # a nested 2x2 matrix must parse as a matrix, not a mixture
        rho = make_density([[0.5, 0.5], [0.5, 0.5]], 2)
        np.testing.assert_allclose(rho.data, np.full((2, 2), 0.5), atol=1e-15)
        rho = make_density([(1, 0), (0, 0)])
        assert np.array_equal(rho.data, np.diag([1, 0]).astype(complex))

    def test_make_density_refuses_a_weighted_pair_list(self):
        # mixtures go through mixture(); make_density takes single states only
        for zero, one in ((basis_state(0, 2), basis_state(1, 2)),
                          (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))):
            with pytest.raises(TypeError, match="mixture"):
                make_density([(0.5, zero), (0.5, one)], 2)

    def test_mixture_of_basis_states(self):
        rho = mixture(
            [(0.5, basis_state(0, (2, 2))), (0.5, basis_state(3, (2, 2)))]
        )
        assert np.array_equal(rho.data, np.diag([0.5, 0, 0, 0.5]).astype(complex))
        assert rho.dims == (2, 2)

    @pytest.mark.parametrize("weights", [(np.nan, np.nan), (np.nan, 1.0), (np.inf, 0.0)])
    def test_mixture_weights_must_be_finite(self, weights):
        with pytest.raises(ValidationError, match="sum to 1"):
            mixture([(weights[0], basis_state(0, 2)), (weights[1], basis_state(1, 2))])

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum"):
            mixture([(0.7, basis_state(0, 2)), (0.2, basis_state(1, 2))])

    @pytest.mark.parametrize("bad", [True, np.True_, "1", 10 ** 400, None],
                             ids=["bool", "numpy-bool", "string", "past-float-range", "none"])
    def test_mixture_weights_are_read_as_real_numbers(self, bad):
        """A bool, a string or a number past the float range is refused with a
        message naming the weight; a numpy float is read as its value."""
        with pytest.raises(ValidationError, match="each mixture weight"):
            mixture([(bad, basis_state(0, 2))])
        rho = mixture([(np.float64(0.25), basis_state(0, 2)), (0.75, basis_state(1, 2))])
        assert np.array_equal(rho.data, np.diag([0.25, 0.75]).astype(complex))


class TestTensorAndPartialTrace:
    def test_bell_marginals_maximally_mixed(self):
        bell = make_density(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2), (2, 2))
        for qubit in (0, 1):
            marg = partial_trace(bell, [qubit])
            np.testing.assert_allclose(marg.data, np.eye(2) / 2, atol=1e-15)

    def test_tensor_then_partial_trace_round_trip(self, random_density):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_density(rng, 2)
            b = random_density(rng, 3)
            joint = tensor(a, b)
            assert joint.dims == (2, 3)
            np.testing.assert_allclose(partial_trace(joint, [0]).data, a.data, atol=1e-12)
            np.testing.assert_allclose(partial_trace(joint, [1]).data, b.data, atol=1e-12)

    def test_partial_trace_composes(self, random_density):
        rng = np.random.default_rng(11)
        rho = DensityMatrix(random_density(rng, 8).data, (2, 2, 2))
        direct = partial_trace(rho, [0])
        stepwise = partial_trace(partial_trace(rho, [0, 1]), [0])
        np.testing.assert_allclose(direct.data, stepwise.data, atol=1e-12)
        np.testing.assert_allclose(np.trace(direct.data), 1.0, atol=1e-12)

    def test_partial_trace_keeps_original_order(self, random_density):
        rng = np.random.default_rng(13)
        a, b = random_density(rng, 2), random_density(rng, 2)
        joint = tensor(a, b)
        kept = partial_trace(joint, [1, 0])  # order of `keep` must not matter
        np.testing.assert_allclose(kept.data, joint.data, atol=1e-15)

    def test_partial_trace_empty_keep_rejected(self):
        rho = make_density(np.eye(4, dtype=complex) / 4, (2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, [])

    @pytest.mark.parametrize("keep", [[1.9], [True], [np.True_], [0, 1.0]],
                             ids=["float", "bool", "numpy-bool", "integral-float"])
    def test_partial_trace_refuses_non_integer_keep(self, keep):
        """``int()`` would keep qubit 1 for both 1.9 and ``True``; both are refused."""
        rho = make_density(np.eye(4, dtype=complex) / 4, (2, 2))
        with pytest.raises(ValidationError, match="partial trace keep indices must be integers"):
            partial_trace(rho, keep)

    def test_partial_trace_accepts_numpy_integers(self, random_density):
        rho = DensityMatrix(random_density(np.random.default_rng(37), 4).data, (2, 2))
        got = partial_trace(rho, [np.int64(1)])
        assert np.array_equal(got.data, partial_trace(rho, [1]).data)
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(rho, [np.int64(2)])

    def test_partial_trace_of_a_nearly_hermitian_input_is_a_state(self):
        """The input's residual is 0.98e-10, within the tolerance; tracing adds
        its imaginary diagonal parts to 1.96e-10, and the reduced state is the
        Hermitian part of the traced array."""
        b = 4.9e-11
        rho = DensityMatrix(np.diag([0.4 + b * 1j, 0.4 + b * 1j, 0.1 - b * 1j, 0.1 - b * 1j]),
                            (2, 2))
        assert np.array_equal(partial_trace(rho, [0]).data, np.diag([0.8, 0.2]).astype(complex))

    def test_the_reduced_state_of_an_input_at_the_psd_edge_is_a_state(self):
        """``rho = diag(-e, -e, 0.5 + e, 0.5 + e)``, ``e = 0.99e-10``, is accepted, and
        ``Tr_B rho`` has the eigenvalue ``-2e``: ``rho >= -PSD_TOL`` gives only
        ``Tr_B rho >= -2 PSD_TOL``.  The reduced state is accepted, keeps that
        eigenvalue at ``-PSD_TOL``, and its entropy reads it as zero."""
        e = 0.99e-10
        rho = DensityMatrix(np.diag([-e, -e, 0.5 + e, 0.5 + e]).astype(complex), (2, 2))
        reduced = partial_trace(rho, [0])
        assert np.array_equal(reduced.data, qcore._partial_trace_raw(rho.data, (2, 2), [0]))
        assert reduced.data[0, 0] < -PSD_TOL
        assert reduced._eigenvalues[0] == -PSD_TOL
        top = reduced._eigenvalues[1]
        assert von_neumann_entropy(reduced) == -top * math.log2(top)

    @settings(max_examples=150, deadline=None)
    @given(dims=st.lists(st.integers(1, 3), min_size=2, max_size=3), data=st.data())
    def test_the_reduced_states_of_an_accepted_diagonal_input_are_states(self, dims, data):
        """A diagonal input whose entries sit in ``[-PSD_TOL, 0]`` or are positive,
        with its trace off 1 by up to ``0.99e-10``: whenever it is accepted, each of
        its reduced states is accepted, is the traced array, and has an entropy."""
        total = math.prod(dims)
        edge = st.sampled_from([-PSD_TOL, -_EDGE, 0.0]) | st.floats(-PSD_TOL, 0.0)
        entries = np.array(data.draw(st.lists(edge | st.floats(0.01, 1.0),
                                              min_size=total, max_size=total)))
        positive = entries > 0
        assume(positive.any())
        entries[positive] *= (1.0 - math.fsum(entries[~positive])) / math.fsum(entries[positive])
        entries[-1] += data.draw(st.sampled_from([-_EDGE, 0.0, _EDGE]))
        try:
            rho = DensityMatrix(np.diag(entries).astype(complex), tuple(dims))
        except ValidationError:
            assume(False)
        for r in range(1, len(dims) + 1):
            for keep in map(list, itertools.combinations(range(len(dims)), r)):
                reduced = partial_trace(rho, keep)
                assert np.array_equal(reduced.data, qcore._partial_trace_raw(rho.data, dims, keep))
                assert reduced._eigenvalues[0] >= -PSD_TOL
                assert math.isfinite(von_neumann_entropy(reduced))

    def test_partial_trace_of_an_exactly_hermitian_input_is_the_traced_array(
            self, random_density):
        rng = np.random.default_rng(41)
        for dims in ((2, 3), (2, 2, 2), (3, 2, 2)):
            g = random_density(rng, math.prod(dims)).data
            rho = DensityMatrix((g + g.conj().T) / 2, dims)
            assert np.array_equal(rho.data, rho.data.conj().T)
            for keep in ([0], [1], [0, 1], list(range(len(dims)))):
                assert np.array_equal(partial_trace(rho, keep).data,
                                      qcore._partial_trace_raw(rho.data, dims, keep))

    def test_tensor_power_matches_repeated_kron(self, random_density):
        rng = np.random.default_rng(17)
        a = random_density(rng, 2)
        cubed = tensor_power(a, 3)
        expect = np.kron(np.kron(a.data, a.data), a.data)
        np.testing.assert_allclose(cubed.data, expect, atol=1e-15)
        assert cubed.dims == (2, 2, 2)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           layout=st.sampled_from(["C", "F", "strided"]))
    def test_tensor_power_is_the_kron_chain_bit_for_bit(self, d, n, seed, layout):
        """The array products equal a chain of ``np.kron`` exactly, for any input
        layout; the kept spectrum is the sorted product chain of the letter's,
        bit for bit, and agrees with ``eigvalsh`` of the returned data."""
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = g @ g.conj().T
        m /= np.real(np.trace(m))
        if layout == "F":
            m = np.asfortranarray(m)
        elif layout == "strided":
            wide = np.zeros((d, 2 * d), dtype=complex)
            wide[:, ::2] = m
            m = wide[:, ::2]
        a = DensityMatrix(m, (d,))
        power = tensor_power(a, n)
        expect = m
        for _ in range(n - 1):
            expect = np.kron(expect, m)
        assert np.array_equal(power.data, expect)
        assert np.array_equal(power._eigenvalues, product_spectrum(a._eigenvalues, n))
        assert np.max(np.abs(power._eigenvalues - np.linalg.eigvalsh(power.data))) <= 1e-13
        assert power.dims == (d,) * n

    @pytest.mark.parametrize("n, built", [(1, 0), (2, 1), (6, 1)])
    def test_tensor_power_builds_only_the_state_it_returns(self, n, built, monkeypatch,
                                                           random_density):
        """The spy sits on the one validation body, which both the constructor
        and the power's spectrum-from-the-letter path run."""
        a = random_density(np.random.default_rng(23), 2)
        calls = []
        validate = qcore._validate
        monkeypatch.setattr(qcore, "_validate",
                            lambda state, *args: calls.append(state) or validate(state, *args))
        power = tensor_power(a, n)
        assert len(calls) == built
        assert power is (a if n == 1 else calls[0])

    def test_tensor_power_diagonalizes_nothing(self, monkeypatch):
        """The letter is diagonalized once, at construction; its powers are not."""
        a = make_density(np.diag([0.5, 0.3, 0.2]).astype(complex))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: calls.append(np.shape(m)) or eigvalsh(m))
        for n in range(2, 6):
            von_neumann_entropy(tensor_power(a, n))
        assert calls == []

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("letter, lowest", [
        (np.outer([1.0, 1.0], [1.0, 1.0]) / 2, 0.0),
        (np.diag([-1e-14, 0.3, 0.7 + 1e-14]), -1e-14),
        (np.diag([-PSD_TOL, 0.3, 0.7 + PSD_TOL]), -PSD_TOL),
    ], ids=["pure", "round-off-negative", "tolerance-negative"])
    def test_tensor_power_accepts_boundary_letters(self, n, letter, lowest):
        """A pure letter, and letters whose kept spectrum dips into [-PSD_TOL, 0),
        give powers that validate, with n times the letter's entropy.

        The clamped entropies drop the negative eigenvalue, so the letter's
        positive part sums to ``1 - lowest`` and the power's entropy moves
        from ``n S`` by about ``n |lowest| S``.  That is within 1e-12 for
        round-off; at the tolerance itself only the validation is checked.
        """
        a = make_density(letter.astype(complex))
        assert a._eigenvalues[0] == lowest
        power = tensor_power(a, n)
        assert power._eigenvalues[0] >= -PSD_TOL
        if lowest > -1e-13:
            assert abs(von_neumann_entropy(power) - n * von_neumann_entropy(a)) <= 1e-12

    @pytest.mark.parametrize("d, inner, outer", [(2, 2, 3), (3, 3, 2), (2, 3, 2)])
    def test_a_power_of_a_power_is_the_direct_power(self, d, inner, outer, random_density):
        """``(a^(x inner))^(x outer)`` is ``a^(x inner*outer)`` to within 1e-14,
        entries and kept spectrum, for a random letter and one whose trace sits
        0.99e-10 above 1."""
        random = random_density(np.random.default_rng(41 + d), d)
        edge = DensityMatrix(np.diag([0.3] * (d - 1) + [1.0 - 0.3 * (d - 1) + _EDGE]), (d,))
        for a in (random, edge):
            nested = tensor_power(tensor_power(a, inner), outer)
            direct = tensor_power(a, inner * outer)
            assert np.max(np.abs(nested.data - direct.data)) <= 1e-14
            assert np.max(np.abs(nested._eigenvalues - direct._eigenvalues)) <= 1e-14

    def test_tensor_power_holds_one_array(self, random_density):
        """The power keeps its last product, read-only, with no copy and no
        Hermiticity temporary: its peak is its own data plus the product
        before it, a ``d``-th of its size."""
        a = random_density(np.random.default_rng(43), 3)
        tracemalloc.start()
        try:
            power = tensor_power(a, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not power.data.flags.writeable
        assert peak <= 1.2 * power.data.nbytes

    def test_tensor_power_refuses_a_product_spectrum_below_the_tolerance(self):
        """A letter at the edge of the positivity tolerance passes, but its
        square holds the eigenvalue -PSD_TOL * (1 + PSD_TOL), which does not."""
        a = DensityMatrix(np.diag([-PSD_TOL, 1.0 + PSD_TOL]).astype(complex), (2,))
        assert a._eigenvalues[0] == -PSD_TOL
        with pytest.raises(ValidationError, match="not positive semidefinite"):
            tensor_power(a, 2)

    @pytest.mark.parametrize("n, problem", [(2.5, "an integer"), ("3", "an integer"),
                                            (None, "an integer"), (2.0, "an integer"),
                                            (0, "at least 1"), (-1, "at least 1")])
    def test_tensor_power_refuses_a_bad_n(self, n, problem):
        a = make_density(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValidationError, match=f"tensor power n must be {problem}"):
            tensor_power(a, n)

    def test_tensor_power_accepts_numpy_integers(self):
        a = make_density(np.eye(2, dtype=complex) / 2)
        assert np.array_equal(tensor_power(a, np.int64(3)).data, tensor_power(a, 3).data)

    def test_tensor_capacity_guard(self, random_density, monkeypatch):
        rng = np.random.default_rng(19)
        a = random_density(rng, 8)
        monkeypatch.setenv("QIHE_MAX_DIM", "32")
        with pytest.raises(CapacityError):
            tensor_power(a, 2)


_EDGE_LETTERS = dict(
    d=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1),
    trace=st.sampled_from([-_EDGE, 0.0, _EDGE]),
    herm=st.sampled_from(["none", "imag-diag", "asym"]), psd=st.booleans())


class TestCombinatorsAtTheToleranceEdges:
    """A power or a mixture of validated states is checked for positivity
    only.  These tests hold the Hermiticity and trace that it no longer checks
    to the bounds its inputs' tolerances give, on inputs pushed to each edge."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 6), **_EDGE_LETTERS)
    def test_tensor_power(self, n, d, seed, trace, herm, psd):
        """Let the letter ``a`` have Hermiticity residual ``h <= HERMITICITY_TOL``,
        trace deviation ``t <= TRACE_TOL``, largest entry ``m`` and diagonal
        moduli summing to ``s``.

        Hermiticity: an entry of ``P_n = P_(n-1) (x) a`` is ``P_IJ a_ij``, with
        partner ``P_JI a_ji``, so
        ``|P_IJ a_ij - conj(P_JI a_ji)| <= |P_IJ| h + |a_ji| |P_IJ - conj(P_JI)|``
        and by induction ``r_n <= n m**(n-1) h``.  Trace: ``tr P_n = tr(a)**n``
        and ``|z**n - 1| <= (1 + t)**n - 1`` for ``|z - 1| = t``.  Rounding: an
        entry is a chain of ``n - 1`` complex products, each within
        ``sqrt(5)/2`` machine epsilons, so ``4 n eps m**n`` covers an entry
        and its partner, and ``4 n eps s**n`` the diagonal, summed exactly.
        """
        a = edge_letter(d, seed, trace, herm, psd)
        h, t, m, s = _edges(a)
        assert h <= HERMITICITY_TOL and t <= TRACE_TOL
        expect = a.data
        for _ in range(n - 1):
            expect = np.kron(expect, a.data)
        if product_spectrum(np.linalg.eigvalsh(a.data), n)[0] < -PSD_TOL:
            with pytest.raises(ValidationError, match="not positive semidefinite"):
                tensor_power(a, n)
            return
        power = tensor_power(a, n)
        assert np.array_equal(power.data, expect)
        herm_n, trace_n, _, _ = _edges(power)
        assert herm_n <= n * m ** (n - 1) * h + 4 * n * _EPS * m ** n
        assert trace_n <= math.expm1(n * math.log1p(t)) + 4 * n * _EPS * s ** n

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 3), shift=st.sampled_from([-_EDGE, 0.0, _EDGE]),
           **_EDGE_LETTERS)
    def test_mixture(self, k, shift, d, seed, trace, herm, psd):
        """With weights ``w_i`` summing to ``1 +- 0.99e-10`` and letters as in
        :meth:`test_tensor_power`, ``sum_i w_i a_i - (sum_i w_i a_i)^dag`` is
        ``sum_i w_i (a_i - a_i^dag)``, so its residual is at most
        ``sum_i |w_i| h_i``; and ``tr(sum_i w_i a_i) - 1`` is
        ``sum_i w_i (tr a_i - 1) + (sum_i w_i - 1)``, at most
        ``sum_i |w_i| t_i + |sum_i w_i - 1|``.  Rounding: each entry is ``k``
        real-times-complex products and ``k`` sums, each within one epsilon,
        so ``4 (k + 1) eps sum_i |w_i| max(m_i, s_i)`` covers both.
        """
        letters = [edge_letter(d, seed + i, trace, herm, psd) for i in range(k)]
        raw = np.random.default_rng(seed).random(k) + 0.1
        weights = [float(w) for w in raw / raw.sum()]
        weights[-1] += shift
        expect = sum(w * a.data for w, a in zip(weights, letters))
        if np.linalg.eigvalsh(expect)[0] < -PSD_TOL:
            with pytest.raises(ValidationError, match="not positive semidefinite"):
                mixture(list(zip(weights, letters)))
            return
        rho = mixture(list(zip(weights, letters)))
        assert np.array_equal(rho.data, expect)
        edges = [_edges(a) for a in letters]
        herm_mix, trace_mix, _, _ = _edges(rho)
        pad = 4 * (k + 1) * _EPS * sum(abs(w) * max(m, s) for w, (_, _, m, s) in zip(weights, edges))
        assert herm_mix <= sum(abs(w) * h for w, (h, _, _, _) in zip(weights, edges)) + pad
        assert trace_mix <= (sum(abs(w) * t for w, (_, t, _, _) in zip(weights, edges))
                             + abs(math.fsum(weights) - 1.0) + pad)


class TestCapacity:
    """``check_capacity`` is the one "too big" answer: a :class:`CapacityError`."""

    @pytest.mark.parametrize("dim, shown", [(17, "17"), (2 ** 64 - 1, str(2 ** 64 - 1)),
                                            (2 ** 64, "2**64 or more"),
                                            (2 ** 20000 + 5, "2**20000 or more")],
                             ids=["17", "2**64-1", "2**64", "2**20000+5"])
    def test_message_names_every_knob_and_prints_no_huge_integer(self, dim, shown,
                                                                 monkeypatch):
        monkeypatch.setenv("QIHE_MAX_DIM", "16")
        with pytest.raises(CapacityError) as err:
            qcore.check_capacity(dim)
        message = str(err.value)
        assert message.startswith(f"total dimension {shown} exceeds the cap 16;")
        for knob in ("--capacity", "QIHE_MAX_DIM"):
            assert knob in message
        assert "max_dim" not in message
        assert len(message) < 200

    @pytest.mark.parametrize("raw", ["2.9", "True", "64.0", "abc", ""])
    def test_a_non_integer_environment_cap_is_refused(self, raw, monkeypatch):
        monkeypatch.setenv("QIHE_MAX_DIM", raw)
        with pytest.raises(ValidationError, match="QIHE_MAX_DIM must be an integer"):
            qcore.max_dimension()

    @pytest.mark.parametrize("raw", ["3", "0", "-5"])
    def test_an_environment_cap_below_4_is_refused(self, raw, monkeypatch):
        monkeypatch.setenv("QIHE_MAX_DIM", raw)
        with pytest.raises(ValidationError, match=f"QIHE_MAX_DIM must be at least 4, got {raw}"):
            qcore.max_dimension()
        with pytest.raises(ValidationError):
            qcore.check_capacity(4)

    def test_4_is_the_least_cap(self, monkeypatch):
        monkeypatch.setenv("QIHE_MAX_DIM", "4")
        assert qcore.max_dimension() == 4


class TestChannels:
    def test_trace_preserving_classification(self):
        # a unitary channel is trace preserving
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        ch = QuantumChannel(kraus=(h,), target=(0,))
        assert ch.trace_preserving

    def test_projector_channel_is_selective(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        ch = QuantumChannel(kraus=(p0,), target=(0,))
        assert not ch.trace_preserving

    def test_trace_preserving_is_not_an_argument(self):
        # the classification is computed, so a caller cannot set it
        with pytest.raises(TypeError):
            QuantumChannel(kraus=(np.eye(2, dtype=complex),), target=(0,), trace_preserving=False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kraus_rejected(self, bad, recwarn):
        with pytest.raises(ValidationError, match="finite"):
            QuantumChannel(kraus=(np.diag([1.0, bad]).astype(complex),), target=(0,))
        assert [str(w.message) for w in recwarn] == []

    def test_overflowing_kraus_products_rejected_without_a_warning(self, recwarn):
        with pytest.raises(ValidationError, match="Kraus operators overflow"):
            QuantumChannel(kraus=(np.diag([1.0, 1e200]).astype(complex),), target=(0,))
        assert [str(w.message) for w in recwarn] == []

    def test_overcomplete_kraus_rejected(self):
        with pytest.raises(ValidationError):
            QuantumChannel(kraus=(1.5 * np.eye(2, dtype=complex),), target=(0,))

    def test_noncontiguous_target_rejected(self):
        with pytest.raises(ValidationError, match="consecutive"):
            QuantumChannel(kraus=(np.eye(4, dtype=complex),), target=(0, 2))

    def test_dephasing_bell_pair(self):
        """Dephasing both qubits of a Bell pair leaves diag(1/2,0,0,1/2)."""
        bell = make_density(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2), (2, 2))
        out, norm = apply_channel(bell, computational_dephasing(4, (0, 1)))
        assert np.array_equal(out.data, np.diag([0.5, 0, 0, 0.5]).astype(complex))
        assert abs(norm - 1.0) < 1e-10

    def test_selective_branch_normalization(self):
        plus = make_density(np.array([1, 1], dtype=complex) / math.sqrt(2), 2)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        out, norm = apply_channel(plus, QuantumChannel(kraus=(p0,), target=(0,)))
        assert abs(norm - 0.5) < 1e-12
        np.testing.assert_allclose(out.data, np.diag([1.0, 0.0]), atol=1e-12)

    def test_null_branch_raises(self):
        zero = make_density([1.0, 0.0], 2)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(NullOutcomeError):
            apply_channel(zero, QuantumChannel(kraus=(p1,), target=(0,)))

    def test_channel_target_dimension_mismatch(self):
        qutrit = make_density(np.eye(3, dtype=complex) / 3, 3)
        ch = QuantumChannel(kraus=(np.eye(2, dtype=complex),), target=(0,))
        with pytest.raises(ValidationError):
            apply_channel(qutrit, ch)

    def test_random_tp_channels_preserve_trace(self, random_density):
        """Trace-preserving channels keep normalization 1 within 1e-10."""
        from qihe.protocols import haar_random_channel

        rng = np.random.default_rng(23)
        for _ in range(100):
            rho = DensityMatrix(random_density(rng, 4).data, (2, 2))
            ch = haar_random_channel(2, 3, rng, target=(1,))
            out, norm = apply_channel(rho, ch)
            assert abs(norm - 1.0) < 1e-10
            np.testing.assert_allclose(np.trace(out.data), 1.0, atol=1e-10)


    @settings(max_examples=80, deadline=None)
    @given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4), data=st.data(),
           n_kraus=st.integers(1, 3), d_out=st.integers(1, 3), square=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_apply_channel_matches_the_kron_embedding(self, dims, data, n_kraus, d_out, square,
                                                      seed):
        """Kraus operators on their target axes agree with the embedded ``D x D``
        operators within 1e-13, for square and non-square maps on any block."""
        start = data.draw(st.integers(0, len(dims) - 1))
        stop = data.draw(st.integers(start, len(dims) - 1))
        target = tuple(range(start, stop + 1))
        d_in = math.prod(dims[start: stop + 1])
        d_out = d_in if square else d_out
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(n_kraus * d_out, d_in)) + 1j * rng.normal(size=(n_kraus * d_out, d_in))
        g /= np.linalg.norm(g, 2) * rng.uniform(1.0, 2.0)  # sum K^dag K <= I
        kraus = tuple(g[j * d_out:(j + 1) * d_out] for j in range(n_kraus))
        total = math.prod(dims)
        h = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
        m = h @ h.conj().T
        rho = DensityMatrix(m / np.real(np.trace(m)), tuple(dims))

        out, norm = apply_channel(rho, QuantumChannel(kraus, target))
        expect = sum(embed_kraus(k, rho.dims, target) @ rho.data
                     @ embed_kraus(k, rho.dims, target).conj().T for k in kraus)
        expect_norm = float(np.real(np.trace(expect)))
        assert abs(norm - expect_norm) <= 1e-13
        assert np.max(np.abs(out.data - expect / expect_norm)) <= 1e-13
        assert math.prod(out.dims) == out.dim == d_out * total // d_in

    @pytest.mark.parametrize("dims, target, kraus", [
        ((2, 2), (0, 1), computational_dephasing(4, (0, 1)).kraus),
        ((2, 3, 2), (1,), (np.eye(3, dtype=complex),)),
        ((3, 2, 2), (1, 2), (np.eye(2, 4, dtype=complex), np.eye(2, 4, k=2, dtype=complex))),
    ], ids=["whole-register", "middle", "non-square"])
    def test_apply_channel_builds_no_kron(self, dims, target, kraus, monkeypatch):
        rho = DensityMatrix(np.eye(math.prod(dims), dtype=complex) / math.prod(dims), dims)
        ch = QuantumChannel(kraus, target)
        calls = []
        kron = np.kron
        monkeypatch.setattr(np, "kron", lambda a, b: calls.append((np.shape(a), np.shape(b)))
                            or kron(a, b))
        apply_channel(rho, ch)
        assert calls == []


class TestMeasurement:
    def test_uncorrelated_qubit_leaves_partner_untouched(self, random_density):
        rng = np.random.default_rng(29)
        partner = random_density(rng, 2)
        half = DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))
        joint = tensor(half, partner)
        records = measure_computational(joint, 0)
        assert [r.outcome for r in records] == [0, 1]
        for rec in records:
            assert abs(rec.probability - 0.5) < 1e-12
            np.testing.assert_allclose(rec.post_state.data, partner.data, atol=1e-12)

    def test_cat_state_measurement_collapses(self):
        cat = make_density(
            np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex) / math.sqrt(2), (2, 2, 2)
        )
        records = measure_computational(cat, 0)
        assert abs(records[0].probability - 0.5) < 1e-14
        assert abs(records[1].probability - 0.5) < 1e-14
        np.testing.assert_allclose(
            records[0].post_state.data, np.diag([1, 0, 0, 0]).astype(float), atol=1e-14
        )
        np.testing.assert_allclose(
            records[1].post_state.data, np.diag([0, 0, 0, 1]).astype(float), atol=1e-14
        )

    def test_probabilities_sum_to_one(self, random_density):
        rng = np.random.default_rng(31)
        for _ in range(25):
            rho = DensityMatrix(random_density(rng, 6).data, (2, 3))
            for sub in (0, 1):
                records = measure_computational(rho, sub)
                total = sum(r.probability for r in records)
                assert abs(total - 1.0) < 1e-10

    @pytest.mark.parametrize("subsystem", [0.5, 1.0, True, np.True_, "0", None],
                             ids=["float", "integral-float", "bool", "numpy-bool", "string",
                                  "none"])
    def test_non_integer_subsystem_refused(self, subsystem):
        rho = make_density(np.eye(4, dtype=complex) / 4, (2, 2))
        with pytest.raises(ValidationError, match="measured subsystem index must be an integer"):
            measure_computational(rho, subsystem)

    def test_numpy_integer_subsystem_accepted(self):
        rho = make_density(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex), (2, 2))
        got = measure_computational(rho, np.int64(1))
        want = measure_computational(rho, 1)
        assert [(r.outcome, r.probability) for r in got] == [(r.outcome, r.probability)
                                                             for r in want]
        with pytest.raises(ValueError, match="out of range"):
            measure_computational(rho, np.int64(2))

    def test_post_states_of_a_nearly_hermitian_input_are_states(self):
        """Renormalizing doubles the input's imaginary diagonal parts, past the
        tolerance; each post-state is the Hermitian part of its block."""
        b = 4.9e-11
        rho = DensityMatrix(np.diag([0.4 + b * 1j, 0.4 + b * 1j, 0.1 - b * 1j, 0.1 - b * 1j]),
                            (2, 2))
        for record in measure_computational(rho, 1):
            assert record.probability == 0.5
            assert np.array_equal(record.post_state.data, np.diag([0.8, 0.2]).astype(complex))

    def test_post_states_of_an_exactly_hermitian_input_are_the_renormalized_blocks(
            self, random_density):
        rng = np.random.default_rng(43)
        for dims in ((2, 3), (2, 2, 2), (3, 2, 2)):
            g = random_density(rng, math.prod(dims)).data
            rho = DensityMatrix((g + g.conj().T) / 2, dims)
            arr = rho.data.reshape(*dims, *dims)
            for sub in range(len(dims)):
                d_rest = math.prod(dims) // dims[sub]
                for record in measure_computational(rho, sub):
                    block = np.take(np.take(arr, record.outcome, axis=sub + len(dims)),
                                    record.outcome, axis=sub).reshape(d_rest, d_rest)
                    assert np.array_equal(record.post_state.data, block / record.probability)

    def test_last_subsystem_measurement_leaves_no_post_state(self):
        rho = make_density(np.diag([0.25, 0.75]).astype(complex), 2)
        records = measure_computational(rho, 0)
        assert records[0].post_state is None
        assert abs(records[0].probability - 0.25) < 1e-15
        assert abs(records[1].probability - 0.75) < 1e-15


class TestEntropy:
    def test_pure_state_entropy_is_exactly_zero(self):
        assert von_neumann_entropy(make_density([1.0, 0.0], 2)) == 0.0

    def test_maximally_mixed_entropies_exact(self):
        for d in (2, 4, 8):
            rho = make_density(np.eye(d, dtype=complex) / d, d)
            assert von_neumann_entropy(rho) == math.log2(d)

    def test_binary_entropy_closed_form(self):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex), 2)
        h = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        np.testing.assert_allclose(von_neumann_entropy(rho), h, rtol=1e-14)

    def test_entropy_invariant_under_unitaries(self, random_density):
        """S(U rho U†) = S(rho) over 100 random rotations."""
        from scipy.stats import unitary_group

        rng = np.random.default_rng(37)
        for _ in range(100):
            rho = random_density(rng, 4)
            u = unitary_group.rvs(4, random_state=rng)
            rotated = DensityMatrix(u @ rho.data @ u.conj().T, (4,))
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-9

    def test_entropy_subadditive(self, random_density):
        rng = np.random.default_rng(41)
        for _ in range(50):
            rho = DensityMatrix(random_density(rng, 4).data, (2, 2))
            s_ab = von_neumann_entropy(rho)
            s_a = von_neumann_entropy(partial_trace(rho, [0]))
            s_b = von_neumann_entropy(partial_trace(rho, [1]))
            assert s_ab <= s_a + s_b + 1e-9

    def test_one_eigvalsh_per_state_and_none_per_entropy(self, monkeypatch):
        """The positivity check diagonalizes once; the entropy reads that spectrum."""
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(np.shape(a)) or eigvalsh(a))
        rho = DensityMatrix(np.diag([0.5, 0.25, 0.25]).astype(complex), (3,))
        assert calls == [(3, 3)]
        assert von_neumann_entropy(rho) == 1.5
        assert von_neumann_entropy(rho) == 1.5
        assert calls == [(3, 3)]

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 64), rank=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
           layout=st.sampled_from(["C", "F", "strided"]))
    def test_entropy_equals_a_raw_numpy_oracle(self, dim, rank, seed, layout):
        """Ginibre states of every rank up to D = 64, against eigvalsh of the raw array.

        Whatever the input's memory layout, the kept spectrum is exactly the
        one ``eigvalsh`` gives on the stored copy.
        """
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, min(rank, dim))) + 1j * rng.normal(size=(dim, min(rank, dim)))
        m = g @ g.conj().T
        m /= np.real(np.trace(m))
        lam = np.linalg.eigvalsh(m)
        lam = lam[lam > 0]
        oracle = float(-np.sum(lam * np.log2(lam)))
        if layout == "F":
            m = np.asfortranarray(m)
        elif layout == "strided":
            wide = np.zeros((dim, 2 * dim), dtype=complex)
            wide[:, ::2] = m
            m = wide[:, ::2]
        rho = DensityMatrix(m, (dim,))
        assert abs(von_neumann_entropy(rho) - oracle) <= 1e-12
        assert von_neumann_entropy(rho) == entropy_from_eigenvalues(np.linalg.eigvalsh(rho.data))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(-PSD_TOL, 0.0, exclude_max=True),
                              st.floats(0.0, 1.0)), min_size=1, max_size=64))
    def test_entropy_sum_matches_the_numpy_scalar_loop(self, values):
        """Summing over Python floats is the numpy-scalar loop bit for bit,
        exact zeros and clamped round-off included."""
        s = 0.0
        for lam in np.real(np.asarray(values)):
            if lam > 0.0:
                s -= float(lam) * math.log2(float(lam))
        got = entropy_from_eigenvalues(np.array(values))
        assert type(got) is float
        assert got.hex() == float(s).hex()
        assert entropy_from_eigenvalues(values).hex() == float(s).hex()

    def test_eigenvalue_clamp_and_rejection(self):
        # tiny negative round-off is clamped to zero ...
        assert entropy_from_eigenvalues([1.0, -5e-11]) == 0.0
        # ... but a genuinely negative eigenvalue is an error
        with pytest.raises(ValidationError, match=r"^not positive semidefinite: eigenvalue "
                           r"-1\.000e-09 is below -1e-10$"):
            entropy_from_eigenvalues([1.0, -1e-9])


class TestSerialization:
    def test_round_trip_is_exact(self, random_density):
        rng = np.random.default_rng(43)
        m = random_density(rng, 4).data
        again = matrix_from_pairs(matrix_to_pairs(m))
        assert np.array_equal(m, again)

    def test_row_major_pair_layout(self):
        pairs = matrix_to_pairs(np.array([[1 + 2j, 3 + 0j]]))
        assert pairs == [[[1.0, 2.0], [3.0, 0.0]]]
