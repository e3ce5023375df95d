"""
Core state-algebra tests: construction and validation of density matrices,
tensor products, partial traces, Kraus channels, computational-basis
measurement, and von Neumann entropy.

All expected values are either textbook closed forms computed inline or
hand-worked small matrices; random checks use fixed seeds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qihe.qcore import (
    PSD_TOL,
    CapacityError,
    DensityMatrix,
    NullOutcomeError,
    PureState,
    QuantumChannel,
    ValidationError,
    apply_channel,
    basis_state,
    computational_dephasing,
    entropy_from_eigenvalues,
    make_density,
    matrix_from_pairs,
    matrix_to_pairs,
    measure_computational,
    mixture,
    partial_trace,
    tensor,
    tensor_power,
    von_neumann_entropy,
)


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

    def test_rejects_dims_product_mismatch(self):
        with pytest.raises(ValidationError, match="subsystem dimensions"):
            DensityMatrix(np.eye(4, dtype=complex) / 4, (3,))

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
        """The array products equal a chain of ``np.kron`` exactly, and the
        kept spectrum is ``eigvalsh`` of the returned data, for any input layout."""
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
        assert np.array_equal(power._eigenvalues, np.linalg.eigvalsh(power.data))
        assert power.dims == (d,) * n

    @pytest.mark.parametrize("n, built", [(1, 0), (2, 1), (6, 1)])
    def test_tensor_power_builds_only_the_state_it_returns(self, n, built, monkeypatch,
                                                           random_density):
        a = random_density(np.random.default_rng(23), 2)
        calls = []
        post_init = DensityMatrix.__post_init__
        monkeypatch.setattr(DensityMatrix, "__post_init__",
                            lambda self: calls.append(self) or post_init(self))
        power = tensor_power(a, n)
        assert len(calls) == built
        assert power is (a if n == 1 else calls[0])

    def test_tensor_power_validates_the_returned_power(self):
        """A letter inside the trace tolerance whose square falls outside it
        is still refused, now at the power that is returned."""
        a = DensityMatrix(np.diag([0.5 + 4e-11, 0.5 + 4e-11]).astype(complex), (2,))
        assert tensor_power(a, 1) is a
        with pytest.raises(ValidationError, match="trace must be 1"):
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

    def test_tensor_capacity_guard(self, random_density):
        rng = np.random.default_rng(19)
        a = random_density(rng, 8)
        with pytest.raises(CapacityError):
            tensor(a, a, max_dim=32)


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
