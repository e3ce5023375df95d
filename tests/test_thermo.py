"""
Thermodynamic accounting tests: the bit-unit/SI conversion, entropy-to-work
cycles, reset costs, and the two-reservoir messenger cycle.

Unit oracle: one entropy bit at temperature T is worth k_B T ln2 joules with
the CODATA value k_B = 1.380649e-23 J/K.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qihe.qcore import DensityMatrix, PureState, ValidationError, make_density
from qihe.thermo import (
    BOLTZMANN_SI,
    CarnotReport,
    ThermalContext,
    cycle_work,
    extractable_work,
    landauer_reset_cost,
    remote_carnot,
    unit_factor,
)


class TestThermalContext:
    def test_defaults(self):
        ctx = ThermalContext()
        assert ctx.units == "natural"
        assert ctx.temperature == 300.0
        assert unit_factor(ctx) == 1.0
        assert ctx.energy_unit == "bit-unit"

    def test_si_factor_matches_codata(self):
        ctx = ThermalContext(temperature=300.0, units="SI")
        assert unit_factor(ctx) == 1.380649e-23 * math.log(2) * 300.0
        assert ctx.energy_unit == "J"
        assert BOLTZMANN_SI == 1.380649e-23

    def test_rejects_nonpositive_temperature(self):
        for bad in (0.0, -5.0, math.nan):
            with pytest.raises(ValidationError):
                ThermalContext(temperature=bad, units="SI")

    def test_rejects_unknown_units(self):
        with pytest.raises(ValidationError, match="units"):
            ThermalContext(units="calories")

    @pytest.mark.parametrize("bad", ["300", True, np.True_, 10 ** 400, None],
                             ids=["string", "bool", "numpy-bool", "past-float-range", "none"])
    def test_temperature_is_read_as_a_real_number(self, bad):
        """A string, a bool or a number past the float range is refused with a
        short message naming the temperature; a numpy float is kept as a float."""
        with pytest.raises(ValidationError, match="temperature") as info:
            ThermalContext(temperature=bad)
        assert len(str(info.value)) < 80
        ctx = ThermalContext(temperature=np.float64(250.0), units="SI")
        assert type(ctx.temperature) is float and ctx.temperature == 250.0


class TestCycleWork:
    def test_work_scales_with_unit_factor(self):
        rng = np.random.default_rng(3)
        si = ThermalContext(temperature=450.0, units="SI")
        for _ in range(50):
            ds = float(rng.uniform(-3, 3))
            rep = cycle_work(ds, si)
            np.testing.assert_allclose(rep.work, unit_factor(si) * ds, rtol=1e-12)
            assert rep.units == "J"

    def test_sign_antisymmetry_exact(self):
        ctx = ThermalContext(units="natural")
        rng = np.random.default_rng(5)
        for _ in range(50):
            ds = float(rng.uniform(0, 4))
            assert cycle_work(-ds, ctx).work == -cycle_work(ds, ctx).work

    def test_report_bookkeeping_fields(self):
        rep = cycle_work(-1.5, ThermalContext(units="natural"))
        assert rep.entropy_delta == -1.5
        assert rep.work == -1.5

    def test_rejects_non_finite_entropy(self):
        with pytest.raises(ValidationError):
            cycle_work(math.inf, ThermalContext())

    @pytest.mark.parametrize("bad", ["2", True, np.True_, 10 ** 400, None],
                             ids=["string", "bool", "numpy-bool", "past-float-range", "none"])
    def test_entropy_delta_is_read_as_a_real_number(self, bad):
        """A string, a bool or a number past the float range is refused with a
        short message naming the entropy delta; a numpy float is kept as a float."""
        with pytest.raises(ValidationError, match="entropy delta") as info:
            cycle_work(bad, ThermalContext())
        assert len(str(info.value)) < 80
        rep = cycle_work(np.float64(1.5), ThermalContext())
        assert type(rep.entropy_delta) is float and rep.work == 1.5


class TestExtractableWork:
    def test_pure_qubit_natural_is_one(self):
        pure = PureState(np.array([1.0, 0.0], dtype=complex), (2,))
        assert extractable_work(pure, ThermalContext(units="natural")).work == 1.0

    def test_pure_qubit_si_oracle(self):
        pure = PureState(np.array([1.0, 0.0], dtype=complex), (2,))
        got = extractable_work(pure, ThermalContext(temperature=300.0, units="SI")).work
        expect = 1.380649e-23 * math.log(2) * 300.0
        np.testing.assert_allclose(got, expect, rtol=1e-15)

    def test_maximally_mixed_yields_exactly_zero(self):
        ctx = ThermalContext(units="natural")
        for d in (2, 3, 4, 5, 8):
            rho = make_density(np.eye(d, dtype=complex) / d, d)
            assert extractable_work(rho, ctx).work == 0.0

    def test_purity_gap_identity_is_exact_in_natural_units(self, random_density):
        """work + S(rho) = log2(d) with zero residual for every state."""
        ctx = ThermalContext(units="natural")
        rng = np.random.default_rng(7)
        from qihe.qcore import von_neumann_entropy

        for _ in range(100):
            d = int(rng.integers(2, 9))
            rho = random_density(rng, d)
            rep = extractable_work(rho, ctx)
            assert rep.work + von_neumann_entropy(rho) - math.log2(d) == 0.0

    def test_work_invariant_under_unitaries(self, random_density):
        from scipy.stats import unitary_group

        ctx = ThermalContext(units="natural")
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = random_density(rng, 3)
            u = unitary_group.rvs(3, random_state=rng)
            rotated = DensityMatrix(u @ rho.data @ u.conj().T, (3,))
            assert abs(extractable_work(rotated, ctx).work - extractable_work(rho, ctx).work) < 1e-9


class TestLandauerReset:
    def test_cost_is_unit_factor_times_bits(self):
        si = ThermalContext(temperature=300.0, units="SI")
        np.testing.assert_allclose(
            landauer_reset_cost(2.5, si), 2.5 * unit_factor(si), rtol=1e-15
        )
        assert landauer_reset_cost(0.0, si) == 0.0

    def test_negative_bit_count_rejected(self):
        with pytest.raises(ValidationError):
            landauer_reset_cost(-1.0, ThermalContext())

    @pytest.mark.parametrize("bad", ["abc", True, np.True_, 10 ** 400, None],
                             ids=["string", "bool", "numpy-bool", "past-float-range", "none"])
    def test_bits_are_read_as_a_real_number(self, bad):
        """A string, a bool or a number past the float range is refused with a
        short message naming the bits; a numpy float is read as its value."""
        with pytest.raises(ValidationError, match="bits") as info:
            landauer_reset_cost(bad, ThermalContext())
        assert len(str(info.value)) < 80
        assert landauer_reset_cost(np.float64(2.0), ThermalContext()) == 2.0


class TestRemoteCarnot:
    """Two reservoirs linked by messenger states reproduce the Carnot budget."""

    def test_doubled_temperature_oracle(self):
        rep = remote_carnot(300.0, 600.0)
        np.testing.assert_allclose(
            rep.work_per_qubit, BOLTZMANN_SI * math.log(2) * 300.0, rtol=1e-12
        )
        assert rep.efficiency == 0.5

    def test_work_equals_heat_times_efficiency(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            t1, t2 = (float(x) for x in rng.uniform(1.0, 1000.0, size=2))
            rep = remote_carnot(t1, t2)
            np.testing.assert_allclose(
                rep.work_per_qubit, rep.heat_from_hot * (1 - t1 / t2), rtol=1e-12
            )

    def test_reversed_gradient_costs_work(self):
        rep = remote_carnot(500.0, 250.0)
        assert rep.work_per_qubit < 0
        assert rep.efficiency == 1 - 500.0 / 250.0

    def test_equal_temperatures_idle(self):
        rep = remote_carnot(400.0, 400.0)
        assert rep.work_per_qubit == 0.0
        assert rep.efficiency == 0.0

    def test_rejects_nonpositive_temperatures(self):
        for t1, t2 in ((0.0, 300.0), (300.0, -1.0), (math.inf, 300.0)):
            with pytest.raises(ValidationError):
                remote_carnot(t1, t2)

    @pytest.mark.parametrize("t1, t2, name", [
        (10 ** 400, 1.0, "t1"), (300, 10 ** 400, "t2"), ("300", 600.0, "t1"),
        (300.0, True, "t2"), (None, 600.0, "t1"),
    ], ids=["t1-past-float-range", "t2-past-float-range", "t1-string", "t2-bool", "t1-none"])
    def test_temperatures_are_read_as_real_numbers(self, t1, t2, name):
        with pytest.raises(ValidationError, match=name) as info:
            remote_carnot(t1, t2)
        assert len(str(info.value)) < 80
        rep = remote_carnot(np.float64(300.0), 600)
        assert (rep.t_low, rep.t_high) == (300.0, 600.0)
        assert type(rep.t_low) is float and type(rep.t_high) is float

    @settings(max_examples=300, deadline=None)
    @given(t1=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           t2=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(t1=300.0, t2=1e-320)
    @example(t1=1e300, t2=1e-10)
    @example(t1=1e-270, t2=1e-290)
    @example(t1=6865914.952979124, t2=6865914.952979121)
    def test_any_positive_pair_reports_or_names_a_temperature(self, t1, t2):
        """Every positive finite pair, subnormals included, gives a report or
        a refusal that names t1 or t2, never the report's internal self-check.
        A report's efficiency is within 2 ulp of the exact ``(t2 - t1) / t2``
        (rationals), also where the two temperatures lie a few ulp apart."""
        try:
            rep = remote_carnot(t1, t2)
        except ValidationError as exc:
            assert "t1" in str(exc) or "t2" in str(exc)
            assert "inconsistent" not in str(exc)
            return
        exact = (Fraction(t2) - Fraction(t1)) / Fraction(t2)
        assert abs(Fraction(rep.efficiency) - exact) <= 2 * abs(exact) * Fraction(2) ** -52

    def test_report_self_consistency_enforced(self):
        with pytest.raises(ValidationError):
            CarnotReport(
                t_low=300.0,
                t_high=600.0,
                work_per_qubit=1.0,
                heat_from_hot=1.0,
                efficiency=0.5,
            )
