"""Entropy-to-work bookkeeping for information heat engines.

The engine model is a cyclic machine coupled to a single reservoir at
temperature ``T``: it converts heat into work at the price of raising
the entropy of a fed ancilla, and conversely pays work to pump entropy
out.  Over a closed cycle the internal-energy term vanishes, so every
energy figure here is ``k_B T ln2`` per bit of entropy moved.

Units
-----
``natural``
    One bit-unit equals ``k_B T ln2`` joules at the context temperature;
    the per-bit conversion factor is exactly 1, so work values coincide
    with entropy differences in bits.
``SI``
    Joules, using the exact CODATA Boltzmann constant.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, PureState, ValidationError, _real, von_neumann_entropy

__all__ = [
    "BOLTZMANN_SI",
    "CarnotReport",
    "ThermalContext",
    "WorkReport",
    "cycle_work",
    "extractable_work",
    "landauer_reset_cost",
    "remote_carnot",
    "unit_factor",
]

BOLTZMANN_SI = 1.380649e-23  # J/K, exact by SI definition
LN2 = math.log(2.0)

_UNIT_LABELS = {"natural": "bit-unit", "SI": "J"}


@dataclass(frozen=True)
class ThermalContext:
    """Reservoir temperature plus the unit system used for energies.

    The temperature is read by :func:`qcore._real`, as an alphabet reads its
    probabilities, and kept as a Python ``float``.
    """

    temperature: float = 300.0
    units: str = "natural"

    def __post_init__(self) -> None:
        t = _real(self.temperature, "temperature")
        if not (t > 0 and math.isfinite(t)):
            raise ValidationError(f"temperature must be positive and finite, got {t}")
        object.__setattr__(self, "temperature", t)
        if self.units not in _UNIT_LABELS:
            raise ValidationError(f"units must be one of {sorted(_UNIT_LABELS)}, got {self.units!r}")

    @property
    def energy_unit(self) -> str:
        return _UNIT_LABELS[self.units]


def unit_factor(ctx: ThermalContext) -> float:
    """Energy of one bit-unit at the context temperature.

    This is the Landauer scale ``k_B T ln2``: exactly 1.0 in natural
    units, and the corresponding joule value in SI.
    """
    if ctx.units == "natural":
        return 1.0
    return BOLTZMANN_SI * LN2 * ctx.temperature


@dataclass(frozen=True)
class WorkReport:
    """Work moved in one engine transaction.

    ``work`` is ``unit_factor * entropy_delta`` where ``entropy_delta``
    is the entropy (in bits) poured into the messenger subsystem.
    The internal-energy term of a closed cycle vanishes identically, so
    it is not carried.
    """

    work: float
    entropy_delta: float
    units: str = "bit-unit"


@dataclass(frozen=True)
class CarnotReport:
    """Two-reservoir ledger for a remotely-completed Carnot cycle.

    The cycle pumps one bit of entropy out at ``t_low`` (costing
    ``k_B ln2 t_low`` of work) and releases it at ``t_high``, drawing
    ``heat_from_hot = k_B ln2 t_high`` and netting ``work_per_qubit =
    k_B ln2 (t_high - t_low)`` per maximally-mixed qubit shipped.
    Negative net work simply means the cycle ran uphill.
    """

    t_low: float
    t_high: float
    work_per_qubit: float
    heat_from_hot: float
    efficiency: float

    def __post_init__(self) -> None:
        # (t_high - t_low) / t_high, not 1 - t_low/t_high, which keeps few
        # correct digits, or none, when the two temperatures lie close
        eff = (self.t_high - self.t_low) / self.t_high
        if not np.isclose(self.efficiency, eff, rtol=1e-12, atol=0.0):
            raise ValidationError(
                f"efficiency {self.efficiency} inconsistent with (t_high - t_low)/t_high = {eff}"
            )
        if not np.isclose(self.work_per_qubit, self.heat_from_hot * self.efficiency,
                          rtol=1e-12, atol=1e-300):
            raise ValidationError("work_per_qubit inconsistent with heat_from_hot * efficiency")


def cycle_work(entropy_delta: float, ctx: ThermalContext) -> WorkReport:
    """Work released by a closed engine cycle that exports ``entropy_delta`` bits.

    Positive ``entropy_delta`` means entropy flows from the reservoir
    into the messenger and work is harvested; negative means the engine
    is run in reverse.  ``entropy_delta`` is read by :func:`qcore._real`.
    """
    delta = _real(entropy_delta, "entropy delta")
    if not math.isfinite(delta):
        raise ValidationError(f"entropy delta must be finite, got {entropy_delta}")
    uf = unit_factor(ctx)
    work = uf * delta
    return WorkReport(work=work, entropy_delta=delta, units=ctx.energy_unit)


def extractable_work(state: DensityMatrix | PureState, ctx: ThermalContext) -> WorkReport:
    """Maximum cyclic work obtainable from a state of dimension ``d``.

    The engine can raise the state's entropy from ``S(rho)`` up to the
    ceiling ``log2 d``, harvesting one bit-unit per bit of headroom:
    ``W = k_B T ln2 (log2 d - S(rho))``.  A :class:`PureState` input
    uses ``S = 0`` exactly; a maximally mixed state yields zero.
    """
    if isinstance(state, PureState):
        dim, entropy = state.dim, 0.0
    else:
        dim, entropy = state.dim, von_neumann_entropy(state)
    return cycle_work(math.log2(dim) - entropy, ctx)


def landauer_reset_cost(bits: float, ctx: ThermalContext) -> float:
    """Minimum work needed to erase ``bits`` bits of record at temperature T;
    ``bits`` is read by :func:`qcore._real`."""
    b = _real(bits, "bits")
    if b < 0 or not math.isfinite(b):
        raise ValidationError(f"cannot reset a negative or non-finite number of bits: {bits}")
    return unit_factor(ctx) * b


def remote_carnot(t1: float, t2: float) -> CarnotReport:
    """Carnot cycle split between reservoirs at ``t1`` (cold) and ``t2`` (hot).

    Entropy is pumped into a maximally mixed qubit at ``t1`` and the
    qubit is reset remotely at ``t2``; energies are in joules.  If
    ``t1 > t2`` the net work per qubit is negative, which is allowed.  A
    pair whose ratio ``t1/t2`` overflows, or whose ``t2`` is so small that
    the heat ``k_B ln2 t2`` falls below the normal float range, is refused
    with a message naming both.  Each temperature is read by
    :func:`qcore._real`, so a bool, a string or a number past the float range
    is refused with a message naming it.
    """
    t1, t2 = _real(t1, "t1"), _real(t2, "t2")
    for name, t in (("t1", t1), ("t2", t2)):
        if not (t > 0 and math.isfinite(t)):
            raise ValidationError(f"{name} must be a positive finite temperature, got {t}")
    scale = BOLTZMANN_SI * LN2
    if not math.isfinite(t1 / t2):
        raise ValidationError(
            f"t1 = {t1} and t2 = {t2} are too far apart: t1/t2 overflows the float range")
    if scale * t2 < sys.float_info.min:
        raise ValidationError(
            f"t2 = {t2} is too small: the heat k_B ln2 t2 underflows the float range "
            f"(t1 = {t1})")
    return CarnotReport(
        t_low=t1,
        t_high=t2,
        work_per_qubit=scale * (t2 - t1),
        heat_from_hot=scale * t2,
        efficiency=(t2 - t1) / t2,
    )
