"""Dense linear algebra for finite-dimensional multipartite quantum states.

Everything downstream (thermodynamic accounting, distribution protocols,
source coding) is built on the validated value types defined here:
density matrices, pure states, Kraus channels and measurement records.
States are immutable, and each is checked once, where it enters.  A matrix
given by its entries, including the states :func:`partial_trace`,
:func:`apply_channel` and :func:`measure_computational` return, is checked
for Hermiticity, unit trace and positivity; a :func:`tensor_power` or a
:func:`mixture` of checked states for positivity only, since its Hermiticity
and trace follow from theirs.  Intermediate results that are never returned
stay plain arrays: a tensor power multiplies arrays, and a channel applies
each Kraus operator to its target axes only.  A density matrix given by its
entries is diagonalized once, by its own positivity check; a tensor power
takes its spectrum from its letter's instead, and
:func:`von_neumann_entropy` reads whichever spectrum the state keeps, once
per state: the entropy is derived on first request and kept.

Conventions
-----------
* Subsystems are 0-indexed and ordered most-significant first, i.e. the
  basis index of ``|i_0 i_1 ... >`` is the mixed-radix number with digit
  ``i_0`` leading (the ordering produced by ``numpy.kron``).
* All entropies are in bits (base-2 logarithms).
* Dense operations refuse to build objects whose total dimension exceeds
  one cap, resolved by :func:`max_dimension` alone (default ``2**14``; the
  ``QIHE_MAX_DIM`` environment variable, or the CLI's ``--capacity`` for
  one run, sets it).
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import sys
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CapacityError",
    "DensityMatrix",
    "ImpossibleEvidenceError",
    "MeasurementRecord",
    "NullOutcomeError",
    "PureState",
    "QiheError",
    "QuantumChannel",
    "ValidationError",
    "apply_channel",
    "basis_state",
    "check_capacity",
    "make_density",
    "matrix_from_pairs",
    "matrix_to_pairs",
    "max_dimension",
    "measure_computational",
    "mixture",
    "partial_trace",
    "tensor_power",
    "von_neumann_entropy",
]

# Validation tolerances.  These are deliberate interface constants, not
# tuning knobs: error messages quote them, and the test suite pins them.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
PURE_NORM_TOL = 1e-12
KRAUS_TOL = 1e-10
NULL_OUTCOME_TOL = 1e-14
PROBABILITY_TOL = 1e-10

_EPS = 2.0 ** -52  # float64 machine epsilon
DEFAULT_MAX_DIM = 2 ** 14
MAX_DIM_ENV = "QIHE_MAX_DIM"
# The CLI's --capacity for the run in progress: ``cli.run`` sets it and resets it
# when the run ends, so it shadows QIHE_MAX_DIM for that run alone.
_CAPACITY: ContextVar[int | None] = ContextVar("qihe_capacity", default=None)


class QiheError(Exception):
    """Base class for all library-specific errors."""


class ValidationError(QiheError, ValueError):
    """An invariant of a quantum object failed its eager validation."""


class CapacityError(QiheError):
    """A dense operation would exceed the configured dimension cap."""


class NullOutcomeError(ValidationError):
    """A selective operation annihilated the state (trace below tolerance)."""


class ImpossibleEvidenceError(ValidationError):
    """Conditioning on an outcome combination that has probability zero."""


def max_dimension() -> int:
    """The dense-dimension cap, resolved here alone: the CLI's ``--capacity``
    for the run in progress, else ``QIHE_MAX_DIM``, else ``2**14``.  A source
    that gives no integer of at least 4 is named in a :class:`ValidationError`."""
    cap, source = _CAPACITY.get(), "--capacity"
    if cap is None:
        raw, source = os.environ.get(MAX_DIM_ENV), MAX_DIM_ENV
        if raw is None:
            return DEFAULT_MAX_DIM
        try:
            cap = int(raw)
        except ValueError:
            raise ValidationError(f"{MAX_DIM_ENV} must be an integer, got {raw[:20]!r} "
                                  f"({len(raw)} characters)") from None
    if cap < 4:
        raise ValidationError(f"{source} must be at least 4, got {_size(cap)}")
    return cap


def _size(n: int) -> str:
    """``n`` in digits up to 64 bits, else as ``2**k or more`` (``-2**k or less``):
    no huge int becomes a string."""
    bits, (sign, bound) = int(n).bit_length(), ("-", "less") if n < 0 else ("", "more")
    return str(n) if bits <= 64 else f"{sign}2**{bits - 1} or {bound}"


def check_capacity(dim: int) -> None:
    """Raise :class:`CapacityError` if ``dim`` exceeds :func:`max_dimension`,
    read at each call: the one "too big" check."""
    cap = max_dimension()
    if dim > cap:
        raise CapacityError(
            f"total dimension {_size(dim)} exceeds the cap {_size(cap)}; raise it with "
            f"--capacity or the {MAX_DIM_ENV} environment variable"
        )


def _capped_power(base: int, n: int) -> int:
    """``base**n`` for :func:`check_capacity`, its exponent cut at the cap's bits plus 65:
    there any ``base >= 2`` is over the cap and shown as ``2**k or more``."""
    return base ** min(n, max_dimension().bit_length() + 65)


def _integer(value, name: str) -> int:
    """``value`` as a Python ``int``, read by ``operator.index``; a bool or a
    non-integer such as 2.7 raises a :class:`ValidationError` naming ``name``."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def _real(value, name: str) -> float:
    """``value`` as a Python ``float``; a bool, a string or a number past the float
    range raises a :class:`ValidationError` naming ``name``."""
    if type(value) is float:  # the common case, without the abstract-class check
        return value
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} is out of the float range") from None


def _integers(values: Iterable[int], name: str) -> tuple[int, ...]:
    """Each of ``values`` read by :func:`_integer`; the error names ``name`` and the whole input."""
    try:
        return tuple(_integer(v, name) for v in values)
    except ValidationError:
        raise ValidationError(f"{name} must be integers, got {values!r}") from None


def _as_dims(dims: int | Iterable[int], total: int) -> tuple[int, ...]:
    """Normalize a dims argument and check consistency with the total dimension."""
    out = _integers(dims if np.iterable(dims) else (dims,), "subsystem dimensions")
    if not out or any(d < 1 for d in out):
        raise ValidationError(f"subsystem dimensions must be positive, got {out}")
    if math.prod(out) != total:
        raise ValidationError(
            f"subsystem dimensions {out} multiply to {math.prod(out)}, "
            f"but the array dimension is {total}"
        )
    return out


def _positive_integer(value, name: str) -> int:
    """``value`` as a Python ``int`` from 1 to the float maximum, or a :class:`ValidationError`."""
    value = _integer(value, name)
    if value < 1:
        raise ValidationError(f"{name} must be at least 1, got {_size(value)}")
    if value > sys.float_info.max:
        raise ValidationError(f"{name} is out of the float range, got {_size(value)}")
    return value


def _seed(value) -> int:
    """``value`` as a random seed, an ``int`` of at least 0, read by :func:`_integer`."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {_size(seed)}")
    return seed


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, without a numpy floating-point warning.

    ``vdot`` sums ``|a_ij|^2`` in BLAS, which raises no warning on ``inf``
    or NaN; the exact elementwise test runs only when that sum is not
    finite (a non-finite entry, or an overflow of finite ones).
    """
    return math.isfinite(np.vdot(a, a).real) or bool(np.isfinite(a).all())


@dataclass(frozen=True, eq=False)  # arrays inside: == and hash go by identity
class DensityMatrix:
    """A validated density operator together with its subsystem signature.

    Construction eagerly checks Hermiticity, unit trace and positive
    semidefiniteness (a :func:`tensor_power` or a :func:`mixture`, only the
    last); the error message names the violated invariant and the offending
    magnitude.  ``dims`` records the tensor factorization,
    e.g. ``(2, 2, 2)`` for three qubits.  The spectrum that the positivity
    check reads is kept, ascending: it is the spectrum
    :func:`von_neumann_entropy` reads, so a state is diagonalized at most
    once however often its entropy is taken.  For a matrix given to the
    constructor it is ``eigvalsh`` of the input, which equals ``eigvalsh``
    of the stored read-only ``data`` bit for bit (``eigvalsh`` copies its
    input into one layout before LAPACK sees it); the copy is made after
    ``eigvalsh``, so it adds nothing to the validation's peak memory.  A power or a mixture
    holds the array it built, with no copy; a power keeps the sorted
    products of its letter's kept spectrum, the spectrum of the power.

    The entropy of the kept spectrum is likewise derived once, on first
    request, and kept.  That is safe because a state never changes: the
    dataclass is frozen, and ``data`` and the spectrum are read-only arrays,
    so the entropy is a function of fields that cannot move.
    """

    data: np.ndarray
    dims: tuple[int, ...]
    _eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _validate(self, self.data, self.dims)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.data.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    @cached_property
    def _entropy(self) -> float:
        """The entropy of the kept spectrum, in bits: what :func:`von_neumann_entropy` returns."""
        return entropy_from_eigenvalues(self._eigenvalues)


def _validate(state: DensityMatrix, data, dims, spectrum: np.ndarray | None = None,
              psd_tol: float = PSD_TOL) -> DensityMatrix:
    """Check ``data`` as a density matrix, and set and return ``state``: the one validation body.

    Given no ``spectrum``, as for every matrix given to :class:`DensityMatrix`,
    ``data`` is checked in full: its shape, Hermiticity and trace, then the
    positivity of ``eigvalsh(data)``, computed after the cheaper checks have
    passed, and the stored copy is made after ``eigvalsh``.  Given
    ``spectrum``, ascending, ``data`` is a fresh array built from validated
    states, whose Hermiticity and trace follow from theirs: only the
    positivity of ``spectrum`` is checked, and ``data`` is kept as it is.
    Positivity is checked at ``-psd_tol``; the kept spectrum is clamped at ``-PSD_TOL``.
    """
    if spectrum is None:
        data = np.asarray(data, dtype=complex)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {data.shape}")
        dims = _as_dims(dims, data.shape[0])

        herm = math.nan  # for a non-finite entry, without the warning inf - inf would print
        if _all_finite(data):
            # one D x D complex temporary; |conj(a_ij) - a_ji| is |(rho - rho^dag)_ij| bit for bit
            residual = data.conj()
            herm = float(np.abs(np.subtract(residual, data.T, out=residual)).max())
            del residual  # before eigvalsh and the copy
        if not herm <= HERMITICITY_TOL:
            raise ValidationError(
                f"not Hermitian: max |rho - rho^dag| = {herm:.3e} exceeds {HERMITICITY_TOL:.0e}"
            )
        tr = complex(np.trace(data))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"trace must be 1: |tr(rho) - 1| = {abs(tr - 1.0):.3e} exceeds {TRACE_TOL:.0e}"
            )
        spectrum = np.linalg.eigvalsh(data)
        data = np.array(data)  # after eigvalsh, whose copies are freed: no higher peak
    lo = float(spectrum[0])  # ascending, so spectrum[0] is the minimum
    if lo < -psd_tol:
        raise ValidationError(
            f"not positive semidefinite: min eigenvalue {lo:.3e} is below -{psd_tol:.0e}"
        )
    spectrum = spectrum if lo >= -PSD_TOL else np.maximum(spectrum, -PSD_TOL)  # read as zeros

    data.setflags(write=False)
    spectrum.setflags(write=False)
    object.__setattr__(state, "data", data)
    object.__setattr__(state, "dims", dims)
    object.__setattr__(state, "_eigenvalues", spectrum)
    return state


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector with a subsystem signature."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        dims = _as_dims(self.dims, amp.shape[0])
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= PURE_NORM_TOL:  # NaN fails this test
            raise ValidationError(
                f"state vector norm must be 1: |norm - 1| = {abs(norm - 1.0):.3e} "
                f"exceeds {PURE_NORM_TOL:.0e}"
            )
        object.__setattr__(self, "amplitudes", _readonly(amp))
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> DensityMatrix:
        """Rank-one projector |psi><psi| as a :class:`DensityMatrix`."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """A Kraus-operator map acting on a contiguous block of subsystems.

    ``target`` names the consecutive subsystem indices the operators act
    on.  Completeness is classified at construction: trace preserving
    (``sum K^dag K = I`` within tolerance) or trace non-increasing
    (``sum K^dag K <= I``); anything else is rejected.
    """

    kraus: tuple[np.ndarray, ...]
    target: tuple[int, ...]
    trace_preserving: bool = field(init=False)

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ops):
            raise ValidationError(
                f"all Kraus operators must share one 2-D shape, got {[k.shape for k in ops]}"
            )
        target = _integers(self.target, "channel target indices")
        if not target or any(b - a != 1 for a, b in zip(target, target[1:])):
            raise ValidationError(
                f"channel target must be a non-empty block of consecutive indices, got {target}"
            )
        if target[0] < 0:
            raise ValidationError(f"channel target indices must be non-negative, got {target}")

        # sum_k vdot(K, K) = sum |K_ij|^2 bounds every entry of sum K^dag K
        # (Cauchy-Schwarz), so when it is finite the matmul cannot overflow;
        # vdot sums in BLAS and warns on no inf or NaN
        weight = sum(float(np.vdot(k, k).real) for k in ops)
        if not math.isfinite(weight):
            if not all(np.isfinite(k).all() for k in ops):
                raise ValidationError("Kraus operators must be finite")
            raise ValidationError("Kraus operators overflow: sum |K_ij|^2 exceeds double range")
        comp = sum(k.conj().T @ k for k in ops)
        dev = float(np.max(np.abs(comp - np.eye(shape[1]))))
        if dev <= KRAUS_TOL:
            tp = True
        else:
            top = float(np.max(np.linalg.eigvalsh(comp)))
            if top > 1.0 + KRAUS_TOL:
                raise ValidationError(
                    f"Kraus completeness violated: max eigenvalue of sum K^dag K is "
                    f"{top:.12f}, above 1 + {KRAUS_TOL:.0e}"
                )
            tp = False

        object.__setattr__(self, "kraus", tuple(_readonly(k) for k in ops))
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "trace_preserving", tp)

    @property
    def input_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.kraus[0].shape[0]


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One branch of a computational-basis measurement.

    ``post_state`` is the conditioned state on the remaining subsystems;
    it is ``None`` for branches of (numerically) zero probability, and
    also when the measured subsystem was the only one.
    """

    outcome: int
    probability: float
    post_state: DensityMatrix | None


def basis_state(index: int, dims: int | Sequence[int]) -> PureState:
    """Computational-basis ket ``|index>`` on the given subsystem layout."""
    dims = _integers(dims if np.iterable(dims) else (dims,), "subsystem dimensions")
    total = math.prod(dims)
    dims = _as_dims(dims, total)  # every dimension positive, before the index is read against them
    index = _integer(index, "basis index")
    if not 0 <= index < total:
        raise ValidationError(f"basis index {index} out of range for dimension {total}")
    amp = np.zeros(total, dtype=complex)
    amp[index] = 1.0
    return PureState(amp, dims)


def _is_weighted_pair(item) -> bool:
    """Whether ``item`` reads as a ``(weight, state)`` entry of a mixture."""
    return (isinstance(item, (list, tuple)) and len(item) == 2 and np.ndim(item[0]) == 0
            and (isinstance(item[1], (PureState, DensityMatrix)) or np.ndim(item[1]) > 0))


def make_density(
    spec: "PureState | DensityMatrix | np.ndarray | Sequence",
    dims: int | Iterable[int] | None = None,
) -> DensityMatrix:
    """Build a validated density matrix from several input forms.

    Accepted ``spec`` values:

    * a :class:`PureState` (rank-one projector),
    * an existing :class:`DensityMatrix` (returned unchanged),
    * a 1-D array of amplitudes (treated as a pure state),
    * a 2-D array (explicit matrix, validated eagerly).

    Classical mixtures are built with :func:`mixture`; a ``(weight, state)``
    pair list raises :class:`TypeError`.

    ``dims`` fixes the subsystem factorization where it cannot be
    inferred; it defaults to a single subsystem of full dimension.
    """
    if isinstance(spec, DensityMatrix):
        return spec
    if isinstance(spec, PureState):
        return spec.density()
    if isinstance(spec, (list, tuple)) and spec and _is_weighted_pair(spec[0]):
        raise TypeError("make_density takes a single state; build a (weight, state) "
                        "mixture with mixture()")
    arr = np.asarray(spec, dtype=complex)
    if arr.ndim == 1:
        return PureState(arr, _as_dims(dims if dims is not None else arr.shape[0],
                                       arr.shape[0])).density()
    if arr.ndim == 2:
        return DensityMatrix(arr, _as_dims(dims if dims is not None else arr.shape[0],
                                           arr.shape[0]))
    raise ValidationError(f"cannot interpret an array of rank {arr.ndim} as a state")


def mixture(
    pairs: Sequence[tuple[float, "PureState | DensityMatrix | np.ndarray"]],
    dims: int | Iterable[int] | None = None,
) -> DensityMatrix:
    """Convex mixture ``sum_i w_i rho_i`` of states with validated weights.

    Each weight is read by :func:`_real` and each state by :func:`make_density`;
    the sum is checked for positivity only, on its ``eigvalsh``, which it keeps.
    """
    if not pairs:
        raise ValidationError("a mixture needs at least one component")
    weights = np.array([_real(w, "each mixture weight") for w, _ in pairs])
    if np.any(weights < -PROBABILITY_TOL):
        raise ValidationError(f"mixture weights must be non-negative, got min {weights.min():.3e}")
    total = float(weights.sum())
    if not abs(total - 1.0) <= PROBABILITY_TOL:  # NaN fails this test
        raise ValidationError(
            f"mixture weights must sum to 1: |sum - 1| = {abs(total - 1.0):.3e} "
            f"exceeds {PROBABILITY_TOL:.0e}"
        )
    parts = [make_density(state, dims) for _, state in pairs]
    ref_dims = parts[0].dims
    if any(p.dims != ref_dims for p in parts):
        raise ValidationError("all mixture components must share one subsystem signature")
    acc = np.zeros((parts[0].dim,) * 2, dtype=complex)
    for w, dm in zip(weights, parts):
        acc += w * dm.data
    return _validate(object.__new__(DensityMatrix), acc, ref_dims, np.linalg.eigvalsh(acc))


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.kron(x, y)`` of two matrices: the same broadcast multiply, without its set-up."""
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(
        x.shape[0] * y.shape[0], x.shape[1] * y.shape[1])


def tensor_power(a: DensityMatrix, n: int) -> DensityMatrix:
    """``n``-fold tensor power of a state.

    The products are plain arrays, bit-identical to a chain of ``np.kron``;
    only the power returned is a :class:`DensityMatrix` (``a`` itself when
    ``n`` is 1), and it holds the last product, marked read-only, with no
    copy.  Its Hermiticity and trace follow from ``a``'s, so they are not
    checked again.  Nothing of size ``d**n x d**n`` is diagonalized: the
    spectrum of ``a^(x n)`` is the ``n``-fold products of ``a``'s kept
    eigenvalues, so the positivity check and the entropy read those
    products, sorted ascending.
    """
    n = _positive_integer(n, "tensor power n")
    check_capacity(_capped_power(a.dim, n))
    if n == 1:
        return a
    data, spectrum = a.data, a._eigenvalues
    for _ in range(n - 1):
        data = _kron(data, a.data)
        spectrum = (spectrum[:, None] * a._eigenvalues[None, :]).reshape(-1)
    return _validate(object.__new__(DensityMatrix), data, a.dims * n, np.sort(spectrum))


def _partial_trace_raw(data: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace on a raw (not necessarily unit-trace) square array."""
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    arr = data.reshape(*dims, *dims)
    removed = 0
    for j in sorted(traced, reverse=True):
        arr = np.trace(arr, axis1=j, axis2=j + n - removed)
        removed += 1
    d_keep = math.prod(dims[i] for i in keep) if keep else 1
    return arr.reshape(d_keep, d_keep)


def _apply_kraus_raw(data: np.ndarray, dims: Sequence[int], target: Sequence[int],
                     kraus: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_k K rho K^dag`` on a raw square array, summed in Kraus order.  With the rows
    viewed as ``(left, d_in, rest)``, one broadcast ``matmul`` applies ``K`` to the row
    block and a second applies ``conj(K)`` to the column block: nothing outgrows the state."""
    left = math.prod(dims[: target[0]])
    rest = math.prod(dims[target[-1] + 1:])
    d_out, d_in = kraus[0].shape
    rows = data.reshape(left, d_in, rest * data.shape[1])
    terms = (np.matmul(k.conj(), np.matmul(k, rows).reshape(-1, d_in, rest)) for k in kraus)
    acc = next(terms)
    for term in terms:
        acc += term
    return acc.reshape(left * d_out * rest, -1)


def _hermitian_part(x: np.ndarray) -> np.ndarray:
    """``(x + x^dag) / 2``, in ``x`` if writable, with one temporary: ``x`` if exactly Hermitian."""
    h = np.add(x, x.conj().T, out=x if x.flags.writeable else None)
    h *= 0.5
    return h


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the subsystems named in ``keep``.

    ``keep`` is a set of 0-based indices; the result keeps those
    subsystems in their original order.  Tracing out everything is an
    argument error, because the result would be a scalar, not a state.
    The reduced state is the Hermitian part of the traced array, which a sum
    of the input's nearly Hermitian blocks can push past the tolerance; as
    ``rho >= -PSD_TOL`` gives ``Tr_B rho >= -PSD_TOL d_B``, it is checked at that bound.
    """
    keep_sorted = sorted(set(_integers(keep, "partial trace keep indices")))
    if not keep_sorted:
        raise ValueError("keep set must name at least one subsystem")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= rho.n_subsystems:
        raise ValueError(
            f"keep indices {keep_sorted} out of range for {rho.n_subsystems} subsystems"
        )
    reduced = _hermitian_part(_partial_trace_raw(rho.data, rho.dims, keep_sorted))
    dims, d_b = tuple(rho.dims[i] for i in keep_sorted), rho.dim // len(reduced)
    return _validate(object.__new__(DensityMatrix), reduced, dims, psd_tol=PSD_TOL * d_b)


def apply_channel(rho: DensityMatrix, ch: QuantumChannel) -> tuple[DensityMatrix, float]:
    """Apply a Kraus map and return ``(state, normalization)``.

    Each Kraus operator acts on its target axes only, never embedded in a
    whole-register operator.  The normalization is the pre-renormalization
    trace ``tr(sum K rho K^dag)``; it is 1 (to tolerance) for trace-preserving channels and
    the branch probability for selective, trace-non-increasing ones.
    It is always reported, never silently absorbed.  A normalization
    below ``NULL_OUTCOME_TOL`` raises :class:`NullOutcomeError`.
    """
    target = ch.target
    if target[-1] >= rho.n_subsystems:
        raise ValueError(
            f"channel target {target} out of range for {rho.n_subsystems} subsystems"
        )
    block = math.prod(rho.dims[target[0]: target[-1] + 1])
    if block != ch.input_dim:
        raise ValidationError(
            f"channel input dimension {ch.input_dim} does not match the target "
            f"block dimension {block}"
        )
    acc = _apply_kraus_raw(rho.data, rho.dims, target, ch.kraus)
    norm = float(np.real(np.trace(acc)))
    if norm < NULL_OUTCOME_TOL:
        raise NullOutcomeError(
            f"channel output trace {norm:.3e} is below {NULL_OUTCOME_TOL:.0e}; "
            "the selected branch annihilates the state"
        )
    if ch.output_dim == ch.input_dim:
        out_dims = rho.dims
    else:
        out_dims = rho.dims[: target[0]] + (ch.output_dim,) + rho.dims[target[-1] + 1:]
    return DensityMatrix(acc / norm, out_dims), norm


def measure_computational(rho: DensityMatrix, subsystem: int) -> list[MeasurementRecord]:
    """Projective computational-basis measurement of one subsystem.

    Returns one record per basis outcome.  The measured subsystem is
    removed from the conditioned post-states, each the Hermitian part of
    its renormalized block; branch probabilities sum to 1 within tolerance.
    """
    n = rho.n_subsystems
    subsystem = _integer(subsystem, "measured subsystem index")
    if not 0 <= subsystem < n:
        raise ValueError(f"subsystem index {subsystem} out of range for {n} subsystems")
    d_s = rho.dims[subsystem]
    rest_dims = rho.dims[:subsystem] + rho.dims[subsystem + 1:]
    arr = rho.data.reshape(*rho.dims, *rho.dims)
    records: list[MeasurementRecord] = []
    total = 0.0
    for b in range(d_s):
        block = np.take(np.take(arr, b, axis=subsystem + n), b, axis=subsystem)
        d_rest = math.prod(rest_dims) if rest_dims else 1
        block = block.reshape(d_rest, d_rest)
        p = float(np.real(np.trace(block)))
        p = max(p, 0.0)
        total += p
        if p < NULL_OUTCOME_TOL or not rest_dims:
            records.append(MeasurementRecord(b, p, None))
        else:
            post = DensityMatrix(_hermitian_part(block / p), rest_dims)
            records.append(MeasurementRecord(b, p, post))
    if abs(total - 1.0) > PROBABILITY_TOL:
        raise ValidationError(
            f"Born probabilities sum to {total:.12f}; |sum - 1| exceeds {PROBABILITY_TOL:.0e}"
        )
    return records


def entropy_from_eigenvalues(values: np.ndarray | Sequence[float]) -> float:
    """Shannon entropy in bits of an eigenvalue list, with clamping.

    Eigenvalues in ``[-PSD_TOL, 0)`` are treated as exact zeros (and
    contribute nothing); anything below ``-PSD_TOL`` is a genuine
    positivity violation and raises.
    """
    s = 0.0
    for lam in np.real(np.asarray(values)).tolist():  # Python floats, not numpy scalars
        if lam < -PSD_TOL:
            raise ValidationError(
                f"not positive semidefinite: eigenvalue {lam:.3e} is below -{PSD_TOL:.0e}"
            )
        if lam > 0.0:
            s -= lam * math.log2(lam)
    return s


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy ``-tr(rho log2 rho)`` in bits.

    It reads the spectrum that validated ``rho``, kept at construction:
    ``eigvalsh`` of a matrix given to :class:`DensityMatrix`, or the sorted
    products of the letter's spectrum for a :func:`tensor_power`.  The sum
    runs on the first call for ``rho`` only; later calls return the kept float.
    """
    return rho._entropy


def matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    """Serialize a complex matrix as row-major ``[re, im]`` pairs."""
    a = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def _complex_pair(entry) -> complex:
    """One ``[re, im]`` entry of a serialized matrix as a complex number."""
    try:
        re, im = entry
    except (TypeError, ValueError):
        raise ValidationError(
            f"each matrix entry must be a pair [re, im] of numbers, got {entry!r}") from None
    name = "each part of a matrix entry"
    return complex(_real(re, name), _real(im, name))


def matrix_from_pairs(obj: Sequence[Sequence[Sequence[float]]]) -> np.ndarray:
    """Inverse of :func:`matrix_to_pairs`.

    Each entry must be exactly two real numbers ``[re, im]``; any other
    entry, a bool or a string included, raises :class:`ValidationError`.
    """
    rows = [[_complex_pair(e) for e in row] for row in obj]
    out = np.array(rows, dtype=complex)
    if out.ndim != 2:
        raise ValidationError(f"serialized matrix must be 2-D, got shape {out.shape}")
    return out
