"""Dense linear algebra for finite-dimensional multipartite quantum states.

Everything downstream (thermodynamic accounting, distribution protocols,
source coding) is built on the validated value types defined here:
density matrices, pure states, Kraus channels and measurement records.
States are immutable; every operation returns a fresh, validated object.
Intermediate results that are never returned stay plain arrays: a tensor
power multiplies arrays and validates only the power it returns.  A density
matrix is diagonalized once, by its own positivity check, and
:func:`von_neumann_entropy` reads that same spectrum.

Conventions
-----------
* Subsystems are 0-indexed and ordered most-significant first, i.e. the
  basis index of ``|i_0 i_1 ... >`` is the mixed-radix number with digit
  ``i_0`` leading (the ordering produced by ``numpy.kron``).
* All entropies are in bits (base-2 logarithms).
* Dense operations refuse to build objects whose total dimension exceeds
  a configurable cap (default ``2**14``, overridable per call or through
  the ``QIHE_MAX_DIM`` environment variable).
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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
    "computational_dephasing",
    "make_density",
    "matrix_from_pairs",
    "matrix_to_pairs",
    "max_dimension",
    "measure_computational",
    "mixture",
    "partial_trace",
    "tensor",
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

DEFAULT_MAX_DIM = 2 ** 14
MAX_DIM_ENV = "QIHE_MAX_DIM"


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


def max_dimension(override: int | None = None) -> int:
    """Return the dense-dimension cap: explicit override, env var, or default."""
    if override is not None:
        return int(override)
    raw = os.environ.get(MAX_DIM_ENV)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{MAX_DIM_ENV} must be an integer, got {raw!r}") from None


def check_capacity(dim: int, max_dim: int | None = None) -> None:
    """Raise :class:`CapacityError` if ``dim`` exceeds the configured cap."""
    cap = max_dimension(max_dim)
    if dim > cap:
        raise CapacityError(
            f"total dimension {dim} exceeds the configured cap {cap}; "
            f"raise it explicitly or via the {MAX_DIM_ENV} environment variable"
        )


def _as_dims(dims: int | Iterable[int], total: int) -> tuple[int, ...]:
    """Normalize a dims argument and check consistency with the total dimension."""
    if isinstance(dims, (int, np.integer)):
        out = (int(dims),)
    else:
        out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise ValidationError(f"subsystem dimensions must be positive, got {out}")
    if math.prod(out) != total:
        raise ValidationError(
            f"subsystem dimensions {out} multiply to {math.prod(out)}, "
            f"but the array dimension is {total}"
        )
    return out


def _positive_integer(value, name: str) -> int:
    """``value`` as a Python ``int`` of at least 1, or a :class:`ValidationError` naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValidationError(f"{name} must be at least 1, got {value}")
    return value


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


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density operator together with its subsystem signature.

    Construction eagerly checks Hermiticity, unit trace and positive
    semidefiniteness; the error message names the violated invariant and
    the offending magnitude.  ``dims`` records the tensor factorization,
    e.g. ``(2, 2, 2)`` for three qubits.  The spectrum that the positivity
    check computes is kept: it is the spectrum :func:`von_neumann_entropy`
    reads, so a state is diagonalized once however often its entropy is
    taken.  ``eigvalsh`` copies its input into one layout before LAPACK
    sees it, so this spectrum, taken on the input, equals ``eigvalsh`` of
    the stored read-only ``data`` bit for bit; the copy is made last, so it
    adds nothing to the validation's peak memory.
    """

    data: np.ndarray
    dims: tuple[int, ...]
    _eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {data.shape}")
        dims = _as_dims(self.dims, data.shape[0])

        # a NaN or infinite entry reads as a NaN residual, without the
        # warning that inf - inf would print
        herm = float(np.abs(data - data.conj().T).max()) if _all_finite(data) else math.nan
        if not herm <= HERMITICITY_TOL:
            raise ValidationError(
                f"not Hermitian: max |rho - rho^dag| = {herm:.3e} exceeds {HERMITICITY_TOL:.0e}"
            )
        tr = complex(np.trace(data))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"trace must be 1: |tr(rho) - 1| = {abs(tr - 1.0):.3e} exceeds {TRACE_TOL:.0e}"
            )
        evals = np.linalg.eigvalsh(data)  # ascending, so evals[0] is the minimum
        lo = float(evals[0])
        if lo < -PSD_TOL:
            raise ValidationError(
                f"not positive semidefinite: min eigenvalue {lo:.3e} is below -{PSD_TOL:.0e}"
            )

        evals.setflags(write=False)
        object.__setattr__(self, "data", _readonly(data))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_eigenvalues", evals)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.data.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        target = tuple(int(t) for t in self.target)
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


@dataclass(frozen=True)
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
    if isinstance(dims, (int, np.integer)):
        dims = (int(dims),)
    total = math.prod(dims)
    if not 0 <= index < total:
        raise ValueError(f"basis index {index} out of range for dimension {total}")
    amp = np.zeros(total, dtype=complex)
    amp[index] = 1.0
    return PureState(amp, tuple(dims))


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
    """Convex mixture ``sum_i w_i rho_i`` of states with validated weights."""
    if not pairs:
        raise ValidationError("a mixture needs at least one component")
    weights = np.array([float(w) for w, _ in pairs])
    if np.any(weights < -PROBABILITY_TOL):
        raise ValidationError(f"mixture weights must be non-negative, got min {weights.min():.3e}")
    total = float(weights.sum())
    if not abs(total - 1.0) <= PROBABILITY_TOL:  # NaN fails this test
        raise ValidationError(
            f"mixture weights must sum to 1: |sum - 1| = {abs(total - 1.0):.3e} "
            f"exceeds {PROBABILITY_TOL:.0e}"
        )
    parts = []
    for w, state in pairs:
        dm = make_density(state, dims)
        parts.append((w, dm))
    ref_dims = parts[0][1].dims
    if any(p.dims != ref_dims for _, p in parts):
        raise ValidationError("all mixture components must share one subsystem signature")
    acc = np.zeros((parts[0][1].dim,) * 2, dtype=complex)
    for w, dm in parts:
        acc += w * dm.data
    return DensityMatrix(acc, ref_dims)


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.kron(x, y)`` of two matrices: the same broadcast multiply, without its set-up."""
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(
        x.shape[0] * y.shape[0], x.shape[1] * y.shape[1])


def tensor(a: DensityMatrix, b: DensityMatrix, max_dim: int | None = None) -> DensityMatrix:
    """Tensor product ``a (x) b`` with concatenated subsystem signatures."""
    check_capacity(a.dim * b.dim, max_dim)
    return DensityMatrix(_kron(a.data, b.data), a.dims + b.dims)


def tensor_power(a: DensityMatrix, n: int, max_dim: int | None = None) -> DensityMatrix:
    """``n``-fold tensor power of a state.

    The intermediate products are plain arrays, bit-identical to a chain of
    ``np.kron``; only the power returned is built, and validated, as a
    :class:`DensityMatrix` (``a`` itself when ``n`` is 1).
    """
    n = _positive_integer(n, "tensor power n")
    check_capacity(a.dim ** n, max_dim)
    data = a.data
    for _ in range(n - 1):
        data = _kron(data, a.data)
    return a if n == 1 else DensityMatrix(data, a.dims * n)


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


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the subsystems named in ``keep``.

    ``keep`` is a set of 0-based indices; the result keeps those
    subsystems in their original order.  Tracing out everything is an
    argument error, because the result would be a scalar, not a state.
    """
    keep_sorted = sorted(set(int(k) for k in keep))
    if not keep_sorted:
        raise ValueError("keep set must name at least one subsystem")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= rho.n_subsystems:
        raise ValueError(
            f"keep indices {keep_sorted} out of range for {rho.n_subsystems} subsystems"
        )
    reduced = _partial_trace_raw(rho.data, rho.dims, keep_sorted)
    return DensityMatrix(reduced, tuple(rho.dims[i] for i in keep_sorted))


def _embed_kraus(k: np.ndarray, dims: Sequence[int], target: Sequence[int]) -> np.ndarray:
    left = math.prod(dims[: target[0]]) if target[0] > 0 else 1
    right = math.prod(dims[target[-1] + 1:]) if target[-1] + 1 < len(dims) else 1
    out = k
    if left > 1:
        out = np.kron(np.eye(left, dtype=complex), out)
    if right > 1:
        out = np.kron(out, np.eye(right, dtype=complex))
    return out


def apply_channel(rho: DensityMatrix, ch: QuantumChannel) -> tuple[DensityMatrix, float]:
    """Apply a Kraus map and return ``(state, normalization)``.

    The normalization is the pre-renormalization trace ``tr(sum K rho
    K^dag)``; it is 1 (to tolerance) for trace-preserving channels and
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
    acc = None
    for k in ch.kraus:
        full = _embed_kraus(k, rho.dims, target)
        term = full @ rho.data @ full.conj().T
        acc = term if acc is None else acc + term
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
    removed from the conditioned post-states; branch probabilities sum
    to 1 within tolerance.
    """
    n = rho.n_subsystems
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
            records.append(MeasurementRecord(b, p, DensityMatrix(block / p, rest_dims)))
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

    It reads the spectrum that validated ``rho``, computed once at
    construction and equal bit for bit to ``eigvalsh(rho.data)``.
    """
    return entropy_from_eigenvalues(rho._eigenvalues)


def computational_dephasing(dim: int, target: tuple[int, ...]) -> QuantumChannel:
    """Full dephasing in the computational basis (measure and forget)."""
    eye = np.eye(dim, dtype=complex)
    kraus = tuple(np.outer(eye[:, b], eye[:, b]) for b in range(dim))
    return QuantumChannel(kraus, target)


def matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    """Serialize a complex matrix as row-major ``[re, im]`` pairs."""
    a = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def matrix_from_pairs(obj: Sequence[Sequence[Sequence[float]]]) -> np.ndarray:
    """Inverse of :func:`matrix_to_pairs`."""
    rows = []
    for row in obj:
        rows.append([complex(float(e[0]), float(e[1])) for e in row])
    out = np.array(rows, dtype=complex)
    if out.ndim != 2:
        raise ValidationError(f"serialized matrix must be 2-D, got shape {out.shape}")
    return out
