"""Communication/work tradeoffs and typical-subspace refactorization.

A memoryless source emits letters ``rho_a`` with probabilities ``p_a``
on a ``d``-dimensional carrier.  Three linked quantities share the
carrier's capacity ``M = log2 d`` bits per letter:

* extractable energy ``E = M - S(rho_B)`` (bit-units per letter),
* accessible communication, bounded by the Holevo quantity
  ``chi = S(rho_B) - <S_a>``,
* the average letter entropy ``<S_a>`` itself.

The bookkeeping identity ``E + chi + <S_a> = M`` is enforced wherever
these numbers are produced together.

For long blocks the receiver can concentrate the source onto its
typical subspace, swap the typical content into a compact ancilla with
a permutation-style unitary, and run the emptied carriers through the
engine (Schumacher compression).  :func:`typical_subspace` counts the
subspace from the spectrum of ``rho_B`` alone, by a multinomial census
over eigenvalue type classes, so it needs no ``d**L``-sized matrix for
any source.  One census loop weighs only the classes the typicality
window can hold, not all ``C(L + d - 1, d - 1)``.  The eigenvector basis
and projector are built only on request, within the dense cap.
:func:`refactorization_ledger` turns capture statistics into a net
work-per-letter bracket.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .qcore import (
    MAX_DIM_ENV,
    DensityMatrix,
    ValidationError,
    _positive_integer,
    basis_state,
    check_capacity,
    entropy_from_eigenvalues,
    matrix_from_pairs,
    matrix_to_pairs,
    max_dimension,
    mixture,
    tensor_power,
    von_neumann_entropy,
)
from .thermo import ThermalContext, unit_factor

__all__ = [
    "Alphabet",
    "RefactorizationLedger",
    "RefactorizationUnitary",
    "TradeoffPoint",
    "TypicalSubspace",
    "block_alphabet",
    "ensemble_state",
    "holevo_chi",
    "load_alphabet",
    "orthogonal_pure_alphabet",
    "qubit_capture_curve",
    "refactorization_ledger",
    "refactorization_unitary",
    "save_alphabet",
    "tradeoff_curve",
    "tradeoff_point",
    "typical_subspace",
    "zero_plus_alphabet",
]

_IDENTITY_TOL = 1e-12
_CHI_TOL = 1e-10
_PROJECTOR_TOL = 1e-9
_EPS = 2.0 ** -52  # float64 machine epsilon


@dataclass(frozen=True)
class Alphabet:
    """A finite quantum source: letter states plus emission probabilities."""

    letters: tuple[DensityMatrix, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        probs = tuple(float(p) for p in self.probs)
        if not letters:
            raise ValidationError("an alphabet needs at least one letter")
        if len(letters) != len(probs):
            raise ValidationError(
                f"{len(letters)} letters but {len(probs)} probabilities"
            )
        if any(p < -1e-12 for p in probs):
            raise ValidationError(f"letter probabilities must be non-negative: {probs}")
        total = sum(probs)
        if not abs(total - 1.0) <= 1e-10:  # NaN fails this test
            raise ValidationError(
                f"letter probabilities must sum to 1: |sum - 1| = {abs(total - 1.0):.3e}"
            )
        d = letters[0].dim
        if any(let.dim != d for let in letters):
            raise ValidationError("all letters must share one carrier dimension")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "probs", probs)

    @property
    def d(self) -> int:
        """Carrier dimension of each letter."""
        return self.letters[0].dim

    @property
    def capacity_bits(self) -> float:
        return math.log2(self.d)

    def to_dict(self) -> dict:
        return {
            "dims": self.d,
            "letters": [matrix_to_pairs(let.data) for let in self.letters],
            "probs": list(self.probs),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Alphabet":
        """Parse the JSON file format; a missing or malformed field raises
        :class:`ValidationError` naming the field."""
        if not isinstance(obj, dict):
            raise ValidationError(f"an alphabet must be a JSON object, got {type(obj).__name__}")

        def field(key, parse):
            if key not in obj:
                raise ValidationError(f"alphabet has no {key!r} field")
            try:
                return parse(obj[key])
            except ValidationError:
                raise
            except (TypeError, ValueError, IndexError) as exc:
                raise ValidationError(f"malformed alphabet field {key!r}: {exc}") from None

        def dimension(value) -> int:
            # int() would truncate 2.7 to 2 and read true as 1
            if isinstance(value, (bool, np.bool_)) or (
                    isinstance(value, (float, np.floating)) and not float(value).is_integer()):
                raise ValidationError(f"alphabet field 'dims' must be an integer, got {value!r}")
            return int(value)

        d = field("dims", dimension)

        def letter(entry) -> DensityMatrix:
            m = matrix_from_pairs(entry)
            if m.shape != (d, d):
                raise ValidationError(
                    f"letter matrix has shape {m.shape}, expected ({d}, {d})"
                )
            return DensityMatrix(m, (d,))

        letters = field("letters", lambda entries: tuple(letter(e) for e in entries))
        return cls(letters, field("probs", lambda probs: tuple(float(p) for p in probs)))


def load_alphabet(path: str) -> Alphabet:
    """Read an alphabet from its JSON file format."""
    with open(path, "r", encoding="utf-8") as fh:
        return Alphabet.from_dict(json.load(fh))


def save_alphabet(alphabet: Alphabet, path: str) -> None:
    """Write an alphabet in the JSON file format read by :func:`load_alphabet`."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(alphabet.to_dict(), fh, indent=2)
        fh.write("\n")


def orthogonal_pure_alphabet(d: int = 2) -> Alphabet:
    """Uniform alphabet of the ``d`` computational basis states."""
    letters = tuple(basis_state(i, d).density() for i in range(d))
    return Alphabet(letters, (1.0 / d,) * d)


def zero_plus_alphabet() -> Alphabet:
    """The non-orthogonal benchmark alphabet ``{|0>, |+>}`` with equal odds."""
    zero = basis_state(0, 2).density()
    plus_amp = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    plus = DensityMatrix(np.outer(plus_amp, plus_amp.conj()), (2,))
    return Alphabet((zero, plus), (0.5, 0.5))


def ensemble_state(alphabet: Alphabet) -> DensityMatrix:
    """Average emitted state ``rho_B = sum_a p_a rho_a``."""
    return mixture(list(zip(alphabet.probs, alphabet.letters)))


def letter_entropies(alphabet: Alphabet) -> list[float]:
    """Von Neumann entropy of each letter, in bits."""
    return [von_neumann_entropy(let) for let in alphabet.letters]


@dataclass(frozen=True)
class TradeoffPoint:
    """One operating point of the energy/communication budget, in bits.

    The fields satisfy ``energy_bits + comm_bits + avg_letter_entropy =
    capacity_bits``: whatever the messages do not use, and the letters
    do not waste as mixedness, is extractable as work.
    """

    energy_bits: float
    comm_bits: float
    avg_letter_entropy: float
    capacity_bits: float

    def __post_init__(self) -> None:
        if self.comm_bits < -_CHI_TOL:
            raise ValidationError(
                f"Holevo quantity came out negative ({self.comm_bits:.3e}); concavity "
                "is violated beyond numerical tolerance"
            )
        residual = (self.energy_bits + self.comm_bits
                    + self.avg_letter_entropy - self.capacity_bits)
        if abs(residual) > _IDENTITY_TOL:
            raise ValidationError(
                f"budget identity violated: E + C + <S_a> - M = {residual:.3e} "
                f"exceeds {_IDENTITY_TOL:.0e}"
            )

    def endpoints(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Tradeoff endpoints ``(C, E)``: this point, and all energy at ``C = 0``."""
        return ((self.comm_bits, self.energy_bits),
                (0.0, self.capacity_bits - self.avg_letter_entropy))


def _entropy_budget(alphabet: Alphabet) -> tuple[TradeoffPoint, float]:
    """The full-communication point and ``S(rho_B)``: the one place both entropies are computed."""
    s_b = von_neumann_entropy(ensemble_state(alphabet))
    avg = sum(p * s for p, s in zip(alphabet.probs, letter_entropies(alphabet)))
    return TradeoffPoint(
        energy_bits=alphabet.capacity_bits - s_b,
        comm_bits=s_b - avg,
        avg_letter_entropy=avg,
        capacity_bits=alphabet.capacity_bits,
    ), s_b


def holevo_chi(alphabet: Alphabet) -> float:
    """Holevo bound ``chi = S(rho_B) - sum_a p_a S(rho_a)`` in bits."""
    return _entropy_budget(alphabet)[0].comm_bits


def tradeoff_point(alphabet: Alphabet, ctx: ThermalContext) -> TradeoffPoint:
    """Operating point with the full Holevo communication on; in bits, so ``ctx`` is unused."""
    return _entropy_budget(alphabet)[0]


def tradeoff_curve(
    alphabet: Alphabet, ctx: ThermalContext
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Endpoints ``(C, E)`` of the linear communication/energy tradeoff.

    Returns the full-communication point ``(chi, M - S(rho_B))`` and the
    all-energy point ``(0, M - <S_a>)``; intermediate operation is the
    straight line between them.
    """
    return tradeoff_point(alphabet, ctx).endpoints()


def block_alphabet(alphabet: Alphabet, n: int, max_dim: int | None = None) -> Alphabet:
    """Treat ``n``-letter blocks as super-letters ``rho_a^(x n)``.

    Blocking multiplies both letter entropies and capacity by ``n``
    (verified numerically) while the Holevo quantity grows strictly
    sublinearly for non-orthogonal letters, which is what pushes the
    per-letter energy toward its ``M - <S_a>`` ceiling.
    """
    n = _positive_integer(n, "block length n")
    check_capacity(alphabet.d ** n, max_dim)
    blocked = []
    for let, s_single in zip(alphabet.letters, letter_entropies(alphabet)):
        power = tensor_power(let, n, max_dim)
        s_block = von_neumann_entropy(power)
        if abs(s_block - n * s_single) > 1e-9:
            raise ValidationError(
                f"blocked letter entropy {s_block} deviates from n * S = {n * s_single}"
            )
        blocked.append(power)
    out = Alphabet(tuple(blocked), alphabet.probs)
    if abs(out.capacity_bits - n * alphabet.capacity_bits) > 1e-12:
        raise ValidationError("blocked capacity is not n times the letter capacity")
    return out


def _prefixes(total: int, parts: int):
    """Every ``parts``-tuple of non-negative counts summing to at most ``total``.

    Tuples come in lexicographic order, each with what is left of ``total``
    and its multinomial ``total! / (c_1! ... c_parts! left!)``.
    """
    if parts == 0:
        yield (), total, 1
        return
    for first in range(total + 1):
        head = math.comb(total, first)
        for rest, left, mult in _prefixes(total - first, parts - 1):
            yield (first,) + rest, left, head * mult


@dataclass(frozen=True)
class TypicalSubspace:
    """The delta-typical subspace of ``rho_B^(x L)``.

    ``dim`` counts the retained eigenvectors (an exact integer),
    ``capture_probability`` is ``tr(Pi rho_B^(x L))``, and
    ``source_entropy`` is ``S(rho_B)`` in bits.  The subspace is spanned
    by the products of the single-letter ``eigenvectors`` whose
    eigenvalue counts form one of the typical ``classes``.  ``basis`` and
    ``projector`` are built from them on first access, and are ``None``
    when ``d**L`` exceeds ``max_dim``.
    """

    L: int
    delta: float
    dim: int
    capture_probability: float
    source_entropy: float
    eigenvectors: np.ndarray | None = field(default=None, repr=False, compare=False)
    classes: tuple[tuple[int, ...], ...] = field(default=(), repr=False, compare=False)
    max_dim: int | None = None

    def __post_init__(self) -> None:
        if not (-1e-12 <= self.capture_probability <= 1.0 + 1e-12):
            raise ValidationError(
                f"capture probability {self.capture_probability} is outside [0, 1]"
            )
        if self.dim > 0:
            bound = self.L * (self.source_entropy + self.delta)
            if math.log2(self.dim) > bound:
                raise ValidationError(
                    f"dimension bound violated: log2(dim) = {math.log2(self.dim)} "
                    f"exceeds L(S + delta) = {bound}"
                )

    @cached_property
    def basis(self) -> np.ndarray | None:
        """Orthonormal ``d**L x dim`` columns spanning the subspace.

        Column ``j`` of the product eigenbasis is kept when the multiset of
        its ``L`` base-``d`` digits is a typical class, in increasing ``j``.
        Each kept column is multiplied out one letter position at a time,
        so memory stays ``O(d**L * dim)``.
        """
        if self.eigenvectors is None:
            return None
        d = self.eigenvectors.shape[0]
        total = d ** self.L
        if total > max_dimension(self.max_dim):
            return None
        powers = d ** np.arange(self.L - 1, -1, -1)
        digits = (np.arange(total)[:, None] // powers) % d
        # a sorted digit string is itself an index below d**L, so it keys its class
        typical = [np.repeat(np.arange(d), counts) @ powers for counts in self.classes]
        kept = digits[np.isin(np.sort(digits, axis=1) @ powers, typical)]
        basis = np.ones((1, len(kept)), dtype=complex)
        for k in range(self.L):
            basis = (basis[:, None, :] * self.eigenvectors[:, kept[:, k]]).reshape(
                basis.shape[0] * d, len(kept))
        return basis

    @cached_property
    def projector(self) -> np.ndarray | None:
        """``basis @ basis^H``, checked for idempotency and trace ``dim``."""
        basis = self.basis
        if basis is None:
            return None
        p = basis @ basis.conj().T
        idem = float(np.max(np.abs(p @ p - p)))
        if idem > _PROJECTOR_TOL:
            raise ValidationError(
                f"projector is not idempotent: max |P^2 - P| = {idem:.3e}"
            )
        tr = float(np.real(np.trace(p)))
        if abs(tr - self.dim) > 0.5:
            raise ValidationError(
                f"projector trace {tr} disagrees with counted dimension {self.dim}"
            )
        return p


def _typical_window(evals: np.ndarray, L: int, delta: float) -> tuple[float, float, float]:
    entropy = entropy_from_eigenvalues(evals)
    return entropy, -L * (entropy + delta), -L * (entropy - delta)


def _window_solver(logs: Sequence[float], L: int, lo: float, hi: float):
    """Solve ``lo <= base + m * slope <= hi`` for the integer count ``m``.

    Returns ``solve(base, slope, n)``, a range within ``0..n`` that holds
    every ``m`` whose weight can pass the window test.  The weight is a
    float sum of ``len(logs)`` terms ``m_i * logs[i]`` with ``sum m_i = L``,
    so the solved interval is widened by a bound on its rounding error,
    plus one count: the caller's own ``lo <= w <= hi`` test, not this
    solve, decides every class.  A flat or nearly flat weight gets the
    whole range.
    """
    err = 4 * (len(logs) + 2) * _EPS * (L * max(map(abs, logs)) + abs(lo) + abs(hi))

    def solve(base: float, slope: float, n: int) -> range:
        pad = err / abs(slope) + 1.0 if slope else math.inf
        if pad >= n:
            return range(n + 1)
        ends = ((lo - base) / slope, (hi - base) / slope)
        first = max(min(ends) - pad, 0.0)
        last = min(max(ends) + pad, float(n))
        return range(math.floor(first), math.ceil(last) + 1)

    return solve


class _Powers(dict):
    """``lam ** m`` by count ``m``, each power taken once."""

    def __init__(self, lam: float) -> None:
        self.lam = lam

    def __missing__(self, m: int) -> float:
        self[m] = power = self.lam ** m
        return power


def _combinatorial_census(
    evals: np.ndarray, L: int, delta: float
) -> tuple[int, float, float, tuple[tuple[int, ...], ...]]:
    """Count typical eigenvectors and their captured probability by type class.

    Returns ``(dim, capture, entropy, classes)``, where ``classes`` lists
    the counts of every typical type class in lexicographic order.  One
    loop weighs each prefix of the first ``d - 2`` counts once; the weight
    is then linear in the next count ``m``, the last being ``rest - m``,
    so only the solved span of ``m`` is walked, with ``C(rest, m)`` stepped
    by its exact recurrence and each class weighed inline, in letter order,
    from ``log2(lam_i)`` taken once per census, prefix powers once per
    prefix and the last two letters' powers once per count.  The cost is
    the ``C(L + d - 2, d - 2)`` prefixes plus the classes near the window.
    """
    entropy, lo, hi = _typical_window(evals, L, delta)
    lams = [float(x) for x in np.real(evals)]
    if len(lams) == 1:
        if lams[0] > 0.0 and lo <= L * math.log2(lams[0]) <= hi:
            return 1, lams[0] ** L, entropy, ((L,),)
        return 0, 0.0, entropy, ()
    dim = 0
    capture = 0.0
    classes = []
    logs = [math.log2(lam) if lam > 0.0 else 0.0 for lam in lams]
    # a count on a zero eigenvalue sends the prefix weight to -inf
    head_logs = [lg if lam > 0.0 else -math.inf for lam, lg in zip(lams, logs)]
    a, b = logs[-2], logs[-1]
    pa, pb = _Powers(lams[-2]), _Powers(lams[-1])
    solve = _window_solver(logs, L, lo, hi)
    for prefix, rest, head in _prefixes(L, len(lams) - 2):
        pw = 0.0
        for c, lg in zip(prefix, head_logs):
            if c:
                pw += c * lg
        if pw == -math.inf:
            continue
        if not lams[-2] > 0.0:
            span = range(1 if lams[-1] > 0.0 or not rest else 0)
        elif not lams[-1] > 0.0:
            span = range(rest, rest + 1)
        else:
            span = solve(pw + rest * b, a - b, rest)
        if not span:
            continue
        head_powers = [lam ** c for lam, c in zip(lams, prefix)]
        binom = math.comb(rest, span.start)
        for m in span:
            k = rest - m
            w = pw + m * a + k * b
            if lo <= w <= hi:
                classes.append(prefix + (m, k))
                mult = head * binom
                dim += mult
                if mult.bit_length() < 1000:
                    term = float(mult)
                    for power in head_powers:
                        term *= power
                    capture += term * pa[m] * pb[k]
                else:
                    capture += 2.0 ** (math.log2(mult) + w)
            binom = binom * k // (m + 1)
    return dim, capture, entropy, tuple(classes)


def typical_subspace(
    rho_b: DensityMatrix,
    L: int,
    delta: float,
    max_dim: int | None = None,
) -> TypicalSubspace:
    """Project ``rho_B^(x L)`` onto eigenvalues within ``2**(-L(S +/- delta))``.

    The eigenvalues of ``rho_B^(x L)`` are products of the ``d`` eigenvalues
    of ``rho_b``, so one ``d x d`` diagonalization and a multinomial census
    over type classes give the exact ``dim`` and capture probability for
    any source, diagonal or not, at any integer block length.  One census
    loop over the ``C(L + d - 2, d - 2)`` prefixes of ``d - 2`` counts
    weighs, inline, only the classes near the window.  Nothing of size
    ``d**L`` is allocated here; ``basis`` and ``projector`` are built on
    first access when ``d**L`` is within ``max_dim`` (default: the
    configured dense cap).
    """
    L = _positive_integer(L, "block length L")
    if not (delta > 0 and math.isfinite(delta)):
        raise ValidationError(f"delta must be positive and finite, got {delta}")
    evals, evecs = np.linalg.eigh(rho_b.data)
    dim, capture, entropy, classes = _combinatorial_census(evals, L, delta)
    return TypicalSubspace(
        L=L, delta=delta, dim=dim,
        capture_probability=min(max(capture, 0.0), 1.0),
        source_entropy=entropy,
        eigenvectors=evecs,
        classes=classes,
        max_dim=max_dimension(max_dim),
    )


def qubit_capture_curve(
    p: float, lengths: Sequence[int], delta: float
) -> list[tuple[int, float]]:
    """Capture probabilities of ``diag(p, 1-p)`` sources over long blocks.

    Uses log-domain binomial sums throughout, so block lengths up to
    around a million are fine; intended for plotting capture curves.
    """
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must lie strictly between 0 and 1, got {p}")
    evals = np.array([p, 1.0 - p])
    out = []
    for L in lengths:
        L = _positive_integer(L, "each block length in lengths")
        entropy, lo, hi = _typical_window(evals, L, delta)
        capture = 0.0
        lp, lq = math.log2(p), math.log2(1.0 - p)
        solve = _window_solver((lp, lq), L, lo, hi)
        for k in solve(L * lp, lq - lp, L):
            w = (L - k) * lp + k * lq
            if lo <= w <= hi:
                log_c = (math.lgamma(L + 1) - math.lgamma(k + 1)
                         - math.lgamma(L - k + 1)) / math.log(2.0)
                capture += 2.0 ** (log_c + w)
        out.append((L, min(capture, 1.0)))
    return out


@dataclass(frozen=True)
class RefactorizationLedger:
    """Energy audit of typical-subspace refactorization over an ``L``-block.

    On success (probability ``1 - epsilon``) the emptied carriers yield
    ``w1 = k_B T ln2 L M``; a failed projection is billed at the worst
    case ``-w1``.  Resetting the ancilla that swallowed the typical
    content costs ``w_ancilla = k_B T ln2 log2(dim)``.  The resulting
    ``net_per_letter`` is guaranteed to sit at or above ``lower_bound``
    (finite-block, measured epsilon), because ``log2 dim <= L(S + delta)``.
    ``upper_bound`` is the asymptotic ceiling ``k_B T ln2 (M - S(rho_B))``;
    a short block with a narrow window can keep fewer than ``2**(L S)``
    dimensions and outrun it, and the ledger then refuses to certify it.
    """

    w1: float
    w_ancilla: float
    net_per_letter: float
    lower_bound: float
    upper_bound: float
    epsilon: float
    success_probability: float
    units: str = "bit-unit"
    subspace: TypicalSubspace | None = None

    def __post_init__(self) -> None:
        if not -1e-12 <= self.epsilon <= 1.0 + 1e-12:
            raise ValidationError(f"epsilon {self.epsilon} is outside [0, 1]")
        if self.net_per_letter > self.upper_bound + 1e-12:
            raise ValidationError(
                f"net work {self.net_per_letter} exceeds the asymptotic ceiling "
                f"{self.upper_bound}, which short blocks can outrun; use a longer "
                f"block (--L) or a wider typicality window (--delta)"
            )
        if self.net_per_letter < self.lower_bound - 1e-12:
            raise ValidationError(
                f"net work {self.net_per_letter} fell below the guaranteed floor "
                f"{self.lower_bound}"
            )


def refactorization_ledger(
    alphabet: Alphabet,
    L: int,
    delta: float,
    ctx: ThermalContext,
    max_dim: int | None = None,
) -> RefactorizationLedger:
    """Audit the engine yield of refactorizing ``L`` source letters.

    ``epsilon`` is measured as ``1 - tr(Pi rho_B^(x L))`` for the
    requested block, not taken from an asymptotic promise, and the
    bounds are reported for that measured value.  The swap unitary is
    accounted for by dimension and probability only; see
    :func:`refactorization_unitary` for the explicit small-block check.
    """
    rho_b = ensemble_state(alphabet)
    sub = typical_subspace(rho_b, L, delta, max_dim=max_dim)
    if sub.dim < 1:
        raise ValidationError(
            "typical subspace is empty; widen delta or lengthen the block"
        )
    uf = unit_factor(ctx)
    m_bits = alphabet.capacity_bits
    s_b = sub.source_entropy
    eps = min(max(1.0 - sub.capture_probability, 0.0), 1.0)

    w1 = uf * L * m_bits
    w_ancilla = uf * math.log2(sub.dim)
    net = (w1 * (1.0 - 2.0 * eps) - w_ancilla) / L
    lower = uf * (m_bits * (1.0 - 2.0 * eps) - s_b - delta)
    upper = uf * (m_bits - s_b)
    return RefactorizationLedger(
        w1=w1,
        w_ancilla=w_ancilla,
        net_per_letter=net,
        lower_bound=lower,
        upper_bound=upper,
        epsilon=eps,
        success_probability=sub.capture_probability,
        units=ctx.energy_unit,
        subspace=sub,
    )


@dataclass(frozen=True)
class RefactorizationUnitary:
    """Explicit swap unitary for small blocks, with its verification data.

    ``matrix`` acts on carrier block (x) ancilla; it sends the basis
    ``t_i (x) |0>_D`` of the loaded subspace onto ``|0>_L (x) |i>_D``,
    emptying the carriers into the ancilla.  The residuals record how
    far the construction is from exact unitarity and exact mapping.
    """

    matrix: np.ndarray
    gamma_basis: np.ndarray
    unitarity_residual: float
    mapping_residual: float


def _complete_orthonormal(cols: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis.

    One complete QR factorization supplies the orthogonal complement; the
    input columns are kept verbatim as the leading columns.
    """
    full = np.linalg.qr(cols, mode="complete")[0]
    full[:, : cols.shape[1]] = cols
    return full


def refactorization_unitary(
    sub: TypicalSubspace, max_dim: int | None = None
) -> RefactorizationUnitary:
    """Materialize and verify the swap unitary for a typical subspace.

    Only sensible for small blocks: the unitary lives on the product of
    the full carrier block and the ancilla, so its dimension is
    ``d**L * dim``, and must be within ``max_dim``.  Raises
    :class:`ValidationError` if the subspace has no basis because its
    block was above the cap it was built under.
    """
    if sub.dim < 1:
        raise ValidationError("cannot build a swap unitary for an empty subspace")
    if sub.basis is None:
        raise ValidationError(
            f"no eigenvector basis: the L = {sub.L} block is above the cap "
            f"{sub.max_dim} the subspace was built under; raise --capacity or "
            f"{MAX_DIM_ENV}"
        )
    d_block, d_anc = sub.basis.shape
    total = d_block * d_anc
    check_capacity(total, max_dim)

    e0 = np.zeros((d_anc, 1), dtype=complex)
    e0[0, 0] = 1.0
    gamma = np.kron(sub.basis, e0)  # columns t_i (x) |0>_D
    full = _complete_orthonormal(gamma)
    u = full.conj().T

    target = np.zeros((total, d_anc), dtype=complex)
    for i in range(d_anc):
        target[i, i] = 1.0  # |0>_L (x) |i>_D in product ordering
    mapping = float(np.max(np.abs(u @ gamma - target)))
    unitarity = float(np.max(np.abs(u @ u.conj().T - np.eye(total))))
    return RefactorizationUnitary(
        matrix=u,
        gamma_basis=gamma,
        unitarity_residual=unitarity,
        mapping_residual=mapping,
    )
