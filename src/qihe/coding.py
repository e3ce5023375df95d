"""Communication/work tradeoffs and typical-subspace refactorization.

A memoryless source emits letters ``rho_a`` with probabilities ``p_a``
on a ``d``-dimensional carrier.  Three linked quantities share the
carrier's capacity ``M = log2 d`` bits per letter:

* extractable energy ``E = M - S(rho_B)`` (bit-units per letter),
* accessible communication, bounded by the Holevo quantity
  ``chi = S(rho_B) - <S_a>``,
* the average letter entropy ``<S_a>`` itself.

The bookkeeping identity ``E + chi + <S_a> = M`` is enforced wherever
these numbers are produced together.  They are read from values each
frozen object derives once, on first request: an :class:`Alphabet` keeps
``rho_B`` and every state its entropy, so however many budgets, ledgers
and blocks read one alphabet, ``rho_B`` is mixed and diagonalized once.
A blocked alphabet (:func:`block_alphabet`) is its base and ``n``: it
checks ``d**n`` against the dense cap at once, and builds its
``d**n x d**n`` letters only when they are read.  One dispatcher picks each
budget's route from the base.  A blocked qubit base, at any ``n``, reads no
letter and no matrix of side ``2**n``: by Schur-Weyl duality
``rho_B = sum_a p_a rho_a^(x n)`` has the spectrum of ``n // 2 + 1`` spin
blocks ``B_k = sum_a p_a det(rho_a)^k Sym^(n-2k)(rho_a)`` of sides
``n + 1, n - 1, ...``, block ``k`` repeated ``C(n, k) - C(n, k - 1)`` times,
built from the ``2 x 2`` letters alone, and each letter's ``S(rho_a^(x n))``
is ``n S(rho_a)``.  Every other budget goes dense on the built letters:
unblocked alphabets, and blocked alphabets of ``d >= 3``, which have no
other route.

For long blocks the receiver can concentrate the source onto its
typical subspace, swap the typical content into a compact ancilla by the
inverse of the product eigenbasis, and run the emptied carriers through the
engine (Schumacher compression).  :func:`typical_subspace` counts the
subspace from the spectrum that validated ``rho_B``, and the entropy it
keeps, by a multinomial census over eigenvalue type classes, so it
diagonalizes nothing and needs no ``d**L``-sized matrix for any source.
The census keeps the ``r`` eigenvalues ``> 0.0`` once, where it starts, and
the rank ``r`` picks its route.  It solves only the prefixes of counts, and
weighs only the classes, that the typicality window can hold, not all
``C(L + r - 1, r - 1)`` classes.  Three or more letters are counted in
numpy blocks of prefixes and classes, with Python left only the exact
multinomial steps, seeded once per run of classes.  Two have one span of
counts, solved in closed form, and are counted class by class in one loop
from one seeded binomial; one is closed form.  Each gives the floats of a
class-by-class loop, bit for bit, and lists no class.  The eigenvectors,
basis and projector are computed only on request, within the dense cap; the
basis keeps the products of positive eigenvectors that the census counts.
:func:`refactorization_ledger` turns capture statistics into a net
work-per-letter bracket.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import compress, islice
from typing import Sequence

import numpy as np

from .qcore import (
    _EPS,
    DensityMatrix,
    ValidationError,
    _capped_power,
    _kron,
    _positive_integer,
    _real,
    basis_state,
    check_capacity,
    entropy_from_eigenvalues,
    matrix_from_pairs,
    matrix_to_pairs,
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


@dataclass(frozen=True, eq=False)  # arrays inside: == and hash go by identity
class Alphabet:
    """A finite quantum source: letter states plus emission probabilities.

    It keeps its validated ensemble state ``rho_B``, built on first request,
    as each letter keeps its entropy.  That is safe because an alphabet
    never changes: it is frozen, and holds tuples of floats and of frozen,
    read-only letters.  :func:`block_alphabet` returns a subclass that holds
    its base alphabet and ``n``, and builds its letters only when read.
    """

    letters: tuple[DensityMatrix, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        probs = tuple(_real(p, "each probability") for p in self.probs)
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
        for let in letters:
            if let.dims != letters[0].dims:
                raise ValidationError("all letters must share one subsystem signature, got "
                                      f"{letters[0].dims} and {let.dims}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "probs", probs)

    @property
    def d(self) -> int:
        """Carrier dimension of each letter."""
        return self.letters[0].dim

    @property
    def capacity_bits(self) -> float:
        return math.log2(self.d)

    @cached_property
    def _ensemble(self) -> DensityMatrix:
        """``sum_a p_a rho_a``, validated: what :func:`ensemble_state` returns."""
        return mixture(list(zip(self.probs, self.letters)))

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
            except (TypeError, ValueError) as exc:  # a ValidationError is a ValueError
                raise ValidationError(f"malformed alphabet field {key!r}: {exc}") from None

        def dimension(value) -> int:
            # 2.0 reads as 2, where int() would also truncate 2.7 and read true or "2"
            if not _real(value, "the dimension").is_integer():
                raise ValidationError(f"the dimension must be an integer, got {value!r}")
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
        return cls(letters, field("probs", lambda probs: tuple(
            _real(p, "each probability") for p in probs)))


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
    """Average emitted state ``rho_B = sum_a p_a rho_a``.

    It is mixed and validated on the first call for ``alphabet`` only; every
    later call returns the same read-only state, with its entropy, once taken.
    Of a blocked alphabet it mixes the built powers, which the budget of a
    blocked qubit alphabet never reads: it never calls this.
    """
    return alphabet._ensemble


def letter_entropies(alphabet: Alphabet) -> list[float]:
    """Von Neumann entropy of each letter, in bits, as each letter keeps it."""
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
    """The full-communication point and ``S(rho_B)`` of ``alphabet``: the one
    place that picks a budget's route, keyed on a blocked alphabet's base.

    A qubit base taken ``n`` letters at a time, at any ``n``, builds no matrix of
    side ``2**n``: ``S(rho_B) = sum_k m_k S(B_k)`` over the spin blocks that the
    blocked alphabet keeps (:func:`block_alphabet`), and each letter's is
    ``n S(rho_a)`` (:func:`_blocked_letter_entropy`).  Every other alphabet
    goes dense, on its built letters: it reads the entropies that its letters
    and its mixed ``rho_B`` keep.
    """
    if isinstance(alphabet, _BlockedAlphabet) and alphabet.base.d == 2:
        s_b = sum(m * entropy_from_eigenvalues(mu) for m, mu in alphabet._spin_blocks)
        entropies = [_blocked_letter_entropy(let, alphabet.n) for let in alphabet.base.letters]
        capacity = alphabet.n * alphabet.base.capacity_bits
    else:
        s_b = von_neumann_entropy(ensemble_state(alphabet))
        entropies, capacity = letter_entropies(alphabet), alphabet.capacity_bits
    avg = sum(p * s for p, s in zip(alphabet.probs, entropies))
    return TradeoffPoint(
        energy_bits=capacity - s_b,
        comm_bits=s_b - avg,
        avg_letter_entropy=avg,
        capacity_bits=capacity,
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


def block_alphabet(alphabet: Alphabet, n: int) -> Alphabet:
    """Treat ``n``-letter blocks as super-letters ``rho_a^(x n)``.

    Blocking multiplies both letter entropies and capacity by ``n`` while
    the Holevo quantity grows strictly sublinearly for non-orthogonal
    letters, which is what pushes the per-letter energy toward its
    ``M - <S_a>`` ceiling.

    ``n`` and ``d**n`` are checked against the dense cap at once.  The blocked
    alphabet holds ``alphabet`` and ``n``: its letters, the dense ``d**n x d**n``
    powers (:func:`tensor_power`), are built on first read, under the cap read
    then, and kept; its ``probs``, ``d``, capacity and repr build nothing.  Blocked
    at any n, a qubit alphabet's budget (:func:`tradeoff_point`,
    :func:`holevo_chi`) comes from the spin blocks of ``alphabet``'s ``2 x 2``
    letters, and reads neither the powers nor a mixed ``rho_B``.
    """
    n = _positive_integer(n, "block length n")
    check_capacity(_capped_power(alphabet.d, n))
    return _BlockedAlphabet(alphabet, n)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class _BlockedAlphabet(Alphabet):
    """``base`` taken ``n`` letters at a time: what :func:`block_alphabet` returns."""

    base: Alphabet
    n: int

    def __init__(self, base: Alphabet, n: int) -> None:
        self.__dict__.update(base=base, n=n, probs=base.probs)

    @cached_property
    def letters(self) -> tuple[DensityMatrix, ...]:
        return tuple(tensor_power(let, self.n) for let in self.base.letters)

    @property
    def d(self) -> int:
        return self.base.d ** self.n

    def __repr__(self) -> str:
        return f"block_alphabet({self.base!r}, {self.n})"

    @cached_property
    def _spin_blocks(self) -> tuple[tuple[int, np.ndarray], ...]:
        """``(m_k, eigvalsh(B_k))`` for ``k = 0..n // 2``: the spin blocks of a qubit
        ensemble ``sum_a p_a rho_a^(x n)``, built from the ``2 x 2`` letters alone.

        On the ``k``-th spin, of ``n - 2k + 1`` dimensions and repeated
        ``m_k = C(n, k) - C(n, k - 1)`` times, ``rho^(x n)`` acts as
        ``det(rho)^k Sym^(n-2k)(rho)`` (Schur-Weyl duality; Harrow,
        arXiv:quant-ph/0512255), so ``B_k = sum_a p_a det(rho_a)^k Sym^(n-2k)(rho_a)``.
        Each letter is factored ``rho = T T^dag`` with ``T`` lower-triangular,
        after a bit flip ``X rho X`` where that puts the larger diagonal entry
        first.  On the normalized Dicke states ``Sym^m(T)`` then has the entries
        ``C(i, j) sqrt(C(m, i) / C(m, j)) t11^(m-i) t21^(i-j) t22^j`` for
        ``i >= j``, and the flip reverses its rows.  With ``det(rho) = (t11 t22)**2``,
        ``B_k = sum_a p_a S_a S_a^dag``, where ``S_a`` is ``(t11 t22)^k Sym^m(T)``.
        The blocks of all letters are filled from :func:`_sym_table`, padded to
        side ``n + 1``, and summed in one batched product: ``O(n**3)`` entries
        per letter, small while ``2**n`` is within the dense cap.  One
        ``eigvalsh`` of side ``n - 2k + 1`` per block, kept on the blocked alphabet.
        """
        n = self.n
        factors = []
        for let in self.base.letters:
            (a, b), (c, d) = let.data.tolist()
            flip = a.real < d.real
            if flip:  # X rho X = [[d, c], [b, a]]
                a, c, d = d, b, a
            t11 = math.sqrt(a.real)
            t21 = c / t11
            factors.append((t11, t21, math.sqrt(max(d.real - abs(t21) ** 2, 0.0)), flip))
        t11, t21, t22, flip = (np.array(x) for x in zip(*factors))
        powers = np.arange(n + 1)
        p11, p21, p22 = (t[:, None] ** powers for t in (t11, t21, t22))
        count, probs = len(factors), np.array(self.probs)[:, None, None, None]
        coef, e11, e21, e22, rows, flipped = _sym_table(n)
        sym = np.zeros((count, n // 2 + 1, n + 1, n + 1), dtype=complex)
        sym.reshape(count, -1)[np.arange(count)[:, None], np.where(flip[:, None], flipped, rows)] = (
            coef * p11[:, e11] * p21[:, e21] * p22[:, e22])
        gram = np.matmul(sym * probs, sym.conj().swapaxes(-1, -2)).sum(axis=0)
        return tuple((math.comb(n, k) - (math.comb(n, k - 1) if k else 0),
                      np.linalg.eigvalsh(gram[k, :n - 2 * k + 1, :n - 2 * k + 1]))
                     for k in range(n // 2 + 1))


def _blocked_letter_entropy(letter: DensityMatrix, n: int) -> float:
    """``S(rho^(x n)) = n sigma**(n-1) S(rho)`` of ``letter``, where ``sigma``, 1 up
    to the tolerances, is the mass of its clamped spectrum."""
    sigma = sum(_positive(letter._eigenvalues))
    return n * sigma ** (n - 1) * von_neumann_entropy(letter)


@lru_cache(maxsize=32)
def _sym_table(n: int) -> tuple[np.ndarray, ...]:
    """The entries of the spin blocks of ``n`` qubits, as :class:`_BlockedAlphabet` fills them.

    Over the lower triangle ``i >= j`` of block ``k``, of side
    ``m + 1 = n - 2k + 1``: the coefficient ``C(i, j) sqrt(C(m, i) / C(m, j))``,
    the exponents ``n - k - i``, ``i - j`` and ``j + k`` of ``t11``, ``t21``
    and ``t22``, and the entry's flat index in a stack of blocks padded to
    side ``n + 1``, with row ``i`` and, for a flipped letter, row ``m - i``.
    That is ``O(n**2)`` entries per block.  The binomials come from Pascal's
    rule in floats, exact while below ``2**53`` (n <= 56).  The tables of the
    last few ``n`` are kept.
    """
    side = n + 1
    pascal = np.zeros((side, side))
    pascal[:, 0] = 1.0
    for r in range(1, side):
        pascal[r, 1:] = pascal[r - 1, 1:] + pascal[r - 1, :-1]
    parts = []
    for k in range(n // 2 + 1):
        m = n - 2 * k
        i, j = np.tril_indices(m + 1)
        coef = pascal[i, j] * np.sqrt(pascal[m, i] / pascal[m, j])
        base = k * side * side + j
        parts.append((coef, n - k - i, i - j, j + k, base + i * side, base + (m - i) * side))
    table = tuple(np.concatenate(column) for column in zip(*parts))
    for a in table:
        a.setflags(write=False)
    return table


@dataclass(frozen=True)
class TypicalSubspace:
    """The delta-typical subspace of ``rho_B^(x L)``.

    ``dim`` counts the retained eigenvectors (an exact integer),
    ``capture_probability`` is ``tr(Pi rho_B^(x L))``, and
    ``source_entropy`` is ``S(rho_B)`` in bits.  The subspace is spanned
    by the products of the eigenvectors of ``state``, the source, whose
    counts of its kept eigenvalues form a typical type class.  ``basis``
    picks them by weight, with no second census; it, ``projector`` and
    :func:`refactorization_unitary` raise :class:`CapacityError` past the
    dense cap, read only when they are built.
    """

    L: int
    delta: float
    dim: int
    capture_probability: float
    source_entropy: float
    state: DensityMatrix = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (-1e-12 <= self.capture_probability <= 1.0 + 1e-12):
            raise ValidationError(
                f"capture probability {self.capture_probability} is outside [0, 1]"
            )
        if self.dim > 0:
            bound = self.L * (self.source_entropy + self.delta)
            log_dim = math.log2(self.dim)
            if log_dim > bound and log_dim > bound + self._bound_slack():
                raise ValidationError(
                    f"dimension bound violated: log2(dim) = {log_dim} "
                    f"exceeds L(S + delta) = {bound}"
                )

    def _bound_slack(self) -> float:
        """How far ``log2(dim)`` may pass ``L(S + delta)`` on a valid source.

        Each kept class weighs at least ``lo = -L(S + delta)``, less the
        rounding of its weight and of ``lo`` (:func:`_weight_error`), and the
        kept products sum to at most ``sigma**L``, where ``sigma`` is the sum
        of the positive kept eigenvalues.  So ``log2(dim)`` is at most
        ``L(S + delta)`` plus ``L log2(sigma)`` when ``sigma > 1``, as an
        accepted trace may be, plus that rounding bound.
        """
        lams = _positive(self.state._eigenvalues) or [1.0]
        excess = self.L * max(math.log2(math.fsum(lams)), 0.0)
        max_log = max(abs(math.log2(lam)) for lam in lams)
        return excess + _weight_error(self.state.dim, self.L, max_log,
                                      *_typical_window(self.source_entropy, self.L, self.delta))

    @cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal ``d**L x dim`` columns spanning the subspace (:meth:`_products`)."""
        return self._products()

    @cached_property
    def _eigenbasis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(eigenvectors, digits, keep)``: of one ``eigh`` of ``state``, the ``L``
        base-``d`` digits naming each product of ``E^(x L)``, and which the window
        keeps: those whose digits name only the last ``r`` eigenvectors, of
        positive eigenvalues (:func:`_positive`), and whose counts ``c_i`` weigh
        ``0.0 + c_0 log2(lam_0) + ...`` within it, by the census's float and test."""
        d = self.state.dim
        check_capacity(_capped_power(d, self.L))
        lo, hi = _typical_window(self.state._entropy, self.L, self.delta)
        lams = _positive(self.state._eigenvalues)
        # the spectrum is ascending, so its positive eigenvalues are the last r
        first = d - len(lams)
        digits = (np.arange(d ** self.L)[:, None] // d ** np.arange(self.L - 1, -1, -1)) % d
        weight = np.zeros(len(digits))
        for i, lam in enumerate(lams):
            weight += np.count_nonzero(digits == first + i, axis=1) * math.log2(lam)
        keep = (digits >= first).all(axis=1) & (lo <= weight) & (weight <= hi)
        return np.linalg.eigh(self.state.data)[1], digits, keep

    def _products(self) -> np.ndarray:
        """The columns of ``E^(x L)`` that the window keeps (:attr:`_eigenbasis`),
        multiplied out letter by letter: bit for bit those of a :func:`qcore._kron` chain."""
        eigenvectors, digits, keep = self._eigenbasis
        digits = digits[keep]
        columns = np.ones((1, len(digits)), dtype=complex)
        for k in range(self.L):
            columns = (columns[:, None, :] * eigenvectors[:, digits[:, k]]).reshape(
                columns.shape[0] * len(eigenvectors), len(digits))
        return columns

    @cached_property
    def projector(self) -> np.ndarray:
        """``basis @ basis^H``, checked for idempotency and trace ``dim``."""
        p = self.basis @ self.basis.conj().T
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


def _check_delta(delta: float) -> float:
    """``delta`` read by :func:`qcore._real`; a typicality window half-width that
    is not positive and finite (NaN included) is refused."""
    delta = _real(delta, "delta")
    if not (delta > 0 and math.isfinite(delta)):
        raise ValidationError(f"delta must be positive and finite, got {delta}")
    return delta


def _typical_window(entropy: float, L: int, delta: float) -> tuple[float, float]:
    """``(lo, hi)``: the window ``-L(S +/- delta)`` on log-weights of a source of entropy ``S``."""
    return -L * (entropy + delta), -L * (entropy - delta)


def _positive(evals: np.ndarray) -> list[float]:
    """The eigenvalues ``> 0.0`` in ``evals``, in order: the letters the census
    and ``basis`` count.  A class that counts a zero, or clamped negative,
    eigenvalue weighs ``-inf``, so this drops them."""
    return [lam for lam in evals.real.tolist() if lam > 0.0]


def _weight_error(d: int, L: int, max_log: float, lo: float, hi: float) -> float:
    """A bound on the rounding error of a class weight against the window
    ``lo..hi``: the weight is a float sum of ``d`` terms ``m_i * log2(lam_i)``
    with ``sum m_i = L`` and ``|log2(lam_i)| <= max_log``."""
    return 4 * (d + 2) * _EPS * (L * max_log + abs(lo) + abs(hi))


def _qubit_span(logs: Sequence[float], L: int, lo: float, hi: float) -> range:
    """The counts ``m`` on the first of two letters whose classes can pass ``lo <= w <= hi``.

    ``logs`` are the ``log2`` of two positive eigenvalues (:func:`_positive`).
    The weight ``m * logs[0] + (L - m) * logs[1]`` is linear in ``m``, so each
    edge of the window is solved for in closed form.  Each end is widened by
    :func:`_weight_error` over the slope, plus one count, as
    :class:`_WindowSolver` widens its ends: the caller's own test, not this
    solve, decides every class.  A pad that reaches ``L``, or a flat weight,
    cuts nothing.
    """
    a, b = logs
    slope = a - b
    first, last = 0.0, float(L)
    if slope:
        pad = _weight_error(2, L, max(abs(a), abs(b)), lo, hi) / abs(slope) + 1.0
        if pad < L:
            # the weight rises with m on a positive slope, so lo cuts the first count
            low, high = (lo, hi) if slope > 0.0 else (hi, lo)
            first = max(first, (low - L * b) / slope - pad)
            last = min(last, (high - L * b) / slope + pad)
    return range(math.floor(first), math.ceil(last) + 1)


class _WindowSolver:
    """Solve for the counts on one letter whose classes can pass ``lo <= w <= hi``,
    for a source of three or more letters (a qubit's one span is :func:`_qubit_span`).

    ``lams`` are positive eigenvalues (:func:`_positive`), ``logs`` their
    ``log2``.  :meth:`spans` returns, for each pair ``(base, n)``, a range
    within ``0..n`` holding every count ``c`` on letter ``j`` of a passing
    class whose counts before ``j`` weigh ``base`` and whose other ``n - c``
    counts follow ``j``.  Its weight lies within ``base + c * logs[j]`` plus
    ``n - c`` times the smallest and the largest log to come, linear in
    ``c``; at the last letter but one they meet.  Each end is widened by
    :func:`_weight_error` over the slope, plus one count: the caller's own
    ``lo <= w <= hi`` test, not this solve, decides every class.  A flat or
    nearly flat bound gives no end.
    """

    def __init__(self, lams: Sequence[float], logs: Sequence[float], L: int,
                 lo: float, hi: float) -> None:
        self.lams, self.logs, self.lo, self.hi = lams, logs, lo, hi
        self.err = _weight_error(len(logs), L, max(map(abs, logs)), lo, hi)
        self.after = [(min(logs[j:]), max(logs[j:])) for j in range(1, len(logs))]

    def _ends(self, j: int):
        """``(edge, log, slope, is_first, pad)`` for each end that can cut letter ``j``'s span."""
        low, high = self.after[j]
        # the largest weight must reach lo, and the smallest must stay under hi
        for edge, lg, sign in ((self.lo, high, 1.0), (self.hi, low, -1.0)):
            slope = self.logs[j] - lg
            if slope:
                yield edge, lg, slope, slope * sign > 0.0, self.err / abs(slope) + 1.0

    def spans(self, j: int, base: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The span of each ``(base, n)`` pair, as its first count and its width."""
        first, last = np.zeros(len(n)), n.astype(float)
        for edge, lg, slope, is_first, pad in self._ends(j):
            cut = pad < n
            end = (edge - (base + n * lg)) / slope
            if is_first:
                first = np.where(cut, np.maximum(first, end - pad), first)
            else:
                last = np.where(cut, np.minimum(last, end + pad), last)
        # clipped to -1..n + 1, which keeps the counts of each range and fits int64
        start = np.floor(np.minimum(first, n + 1)).astype(np.int64)
        stop = np.ceil(np.maximum(last, -1.0)).astype(np.int64) + 1
        return start, np.maximum(stop - start, 0)


_CHUNK = 1 << 10  # classes, or prefixes of one level, that the census of d >= 3 holds at once
_CHUNK_BITS = _CHUNK * 2048  # bits of exact multinomials one block of classes holds at most


def _expand(starts: np.ndarray, widths: np.ndarray, size: int):
    """The children of a block of parents, at most ``size`` at a time.

    Parent ``i`` has the children ``starts[i] .. starts[i] + widths[i] - 1``.
    All children are cut into blocks by their index in that order, and
    each block comes as its children's parent indices and counts.
    """
    ends = np.cumsum(widths)
    shift = starts - ends + widths  # a child's count less its index
    total = int(ends[-1])
    for first in range(0, total, size):
        child = np.arange(first, min(first + size, total))
        parent = np.searchsorted(ends, child, side="right")
        yield parent, shift[parent] + child


def _prefixes(window: _WindowSolver, L: int):
    """Every prefix of the first ``d - 2`` counts whose classes can reach the window.

    Yields blocks ``(counts, rest, weight)``: one row of counts per prefix,
    what is left of ``L``, and the weight ``sum c_i log2(lam_i)``.  The
    prefixes come in lexicographic order, each once.  Each count is taken
    only over its solved span, so a prefix that cannot reach the window is
    never built, and each level is expanded depth-first a block of
    :func:`_expand` at a time, so at most ``d - 2`` blocks are held.
    """
    def level(j, counts, rest, weight):
        if j == len(window.logs) - 2:
            yield counts, rest, weight
            return
        for parent, c in _expand(*window.spans(j, weight, rest), _CHUNK):
            yield from level(j + 1, np.column_stack((counts[parent], c)), rest[parent] - c,
                             weight[parent] + c * window.logs[j])

    # a zero count adds 0.0 to a weight that is never -0.0, so it is added like any other
    return level(0, np.zeros((1, 0), dtype=np.int64), np.array([L]), np.zeros(1))


_FLOAT_TERM = 1 << 999  # a multinomial below this takes its capture term in floats


def _powers(lam: float, counts: np.ndarray) -> np.ndarray:
    """``lam ** c`` for each count ``c``, by Python's ``**`` as a class-by-class
    loop takes it (numpy's power may round differently).

    The table is never longer than the block of classes: it spans the
    block's range of counts where that range is no longer, as it is when the
    block's prefixes lie close (sorting out the distinct counts would add a
    fifth or more to a d = 3 census), and holds only the distinct counts
    otherwise.
    """
    first, last = int(counts.min()), int(counts.max())
    if last - first < len(counts):
        return np.array(list(map(lam.__pow__, range(first, last + 1))))[counts - first]
    distinct, index = np.unique(counts, return_inverse=True)
    return np.array(list(map(lam.__pow__, distinct.tolist())), dtype=float)[index]


def _multinomials(runs, L: int):
    """The exact multinomial of each class along ``runs``, in class order.

    A run ``(head, r, start, width)`` holds the ``width`` classes whose
    counts are ``head``, then ``start + i`` and ``r - start - i``.  Its
    first multinomial ``L! / (head! start! (r - start)!)`` is seeded by
    ``math.comb`` once, and each next one is stepped by the exact recurrence.
    """
    for head, r, start, width in runs:
        mult, n = math.comb(r, start), L
        for c in head:
            mult *= math.comb(n, c)
            n -= c
        for i in range(start, start + width):
            yield mult
            mult = mult * (r - i) // (i + 1)


def _scalar_census(lams: Sequence[float], logs: Sequence[float], L: int,
                   lo: float, hi: float) -> tuple[int, float]:
    """``(dim, capture)`` of a two-letter source, one class at a time.

    The first count ``m`` runs over :func:`_qubit_span`.  Its first binomial
    ``C(L, m)`` is seeded by ``math.comb`` once and stepped inline by the
    exact recurrence, and each class is weighed from the two ``log2(lam_i)``;
    each count, and so each power, comes once.
    """
    a, b = logs
    pa, pb = lams
    span = _qubit_span(logs, L, lo, hi)
    dim, capture = 0, 0.0
    mult = math.comb(L, span.start)
    for m in span:
        k = L - m
        w = m * a + k * b
        if lo <= w <= hi:
            dim += mult
            if mult < _FLOAT_TERM:
                capture += float(mult) * pa ** m * pb ** k
            else:
                capture += 2.0 ** (math.log2(mult) + w)
        mult = mult * k // (m + 1)
    return dim, capture


def _batched_census(window: _WindowSolver, L: int) -> tuple[int, float]:
    """``(dim, capture)`` of a source of three or more letters, a block of classes at a time.

    The prefixes come from :func:`_prefixes`.  The weight is then linear in
    the next count ``m``, the last being ``rest - m``, so only the solved
    span of ``m`` is taken, cut into blocks of at most ``_CHUNK`` classes,
    and fewer for long blocks: a multinomial has at most ``L log2 d`` bits,
    so a block holds at most ``_CHUNK_BITS`` of them whatever ``L``.
    Python steps only the exact multinomials: each block of prefixes is
    one stream of :func:`_multinomials`, one run per prefix, which the
    blocks of classes draw from in turn.  The window test and the capture
    products are numpy's, in the order of operations of a class-by-class
    loop, and the terms are summed in class order, so every float is the
    one that loop gives.
    """
    lams, lo, hi = window.lams, window.lo, window.hi
    a, b = window.logs[-2:]
    size = max(1, min(_CHUNK, _CHUNK_BITS // math.ceil(L * math.log2(len(lams)))))

    def weighted(raw, counts, m, k):
        """``raw`` times each class's powers, in letter order."""
        for lam, c in zip(lams, counts.T):
            raw = raw * _powers(lam, c)
        return raw * _powers(lams[-2], m) * _powers(lams[-1], k)

    dim, capture = 0, 0.0
    for counts, rest, weight in _prefixes(window, L):
        starts, widths = window.spans(len(lams) - 2, weight, rest)
        run = np.flatnonzero(widths)  # the prefixes that hold a class
        stream = _multinomials(zip(map(np.ndarray.tolist, counts[run]), map(int, rest[run]),
                                   map(int, starts[run]), map(int, widths[run])), L)
        for p, m in _expand(starts, widths, size):
            k = rest[p] - m
            w = weight[p] + m * a + k * b
            keep = (lo <= w) & (w <= hi)
            mults = list(compress(islice(stream, len(p)), keep.tolist()))
            if not mults:
                continue
            dim += sum(mults)
            p, m, k, w = p[keep], m[keep], k[keep], w[keep]
            if mults[0] < _FLOAT_TERM and max(mults) < _FLOAT_TERM:  # every term in floats
                term = weighted(np.array(mults, dtype=float), counts[p], m, k)
            else:  # a term past 2**999 comes whole from the log domain, negated to mark it
                raw = np.array([float(x) if x < _FLOAT_TERM else -2.0 ** (math.log2(x) + wx)
                                for x, wx in zip(mults, w.tolist())])
                near = ~np.signbit(raw)
                term = np.abs(raw)
                if near.any():
                    term[near] = weighted(raw[near], counts[p[near]], m[near], k[near])
            del mults  # so no block's multinomials stay alive while the next is stepped
            capture = float(np.add.accumulate(np.concatenate(([capture], term)))[-1])
    return dim, capture


def _combinatorial_census(evals: np.ndarray, L: int, lo: float, hi: float) -> tuple[int, float]:
    """Count typical eigenvectors and their captured probability by type class.

    Returns ``(dim, capture)`` to every caller: the number of eigenvectors of
    ``diag(evals)^(x L)`` whose log-weight lies in ``lo..hi`` (see
    :func:`_typical_window`), and the sum of their eigenvalues; it lists no
    class.  Its letters are the ``r`` eigenvalues ``> 0.0`` (:func:`_positive`),
    and ``r``, the source's rank, picks the route: one letter, or none, is
    closed form, and three or more take
    :func:`_batched_census`, whose counts are solved for by
    :class:`_WindowSolver`: it solves each level of prefixes for all of them
    at once and weighs blocks of classes in numpy, leaving Python only the
    big-integer steps.  Two letters have no prefix, their one span is solved
    in closed form by :func:`_qubit_span`, and each class costs a
    big-integer step and a term that numpy cannot take from a big integer,
    so :func:`_scalar_census` weighs them one by one in a single loop, free
    of numpy's fixed cost per call, which would dominate short blocks.  The
    cost is a few numpy calls per block plus one big-integer step per class
    near the window.  ``L >= 2**63`` is refused by a carrier of ``d >= 3``, whose int64
    counts would overflow, and by two positive eigenvalues, whose ``math.comb`` seed would.
    """
    lams = _positive(evals)
    if L >= 2 ** 63 and (len(evals) >= 3 or len(lams) >= 2):
        raise ValidationError(
            f"block length L = {L} is too long for a census of {len(evals)} letters, "
            "whose counts must stay below 2**63")
    logs = list(map(math.log2, lams))
    if len(lams) < 2:
        return (1, lams[0] ** L) if lams and lo <= L * logs[0] <= hi else (0, 0.0)
    if len(lams) == 2:
        return _scalar_census(lams, logs, L, lo, hi)
    return _batched_census(_WindowSolver(lams, logs, L, lo, hi), L)


def typical_subspace(rho_b: DensityMatrix, L: int, delta: float) -> TypicalSubspace:
    """Project ``rho_B^(x L)`` onto eigenvalues within ``2**(-L(S +/- delta))``.

    The eigenvalues of ``rho_B^(x L)`` are products of the ``d`` eigenvalues
    of ``rho_b``, so a multinomial census over type classes of the spectrum that
    validated ``rho_b``, with the entropy ``rho_b`` keeps and no
    diagonalization, gives the exact ``dim`` and capture probability for any
    source, diagonal or not, at any integer block length.  The census of
    the ``r`` positive eigenvalues solves only the prefixes of ``r - 2``
    counts that can reach the window and weighs only the classes near it,
    in blocks of at most ``_CHUNK`` for ``r >= 3``, and keeps none;
    ``basis`` reruns no census.
    Nothing of size ``d**L`` is allocated here, and no cap is read;
    ``basis`` and ``projector`` are built on first access when ``d**L`` is
    within the dense cap, read then.
    """
    L = _positive_integer(L, "block length L")
    delta = _check_delta(delta)
    entropy = rho_b._entropy
    dim, capture = _combinatorial_census(rho_b._eigenvalues, L,
                                         *_typical_window(entropy, L, delta))
    return TypicalSubspace(
        L=L, delta=delta, dim=dim,
        capture_probability=min(max(capture, 0.0), 1.0),
        source_entropy=entropy,
        state=rho_b,
    )


def qubit_capture_curve(
    p: float, lengths: Sequence[int], delta: float
) -> list[tuple[int, float]]:
    """Capture probabilities of ``diag(p, 1-p)`` sources over long blocks.

    Uses log-domain binomial sums throughout, so block lengths up to
    around a million are fine; intended for plotting capture curves.
    """
    p = _real(p, "p")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must lie strictly between 0 and 1, got {p}")
    delta = _check_delta(delta)
    entropy = entropy_from_eigenvalues(np.array([p, 1.0 - p]))
    lp, lq = math.log2(p), math.log2(1.0 - p)
    out = []
    for L in lengths:
        L = _positive_integer(L, "each block length in lengths")
        lo, hi = _typical_window(entropy, L, delta)
        capture = 0.0
        for k in _qubit_span((lq, lp), L, lo, hi):
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
    dimensions and outrun it, which ``within_asymptotic_ceiling`` reports.
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
        if self.net_per_letter < self.lower_bound - 1e-12:
            raise ValidationError(
                f"net work {self.net_per_letter} fell below the guaranteed floor "
                f"{self.lower_bound}"
            )

    @property
    def within_asymptotic_ceiling(self) -> bool:
        """Whether ``net_per_letter`` stays at or below ``upper_bound`` (to 1e-12)."""
        return self.net_per_letter <= self.upper_bound + 1e-12


def refactorization_ledger(
    alphabet: Alphabet, L: int, delta: float, ctx: ThermalContext
) -> RefactorizationLedger:
    """Audit the engine yield of refactorizing ``L`` source letters.

    ``epsilon`` is measured as ``1 - tr(Pi rho_B^(x L))`` for the
    requested block, not taken from an asymptotic promise, and the
    bounds are reported for that measured value.  The swap unitary is
    accounted for by dimension and probability only; see
    :func:`refactorization_unitary` for the explicit small-block check.
    """
    rho_b = ensemble_state(alphabet)
    sub = typical_subspace(rho_b, L, delta)
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


@dataclass(frozen=True, eq=False)
class RefactorizationUnitary:
    """Explicit swap unitary for small blocks, with its verification data.

    ``matrix`` acts on carrier block (x) ancilla; it sends the basis
    ``gamma_basis``, ``t_i (x) |0>_D``, onto ``|0>_L (x) |i>_D``, emptying the
    carriers into the ancilla.  The residuals are ``max|U U^H - I|`` and
    ``max|U Gamma - I|``, taken on side ``d**L`` (:func:`refactorization_unitary`).
    """

    matrix: np.ndarray
    gamma_basis: np.ndarray
    unitarity_residual: float
    mapping_residual: float


def refactorization_unitary(sub: TypicalSubspace) -> RefactorizationUnitary:
    """Materialize and verify the swap unitary for a typical subspace.

    Only sensible for small blocks: its side ``d**L * dim``, then ``d**L``, is
    checked against the dense cap, read now, before anything is built; either
    raises :class:`CapacityError`.  ``U = S (V^H (x) I_dim)``: ``V`` is one
    Kronecker power ``E^(x L)`` of the eigenvectors (:attr:`TypicalSubspace._eigenbasis`),
    its kept columns first in a stable order, so ``V[:, :dim]`` is ``basis`` bit for
    bit; ``S`` swaps the disjoint rows ``i`` and ``i * dim``, ``0 < i < dim``.  ``S``
    and ``(x) I_dim`` are exact, so the residuals are ``max G`` and ``max G[:, :dim]``
    of one ``G = |V^H V - I|``.  The working set is the output plus a few copies of ``V``.
    """
    if sub.dim < 1:
        raise ValidationError("cannot build a swap unitary for an empty subspace")
    check_capacity(_capped_power(sub.state.dim, sub.L) * sub.dim)
    eigenvectors, _, keep = sub._eigenbasis
    v = reduce(_kron, [eigenvectors] * sub.L)[:, np.argsort(~keep, kind="stable")]
    vh, d_anc = v.conj().T, sub.dim
    u = np.zeros((len(v) * d_anc,) * 2, dtype=complex)  # V^H (x) I_dim: V^H on its block diagonal
    np.einsum("ijkj->ijk", u.reshape(len(v), d_anc, len(v), d_anc))[...] = vh[:, None, :]
    ones, multiples = slice(1, d_anc), slice(d_anc, d_anc * d_anc, d_anc)  # rows i, i * dim
    u[ones], u[multiples] = u[multiples].copy(), u[ones].copy()
    gram = np.abs(vh @ v - np.eye(len(v)))
    return RefactorizationUnitary(
        matrix=u,
        gamma_basis=_kron(v[:, :d_anc], np.eye(d_anc, 1, dtype=complex)),  # columns t_i (x) |0>_D
        unitarity_residual=float(gram.max()),
        mapping_residual=float(gram[:, :d_anc].max()),
    )
