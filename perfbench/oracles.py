"""Independent reference values for checking qihe results.

Nothing here imports qihe.  Expected values come from closed-form
eigenvalues, exact integer sums over type classes, or raw numpy
(``einsum``, index selection, ``kron``), so a defect in a library code
path cannot hide inside its own oracle.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

KB_LN2 = 1.380649e-23 * math.log(2.0)  # joules per bit-unit per kelvin

# Smallest distance, in log2 units, that a type class may sit from the edge
# of the typicality window.  Float error in the class weight is below
# L * 1e-15, so inputs with this margin classify the same way whatever the
# order of the arithmetic; inputs without it are numerically ambiguous and
# are not generated.
WINDOW_MARGIN = 1e-6


class Mismatch(Exception):
    """A result disagreed with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def close(got: float, want: float, tol: float, what: str) -> None:
    if not abs(got - want) <= tol:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r} (tolerance {tol:g})")


def entropy_bits(values: Sequence[float]) -> float:
    return -sum(x * math.log2(x) for x in values if x > 0.0)


def qubit_eigenvalues(m: np.ndarray) -> tuple[float, float]:
    """Closed-form eigenvalues (largest first) of a 2x2 Hermitian matrix."""
    a, d = float(m[0, 0].real), float(m[1, 1].real)
    half = math.sqrt((a - d) ** 2 + 4.0 * abs(complex(m[0, 1])) ** 2) / 2.0
    mid = (a + d) / 2.0
    return mid + half, mid - half


def pure_pair_eigenvalues(p: float, overlap: float) -> tuple[float, float]:
    """Eigenvalues of ``p|a><a| + (1-p)|b><b|`` for ``|<a|b>| = overlap``."""
    half = math.sqrt(1.0 - 4.0 * p * (1.0 - p) * (1.0 - overlap ** 2)) / 2.0
    return 0.5 + half, 0.5 - half


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every way to split ``total`` into ``parts`` non-negative counts, one per row."""
    head = np.indices((total + 1,) * (parts - 1)).reshape(parts - 1, -1).T
    head = head[head.sum(axis=1) <= total]
    return np.column_stack([head, total - head.sum(axis=1)])


def typical_census(evals: Sequence[float], L: int, delta: float) -> tuple[int, float, float]:
    """Dimension, captured probability and edge margin of the typical subspace.

    All type classes of ``diag(evals)^(x L)`` are weighed at once with
    numpy; for the typical ones the dimension is an exact integer sum of
    multinomials and the capture a log-domain sum.  The margin is the
    smallest distance of any class weight from the window
    ``[-L(S + delta), -L(S - delta)]``.
    """
    s = entropy_bits(evals)
    lo, hi = -L * (s + delta), -L * (s - delta)
    counts = _compositions(L, len(evals))
    weights = counts @ np.log2(np.asarray(evals, dtype=float))
    margin = float(np.min(np.minimum(np.abs(weights - lo), np.abs(weights - hi))))
    inside = (weights >= lo) & (weights <= hi)
    rows = counts[inside].tolist()
    lg_total = math.lgamma(L + 1)
    capture = sum(
        2.0 ** ((lg_total - sum(math.lgamma(m + 1) for m in row)) / math.log(2.0) + w)
        for row, w in zip(rows, weights[inside].tolist())
    )
    return sum(_multinomials(L, rows)), capture, margin


def _multinomials(L: int, rows: list[list[int]]) -> list[int]:
    """Exact multinomial coefficient of each row of counts summing to ``L``.

    For two parts the rows come in ascending order of the first count, and
    the binomials follow from the exact recurrence
    ``C(L, k + 1) = C(L, k) (L - k) / (k + 1)``, which is far cheaper than
    recomputing each one at L in the thousands.
    """
    if rows and len(rows[0]) == 2:
        k = rows[0][0]
        c = math.comb(L, k)
        out = []
        for m, _ in rows:
            while k < m:
                c = c * (L - k) // (k + 1)
                k += 1
            out.append(c)
        return out
    out = []
    for row in rows:
        mult, rest = 1, L
        for m in row:
            mult *= math.comb(rest, m)
            rest -= m
        out.append(mult)
    return out


def clt_width(evals: Sequence[float], L: int, z: float) -> float:
    """Typicality width covering ``z`` standard deviations of a block's log-weight.

    The per-letter log-weight ``log2 lambda`` has standard deviation
    ``sigma``; over ``L`` letters the window ``L * delta`` then spans
    ``z * sigma * sqrt(L)``, so the number of typical classes, and with it
    the census cost, no longer depends on the drawn source.
    """
    logs = [math.log2(x) for x in evals]
    mean = sum(x * lg for x, lg in zip(evals, logs))
    var = sum(x * lg * lg for x, lg in zip(evals, logs)) - mean * mean
    return z * math.sqrt(var / L)


def pick_delta(rng: np.random.Generator, evals: Sequence[float], L: int,
               low: float, high: float, nonempty: bool = False,
               ledger: bool = False) -> tuple[float, int, float]:
    """Draw a typicality width whose window has a safe margin.

    Returns ``(delta, dim, capture)`` for the first draw from
    ``U(low, high)`` with no class within ``WINDOW_MARGIN`` of the window
    edge (and, with ``nonempty``, a non-empty subspace).  With ``ledger``,
    the subspace must be non-empty and the refactorization ledger inside
    its own bracket ``lower_bound <= net_per_letter <= upper_bound``: qihe
    rejects a ledger outside it as invalid input, which happens for short
    blocks (L <= 3) with a narrow window.
    """
    for _ in range(100):
        delta = float(rng.uniform(low, high))
        dim, capture, margin = typical_census(evals, L, delta)
        if margin <= WINDOW_MARGIN:
            continue
        if dim == 0 and (nonempty or ledger):
            continue
        if ledger:
            led = ledger_values(evals, L, delta, dim, capture)
            if not led["lower_bound"] <= led["net_per_letter"] <= led["upper_bound"]:
                continue
        return delta, dim, capture
    raise RuntimeError(f"no usable delta in [{low}, {high}] for L = {L}")


def ledger_values(evals: Sequence[float], L: int, delta: float, dim: int,
                  capture: float) -> dict[str, float]:
    """Refactorization ledger in bit-units from the census of ``evals``."""
    m_bits = math.log2(len(evals))
    s = entropy_bits(evals)
    eps = min(max(1.0 - capture, 0.0), 1.0)
    w1 = L * m_bits
    w_anc = math.log2(dim)
    return {
        "w1": w1,
        "w_ancilla": w_anc,
        "net_per_letter": (w1 * (1.0 - 2.0 * eps) - w_anc) / L,
        "lower_bound": m_bits * (1.0 - 2.0 * eps) - s - delta,
        "upper_bound": m_bits - s,
        "epsilon": eps,
    }


def ginibre_state(rng: np.random.Generator, dim: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Random density matrix ``g g^dag / tr`` and the spectrum of its Gram matrix.

    The non-zero eigenvalues of ``g g^dag`` equal those of the small
    ``rank x rank`` matrix ``g^dag g``, which gives the entropy without
    diagonalizing the large matrix.
    """
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    g /= np.linalg.norm(g)
    return g @ g.conj().T, np.linalg.eigvalsh(g.conj().T @ g)


def haar_isometry_kraus(rng: np.random.Generator, dim: int, n_kraus: int) -> list[np.ndarray]:
    """Kraus operators cut from a Haar-random isometry (QR of a Ginibre matrix)."""
    z = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return [q[j * dim:(j + 1) * dim, :] for j in range(n_kraus)]


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    n = len(dims)
    keep = sorted(keep)
    bra = [n + i if i in keep else i for i in range(n)]
    out = list(keep) + [n + i for i in keep]
    reduced = np.einsum(m.reshape(tuple(dims) * 2), list(range(n)) + bra, out)
    dk = math.prod(dims[i] for i in keep)
    return reduced.reshape(dk, dk)


def apply_kraus(m: np.ndarray, dims: Sequence[int], target: Sequence[int],
                kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Unnormalized ``sum_k K rho K^dag`` with ``K`` acting on ``target``."""
    n = len(dims)
    ket, bra = list(range(n)), list(range(n, 2 * n))
    new_ket = [2 * n + i if i in target else i for i in range(n)]
    new_bra = [3 * n + i if i in target else n + i for i in range(n)]
    k_shape = tuple(dims[i] for i in target) * 2
    k_labels = [2 * n + i for i in target] + list(target)
    kc_labels = [3 * n + i for i in target] + [n + i for i in target]
    t = m.reshape(tuple(dims) * 2)
    acc = sum(
        np.einsum(k.reshape(k_shape), k_labels, t, ket + bra,
                  k.conj().reshape(k_shape), kc_labels, new_ket + new_bra, optimize=True)
        for k in kraus
    )
    return acc.reshape(m.shape)


def measurement_branch(m: np.ndarray, dims: Sequence[int], subsystem: int,
                       outcome: int) -> tuple[float, np.ndarray]:
    """Probability and unnormalized post-measurement block, by index selection."""
    stride = math.prod(dims[subsystem + 1:])
    idx = [i for i in range(m.shape[0]) if (i // stride) % dims[subsystem] == outcome]
    block = m[np.ix_(idx, idx)]
    return float(np.real(np.trace(block))), block


def kron_power(m: np.ndarray, n: int) -> np.ndarray:
    out = m
    for _ in range(n - 1):
        out = np.kron(out, m)
    return out
