"""
The window-bounded census against the full enumeration it replaced.

Oracle: a test-local copy of the old census, which weighs every one of
the ``C(L + d - 1, d - 1)`` type classes in lexicographic order and
builds each multinomial from ``math.comb``, with the old scalar class
weight ``_class_weight_log2``, and of the old capture curve, which
weighs every ``k`` in ``0..L``.  Both share the classifier
``lo <= w <= hi`` with the code under test, so the results must be
exactly equal, not merely close: same ``dim`` and the same capture float.
The census lists no class; the oracle's classes are checked against the
columns ``basis`` keeps, read off a diagonal source, wherever ``d**L`` is
within 4096, and ``basis`` is shown to run no census.  The draws aim
at the window edges: zero, exactly degenerate and near-degenerate
eigenvalues, and widths down to 1e-17.  The long blocks run again with
the census of three or more letters cut into blocks of one and seven
classes, so that a prefix's run of classes straddles blocks, and a spy
on ``math.comb`` checks that each run is seeded once however the blocks
cut it; a two-letter census is seeded once in all.  A spy checks that the
number of positive eigenvalues, not ``d``, picks the route.  The
closed-form span of a two-letter source is checked against brute force over
all its classes, and the basis of rotated, rank-deficient sources against
``np.kron`` powers.  A brute-force oracle of the weights each prefix can reach
checks that the frontier of prefixes builds none that cannot reach the
window.  Windows whose edges sit on a class weight check that ``basis``
keeps exactly ``dim`` columns where rounding decides a class.
"""

import math
from functools import lru_cache
from typing import Sequence

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qihe import coding
from qihe.coding import (
    _EPS,
    _WindowSolver,
    _combinatorial_census,
    _prefixes,
    _qubit_span,
    _typical_window,
    _weight_error,
    qubit_capture_curve,
    typical_subspace,
)
from qihe.qcore import DensityMatrix, ValidationError, entropy_from_eigenvalues

# Longest block per carrier dimension at which the full enumeration stays quick.
_MAX_L = {1: 400, 2: 400, 3: 60, 4: 20, 5: 10, 6: 8}


def _compositions(total, parts):
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _class_weight_log2(counts: Sequence[int], evals: Sequence[float]) -> float | None:
    """Base-2 log of the eigenvalue product for a type class.

    Returns ``None`` when the class puts weight on a zero (or clamped
    negative) eigenvalue, i.e. the product is exactly zero and the class
    can never be typical.
    """
    w = 0.0
    for m, lam in zip(counts, evals):
        if m == 0:
            continue
        if lam <= 0.0:
            return None
        w += m * math.log2(lam)
    return w


def window_of(evals, L, delta):
    """``(lo, hi)`` of the typicality window of a source with eigenvalues ``evals``."""
    return _typical_window(entropy_from_eigenvalues(evals), L, delta)


def full_census(evals, L, delta):
    """The census as it was before the window bound, as ``(dim, capture, classes)``:
    every class is weighed."""
    lo, hi = window_of(evals, L, delta)
    dim = 0
    capture = 0.0
    classes = []
    lams = [float(x) for x in np.real(evals)]
    for counts in _compositions(L, len(lams)):
        w = _class_weight_log2(counts, lams)
        if w is None or not lo <= w <= hi:
            continue
        classes.append(counts)
        mult, rem = 1, L
        for m in counts:
            mult *= math.comb(rem, m)
            rem -= m
        dim += mult
        if mult.bit_length() < 1000:
            term = float(mult)
            for m, lam in zip(counts, lams):
                if m:
                    term *= lam ** m
        else:
            term = 2.0 ** (math.log2(mult) + w)
        capture += term
    return dim, capture, tuple(classes)


def full_curve(p, lengths, delta):
    """The capture curve as it was before the window bound: every ``k`` is weighed."""
    evals = np.array([p, 1.0 - p])
    out = []
    for L in lengths:
        lo, hi = window_of(evals, int(L), delta)
        capture = 0.0
        lp, lq = math.log2(p), math.log2(1.0 - p)
        for k in range(int(L) + 1):
            w = (L - k) * lp + k * lq
            if lo <= w <= hi:
                log_c = (math.lgamma(L + 1) - math.lgamma(k + 1)
                         - math.lgamma(L - k + 1)) / math.log(2.0)
                capture += 2.0 ** (log_c + w)
        out.append((int(L), min(capture, 1.0)))
    return out


def spectrum(kind, d, seed):
    """Ascending eigenvalues of one of four source kinds."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return np.sort(rng.dirichlet(np.ones(d)))
    if kind == "zero":
        lams = rng.dirichlet(np.ones(d))
        lams[rng.integers(d)] = 0.0
        return np.sort(lams / lams.sum()) if lams.sum() > 0 else np.eye(d)[0][::-1]
    rank = int(rng.integers(1, d + 1))
    flat = np.zeros(d)
    flat[:rank] = 1.0 / rank
    if kind == "degenerate":
        return np.sort(flat)
    # near-degenerate: eigh of a randomly rotated flat state
    q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return np.linalg.eigh(q @ np.diag(flat) @ q.conj().T)[0]


widths = st.floats(-17.0, math.log10(1.5)).map(lambda e: 10.0 ** e)


@st.composite
def census_inputs(draw):
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "zero", "degenerate", "near-degenerate"]))
    evals = spectrum(kind, d, draw(st.integers(0, 2**32 - 1)))
    return evals, draw(st.integers(1, _MAX_L[d])), draw(widths)


def census(evals, L, delta):
    """``(dim, capture)`` of the census of ``evals`` in its typicality window."""
    return _combinatorial_census(evals, L, *window_of(evals, L, delta))


def diagonal_subspace(evals, L, delta):
    """The typical subspace of ``diag(evals)``, whose kept spectrum is ``evals``."""
    rho = DensityMatrix(np.diag(evals).astype(complex), (len(evals),))
    assert np.array_equal(rho._eigenvalues, evals)
    return typical_subspace(rho, L, delta)


def basis_classes(evals, L, delta):
    """The type classes of the columns ``basis`` keeps for ``diag(evals)``, in
    lexicographic order.  The eigenvectors of a diagonal source are the
    standard basis, so each column is one product of standard basis vectors,
    and the base-``d`` digits of its nonzero entry's index give its counts."""
    d = len(evals)
    basis = diagonal_subspace(evals, L, delta).basis
    assert np.count_nonzero(basis) == basis.shape[1]
    digits = (np.argmax(np.abs(basis), axis=0)[:, None] // d ** np.arange(L - 1, -1, -1)) % d
    counts = np.stack([np.count_nonzero(digits == i, axis=1) for i in range(d)], axis=1)
    return tuple(sorted(set(map(tuple, counts.tolist()))))


@settings(max_examples=300, deadline=None)
@given(census_inputs())
def test_census_equals_the_full_enumeration(inputs):
    evals, L, delta = inputs
    dim, capture, classes = full_census(evals, L, delta)
    assert census(evals, L, delta) == (dim, capture)
    if len(evals) ** L <= 4096:
        assert basis_classes(evals, L, delta) == classes


def _multinomial(counts):
    mult, rem = 1, sum(counts)
    for m in counts:
        mult *= math.comb(rem, m)
        rem -= m
    return mult


@lru_cache(maxsize=None)
def full_census_of(evals: tuple, L: int, delta: float):
    """:func:`full_census`, taken once for each block-size case."""
    return full_census(np.array(evals), L, delta)


_chunks = pytest.mark.parametrize("chunk", [1, 7, coding._CHUNK],
                                  ids=["chunk1", "chunk7", "default"])


# Blocks past the sweep's lengths.  The first three keep classes whose
# multinomials reach 1000 bits, where the capture term is taken in the log
# domain; the flat qubit's include multinomials of exactly 1000 bits, the
# first that leave the float branch.  The next two are the largest
# censuses the benchmark runs, and the last walks three prefix levels.
# Blocks of one and of seven classes put a block boundary inside the run of
# classes of many prefixes, across which the multinomial is stepped on.
@_chunks
@pytest.mark.parametrize("evals, L, delta, log_domain", [
    ((0.3, 0.33, 0.37), 700, 0.01, True),
    ((0.25, 0.75), 3000, 0.02, True),
    ((0.5, 0.5), 1005, 0.1, True),
    ((0.2, 0.3, 0.5), 300, 0.1, False),
    ((0.1, 0.2, 0.3, 0.4), 60, 0.1, False),
    ((0.05, 0.1, 0.15, 0.3, 0.4), 40, 0.05, False),
])
def test_census_equals_the_full_enumeration_at_long_blocks(evals, L, delta, log_domain, chunk,
                                                           monkeypatch):
    monkeypatch.setattr(coding, "_CHUNK", chunk)
    dim, capture, classes = full_census_of(evals, L, delta)
    assert census(np.array(evals), L, delta) == (dim, capture)
    assert any(_multinomial(c).bit_length() >= 1000 for c in classes) == log_domain


@_chunks
@pytest.mark.parametrize("evals, L, delta", [
    ((0.2, 0.3, 0.5), 300, 0.1),
    ((0.3, 0.33, 0.37), 700, 0.01),
])
def test_each_run_is_seeded_once(evals, L, delta, chunk, monkeypatch):
    """A d = 3 census seeds the run of each prefix whose last span holds a
    class once, by two ``math.comb`` calls, however the blocks cut its run."""
    lo, hi = window_of(np.array(evals), L, delta)
    logs = [math.log2(lam) for lam in evals]
    window = _WindowSolver(evals, logs, L, lo, hi)
    runs = sum(int(np.count_nonzero(window.spans(1, weight, rest)[1]))
               for _, rest, weight in _prefixes(window, L))
    monkeypatch.setattr(coding, "_CHUNK", chunk)
    seeds = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: seeds.append((n, k)) or comb(n, k))
    census(np.array(evals), L, delta)
    assert runs > 0
    assert len(seeds) == 2 * runs


@pytest.mark.parametrize("evals, L, delta", [
    ((0.1, 0.2, 0.3, 0.4), 60, 0.1),
    ((0.05, 0.1, 0.15, 0.3, 0.4), 40, 0.05),
])
def test_walk_builds_no_prefix_that_cannot_reach_the_window(evals, L, delta):
    """Every prefix the frontier yields can reach the window, by brute force over its completions.

    A prefix of ``d - 2`` counts is completed by the last two counts; the
    oracle weighs every completion and rules the prefix out when the
    range of those weights, widened by the solver's rounding bound and two
    counts at the steepest slope (its one-count pad, and the outward
    rounding of each solved end), misses ``[lo, hi]``.
    """
    d = len(evals)
    lo, hi = window_of(np.array(evals), L, delta)
    logs = [math.log2(lam) for lam in evals]
    pad = (4 * (d + 2) * _EPS * (L * max(map(abs, logs)) + abs(lo) + abs(hi))
           + 2 * (max(logs) - min(logs)))

    def reachable(prefix):
        rest = L - sum(prefix)
        weights = [sum(c * lg for c, lg in zip(prefix + (m, rest - m), logs))
                   for m in range(rest + 1)]
        return min(weights) - pad <= hi and max(weights) + pad >= lo

    window = _WindowSolver(evals, logs, L, lo, hi)
    walked = [tuple(prefix) for counts, _, _ in _prefixes(window, L) for prefix in counts.tolist()]
    every = [counts[:-1] for counts in _compositions(L, d - 1)]
    allowed = [prefix for prefix in every if reachable(prefix)]
    assert walked == sorted(set(walked))  # lexicographic, each prefix once
    assert set(walked) <= set(allowed)
    assert {c[:-2] for c in full_census(np.array(evals), L, delta)[2]} <= set(walked)
    assert len(allowed) < len(every) / 2


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["random", "degenerate", "near-degenerate"]),
       st.integers(0, 2**32 - 1), st.integers(1, 3000), widths)
def test_qubit_span_holds_every_kept_class_and_little_more(kind, seed, L, delta):
    """The closed-form span of a two-letter source, against brute force over
    all ``L + 1`` classes: it holds every class whose weight lies in the
    window, and reaches past the kept classes by at most the pad, widened
    by one more pad of rounding and one count of ``floor``/``ceil``, at
    either end.  Its letters are positive, as the census passes them."""
    evals = spectrum(kind, 2, seed).tolist()
    assume(min(evals) > 0.0)
    lo, hi = window_of(np.array(evals), L, delta)
    logs = [math.log2(lam) for lam in evals]
    span = _qubit_span(logs, L, lo, hi)
    kept = [m for m in range(L + 1)
            if (w := _class_weight_log2((m, L - m), evals)) is not None and lo <= w <= hi]
    assert set(kept) <= set(span)
    slope = abs(logs[0] - logs[1])
    pad = (_weight_error(2, L, max(map(abs, logs)), lo, hi) / slope + 1.0 if slope
           else math.inf)
    if kept:
        assert span.start >= min(kept) - (2 * pad + 1)
        assert span[-1] <= max(kept) + 2 * pad + 1


@pytest.mark.parametrize("evals, L, delta", [
    ((0.1, 0.9), 8, 0.3),
    ((0.25, 0.75), 3000, 0.02),
    ((0.5, 0.5), 1005, 0.1),
    ((0.0, 1.0), 6, 0.1),
    ((0.0, 0.4, 0.6), 200, 0.05),
])
def test_a_two_letter_census_seeds_one_binomial(evals, L, delta, monkeypatch):
    """The census of two positive eigenvalues, of any ``d``, steps its
    binomials inline from one ``math.comb`` seed; one positive eigenvalue is
    one class in closed form, with no seed."""
    seeds = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: seeds.append((n, k)) or comb(n, k))
    dim, _ = census(np.array(evals), L, delta)
    if sum(lam > 0.0 for lam in evals) == 1:
        assert (dim, seeds) == (1, [])
    else:
        assert dim > 0 and len(seeds) == 1


def test_the_route_follows_the_rank(monkeypatch):
    """The census counts the positive eigenvalues alone, and their number,
    not ``d``, picks the route: one runs neither loop, two run only the
    two-letter loop from one ``math.comb`` seed, and three walk the prefixes.
    A carrier of ``d >= 3`` still refuses ``L >= 2**63`` whatever its rank,
    before either loop runs."""
    calls, seeds = [], []
    for name in ("_scalar_census", "_batched_census", "_prefixes"):
        monkeypatch.setattr(coding, name, lambda *args, name=name, real=getattr(coding, name):
                            calls.append(name) or real(*args))
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: seeds.append((n, k)) or comb(n, k))

    def run(evals):
        calls.clear()
        seeds.clear()
        return census(np.array(evals), 12, 0.3)

    for d in range(1, 6):
        assert run([0.0] * (d - 1) + [1.0]) == (1, 1.0)
        assert (calls, seeds) == ([], [])
    for d in range(3, 6):
        assert run([0.0] * (d - 2) + [0.3, 0.7])[0] > 0
        assert calls == ["_scalar_census"] and len(seeds) == 1
    run([0.2, 0.3, 0.5])
    assert calls == ["_batched_census", "_prefixes"]
    calls.clear()
    for evals in ([0.0, 0.0, 1.0], [0.0, 0.3, 0.7]):
        with pytest.raises(ValidationError, match=rf"L = {2 ** 63} .* 3 letters.*2\*\*63"):
            _combinatorial_census(np.array(evals), 2 ** 63, -math.inf, 0.0)
    assert calls == []


@pytest.mark.parametrize("L", [2 ** 63, 10 ** 30], ids=["2**63", "10**30"])
def test_a_two_letter_census_refuses_l_past_2_63(monkeypatch, L):
    """Two positive eigenvalues step a binomial whose ``math.comb`` seed takes
    no count past ``2**63 - 1``, so ``L >= 2**63`` is refused on a qubit
    carrier too, before the two-letter loop runs."""
    calls = []
    monkeypatch.setattr(coding, "_scalar_census", lambda *args: calls.append(args))
    rho = DensityMatrix(np.diag([0.9, 0.1]).astype(complex), (2,))
    with pytest.raises(ValidationError, match=rf"L = {L} .* 2 letters.*2\*\*63"):
        typical_subspace(rho, L, 1e-4)
    assert calls == []


def test_a_rank_one_source_stays_closed_form_at_any_l():
    rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
    sub = typical_subspace(rho, 2 ** 64, 0.1)
    assert (sub.dim, sub.capture_probability) == (1, 1.0)


@st.composite
def rotated_sources(draw):
    """A randomly rotated source of rank ``r <= d <= 4``, a block length with
    ``d**L <= 256`` and a ``delta``.  Its positive eigenvalues are at least
    1/31, so each kept product is at least ``31**-4`` or ``11**-8``."""
    d = draw(st.integers(1, 4))
    weights = np.array(draw(st.lists(st.integers(1, 10), min_size=1, max_size=d)), dtype=float)
    lams = np.zeros(d)
    lams[:len(weights)] = weights / weights.sum()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    m = q @ np.diag(lams) @ q.conj().T
    L = draw(st.integers(1, int(math.log(256, d) + 1e-9) if d > 1 else 8))
    return DensityMatrix((m + m.conj().T) / 2, (d,)), L, draw(st.floats(0.05, 1.5))


@settings(max_examples=100, deadline=None)
@given(rotated_sources())
def test_basis_columns_are_typical_eigenvectors_of_the_power(inputs):
    """``basis`` of a rotated, possibly rank-deficient, source has ``dim``
    orthonormal columns, each an eigenvector of ``rho^(x L)``, built here by
    ``np.kron``, whose eigenvalue's ``log2`` lies in the window.  That
    eigenvalue is read back as ``v^H rho^(x L) v``, to about 1e-14, so its
    ``log2`` is checked to 1e-4."""
    rho, L, delta = inputs
    sub = typical_subspace(rho, L, delta)
    basis = sub.basis
    assert basis.shape == (rho.dim ** L, sub.dim)
    assert np.allclose(basis.conj().T @ basis, np.eye(sub.dim), atol=1e-12)
    power = np.ones((1, 1))
    for _ in range(L):
        power = np.kron(power, rho.data)
    image = power @ basis
    lams = np.einsum("ij,ij->j", basis.conj(), image).real
    assert np.allclose(image, basis * lams, atol=1e-12)
    lo, hi = _typical_window(sub.source_entropy, L, delta)
    assert np.all((lo - 1e-4 <= np.log2(lams)) & (np.log2(lams) <= hi + 1e-4))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.floats(0.001, 0.999), st.floats(-1e-11, 1e-11).map(lambda e: 0.5 + e)),
    st.lists(st.integers(1, 3000), min_size=1, max_size=3),
    widths,
)
# a near-flat source whose edge classes a window solve without the rounding pad loses
@example(0.5000000000000115, [1981, 588], 1.0280234937969193e-16)
def test_capture_curve_equals_the_full_sum(p, lengths, delta):
    assert qubit_capture_curve(p, lengths, delta) == full_curve(p, lengths, delta)


@pytest.mark.parametrize("evals, L", [((0.1, 0.9), 8), ((0.2, 0.3, 0.5), 5), ((1.0,), 4)])
def test_basis_runs_no_census(evals, L, monkeypatch):
    """``basis`` picks its columns by their weights: once the subspace is
    counted, no census runs again, on any route."""
    sub = diagonal_subspace(np.array(evals), L, 0.3)

    def no_census(*args):
        raise AssertionError("basis ran a census")

    for name in ("_combinatorial_census", "_scalar_census", "_batched_census"):
        monkeypatch.setattr(coding, name, no_census)
    assert sub.basis.shape == (len(evals) ** L, sub.dim)


@st.composite
def edge_windows(draw):
    """A source with ``d**L <= 1024``, whose basis takes at most 16 MiB, and a
    ``delta`` that puts an edge of its window exactly on the weight of one of
    its classes."""
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "zero", "degenerate", "near-degenerate"]))
    evals = spectrum(kind, d, draw(st.integers(0, 2**32 - 1)))
    L = draw(st.integers(1, int(math.log(1024, d) + 1e-9) if d > 1 else 10))
    cuts = sorted(draw(st.lists(st.integers(0, L), min_size=d - 1, max_size=d - 1)))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [L])]
    assume(all(lam > 0.0 for c, lam in zip(counts, evals) if c))
    weight = 0.0
    for c, lam in zip(counts, evals):
        if c:
            weight += c * math.log2(lam)
    entropy = entropy_from_eigenvalues(evals)
    # an edge is -L * x, with x = S + delta for lo and S - delta for hi: try the
    # floats x next to -weight / L until one edge rounds onto the weight
    x0 = -weight / L
    for x in sorted({x0 + step * math.ulp(x0) for step in range(-4, 5)}):
        for delta in (x - entropy, entropy - x):
            if delta > 0.0 and weight in _typical_window(entropy, L, delta):
                return evals, L, delta
    assume(False)


@settings(max_examples=200, deadline=None)
@given(edge_windows())
def test_basis_keeps_dim_columns_when_an_edge_sits_on_a_class_weight(inputs):
    sub = diagonal_subspace(*inputs)
    assert sub.basis.shape[1] == sub.dim


@pytest.mark.parametrize("evals, L, delta", [
    ((1.0 + 0.99e-10,), 10, 1e-30),
    ((0.9, 0.1), 1, 0.01),
    ((0.5, 0.3, 0.2), 1, 0.01),
    ((0.5, 0.3, 0.2), 3, 0.001),
], ids=["rank-1", "rank-2", "rank-3-L1", "rank-3-L3"])
def test_an_empty_window_captures_positive_zero(evals, L, delta):
    """A window that keeps no class captures ``+0.0`` on every route, not
    ``-0.0``: ``max(-0.0, 0.0)`` is ``-0.0``, so the clamp would keep the sign.
    The rank-1 source sits 0.99e-10 above trace 1, so its one class weighs
    ``L log2(lam)`` while the window centres on ``L lam log2(lam)``."""
    rho = DensityMatrix(np.diag(evals).astype(complex), (len(evals),))
    sub = typical_subspace(rho, L, delta)
    assert sub.dim == 0
    assert math.copysign(1.0, sub.capture_probability) == 1.0
