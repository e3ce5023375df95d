"""
Property tests of the typical-subspace census on random Ginibre sources.

Independent oracle: the explicit Kronecker power ``rho^(x L)``, its
``eigvalsh`` spectrum, and a count of the eigenvalues whose base-2 log
lies inside the window ``[-L(S + delta), -L(S - delta)]``, with ``S``
taken from ``eigvalsh(rho)``.  Draws with an eigenvalue within 1e-9 of
a window edge are dropped, since float rounding decides such classes.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from qihe.coding import typical_subspace
from qihe.qcore import DensityMatrix

_EDGE = 1e-9


def ginibre(seed: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


@st.composite
def sources(draw):
    d = draw(st.sampled_from([2, 3]))
    L = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    delta = draw(st.floats(0.01, 1.0))
    return ginibre(seed, d), L, delta


def oracle(rho: np.ndarray, L: int, delta: float):
    """(dim, capture, big_rho) from the dense Kronecker power."""
    single = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    s = -sum(x * math.log2(x) for x in single if x > 0)
    big = np.array([[1.0 + 0j]])
    for _ in range(L):
        big = np.kron(big, rho)
    lam = np.linalg.eigvalsh(big)
    logs = np.log2(np.clip(lam, 1e-300, None))
    lo, hi = -L * (s + delta), -L * (s - delta)
    assume(np.all(np.abs(logs - lo) > _EDGE) and np.all(np.abs(logs - hi) > _EDGE))
    inside = (logs >= lo) & (logs <= hi)
    return int(inside.sum()), float(lam[inside].sum()), big


@settings(max_examples=40, deadline=None)
@given(sources())
def test_census_matches_the_dense_spectrum(source):
    rho, L, delta = source
    dim, capture, _ = oracle(rho, L, delta)
    sub = typical_subspace(DensityMatrix(rho, (rho.shape[0],)), L, delta)
    assert sub.dim == dim
    assert abs(sub.capture_probability - capture) < 1e-10


@settings(max_examples=25, deadline=None)
@given(sources())
def test_lazy_basis_and_projector_realize_the_census(source):
    rho, L, delta = source
    _, _, big = oracle(rho, L, delta)
    sub = typical_subspace(DensityMatrix(rho, (rho.shape[0],)), L, delta)
    basis = sub.basis
    assert basis.shape == (rho.shape[0] ** L, sub.dim)
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(sub.dim)), initial=0.0) < 1e-10
    p = sub.projector
    assert abs(np.real(np.trace(p)) - sub.dim) < 1e-9
    assert abs(np.real(np.trace(p @ big)) - sub.capture_probability) < 1e-10
