"""Shared fixtures: random state and alphabet factories used across modules,
and the dense even-parity state that the protocol tests compare against."""

import numpy as np
import pytest

from qihe.qcore import DensityMatrix
from qihe.coding import Alphabet
from qihe.protocols import _even_parity_weights
from qihe.thermo import ThermalContext


def even_parity_state(n: int) -> DensityMatrix:
    """The n-qubit uniform mixture over all even-parity basis strings, as a
    dense ``DensityMatrix``: weight ``2**(1-n)`` on each of the ``2**(n-1)``
    strings of even Hamming weight, zero elsewhere."""
    return DensityMatrix(np.diag(_even_parity_weights(n)), (2,) * n)


def _ginibre_density(rng: np.random.Generator, d: int) -> DensityMatrix:
    """Full-rank random density matrix: G G† normalized to unit trace."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m /= np.real(np.trace(m))
    return DensityMatrix(m, (d,))


@pytest.fixture
def random_density():
    """Factory fixture: random_density(rng, d) -> DensityMatrix."""
    return _ginibre_density


@pytest.fixture
def random_alphabet():
    """Factory fixture: random_alphabet(rng) -> Alphabet with 1-4 mixed letters."""

    def make(rng: np.random.Generator, d: int | None = None) -> Alphabet:
        if d is None:
            d = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        letters = tuple(_ginibre_density(rng, d) for _ in range(k))
        raw = rng.random(k) + 0.1
        probs = tuple(float(x) for x in raw / raw.sum())
        return Alphabet(letters=letters, probs=probs)

    return make


@pytest.fixture
def natural_ctx():
    return ThermalContext(units="natural")


@pytest.fixture
def si_ctx():
    return ThermalContext(temperature=300.0, units="SI")
