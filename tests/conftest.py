"""Shared helpers: random states, operators and Pauli constants."""

import numpy as np
import pytest

from discord_probe import BipartitionDims, BipartiteState
from discord_probe.tensor import PAULI

SX, SY, SZ = PAULI


def random_density(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def random_pure_state(d_a: int, d_b: int, rng) -> BipartiteState:
    psi = rng.standard_normal(d_a * d_b) + 1j * rng.standard_normal(d_a * d_b)
    psi = psi / np.linalg.norm(psi)
    return BipartiteState(np.outer(psi, psi.conj()), BipartitionDims(d_a, d_b))


def random_state(d_a: int, d_b: int, rng) -> BipartiteState:
    return BipartiteState(random_density(d_a * d_b, rng), BipartitionDims(d_a, d_b))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
