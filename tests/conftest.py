"""Shared helpers: random states, operators, Pauli constants and a fresh
interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import discord_probe
from discord_probe import BipartitionDims, BipartiteState
from discord_probe.tensor import PAULI

SX, SY, SZ = PAULI


def fresh_interpreter(code: str) -> list[str]:
    """The words `code` prints in a new interpreter with the package on its path."""
    env = {**os.environ, "PYTHONPATH": str(Path(discord_probe.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.split()


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
