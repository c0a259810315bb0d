"""Dense complex linear algebra over bipartite tensor-product spaces.

Index convention, fixed repo-wide: subsystem A is the slow (leftmost)
tensor factor, i.e. a composite index reads (i_A * d_B + i_B).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10

# sigma_x, sigma_y, sigma_z; read-only, because every module shares it
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
PAULI.flags.writeable = False


@dataclass(frozen=True)
class BipartitionDims:
    """Dimension split (d_a, d_b) of a bipartite space, A-first."""

    d_a: int
    d_b: int

    def __post_init__(self):
        if self.d_a < 1 or self.d_b < 1:
            raise ValueError("subsystem dimensions must be positive")

    @property
    def total(self) -> int:
        return self.d_a * self.d_b

    def check(self, op: np.ndarray):
        if op.shape != (self.total, self.total):
            raise ValueError(
                f"operator shape {op.shape} does not match split "
                f"{self.d_a}x{self.d_b}"
            )


def require_square(m: np.ndarray) -> np.ndarray:
    return _square(np.asarray(m, dtype=complex))


def _square(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def require_hermitian(m: np.ndarray) -> np.ndarray:
    return _require_hermitian_stack(require_square(m))


def _require_hermitian_stack(m: np.ndarray) -> np.ndarray:
    """m, refused unless each matrix of the stack (..., k, k) is Hermitian."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN, refused
        dev = np.max(np.abs(m - m.conj().swapaxes(-1, -2)))
    if not dev <= HERMITIAN_TOL:  # refuses NaN too
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return m


class Sectors:
    """Sector labels, one per basis state, and their `rows`: one (S, m) stack
    of basis indices per sector size m, each row ascending; made once per
    labelling, shared by the operators on it."""

    def __init__(self, labels):
        self.labels = labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError("need one sector label per basis state")
        order = np.argsort(labels, kind="stable")
        _, start, size = np.unique(labels[order], return_index=True, return_counts=True)
        self.rows = [order[start[size == m, None] + np.arange(m)] for m in np.unique(size)]


def sector_blocks(m, sectors: Sectors) -> list | None:
    """m's blocks on each row stack of `sectors`: a BlockDiagonal's own on equal
    labels (so equal row stacks), a view of m for one sector, None otherwise."""
    if isinstance(m, BlockDiagonal) and (m.sectors is sectors or np.array_equal(
            m.sectors.labels, sectors.labels)):
        return m.blocks
    if sectors.rows[0].shape[1] == len(sectors.labels):
        return [(m.dense if isinstance(m, BlockDiagonal) else m)[None]]
    return None


class BlockDiagonal:
    """A d x d matrix as the direct sum of its `blocks`, one (S, m, m) stack
    per row stack of `sectors`; its dense matrix, unless given, is formed
    when first read."""

    def __init__(self, blocks: list, sectors: Sectors, dense: np.ndarray | None = None):
        self.blocks, self.sectors, self.shape = blocks, sectors, (len(sectors.labels),) * 2
        if dense is not None:
            self.dense = dense

    @cached_property
    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, np.result_type(*self.blocks))
        for r, b in zip(self.sectors.rows, self.blocks):
            out[r[:, :, None], r[:, None, :]] = b
        return out


def hermitian_blocks(m) -> BlockDiagonal:
    """m as a BlockDiagonal: as given, or a dense square m as one sector.
    Refused unless every block is Hermitian, which for one sector also
    refuses a NaN or inf."""
    if not isinstance(m, BlockDiagonal):
        m = BlockDiagonal([_square(m)[None]], Sectors(np.zeros(len(m), int)), m)
    for b in m.blocks:
        _require_hermitian_stack(b)
    return m


def require_unitary(m: np.ndarray) -> np.ndarray:
    m = require_square(m)
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
    if not dev <= UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (max deviation {dev:.3e})")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with A as the slow index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace_b(rho: np.ndarray, dims: BipartitionDims) -> np.ndarray:
    rho = require_square(rho)
    dims.check(rho)
    r = rho.reshape(dims.d_a, dims.d_b, dims.d_a, dims.d_b)
    return np.trace(r, axis1=1, axis2=3)


def local_sandwich(left: np.ndarray, rho: np.ndarray, right: np.ndarray,
                   dims: BipartitionDims) -> np.ndarray:
    """(left (x) I_B) rho (right (x) I_B) for operators left, right on A, as a
    contraction over the A indices of rho.reshape(d_A, d_B, d_A, d_B); no
    d x d product is formed."""
    rho = require_square(rho)
    dims.check(rho)
    r = rho.reshape(dims.d_a, dims.d_b, dims.d_a, dims.d_b)
    out = np.einsum("ik,kxly,lj->ixjy", left, r, right)
    return out.reshape(dims.total, dims.total)


def pauli_vector(x: np.ndarray) -> np.ndarray:
    """tr(sigma_a X) for a = x, y, z over a batch (..., 2, 2) of Hermitian
    matrices, so that X = (tr X + m.sigma) / 2; shape (..., 3), real."""
    return np.einsum("aji,...ij->...a", PAULI, x).real


def partial_transpose_a(rho: np.ndarray, dims: BipartitionDims) -> np.ndarray:
    rho = require_square(rho)
    dims.check(rho)
    r = rho.reshape(dims.d_a, dims.d_b, dims.d_a, dims.d_b)
    return r.transpose(2, 1, 0, 3).reshape(dims.total, dims.total)


def eig_hermitian(h: np.ndarray):
    """Spectral decomposition h = V diag(w) V^dag, eigenvalues ascending."""
    h = require_hermitian(h)
    w, v = np.linalg.eigh(h)
    return w, v


def evolve(rho: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    """Unitary conjugation exp(-iht) rho exp(+iht) via spectral decomposition
    (hbar = 1)."""
    rho = require_square(rho)
    if np.shape(h) != rho.shape:
        raise ValueError("generator and state dimensions differ")
    w, v = eig_hermitian(h)
    phase = np.exp(-1j * w * t)
    u = (v * phase) @ v.conj().T
    return u @ rho @ u.conj().T
