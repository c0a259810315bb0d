"""Distance and discord quantifiers: trace distance, dephasing disturbance,
basis-minimized disturbance, negativity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    BipartiteState,
    ProjectiveBasis,
    dephasing_delta,
    local_eigenbasis,
    qubit_basis,
    qubit_kets,
)
from .tensor import (
    partial_transpose_a,
    require_hermitian,
    trace_norm_hermitian,
)

@dataclass(frozen=True)
class BasisGrid:
    """Bloch-angle grid over the qubit projective-basis manifold.

    theta runs over [0, pi/2] and phi over [0, 2*pi); the restriction to the
    upper hemisphere removes the antipodal double counting.
    """

    n_theta: int = 60
    n_phi: int = 120
    refine_rounds: int = 6

    def __post_init__(self):
        if self.n_theta < 1 or self.n_phi < 1 or self.refine_rounds < 0:
            raise ValueError("basis grid needs n_theta >= 1, n_phi >= 1 and "
                             "refine_rounds >= 0")

    def angles(self) -> np.ndarray:
        thetas = np.linspace(0.0, np.pi / 2, self.n_theta)
        phis = np.linspace(0.0, 2 * np.pi, self.n_phi, endpoint=False)
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        return np.column_stack([tt.ravel(), pp.ravel()])

    @property
    def spacing(self) -> tuple[float, float]:
        return (np.pi / 2 / max(self.n_theta - 1, 1), 2 * np.pi / self.n_phi)


def bloch_vectors(angles: np.ndarray) -> np.ndarray:
    """Unit axes (..., 3) for Bloch angles (..., 2)."""
    t, p = angles[..., 0], angles[..., 1]
    return np.stack(
        [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1
    )


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the Hermitian difference."""
    a, b = require_hermitian(a), require_hermitian(b)
    if a.shape != b.shape:
        raise ValueError("operator dimensions differ")
    return 0.5 * trace_norm_hermitian(a - b)


def dephasing_disturbance(state: BipartiteState) -> float:
    """D = (1/2)||Delta||_1 for Delta = rho - Phi(rho), Phi the pinching in
    the eigenbasis of the A-marginal. Refuses degenerate marginals."""
    return 0.5 * trace_norm_hermitian(dephasing_delta(state))


def negativity(state: BipartiteState) -> float:
    """(|rho^Gamma|_1 - 1)/2 with the partial transpose on A."""
    pt = partial_transpose_a(state.rho, state.dims)
    val = 0.5 * (trace_norm_hermitian(pt) - 1.0)
    return max(val, 0.0)


def _block_disturbance(rho: np.ndarray, d_b: int, angles: np.ndarray) -> np.ndarray:
    """D(n) for a qubit probe and Bloch angles (G, 2): rho minus its pinching
    along n is P0 rho P1 + P1 rho P0, which is block off-diagonal, so D(n) is
    the singular-value sum of the d_B x d_B block <0_n| rho |1_n>."""
    kets = qubit_kets(angles)  # columns |0_n>, |1_n>
    weights = (kets[:, :, 0, None].conj() * kets[:, None, :, 1]).reshape(-1, 4)
    blocks = rho.reshape(2, d_b, 2, d_b).transpose(0, 2, 1, 3).reshape(4, -1)
    chunk = max(1, 2**20 // (d_b * d_b))  # about 16 MB of blocks per batch
    vals = np.empty(len(angles))
    for lo in range(0, len(angles), chunk):
        blk = (weights[lo : lo + chunk] @ blocks).reshape(-1, d_b, d_b)
        vals[lo : lo + chunk] = np.linalg.svd(blk, compute_uv=False).sum(axis=1)
    return vals


def _basis_angles(basis: ProjectiveBasis) -> np.ndarray:
    """Bloch angles (1, 2) of a qubit basis, folded into theta <= pi/2."""
    if basis.dim != 2:
        raise ValueError("basis-grid minimization is defined for d_A = 2 only")
    v0, v1 = basis.vectors[:, 0]
    xy, z = 2 * v0.conjugate() * v1, abs(v0) ** 2 - abs(v1) ** 2
    sign = -1.0 if z < 0 else 1.0  # n and -n give the same basis
    theta = np.arccos(np.clip(sign * z, -1.0, 1.0))
    return np.array([[theta, np.angle(sign * xy) % (2 * np.pi)]])


# the 3x3 stencil without its centre, the incumbent itself
_STENCIL = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j])


def _minimize_over_bloch(f, grid: BasisGrid, start: np.ndarray):
    """Minimize K objectives over Bloch angles at once: evaluate all on the
    grid plus the `start` angles (S, 2), then refine every incumbent on the 8
    neighbours of a 3x3 stencil whose spacing halves each round. `f` maps
    angles (K, G, 2), or (1, G, 2) shared by all K, to values (K, G). Returns
    the minima (K,) and their angles (K, 2)."""
    angles = np.vstack([grid.angles(), start])
    vals = f(angles[None])
    best_val, best_ang = vals.min(axis=1), angles[np.argmin(vals, axis=1)]
    rows, step = np.arange(len(vals)), np.array(grid.spacing)
    for _ in range(grid.refine_rounds):
        step = step / 2
        cand = best_ang[:, None, :] + _STENCIL * step
        cvals = f(cand)
        j = np.argmin(cvals, axis=1)
        better = cvals[rows, j] < best_val
        best_val[better] = cvals[rows, j][better]
        best_ang[better] = cand[rows, j][better]
    return best_val, best_ang


def _minimal_disturbance(state: BipartiteState, grid: BasisGrid, start: np.ndarray):
    """(min D(n), argmin basis) over the grid plus the `start` angles (S, 2)."""
    val, ang = _minimize_over_bloch(
        lambda a: _block_disturbance(state.rho, state.dims.d_b, a[0])[None],
        grid, start)
    return float(val[0]), qubit_basis(ang[0, 0], ang[0, 1])


def minimal_dephasing_disturbance(state: BipartiteState, grid: BasisGrid | None = None):
    """Grid minimum of the basis-dependent dephasing disturbance for a qubit
    probe, with local refinement around the incumbent.

    The eigenbasis of the A-marginal is always included as a candidate, which
    makes the result exact for pure states and never above the plain
    dephasing disturbance. Returns (value, argmin basis).
    """
    start = _basis_angles(local_eigenbasis(state)[0])
    return _minimal_disturbance(state, grid or BasisGrid(), start)
