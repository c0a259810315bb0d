"""Distance and discord quantifiers: trace distance, dephasing disturbance,
basis-minimized disturbance, negativity."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .states import (
    STATE_TOL,
    BipartiteState,
    ProjectiveBasis,
    dephasing_delta,
    local_eigenbasis,
    qubit_basis,
    qubit_kets,
)
from .tensor import (
    BlockDiagonal,
    hermitian_blocks,
    partial_transpose_a,
    require_hermitian,
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
        return _grid_angles(self.n_theta, self.n_phi)

    @property
    def spacing(self) -> tuple[float, float]:
        return (np.pi / 2 / max(self.n_theta - 1, 1), 2 * np.pi / self.n_phi)


@lru_cache(maxsize=8)
def _grid_angles(n_theta: int, n_phi: int) -> np.ndarray:
    out = np.stack(np.meshgrid(np.linspace(0.0, np.pi / 2, n_theta), np.linspace(
        0.0, 2 * np.pi, n_phi, endpoint=False), indexing="ij"), axis=-1).reshape(-1, 2)
    out.flags.writeable = False  # (n_theta * n_phi, 2), theta-major, one per shape
    return out


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
    return half_trace_norm(hermitian_blocks(a - b))


def dephasing_disturbance(state: BipartiteState,
                          basis: ProjectiveBasis | None = None) -> float:
    """D = (1/2)||Delta||_1 for Delta = rho - Phi(rho), Phi the pinching in
    `basis`, by default the eigenbasis of the A-marginal, which is refused
    when degenerate."""
    return half_trace_norm(dephasing_delta(state, basis))


def half_trace_norm(delta: BlockDiagonal) -> float:
    """(1/2)||Delta||_1 as the sum over the sector blocks of a Hermitian Delta."""
    return float(sum(np.abs(np.linalg.eigvalsh(b)).sum() for b in delta.blocks) / 2)


def negativity(state: BipartiteState) -> float:
    """(|rho^Gamma|_1 - 1)/2 with the partial transpose on A."""
    pt = partial_transpose_a(state.rho, state.dims)
    return max(half_trace_norm(hermitian_blocks(pt)) - 0.5, 0.0)


def rows_times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat, each row and column of the result independent of the other
    rows and columns: a lone row or column would go through gemv, whose
    rounding differs from gemm's, so it is doubled."""
    r, c = rows.shape[-2], mat.shape[-1]
    rows = np.repeat(rows, 2, axis=-2) if r == 1 else rows
    mat = np.repeat(mat, 2, axis=-1) if c == 1 else mat
    return (rows @ mat)[..., :r, :c]


def _block_disturbance(rho: np.ndarray, d_b: int, angles: np.ndarray) -> np.ndarray:
    """D(n) for a qubit probe and Bloch angles (G, 2): with |0_n>, |1_n> the
    kets of each basis, rho minus its pinching is P0 rho P1 + P1 rho P0, which
    is block off-diagonal, so D is the singular-value sum of the d_B x d_B
    block <0_n| rho |1_n>."""
    kets = qubit_kets(angles)
    weights = (kets[:, :, 0, None].conj() * kets[:, None, :, 1]).reshape(-1, 4)
    blocks = rho.reshape(2, d_b, 2, d_b).transpose(0, 2, 1, 3).reshape(4, -1)
    chunk = max(1, 2**20 // (d_b * d_b))  # about 16 MB of blocks per batch
    vals = np.empty(len(kets))
    for lo in range(0, len(kets), chunk):
        blk = rows_times(weights[lo : lo + chunk], blocks).reshape(-1, d_b, d_b)
        vals[lo : lo + chunk] = np.linalg.svd(blk, compute_uv=False).sum(axis=1)
    return vals


def _factored_disturbance(left: np.ndarray, right: np.ndarray,
                          angles: np.ndarray) -> np.ndarray:
    """D(n) for rho = left right^dag with factors (2 d_B, r): the block
    <0_n| rho |1_n> is A B^dag with A = <0_n| left and B = <1_n| right
    (d_B x r), whose singular values are those of the core R_A R_B^dag."""
    d_b, r = left.shape[0] // 2, left.shape[1]
    bras = qubit_kets(angles).conj()  # bras[g, a, k] = <k_n|a>
    left, right = left.reshape(2, -1), right.reshape(2, -1)
    chunk = max(1, 2**20 // (d_b * r))
    vals = np.empty(len(angles))
    for lo in range(0, len(angles), chunk):
        a = rows_times(bras[lo : lo + chunk, :, 0], left).reshape(-1, d_b, r)
        b = rows_times(bras[lo : lo + chunk, :, 1], right).reshape(-1, d_b, r)
        if r == 1:
            vals[lo : lo + chunk] = (np.linalg.norm(a[:, :, 0], axis=1)
                                     * np.linalg.norm(b[:, :, 0], axis=1))
        else:
            r_b = np.linalg.qr(b, mode="r")
            core = np.linalg.qr(a, mode="r") @ r_b.conj().transpose(0, 2, 1)
            vals[lo : lo + chunk] = np.linalg.svd(core, compute_uv=False).sum(axis=1)
    return vals


# eigenvalues of rho whose absolute values sum to less than this are dropped
# from the factored D(n); that moves every D(n) by less than FACTOR_TAIL
FACTOR_TAIL = 1e-13


def _disturbance_kernel(rho: np.ndarray, d_b: int):
    """D on Bloch angles (G, 2).

    One eigh of rho gives the factors of its rank-r part after the tail cut.
    For r <= d_B / 2 the factored kernel does r x r work per axis; above
    that its two QRs cost more than the block kernel's one d_B x d_B SVD
    (1.3-2.3x at r >= 3 d_B / 4 for d_B = 8 to 64).
    """
    w, v = np.linalg.eigh(rho)
    size = np.abs(w)
    order = np.argsort(size)
    keep = order[np.searchsorted(np.cumsum(size[order]), FACTOR_TAIL):]
    if 2 * len(keep) > d_b:
        return partial(_block_disturbance, rho, d_b)
    right = v[:, keep] * np.sqrt(size[keep])
    left = right * np.sign(w[keep])
    return partial(_factored_disturbance, left, right)


def _chord_lipschitz(state: BipartiteState) -> float:
    """Lipschitz constant ||rho||_1 / 2 in the chord of D(n) and d_n(t), as
    ||N rho N - M rho M||_1 <= 2 ||rho||_1 |n - m| and Tr_B U(.)U^dag contracts
    the trace norm; the construction checks give ||rho||_1 <= 1 + (2d + 1)
    STATE_TOL for a Hermitian rho, not for the residue require_hermitian allows."""
    return 0.5 + (state.dims.total + 0.5) * STATE_TOL


def _basis_angles(basis: ProjectiveBasis) -> np.ndarray:
    """Bloch angles (1, 2) of a qubit basis, folded into theta <= pi/2."""
    if basis.dim != 2:
        raise ValueError("basis-grid minimization is defined for d_A = 2 only")
    v0, v1 = basis.vectors[:, 0]
    xy, z = 2 * v0.conjugate() * v1, abs(v0) ** 2 - abs(v1) ** 2
    sign = -1.0 if z < 0 else 1.0  # n and -n give the same basis
    theta = np.arccos(np.clip(sign * z, -1.0, 1.0))
    return np.array([[theta, np.angle(sign * xy) % (2 * np.pi)]])


def _chord(n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Distance between the bases of Bloch axes n and m, min(|n - m|, |n + m|),
    from the differences themselves: sqrt(2 - 2|n.m|) loses half the digits
    of a short chord."""
    return np.minimum(np.linalg.norm(n - m, axis=-1), np.linalg.norm(n + m, axis=-1))


@lru_cache(maxsize=8)
def _pruning_table(grid: BasisGrid, mirror: bool):
    """The coarse subgrid (every 3rd theta row plus the last, times every 3rd
    phi) and the other points F as whole-grid indices, and each other point's
    cell corners (4, F), as positions in the subgrid, with their chords.
    `mirror` keeps phi columns 0 .. n_phi // 2 and their last as a coarse
    one, as phi in [0, pi] does not wrap."""
    n_col = grid.n_phi // 2 + 1 if mirror else grid.n_phi
    ti, pj = np.divmod(np.arange(grid.n_theta * n_col), n_col)
    coarse_row = np.arange(grid.n_theta) % 3 == 0
    coarse_row[-1] = True
    coarse_col = np.arange(n_col) % 3 == 0
    coarse_col[-1] |= mirror
    rows, cols = np.flatnonzero(coarse_row), np.flatnonzero(coarse_col)
    coarse = coarse_row[ti] & coarse_col[pj]
    index = ti * grid.n_phi + pj
    ti, pj = ti[~coarse], pj[~coarse]
    t_lo = rows[np.searchsorted(rows, ti, "right") - 1]
    t_hi = rows[np.searchsorted(rows, ti, "left")]
    p_lo = cols[np.searchsorted(cols, pj, "right") - 1]
    p_hi = cols[np.searchsorted(cols, pj, "left") % len(cols)]  # phi wraps, unmirrored
    corners = np.stack([t_lo * grid.n_phi + p_lo, t_lo * grid.n_phi + p_hi,
                        t_hi * grid.n_phi + p_lo, t_hi * grid.n_phi + p_hi])
    axes = bloch_vectors(grid.angles())
    fine, coarse = index[~coarse], index[coarse]
    table = (coarse, fine, np.searchsorted(coarse, corners), _chord(axes[fine], axes[corners]))
    for arr in table:  # shared by every caller through the cache
        arr.flags.writeable = False
    return table


# the 3x3 stencil without its centre, the incumbent itself
_STENCIL = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j])


def _bloch_search(f, state: BipartiteState, grid: BasisGrid, start: np.ndarray,
                  mirror: bool = False):
    """Minimize K objectives over Bloch angles at once. `f` maps angles
    (1, G, 2), shared by all K, or (K, G, 2) to values (K, G), each point's
    value independent of the others in the call to the bit (see rows_times).

    f is first evaluated on the coarse subgrid and the `start` angles (S, 2).
    With |f_k(p) - f_k(c)| <= lip * chord(p, c), lip = _chord_lipschitz(state),
    another grid point is evaluated only if, for some k, its bound from its
    coarse corners is within 1e-12 of k's incumbent, so each grid argmin is
    the exhaustive grid's. Every incumbent is then refined on the 8 neighbours
    of a 3x3 stencil whose spacing halves each round. Returns the minima (K,)
    and angles (K, 2).

    `mirror` declares every f_k even in phi, and only the phi columns in
    [0, pi] are searched: their minimum is the grid's up to rounding."""
    angles, lip = np.vstack([grid.angles(), start]), _chord_lipschitz(state)
    coarse, fine, corners, chords = _pruning_table(grid, mirror)
    first = np.concatenate([coarse, np.arange(grid.n_theta * grid.n_phi, len(angles))])
    first_vals = f(angles[None, first])
    excess = first_vals - (first_vals.min(axis=1, keepdims=True) + 1e-12)
    # kept when some k has every corner bound f_k(c) - lip * chord <= its min + 1e-12
    rest = fine[(excess[:, corners] <= lip * chords).all(axis=1).any(axis=0)]
    vals = np.full((len(first_vals), len(angles)), np.inf)
    vals[:, first] = first_vals
    vals[:, rest] = f(angles[None, rest])
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


def minimal_dephasing_disturbance(state: BipartiteState, grid: BasisGrid | None = None,
                                  start: np.ndarray | None = None, mirror: bool = False):
    """Grid minimum of the basis-dependent dephasing disturbance D(n) for a
    qubit probe, with local refinement around the incumbent.

    The `start` angles (S, 2), by default those of the eigenbasis of the
    A-marginal, are candidates besides the grid; the eigenbasis makes the
    result exact for pure states and never above the plain dephasing
    disturbance. `mirror` declares D(n) even in phi. Returns (value, argmin
    basis).
    """
    if state.dims.d_a != 2:
        raise ValueError("basis-grid minimization is defined for d_A = 2 only")
    start = _basis_angles(local_eigenbasis(state)[0]) if start is None else start
    f = _disturbance_kernel(state.rho, state.dims.d_b)
    val, ang = _bloch_search(lambda a: f(a[0])[None], state, grid or BasisGrid(),
                             start, mirror)
    return float(val[0]), qubit_basis(ang[0, 0], ang[0, 1])
