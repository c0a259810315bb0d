"""Bipartite states and local channels: dephasing, local unitaries,
Haar-random unitaries, thermal oscillator states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    BipartitionDims,
    kron,
    local_sandwich,
    partial_trace_b,
    require_hermitian,
    require_square,
    require_unitary,
)

DEGENERACY_GAP = 1e-8
STATE_TOL = 1e-10  # trace deviation and negative eigenvalue a state may have
FOCK_TAIL_TOL = 1e-8
FOCK_FLOOR = 20    # smallest phonon cutoff
FOCK_HEADROOM = 2  # levels above the tail cut, for sideband leakage into n+1


@dataclass(frozen=True)
class BipartiteState:
    """Density operator together with its A-first dimension split."""

    rho: np.ndarray
    dims: BipartitionDims

    def __post_init__(self):
        object.__setattr__(self, "rho", _checked_density(self.rho, self.dims))

    @classmethod
    def _with_spectrum(cls, rho: np.ndarray, dims: BipartitionDims,
                       eigenvalues: np.ndarray) -> "BipartiteState":
        """The state rho, whose eigenvalues the caller has computed in a
        cheaper form than one eigvalsh of size d_A d_B, with the checks of
        construction."""
        state = object.__new__(cls)
        object.__setattr__(state, "rho", _checked_density(rho, dims, eigenvalues))
        object.__setattr__(state, "dims", dims)
        return state

    @property
    def marginal_a(self) -> np.ndarray:
        return partial_trace_b(self.rho, self.dims)


def _checked_density(rho: np.ndarray, dims: BipartitionDims,
                     eigenvalues: np.ndarray | None = None) -> np.ndarray:
    """rho, refused unless it is a Hermitian operator of the split's shape
    with trace within STATE_TOL of 1 and no eigenvalue below -STATE_TOL;
    eigvalsh(rho) unless the `eigenvalues` are given."""
    rho = require_hermitian(rho)
    dims.check(rho)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > STATE_TOL:
        raise ValueError(f"state trace {tr} deviates from 1")
    wmin = np.min(np.linalg.eigvalsh(rho) if eigenvalues is None else eigenvalues)
    if wmin < -STATE_TOL:
        raise ValueError(f"state has negative eigenvalue {wmin:.3e}")
    return rho


@dataclass(frozen=True)
class ProjectiveBasis:
    """Complete orthonormal basis on subsystem A, stored as unitary columns."""

    vectors: np.ndarray

    def __post_init__(self):
        v = require_unitary(self.vectors)
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def projectors(self):
        for i in range(self.dim):
            col = self.vectors[:, i : i + 1]
            yield col @ col.conj().T


def computational_basis(dim: int) -> ProjectiveBasis:
    return ProjectiveBasis(np.eye(dim, dtype=complex))


def qubit_kets(angles) -> np.ndarray:
    """Unitaries (..., 2, 2) for Bloch angles (..., 2): column 0 is the ket
    cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> and column 1 its antipode."""
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles[..., 0] / 2), np.sin(angles[..., 0] / 2)
    e = np.exp(1j * angles[..., 1])
    return np.stack([c, -s * e.conj(), s * e, c], axis=-1).reshape(c.shape + (2, 2))


def qubit_basis(theta: float, phi: float) -> ProjectiveBasis:
    """Qubit basis from Bloch angles of the first basis vector."""
    return ProjectiveBasis(qubit_kets([theta, phi]))


def zero_discord_state(weights, basis_a: ProjectiveBasis, states_b) -> BipartiteState:
    """sum_m p_m |phi_m><phi_m| (x) rho_B^m."""
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-10 or np.any(weights < -1e-14):
        raise ValueError("weights must form a probability distribution")
    if len(weights) != basis_a.dim or len(states_b) != basis_a.dim:
        raise ValueError("weights / basis / ancilla-state counts must match")
    d_b = require_square(states_b[0]).shape[0]
    rho = np.zeros((basis_a.dim * d_b,) * 2, dtype=complex)
    for p, proj, sb in zip(weights, basis_a.projectors(), states_b):
        sb = require_hermitian(sb)
        if abs(np.trace(sb).real - 1.0) > 1e-10 or np.linalg.eigvalsh(sb)[0] < -1e-10:
            raise ValueError("ancilla states must be valid density operators")
        rho += p * kron(proj, sb)
    return BipartiteState(rho, BipartitionDims(basis_a.dim, d_b))


def _pinching_blocks(rho: np.ndarray, dims: BipartitionDims,
                     vectors: np.ndarray) -> np.ndarray:
    """The d_B x d_B blocks <v_i| rho |v_i> (d_A, d_B, d_B) for the columns
    v_i of `vectors`."""
    r = rho.reshape(dims.d_a, dims.d_b, dims.d_a, dims.d_b)
    return np.einsum("ai,axby,bi->ixy", vectors.conj(), r, vectors)


def dephase(state: BipartiteState, basis: ProjectiveBasis) -> BipartiteState:
    """Local pinching sum_i (Pi_i (x) I) rho (Pi_i (x) I) on subsystem A. The
    result is sum_i |v_i><v_i| (x) <v_i| rho |v_i>, so its spectrum is the
    union of the spectra of the d_A blocks <v_i| rho |v_i>, and positivity is
    checked on those."""
    if basis.dim != state.dims.d_a:
        raise ValueError("basis dimension does not match subsystem A")
    out = sum(local_sandwich(p, state.rho, p, state.dims) for p in basis.projectors())
    blocks = _pinching_blocks(state.rho, state.dims, basis.vectors)
    return BipartiteState._with_spectrum(out, state.dims, np.linalg.eigvalsh(blocks))


def local_eigenbasis(state: BipartiteState):
    """Eigenbasis of the A-marginal (eigenvalues descending) and a flag for
    near-degenerate spectra (adjacent gap below 1e-8)."""
    w, v = np.linalg.eigh(state.marginal_a)
    w, v = w[::-1], v[:, ::-1]
    degenerate = bool(np.any(np.abs(np.diff(w)) < DEGENERACY_GAP))
    # fix phases: largest-magnitude component real positive
    for i in range(v.shape[1]):
        k = np.argmax(np.abs(v[:, i]))
        ph = v[k, i] / abs(v[k, i])
        v[:, i] = v[:, i] / ph
    return ProjectiveBasis(v), degenerate


def dephasing_basis(state: BipartiteState,
                    basis: ProjectiveBasis | None = None) -> ProjectiveBasis:
    """`basis`, by default the eigenbasis of the A-marginal, which is refused
    when degenerate because it then does not define the pinching."""
    if basis is None:
        basis, degenerate = local_eigenbasis(state)
        if degenerate:
            raise ValueError("degenerate A-marginal: its eigenbasis does not "
                             "define the dephased reference state")
    elif basis.dim != state.dims.d_a:
        raise ValueError("basis dimension does not match subsystem A")
    return basis


def dephasing_delta(state: BipartiteState,
                    basis: ProjectiveBasis | None = None) -> np.ndarray:
    """Delta = rho - Phi(rho) for the pinching Phi in `dephasing_basis`."""
    return state.rho - dephase(state, dephasing_basis(state, basis)).rho


def apply_local_unitary(state: BipartiteState, u_a: np.ndarray) -> BipartiteState:
    u_a = require_unitary(u_a)
    if u_a.shape[0] != state.dims.d_a:
        raise ValueError("unitary dimension does not match subsystem A")
    rho = local_sandwich(u_a, state.rho, u_a.conj().T, state.dims)
    return BipartiteState(rho, state.dims)


def haar_unitaries(dim: int, seeds) -> np.ndarray:
    """Haar-distributed unitaries (N, dim, dim), one per seed: the QR of a
    Ginibre matrix drawn from its own default_rng(seed), with the phases of
    R's diagonal moved into Q (Mezzadri, Notices AMS 54, 592 (2007))."""
    g = np.empty((len(seeds), 2, dim, dim))
    for i, s in enumerate(seeds):
        np.random.default_rng(int(s)).standard_normal(out=g[i])
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic in the seed."""
    return haar_unitaries(dim, [seed])[0]


def fock_cutoff(nbar: float) -> int:
    """Smallest cutoff with thermal tail mass below FOCK_TAIL_TOL, floored at
    FOCK_FLOOR, plus FOCK_HEADROOM."""
    if nbar <= 0:
        return FOCK_FLOOR + FOCK_HEADROOM
    # tail mass above n is (nbar/(nbar+1))**(n+1)
    n = int(np.ceil(np.log(FOCK_TAIL_TOL) / np.log(nbar / (nbar + 1.0)))) - 1
    return max(FOCK_FLOOR, n) + FOCK_HEADROOM


def thermal_fock_state(nbar: float, n_max: int) -> np.ndarray:
    """Truncated thermal oscillator state, renormalized to unit trace."""
    return np.diag(thermal_populations(nbar, n_max)).astype(complex)


def thermal_populations(nbar: float, n_max: int) -> np.ndarray:
    """Fock populations p_0..p_{n_max} of the truncated thermal state."""
    if nbar < 0:
        raise ValueError("mean occupation must be nonnegative")
    n = np.arange(n_max + 1)
    if nbar == 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
    else:
        tail = (nbar / (nbar + 1.0)) ** (n_max + 1)
        if tail >= FOCK_TAIL_TOL:
            raise ValueError(
                f"n_max={n_max} leaves tail mass {tail:.3e} >= {FOCK_TAIL_TOL}"
            )
        # log-space evaluation: nbar**n overflows for hot states
        p = np.exp(n * np.log(nbar) - (n + 1) * np.log(nbar + 1.0))
        p = p / p.sum()
    return p
