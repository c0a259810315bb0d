"""Variable-range transverse Ising chain: exact diagonalization on the real
parity sectors of a rotated frame, single-spin detection on ground and
thermal states."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .protocol import (BasisGrid, EvolutionSpec, TimeGrid, WitnessSeries,
                       run_minimized_detection)
from .states import BipartiteState
from .tensor import BipartitionDims


@dataclass(frozen=True)
class ChainParams:
    n_spins: int = 8
    alpha: float = 1.0
    j0: float = 1.0
    b_field: float = 1.0
    kT: float = 0.0

    def __post_init__(self):
        if not 2 <= self.n_spins <= 12:
            raise ValueError("chain length must lie in [2, 12]")
        if not (self.alpha > 0 and self.j0 > 0):
            raise ValueError("alpha and J0 must be positive")
        if not self.kT >= 0:
            raise ValueError("temperature kT must be nonnegative")
        if not np.all(np.isfinite([self.alpha, self.j0, self.b_field, self.kT])):
            raise ValueError("alpha, J0, b_field and kT must be finite")

    @property
    def dims(self) -> BipartitionDims:
        return BipartitionDims(2, 2 ** (self.n_spins - 1))

    def default_time_grid(self) -> TimeGrid:
        return TimeGrid.linear(20.0 / self.j0, 400)


def build_chain_hamiltonian(p: ChainParams, rotated: bool = False) -> np.ndarray:
    """H = -sum_{i<j} J0/|i-j|^alpha sx_i sx_j - B sum_i sy_i, open chain; with
    `rotated`, the real R H R^dag, R = (x) exp(-i pi/4 sx), where sy_i -> sz_i.

    Spin 0 (leftmost, slow index, highest bit) is the accessible subsystem A.
    With m_i the bit of spin i, sx_i sx_j sends |x> to |x ^ m_i ^ m_j>, sy_i
    sends it to +-i |x ^ m_i> and sz_i scales it by 1 - 2 (bit i of x).
    Every entry of H receives at most one term.
    """
    n = p.n_spins
    x = np.arange(2**n)
    masks = (1 << (n - 1 - np.arange(n)))[:, None]
    i, j = np.triu_indices(n, 1)
    h = np.zeros((2**n, 2**n), dtype=float if rotated else complex)
    couplings = [[p.j0 / d ** p.alpha] for d in (j - i).tolist()]
    h.real[x ^ masks[i] ^ masks[j], x] -= couplings
    if rotated:
        h[x, x] = -p.b_field * (n - 2 * np.bitwise_count(x).astype(int))
    else:  # sy|0> = i|1>, sy|1> = -i|0>
        h.imag[x ^ masks, x] -= np.where(x & masks, -p.b_field, p.b_field)
    return h


@dataclass(frozen=True)
class SpectralData:
    energies: np.ndarray  # ascending
    parities: np.ndarray  # +-1 per eigenstate
    evolution: EvolutionSpec  # the rotated frame's real H on its popcount sectors
    order: np.ndarray  # eigenstate j is column order[j] of the sectors' eigenvectors

    @cached_property
    def states(self) -> np.ndarray:
        """The eigenvectors as columns in the original frame. R^dag acts site
        by site, |0> -> (|0> + i|1>)/sqrt2 and |1> -> (|1> + i|0>)/sqrt2, by
        adding swapped components, which keeps each column's parity exact."""
        (rows, _, v), = self.evolution.spectral()
        d, n = len(self.order), len(self.order).bit_length() - 1
        out = np.zeros((d, *v.shape[:2]), dtype=complex)
        out[rows, np.arange(2)[:, None]] = v
        out = out.reshape(d, d)[:, self.order]
        for i in range(n):
            a = out.reshape(2**i, 2, -1)
            out = a + 1j * a[:, ::-1]
        return out.reshape(d, d) * 0.5 ** (n / 2)


def spectral(p: ChainParams) -> SpectralData:
    """Eigendecomposition in the rotated frame, where H is real and the parity
    (x) sigma_y is (x) sigma_z: one stacked real eigh of the even- and odd-
    popcount sectors, parity +1 and -1. The energies ascend; in a block of
    numerically degenerate ones (1e-9 of the scale apart) parity -1 is first."""
    h = build_chain_hamiltonian(p, rotated=True)
    evolution = EvolutionSpec(h, sectors=np.bitwise_count(np.arange(len(h))) & 1)
    (_, w, _), = evolution.spectral()
    parity = np.repeat([1, -1], w.shape[1])  # the sectors in label order
    order = np.argsort(w, axis=None, kind="stable")
    energies = w.ravel()[order]
    gaps = np.diff(energies, prepend=energies[0]) > 1e-9 * max(np.max(np.abs(w)), 1.0)
    order = order[np.lexsort((parity[order], np.cumsum(gaps)))]
    return SpectralData(energies, parity[order], evolution, order)


def original_frame_evolution(p: ChainParams, spec: SpectralData) -> EvolutionSpec:
    """H in the original frame, with spec.states and their own energies."""
    (_, w, _), = spec.evolution.spectral()
    rows = np.arange(len(spec.order))[None]  # one sector, the whole space
    return EvolutionSpec(build_chain_hamiltonian(p), spectrum=[
        (rows, w.ravel()[spec.order][None], spec.states[None])])


def _ground_sector(spec: SpectralData):
    """(s, w, V, psi0, chi), rotated frame: the sector s of the ground vector,
    all sectors' energies and eigenvectors, psi0 and chi = sigma_z^(0) psi0.
    Spin 0 is up in the first half of a sector's (ascending) rows."""
    (_, w, v), = spec.evolution.spectral()
    s, k = divmod(int(spec.order[0]), w.shape[1])
    psi0 = v[s, :, k]
    return s, w, v, psi0, psi0 * np.repeat([1.0, -1.0], len(psi0) // 2)


@dataclass(frozen=True)
class GroundStateResult:
    series: WitnessSeries
    d_mag: np.ndarray        # magnetization form (1/2)|m_y(t) - m_y(0)|
    negativity: float
    gap: float


def ground_state_detection(p: ChainParams, grid: TimeGrid | None = None,
                           spec: SpectralData | None = None) -> GroundStateResult:
    """Dephase spin 0 along y, evolve, and record the single-spin distance.
    psi0 and chi share a popcount sector, where every spin-0 marginal is
    diagonal: d(t) = |p_up - P_up(t)| / 2 for the spin-up populations of psi0
    and U(t) chi, also the magnetization form (m_y is the rotated sz_0)."""
    spec = spec or spectral(p)
    grid = grid or p.default_time_grid()
    gap = float(spec.energies[1] - spec.energies[0])
    if gap <= 1e-10:
        raise ValueError("ground state is (numerically) degenerate")
    s, w, v, psi0, chi = _ground_sector(spec)
    half = len(psi0) // 2
    p_up, p_down = psi0[:half] @ psi0[:half], psi0[half:] @ psi0[half:]
    if abs(p_up + p_down - 1.0) > 1e-10:
        raise ValueError(f"ground-state norm {p_up + p_down} deviates from 1")
    # pure state: the negativity is the product of the Schmidt coefficients
    neg = float(np.sqrt(p_up * p_down))
    # Re and Im of (chi V)_a exp(-i w_a t) side by side: the complex exp's bits
    wt = np.multiply.outer(w[s], -grid.samples)
    phased = (chi @ v[s])[:, None, None] * np.stack([np.cos(wt), np.sin(wt)], axis=-1)
    amp = v[s, :half] @ phased.reshape(len(wt), -1)  # the spin-up amplitudes of U(t) chi
    d_t = np.abs(p_up - np.square(amp).reshape(half, -1, 2).sum(axis=(0, 2))) / 2
    series = WitnessSeries(grid.samples, d_t, bound_ref=neg)
    return GroundStateResult(series, d_t, neg, gap)


def excitation_overlaps(p: ChainParams, spec: SpectralData | None = None):
    """Populations c_j of the y-dephased ground state in the energy
    eigenbasis, with parities; only the ground vector's sector is populated."""
    spec = spec or spectral(p)
    s, w, v, psi0, chi = _ground_sector(spec)
    c = np.zeros(w.shape)
    c[s] = 0.5 * (np.square(psi0 @ v[s]) + np.square(chi @ v[s]))
    return list(zip(spec.energies, c.ravel()[spec.order], spec.parities))


def gibbs_state(p: ChainParams, spec: SpectralData | None = None) -> BipartiteState:
    """rho = X diag(w) X^dag with Boltzmann weights w >= 0. It is positive
    for any X, so w stands in for its spectrum in the state checks even
    though the columns X (spec.states) are orthonormal only to rounding."""
    if p.kT <= 0:
        raise ValueError("Gibbs state needs kT > 0")
    spec = spec or spectral(p)
    w = np.exp(-(spec.energies - spec.energies[0]) / p.kT)
    w = w / w.sum()
    rho = (spec.states * w) @ spec.states.conj().T
    return BipartiteState(rho, p.dims, spectrum=w)


def thermal_detection(p: ChainParams, grid: TimeGrid | None = None,
                      bases: BasisGrid | None = None,
                      spec: SpectralData | None = None):
    """Minimized witness series and minimal dephasing disturbance of the
    Gibbs state. Returns (series, d_min_bound). The parity P = (x) sigma_y
    maps the probe's axis (x, y, z) to (-x, y, -z), the basis of (x, -y, z);
    so once rho and H are checked to equal their P conjugates, D(n) and every
    d_n(t) are even in phi, and both searches are declared mirrored."""
    spec = spec or spectral(p)
    grid = grid or p.default_time_grid()
    state = gibbs_state(p, spec)
    evolution = original_frame_evolution(p, spec)
    # P|x> = +-i^n |~x>, so P m P^dag = s s^T * m[::-1, ::-1], s_x = (-1)^popcount(x)
    s = 1 - 2 * (np.bitwise_count(np.arange(len(state.rho))) & 1).astype(int)
    for m in (state.rho, evolution.hamiltonian):
        if not np.array_equal(np.outer(s, s) * m[::-1, ::-1], m):
            raise ValueError("the Gibbs state or H is not parity symmetric")
    series = run_minimized_detection(state, evolution, grid, bases, True)
    return series, series.bound_ref
