"""Variable-range transverse Ising chain: exact diagonalization with parity
bookkeeping, single-spin detection on ground and thermal states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import (BasisGrid, EvolutionSpec, TimeGrid, WitnessSeries,
                       local_trace_distances, run_minimized_detection)
from .states import BipartiteState
from .tensor import PAULI, BipartitionDims, pauli_vector


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

    @property
    def dims(self) -> BipartitionDims:
        return BipartitionDims(2, 2 ** (self.n_spins - 1))

    def default_time_grid(self) -> TimeGrid:
        return TimeGrid.linear(20.0 / self.j0, 400)


def build_chain_hamiltonian(p: ChainParams) -> np.ndarray:
    """H = -sum_{i<j} J0/|i-j|^alpha sx_i sx_j - B sum_i sy_i, open chain.

    Spin 0 (leftmost, slow index, highest bit) is the accessible subsystem A.
    Both terms are bit flips of the basis index x: sx_i sx_j sends |x> to
    |x ^ m_i ^ m_j> and sy_i sends it to +-i |x ^ m_i>, with m_i the bit of
    spin i. Every entry of H receives at most one term.
    """
    n = p.n_spins
    x = np.arange(2**n)
    masks = 1 << (n - 1 - np.arange(n))
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            h.real[x ^ masks[i] ^ masks[j], x] -= p.j0 / abs(i - j) ** p.alpha
        # sy|0> = i|1>, sy|1> = -i|0>
        h.imag[x ^ masks[i], x] -= np.where(x & masks[i], -p.b_field, p.b_field)
    return h


def _apply_parity(v: np.ndarray) -> np.ndarray:
    """(x) sigma_y applied to the rows of v (a vector or a matrix of columns):
    |x> -> i^n (-1)^popcount(x) |2^n - 1 - x>."""
    d = v.shape[0]
    n = d.bit_length() - 1
    phase = np.where(np.bitwise_count(np.arange(d)[::-1]) & 1, -(1j**n), 1j**n)
    return phase.reshape((d,) + (1,) * (v.ndim - 1)) * v[::-1]


@dataclass(frozen=True)
class SpectralData:
    energies: np.ndarray
    states: np.ndarray    # eigenvectors as columns
    parities: np.ndarray  # +-1 per eigenstate
    evolution: EvolutionSpec  # H with (energies, states) as its spectrum


def spectral(p: ChainParams) -> SpectralData:
    """Eigendecomposition with definite parity per eigenvector; degenerate
    energy blocks are rotated to diagonalize the parity operator."""
    h = build_chain_hamiltonian(p)
    w, v = np.linalg.eigh(h)
    scale = max(np.max(np.abs(w)), 1.0)
    # group numerically degenerate blocks
    splits = np.where(np.diff(w) > 1e-9 * scale)[0] + 1
    blocks = np.split(np.arange(len(w)), splits)
    for idx in blocks:
        if len(idx) > 1:
            sub = v[:, idx]
            _, rot = np.linalg.eigh(sub.conj().T @ _apply_parity(sub))
            v[:, idx] = sub @ rot
    flipped = _apply_parity(v)
    parities = np.sign(np.real(np.sum(v.conj() * flipped, axis=0)))
    # purify: project each vector onto its dominant parity sector, removing
    # the cross-sector contamination eigh leaves on quasi-degenerate doublets
    v = 0.5 * (v + flipped * parities[None, :])
    v = v / np.linalg.norm(v, axis=0)
    return SpectralData(w, v, parities, EvolutionSpec(h, spectrum=(w, v)))


def _dephased_components(spec: SpectralData) -> np.ndarray:
    """Ground state and its sigma_y^(1)-flipped partner as columns: the
    y-dephased ground state is the even mixture of the two (rank 2)."""
    psi0 = spec.states[:, 0]
    return np.column_stack([psi0, (PAULI[1] @ psi0.reshape(2, -1)).ravel()])


@dataclass(frozen=True)
class GroundStateResult:
    series: WitnessSeries
    d_mag: np.ndarray        # magnetization form (1/2)|m_y(t) - m_y(0)|
    negativity: float
    gap: float


def ground_state_detection(p: ChainParams, grid: TimeGrid | None = None,
                           spec: SpectralData | None = None) -> GroundStateResult:
    """Dephase spin 1 along y, evolve, and record the single-spin distance
    both as a trace distance and through the y-magnetization."""
    spec = spec or spectral(p)
    grid = grid or p.default_time_grid()
    gap = float(spec.energies[1] - spec.energies[0])
    if gap <= 1e-10:
        raise ValueError("ground state is (numerically) degenerate")
    psi0, chi = _dephased_components(spec).T
    r0 = psi0.reshape(2, -1)
    m0 = r0 @ r0.conj().T
    if abs(np.trace(m0).real - 1.0) > 1e-10:
        raise ValueError(f"ground-state norm {np.trace(m0).real} deviates from 1")
    # pure state: the negativity is the product of the Schmidt coefficients,
    # the square roots of the two eigenvalues of the qubit marginal
    neg = float(np.sqrt(max(np.linalg.det(m0).real, 0.0)))
    evolved = spec.evolution.evolve_vectors(chi[:, None], grid.samples)
    evolved = evolved.reshape(2, -1, len(grid.samples))
    mc = np.einsum("iat,jat->tij", evolved, evolved.conj())
    # rho'_A(t) = (m0 + mc)/2 and the undephased marginal stays m0, so
    # d(t) = ||m0 - mc||_1 / 4 and m_y(t) - m_y(0) = tr((mc - m0) sigma_y) / 2
    diff = m0 - mc
    d_t = local_trace_distances(diff) / 2
    d_mag = np.abs(pauli_vector(diff)[:, 1]) / 4
    series = WitnessSeries(grid.samples, d_t, bound_ref=neg)
    return GroundStateResult(series, d_mag, neg, gap)


def excitation_overlaps(p: ChainParams, spec: SpectralData | None = None):
    """Populations c_j of the y-dephased ground state in the energy
    eigenbasis, with parities."""
    spec = spec or spectral(p)
    ab = spec.states.conj().T @ _dephased_components(spec)
    c = 0.5 * np.sum(np.abs(ab) ** 2, axis=1)
    return list(zip(spec.energies, c, spec.parities))


def autocorrelation(p: ChainParams, grid: TimeGrid | None = None,
                    spec: SpectralData | None = None):
    """Global autocorrelation Tr{rho U rho U^dag} / Tr{rho^2} of the dephased
    ground state rho = (|psi0><psi0| + |chi><chi|)/2: the sum of |<x|U(t)|y>|^2
    over x, y in {psi0, chi}, over the same sum at t = 0."""
    spec = spec or spectral(p)
    grid = grid or p.default_time_grid()
    comps = _dephased_components(spec)
    evolved = spec.evolution.evolve_vectors(comps, grid.samples)
    overlaps = np.tensordot(comps.conj(), evolved, axes=(0, 0))  # <x|U(t)|y>
    purity = np.sum(np.abs(comps.conj().T @ comps) ** 2)
    return list(zip(grid.samples, np.sum(np.abs(overlaps) ** 2, axis=(0, 1)) / purity))


def gibbs_state(p: ChainParams, spec: SpectralData | None = None) -> BipartiteState:
    """rho = X diag(w) X^dag with Boltzmann weights w >= 0. It is positive
    for any X, so w stands in for its spectrum in the state checks even
    though the purified columns X are orthonormal only to rounding."""
    if p.kT <= 0:
        raise ValueError("Gibbs state needs kT > 0")
    spec = spec or spectral(p)
    w = np.exp(-(spec.energies - spec.energies[0]) / p.kT)
    w = w / w.sum()
    rho = (spec.states * w) @ spec.states.conj().T
    return BipartiteState._with_spectrum(rho, p.dims, w)


def thermal_detection(p: ChainParams, grid: TimeGrid | None = None,
                      bases: BasisGrid | None = None,
                      spec: SpectralData | None = None):
    """Minimized witness series and minimal dephasing disturbance of the
    Gibbs state. Returns (series, d_min_bound)."""
    spec = spec or spectral(p)
    grid = grid or p.default_time_grid()
    state = gibbs_state(p, spec)
    series = run_minimized_detection(state, spec.evolution, grid, bases)
    return series, series.bound_ref
