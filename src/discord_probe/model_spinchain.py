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
    energies: np.ndarray  # ascending; states[:, j] has energy state_energies[j]
    parities: np.ndarray  # +-1 per eigenstate
    # the rotated frame's real H on its even- and odd-popcount sectors, stacked:
    rows: np.ndarray  # (2, m) basis indices of each sector
    w: np.ndarray  # (2, m) their energies, ascending in each sector
    v: np.ndarray  # (2, m, m) their real eigenvectors as columns, each one even
    # or odd under site reversal (the + or - block of spectral)
    order: np.ndarray  # eigenstate j is column order[j] of the sectors' eigenvectors

    @cached_property
    def states(self) -> np.ndarray:
        """The eigenvectors as columns in the original frame. R^dag acts site
        by site, |0> -> (|0> + i|1>)/sqrt2 and |1> -> (|1> + i|0>)/sqrt2, by
        adding swapped components, which keeps each column's parity exact."""
        d, n = len(self.order), len(self.order).bit_length() - 1
        out = np.zeros((d, *self.v.shape[:2]), dtype=complex)
        out[self.rows, np.arange(2)[:, None]] = self.v
        out = out.reshape(d, d)[:, self.order]
        for i in range(n):
            a = out.reshape(2**i, 2, -1)
            out = a + 1j * a[:, ::-1]
        return out.reshape(d, d) * 0.5 ** (n / 2)

    @cached_property
    def state_energies(self) -> np.ndarray:
        """The energy of each column of `states`, which `energies` reorders."""
        return self.w.ravel()[self.order]


def spectral(p: ChainParams) -> SpectralData:
    """Eigendecomposition in the rotated frame, where H is real and the parity
    (x) sigma_y is (x) sigma_z. H keeps the even- and odd-popcount sectors,
    parity +1 and -1, apart, as its couplings flip spins in pairs. The open
    chain is also symmetric under site reversal, the bit reversal `rev` of the
    basis, which keeps popcount. So in each parity sector the palindromes |x>
    and the pairs (|x> +- |rev x>)/sqrt2, x < rev x, split H into a real +
    and - block: four real eighs in all. Each sector's energies w ascend, the
    + half first on an exact tie. `energies` ascend too, and in a block of
    numerically degenerate ones (1e-9 of the scale apart) parity -1 is first."""
    h = build_chain_hamiltonian(p, rotated=True)
    n, x = p.n_spins, np.arange(len(h))
    rev = ((x[:, None] >> np.arange(n)) & 1) @ (1 << np.arange(n)[::-1])  # site reversal
    r = np.argsort(np.bitwise_count(x) & 1, kind="stable").reshape(2, -1)
    m = r.shape[1]
    pos = np.empty_like(x)
    pos[r] = np.arange(m)  # each basis state's place in its sector
    w, v = np.empty((2, m)), np.zeros((2, m, m))
    for s, rows in enumerate(r):
        pal, a = rows[rev[rows] == rows], rows[rows < rev[rows]]
        b, k, kp = np.concatenate([pal, a]), len(pal), m - len(a)
        h_bb, h_br = h[b[:, None], b], h[b[:, None], rev[b]]
        # + on |pal> and (|a> + |rev a>)/sqrt2, where h_bb + h_br counts a palindrome twice
        hp = h_bb + h_br
        hp[:k, :k] *= 0.5
        hp[:k, k:] *= np.sqrt(0.5)
        hp[k:, :k] *= np.sqrt(0.5)
        wp, up = np.linalg.eigh(hp)
        wm, um = np.linalg.eigh(h_bb[k:, k:] - h_br[k:, k:])  # - on (|a> - |rev a>)/sqrt2
        # back on the sector's rows: one scaled copy or negation per row
        up[k:] *= np.sqrt(0.5)
        um *= np.sqrt(0.5)
        vs = np.zeros((m, m))
        vs[pos[b], :kp] = vs[pos[rev[b]], :kp] = up
        vs[pos[a], kp:], vs[pos[rev[a]], kp:] = um, -um
        ws = np.concatenate([wp, wm])
        o = np.argsort(ws, kind="stable")
        w[s] = ws[o]
        np.take(vs, o, axis=1, out=v[s])
    parity = np.repeat([1, -1], m)  # even popcount (rows[0]) first
    order = np.argsort(w, axis=None, kind="stable")
    energies = w.ravel()[order]
    gaps = np.diff(energies, prepend=energies[0]) > 1e-9 * max(np.max(np.abs(w)), 1.0)
    order = order[np.lexsort((parity[order], np.cumsum(gaps)))]
    return SpectralData(energies, parity[order], r, w, v, order)


def original_frame_evolution(p: ChainParams, spec: SpectralData) -> EvolutionSpec:
    """H in the original frame, with spec.states and their own energies."""
    rows = np.arange(len(spec.order))[None]  # one sector, the whole space
    return EvolutionSpec(build_chain_hamiltonian(p), spectrum=[
        (rows, spec.state_energies[None], spec.states[None])])


def _ground_sector(spec: SpectralData):
    """(s, psi0, chi), rotated frame: the sector s of the ground vector, psi0
    and chi = sigma_z^(0) psi0 on the rows of that sector. Spin 0 is up in
    the first half of a sector's (ascending) rows."""
    s, k = divmod(int(spec.order[0]), spec.w.shape[1])
    psi0 = spec.v[s, :, k]
    return s, psi0, psi0 * np.repeat([1.0, -1.0], len(psi0) // 2)


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
    s, psi0, chi = _ground_sector(spec)
    half = len(psi0) // 2
    p_up, p_down = psi0[:half] @ psi0[:half], psi0[half:] @ psi0[half:]
    if abs(p_up + p_down - 1.0) > 1e-10:
        raise ValueError(f"ground-state norm {p_up + p_down} deviates from 1")
    # pure state: the negativity is the product of the Schmidt coefficients
    neg = float(np.sqrt(p_up * p_down))
    # Re and Im of (chi V)_a exp(-i w_a t) side by side: the complex exp's bits
    wt = np.multiply.outer(spec.w[s], -grid.samples)
    phased = np.empty((*wt.shape, 2))
    np.cos(wt, out=phased[..., 0])
    np.sin(wt, out=phased[..., 1])
    phased *= (chi @ spec.v[s])[:, None, None]
    amp = spec.v[s, :half] @ phased.reshape(len(wt), -1)  # spin-up amplitudes of U(t) chi
    np.square(amp, out=amp)
    d_t = np.abs(p_up - amp.reshape(half, -1, 2).sum(axis=(0, 2))) / 2
    series = WitnessSeries(grid.samples, d_t, bound_ref=neg)
    return GroundStateResult(series, d_t, neg, gap)


def excitation_overlaps(p: ChainParams, spec: SpectralData | None = None):
    """Populations c_j of the y-dephased ground state in the energy
    eigenbasis, with parities; only the ground vector's sector is populated."""
    spec = spec or spectral(p)
    s, psi0, chi = _ground_sector(spec)
    c = np.zeros(spec.w.shape)
    c[s] = 0.5 * (np.square(psi0 @ spec.v[s]) + np.square(chi @ spec.v[s]))
    return list(zip(spec.state_energies, c.ravel()[spec.order], spec.parities))


def gibbs_state(p: ChainParams, spec: SpectralData | None = None) -> BipartiteState:
    """rho = X diag(w) X^dag with Boltzmann weights w >= 0. It is positive
    for any X, so w stands in for its spectrum in the state checks even
    though the columns X (spec.states) are orthonormal only to rounding."""
    if p.kT <= 0:
        raise ValueError("Gibbs state needs kT > 0")
    spec = spec or spectral(p)
    w = np.exp(-(spec.state_energies - spec.energies[0]) / p.kT)
    w = w / w.sum()
    rho = (spec.states * w) @ spec.states.conj().T
    return BipartiteState(rho, p.dims, spectrum=w)


def thermal_detection(p: ChainParams, grid: TimeGrid | None = None,
                      bases: BasisGrid | None = None,
                      spec: SpectralData | None = None):
    """Minimized witness series and minimal dephasing disturbance of the
    Gibbs state. Returns (series, d_min_bound). The parity P = (x) sigma_y
    maps the probe's axis (x, y, z) to the basis of (x, -y, z), and the time
    reversal T = (x) sigma_x K, K the complex conjugation, to that of
    (-x, -y, z). Once rho and H are checked to equal their P and T
    conjugates, D(n) depends on |n_x|, |n_y| and |n_z| only, fold 4; T maps
    d_n(t) to d_n'(-t), so every d_n(t) is only even in phi, fold 2."""
    spec = spec or spectral(p)
    grid = grid or p.default_time_grid()
    state = gibbs_state(p, spec)
    evolution = original_frame_evolution(p, spec)
    # P|x> = +-i^n |~x>, so P m P^dag = s s^T * m[::-1, ::-1], s_x = (-1)^popcount(x);
    # (x) sigma_x |x> = |~x>, so T m T^-1 = conj(m[::-1, ::-1])
    s = 1 - 2 * (np.bitwise_count(np.arange(len(state.rho))) & 1).astype(int)
    for m in (state.rho, evolution.hamiltonian):
        if not np.array_equal(np.outer(s, s) * m[::-1, ::-1], m):
            raise ValueError("the Gibbs state or H is not parity symmetric")
        if not np.array_equal(np.conj(m[::-1, ::-1]), m):
            raise ValueError("the Gibbs state or H is not time-reversal symmetric")
    series = run_minimized_detection(state, evolution, grid, bases, (4, 2))
    return series, series.bound_ref
