"""Trapped-ion blue-sideband model: thermal preparation, qubit-phonon
coupling and the closed-form local witness signals."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .protocol import EvolutionSpec, TimeGrid, WitnessSeries, run_local_detection
from .states import (
    BipartiteState,
    computational_basis,
    fock_cutoff,
    thermal_populations,
)
from .tensor import BipartitionDims, BlockDiagonal, Sectors


def _laguerre1(n_max: int, x: float) -> np.ndarray:
    """L_n^1(x) for n = 0 .. n_max, to the bit as scipy's eval_genlaguerre
    computes each one: L_1 = -x + 1 + 1, and its recurrence in p_n =
    L_n^1 / (n + 1), run here once up to n_max instead of once per n."""
    out = [1.0, -x + 1.0 + 1.0]
    d = -x / 2
    p = d + 1
    for k in range(1, n_max):
        d = -x / (k + 2) * p + k / (k + 2) * d
        p += d
        out.append((k + 2) * p)
    return np.array(out[:n_max + 1])


@dataclass(frozen=True)
class IonParams:
    omega: float = 1.0
    eta: float = 0.05
    nbar: float = 0.0
    lamb_dicke_limit: bool = True

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("Rabi frequency omega must be positive")
        if not self.eta > 0:
            raise ValueError("Lamb-Dicke parameter must be positive")
        if not self.nbar >= 0:
            raise ValueError("mean phonon number must be nonnegative")
        if not np.all(np.isfinite([self.omega, self.eta, self.nbar])):
            raise ValueError("omega, eta and nbar must be finite")

    @property
    def n_max(self) -> int:
        """Fock cutoff of the phonon mode, set by the thermal tail."""
        return fock_cutoff(self.nbar)

    def rabi(self, n: np.ndarray) -> np.ndarray:
        """Sideband Rabi frequency for the |g,n> <-> |e,n+1> transition."""
        n = np.asarray(n, dtype=float)
        if self.lamb_dicke_limit:
            return np.sqrt(n + 1) * self.eta * self.omega
        k = n.astype(int)
        lag = _laguerre1(int(k.max(initial=0)), self.eta**2)[k]
        return self.eta * np.exp(-self.eta**2) * lag / np.sqrt(n + 1) * self.omega

    @property
    def omega0(self) -> float:
        return float(self.rabi(np.array(0.0)))

    def populations(self) -> np.ndarray:
        return thermal_populations(self.nbar, self.n_max)

    @property
    def dims(self) -> BipartitionDims:
        return BipartitionDims(2, self.n_max + 1)


def _sectors(p: IonParams) -> Sectors:
    """The eigenspaces of the conserved N = a^dag a - |e><e|."""
    n = np.arange(p.n_max + 1)
    return Sectors(np.concatenate([n, n - 1]))  # |g,n> at index n, |e,n> at n_max + 1 + n


def evolution(p: IonParams) -> EvolutionSpec:
    """The sideband coupling |g,n> <-> |e,n+1>, matrix element Omega_n / 2
    (hbar = 1), built as its blocks on the sectors of N: {|g,n>, |e,n+1>} at
    N = n < n_max, and the singletons |e,0> (N = -1) and |g,n_max> (its
    partner lies beyond the cutoff). Index 0 is |g>, index 1 |e>; A = qubit,
    B = phonons."""
    pairs = np.zeros((p.n_max, 2, 2), dtype=complex)
    pairs[:, 0, 1] = pairs[:, 1, 0] = 0.5 * p.rabi(np.arange(p.n_max))
    return EvolutionSpec(BlockDiagonal([np.zeros((2, 1, 1), dtype=complex), pairs], _sectors(p)))


def prepare_state(p: IonParams, t0: float) -> BipartiteState:
    """Blue-sideband pulse of duration t0 on |g><g| (x) thermal motion, in
    closed form: U(t0)|g,n> = cos(Omega_n t0/2)|g,n> - i sin(Omega_n t0/2)|e,n+1>
    for n < n_max, and |g,n_max> (its partner lies beyond the cutoff) and
    |e,0> are left as they are. So psi = U(t0) sum_n sqrt(p_n)|g,n> gives the
    sector blocks psi_s psi_s^dag of rho, on labels equal to the generator's."""
    if t0 < 0:
        raise ValueError("preparation time must be nonnegative")
    amp, half = np.sqrt(p.populations()), 0.5 * p.rabi(np.arange(p.n_max)) * t0
    # |g,n> at index n, then |e,0> and |e,n+1> at n_max + 2 + n
    psi = np.r_[amp[:-1] * np.cos(half), amp[-1], 0.0, -1j * amp[:-1] * np.sin(half)]
    sectors = _sectors(p)
    blocks = [u[:, :, None] * u[:, None].conj() for u in (psi[r] for r in sectors.rows)]
    return BipartiteState(BlockDiagonal(blocks, sectors), p.dims)


def analytic_local_distance(p: IonParams, t0: float, t1):
    """(1/2) |sum_n p_n sin(Omega_n t0) sin(Omega_n t1)| per detection time
    of an array `t1`, or a float for a scalar one."""
    pn = p.populations()
    om = p.rabi(np.arange(len(pn)))
    d = 0.5 * np.abs(np.sin(np.multiply.outer(t1, om)) @ (pn * np.sin(om * t0)))
    return float(d) if np.ndim(d) == 0 else d


def analytic_disturbance(p: IonParams, t0: float) -> float:
    """sum_n p_n |sin(Omega_n t0 / 2) cos(Omega_n t0 / 2)|."""
    pn = p.populations()
    om = p.rabi(np.arange(len(pn)))
    return float(np.sum(pn * np.abs(np.sin(om * t0 / 2) * np.cos(om * t0 / 2))))


def simulated_local_distance(p: IonParams, t0: float, t1_grid: TimeGrid) -> WitnessSeries:
    """The protocol on the sector blocks: prepare at t0, dephase the qubit in
    {|g>,|e>}, evolve and compare marginals over the detection grid."""
    return run_local_detection(prepare_state(p, t0), evolution(p), t1_grid,
                               computational_basis(2))


def signal_vs_temperature(p: IonParams, nbar_list) -> list:
    """Closed-form signal at t0 = t1 = pi / (2 Omega_0) per mean phonon
    number."""
    out = []
    for nbar in nbar_list:
        q = replace(p, nbar=float(nbar))
        t = np.pi / (2 * q.omega0)
        out.append((float(nbar), analytic_local_distance(q, t, t)))
    return out
