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
from .tensor import BipartitionDims


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


def build_hamiltonian(p: IonParams) -> np.ndarray:
    """Coupling |g,n> <-> |e,n+1> with matrix element Omega_n / 2 (hbar = 1).

    Qubit ordering: index 0 = |g>, index 1 = |e>; A = qubit, B = phonons.
    """
    nb = p.n_max + 1
    h = np.zeros((2 * nb, 2 * nb), dtype=complex)
    n = np.arange(p.n_max)  # |g, n> at index n, |e, n+1> at nb + n + 1
    h[nb + n + 1, n] = h[n, nb + n + 1] = 0.5 * p.rabi(n)
    return h


def prepare_state(p: IonParams, t0: float,
                  evo: EvolutionSpec | None = None) -> BipartiteState:
    """Blue-sideband pulse of duration t0 on |g><g| (x) thermal motion: each
    sqrt(p_n)|g,n> evolves in its sector N = n, so psi = U(t0) sum_n sqrt(p_n)|g,n>
    gives the sector blocks psi_s psi_s^dag of rho, whose labels it carries."""
    if t0 < 0:
        raise ValueError("preparation time must be nonnegative")
    evo = evo or evolution(p)
    col = np.sqrt(np.r_[p.populations(), np.zeros(p.n_max + 1)])[:, None]
    psi = evo.evolve_vectors(col, [t0])[:, 0, 0]
    rho = np.zeros((len(psi),) * 2, dtype=complex)
    for rows, _, _ in evo.spectrum:
        u = psi[rows]
        rho[rows[:, :, None], rows[:, None, :]] = u[:, :, None] * u[:, None].conj()
    return BipartiteState(rho, p.dims, sectors=evo.sectors)


def evolution(p: IonParams) -> EvolutionSpec:
    """The sideband H conserves N = a^dag a - |e><e|, so the eigenspaces of
    N are exact sectors of H: {|g,n>, |e,n+1>} at N = n < n_max, and the
    singletons |e,0> (N = -1) and |g,n_max> (its partner |e,n_max+1> lies
    beyond the cutoff)."""
    n = np.arange(p.n_max + 1)
    return EvolutionSpec(build_hamiltonian(p), sectors=np.concatenate([n, n - 1]))


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
    """Full-matrix protocol: prepare at t0, dephase the qubit in {|g>,|e>},
    evolve and compare marginals over the detection grid."""
    evo = evolution(p)
    return run_local_detection(
        prepare_state(p, t0, evo), evo, t1_grid, basis=computational_basis(2)
    )


def signal_vs_temperature(p: IonParams, nbar_list) -> list:
    """Closed-form signal at t0 = t1 = pi / (2 Omega_0) per mean phonon
    number."""
    out = []
    for nbar in nbar_list:
        q = replace(p, nbar=float(nbar))
        t = np.pi / (2 * q.omega0)
        out.append((float(nbar), analytic_local_distance(q, t, t)))
    return out
