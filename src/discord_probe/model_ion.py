"""Trapped-ion blue-sideband model: thermal preparation, qubit-phonon
coupling and the closed-form local witness signals."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import eval_genlaguerre

from .protocol import EvolutionSpec, TimeGrid, WitnessSeries, run_local_detection
from .states import (
    BipartiteState,
    computational_basis,
    fock_cutoff,
    thermal_populations,
)
from .tensor import BipartitionDims


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

    @property
    def n_max(self) -> int:
        """Fock cutoff of the phonon mode, set by the thermal tail."""
        return fock_cutoff(self.nbar)

    def rabi(self, n: np.ndarray) -> np.ndarray:
        """Sideband Rabi frequency for the |g,n> <-> |e,n+1> transition."""
        n = np.asarray(n, dtype=float)
        if self.lamb_dicke_limit:
            return np.sqrt(n + 1) * self.eta * self.omega
        lag = eval_genlaguerre(n.astype(int), 1, self.eta**2)
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
    """Blue-sideband pulse of duration t0 on |g><g| (x) thermal motion: the
    columns sqrt(p_n)|g,n> evolve as vectors and rho = psi psi^dag."""
    if t0 < 0:
        raise ValueError("preparation time must be nonnegative")
    cols = np.eye(2 * (p.n_max + 1), p.n_max + 1) * np.sqrt(p.populations())
    evo = evo or evolution(p)
    psi = evo.evolve_vectors(cols, [t0])[:, :, 0]
    gram = np.linalg.eigvalsh(psi.conj().T @ psi)  # the nonzero spectrum of rho
    return BipartiteState._with_spectrum(psi @ psi.conj().T, p.dims, gram)


def evolution(p: IonParams) -> EvolutionSpec:
    return EvolutionSpec(hamiltonian=build_hamiltonian(p))


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
