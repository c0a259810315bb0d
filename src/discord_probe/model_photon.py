"""Photonic models: polarization coupled to a discretized Lorentzian
frequency continuum, and the discrete two-channel ancilla state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import EvolutionSpec
from .states import BipartiteState
from .tensor import BipartitionDims, kron


@dataclass(frozen=True)
class PhotonParams:
    beta: float = 0.4
    delta_omega: float = 1.0
    omega0: float = 0.0
    t_prep: float = 1.0
    grid_span: float = 640.0   # half-width in units of delta_omega
    grid_points: int = 3201

    def __post_init__(self):
        if not 0.0 <= self.beta <= 0.5:
            raise ValueError("coherence amplitude must lie in [0, 1/2]")
        if not self.delta_omega > 0:
            raise ValueError("Lorentzian half-width delta_omega must be positive")
        if not self.t_prep >= 0:
            raise ValueError("preparation time t must be nonnegative")
        if self.grid_points < 101 or self.grid_points % 2 == 0:
            raise ValueError("frequency grid needs an odd point count >= 101")
        if self.grid_span < 40:
            raise ValueError("frequency grid span must cover >= 40 half-widths")
        if not np.all(np.isfinite([self.delta_omega, self.omega0, self.t_prep,
                                   self.grid_span])):
            raise ValueError("delta_omega, omega0, t_prep and grid_span must be finite")

    def frequencies(self) -> np.ndarray:
        half = self.grid_span * self.delta_omega
        return np.linspace(self.omega0 - half, self.omega0 + half, self.grid_points)

    def weights(self) -> np.ndarray:
        """Trapezoidal Lorentzian weights, renormalized to unit mass."""
        om = self.frequencies()
        g = (self.delta_omega / np.pi) / (
            self.delta_omega**2 + (om - self.omega0) ** 2
        )
        w = g.copy()
        w[0] *= 0.5
        w[-1] *= 0.5
        return w / w.sum()

    @property
    def dims(self) -> BipartitionDims:
        return BipartitionDims(2, self.grid_points)


def simulated_local_distance_photon(p: PhotonParams, taus: np.ndarray) -> np.ndarray:
    """d(tau) evaluated exactly on the discretized state.

    The dephased-state difference is -beta sum_w w sin(phi_w) sigma_y per
    frequency; the Michelson phase rotates each term by w*tau about z, so the
    local distance is the modulus of a frequency sum.
    """
    x = p.frequencies() - p.omega0
    c = p.weights() * np.sin(x * p.t_prep)
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    # Bloch-plane component: sum_w c_w e^{i w tau}, whose modulus is basis
    # rotation invariant and drops the common phase e^{i omega0 tau}. On the
    # uniform grid x_k = x_0 + k dx, k = a m + b factors the sum into
    # sum_a e^{i (x_0 + a m dx) tau} sum_b c_{am+b} e^{i b dx tau}: two
    # (T, ~sqrt(n)) exponential tables instead of one (T, n).
    n = len(c)
    m = int(np.ceil(np.sqrt(n)))
    dx = (x[-1] - x[0]) / (n - 1)
    coef = np.zeros((-(-n // m), m))  # c_{am+b} at [a, b], zero-padded
    coef.flat[:n] = c
    fine = np.exp(1j * np.outer(taus, dx * np.arange(m)))
    coarse = np.exp(1j * np.outer(taus, x[0] + m * dx * np.arange(len(coef))))
    return p.beta * np.abs(np.sum(coarse * (fine @ coef.T), axis=1))


def analytic_local_distance_photon(p: PhotonParams, tau):
    """(beta/2) |exp(-dw|t+tau|) - exp(-dw|t-tau|)| (continuum limit), per
    delay of an array `tau`, or a float for a scalar one."""
    dw, t = p.delta_omega, p.t_prep
    d = 0.5 * p.beta * np.abs(np.exp(-dw * np.abs(t + tau))
                              - np.exp(-dw * np.abs(t - tau)))
    return float(d) if np.ndim(d) == 0 else d


def analytic_disturbance_photon(p: PhotonParams) -> float:
    """beta * integral G(w) |sin((w - w0) t)| dw via adaptive quadrature with
    an analytic tail (mean |sin| = 2/pi against the Lorentzian tail mass).
    scipy loads here, at the first call, not with the package."""
    from scipy.integrate import quad

    a = p.delta_omega * p.t_prep
    if a == 0.0:
        return 0.0
    cut = 200.0
    # integrate half-period by half-period so |sin| stays smooth per panel
    edges = np.arange(0.0, cut, np.pi / a)
    edges = np.append(edges, cut)
    body = sum(
        quad(lambda x: abs(np.sin(a * x)) / (1.0 + x * x), lo, hi)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    tail = (2.0 / np.pi) * (np.pi / 2 - np.arctan(cut))
    return float(p.beta * (2.0 / np.pi) * (body + tail))


@dataclass(frozen=True)
class DiscreteAncillaParams:
    lam: float = 0.5
    theta: float = np.pi / 4

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("mixing weight must lie in [0, 1]")
        if not np.isfinite(self.theta):
            raise ValueError("polarization angle theta must be finite")


def build_discrete_state(p: DiscreteAncillaParams) -> BipartiteState:
    """lam |H,0><H,0| + (1 - lam) |theta,1><theta,1| on qubit x qubit."""
    h_vec = np.array([1.0, 0.0], dtype=complex)
    th_vec = np.array([np.cos(p.theta), np.sin(p.theta)], dtype=complex)
    rho = p.lam * kron(np.outer(h_vec, h_vec.conj()), np.diag([1.0, 0.0])) + (
        1 - p.lam
    ) * kron(np.outer(th_vec, th_vec.conj()), np.diag([0.0, 1.0]))
    return BipartiteState(rho, BipartitionDims(2, 2))


def channel_phase_evolution(rate: float = 1.0) -> EvolutionSpec:
    """Relative polarization phase accumulating in momentum channel |1> only."""
    h = kron(np.diag([0.0, rate]).astype(complex), np.diag([0.0, 1.0]))
    return EvolutionSpec(hamiltonian=h)
