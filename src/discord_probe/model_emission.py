"""Spontaneous emission into a discretized flat band. In the single-excitation
sector the transient atom-field negativity and the (null) local signal are
functions of one number, the survival amplitude a(t) = <e,0|U(t)|e,0>."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .states import BipartiteState
from .tensor import BipartitionDims


@dataclass(frozen=True)
class EmissionParams:
    n_modes: int = 401
    half_bandwidth: float = 20.0     # Delta; band covers [gap-Delta, gap+Delta]
    coupling: float | None = None    # uniform g; derived from rate if None
    atomic_gap: float = 0.0
    coupling_mask: tuple | None = None

    def __post_init__(self):
        if self.n_modes < 2 or self.n_modes % 2 == 0:
            raise ValueError("need an odd mode count >= 3")
        if not self.half_bandwidth > 0:
            raise ValueError("half_bandwidth must be positive")
        given = [self.half_bandwidth, self.atomic_gap, *(self.coupling_mask or ())]
        if self.coupling is not None:
            given.append(self.coupling)
        if not np.all(np.isfinite(given)):
            raise ValueError("half_bandwidth, coupling, atomic_gap and the coupling "
                             "mask must be finite")
        if self.coupling is None:
            # rate 1 by construction: Gamma = 2 pi g^2 density
            g = float(np.sqrt(1.0 / (2 * np.pi * self.mode_density)))
            object.__setattr__(self, "coupling", g)
        if self.coupling_mask is not None and len(self.coupling_mask) != self.n_modes:
            raise ValueError("coupling mask length must equal the mode count")

    @property
    def mode_density(self) -> float:
        return self.n_modes / (2 * self.half_bandwidth)

    @property
    def rate(self) -> float:
        """Flat-band golden-rule decay rate Gamma = 2 pi g^2 density."""
        return 2 * np.pi * self.coupling**2 * self.mode_density

    def mode_frequencies(self) -> np.ndarray:
        return self.atomic_gap + np.linspace(
            -self.half_bandwidth, self.half_bandwidth, self.n_modes
        )

    def couplings(self) -> np.ndarray:
        g = np.full(self.n_modes, self.coupling)
        if self.coupling_mask is not None:
            g = g * np.asarray(self.coupling_mask, dtype=float)
        return g

    def check_regime(self):
        if self.rate > self.half_bandwidth / 20 * (1 + 1e-9):
            warnings.warn(
                "decay rate is not small against the bandwidth; "
                "exponential-decay validity is degraded",
                stacklevel=2,
            )


def sector_hamiltonian(p: EmissionParams) -> np.ndarray:
    """Real Hamiltonian on the single-excitation sector; index 0 is |e,0>,
    index k >= 1 is |g,k>."""
    n = p.n_modes
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = p.atomic_gap
    h[np.arange(1, n + 1), np.arange(1, n + 1)] = p.mode_frequencies()
    g = p.couplings()
    h[0, 1:] = g
    h[1:, 0] = g
    return h


def _coupled_sector(p: EmissionParams) -> np.ndarray:
    """Sector indices of |e,0> and of the modes with g_k != 0."""
    return np.flatnonzero(np.concatenate([[1.0], p.couplings()]))


@lru_cache(maxsize=8)
def _sector_spectrum(p: EmissionParams):
    """(w, V), the eigh of H on the coupled sub-sector. A mode with g_k = 0
    is an exact eigenvector (w_k, |g,k>) orthogonal to |e,0>: it adds q_k = 0
    to a(t) and no amplitude to U(t)|e,0>, so dropping it is exact."""
    keep = _coupled_sector(p)
    return np.linalg.eigh(sector_hamiltonian(p)[np.ix_(keep, keep)])


def survival_amplitude(p: EmissionParams, t):
    """a(t) = <e,0|U(t)|e,0> = sum_k q_k exp(-i w_k t), q_k = |V_0k|^2 over the
    coupled sector's spectrum (w, V), and the one-photon weight 1 - |a|^2,
    broadcast over t. The weight is 4 sum_k q_k sin^2(w~_k t/2) - |a~ - 1|^2
    for the centred w~ = w - sum q w (|a~| = |a|), not a difference of numbers
    near 1."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    p.check_regime()
    w, v = _sector_spectrum(p)
    q = np.abs(v[0]) ** 2
    if abs(q.sum() - 1.0) > 1e-10:
        raise ValueError(f"spectral weights of |e,0> sum to {q.sum()}, not 1")
    mean = q @ w
    arg = np.multiply.outer(t, w - mean)
    centred = np.exp(-1j * arg) @ q
    weight = 4 * np.sin(arg / 2) ** 2 @ q - np.abs(centred - 1) ** 2
    return centred * np.exp(-1j * mean * t), np.maximum(weight, 0.0)


def embedded_pure_state(p: EmissionParams, t0: float) -> BipartiteState:
    """Dense atom (x) field density matrix of U(t0)|e,0> (field: vacuum plus
    n one-photon states), the reference for transient_negativity."""
    keep = _coupled_sector(p)
    w, v = _sector_spectrum(p)
    sector = v @ (np.exp(-1j * w * t0) * v[0])  # U(t0)|e,0> = V exp(-i w t0) V^T|e,0>
    nf = p.n_modes + 1
    psi = np.zeros(2 * nf, dtype=complex)  # decoupled modes stay exactly 0
    psi[nf] = sector[0]   # |e> (x) |vac>, atom index 1 is |e>
    psi[keep[1:]] = sector[1:]  # |g> (x) |k> of the coupled modes
    return BipartiteState(np.outer(psi, psi.conj()), BipartitionDims(2, nf))


def transient_negativity(p: EmissionParams, t0):
    """Negativity of |e>(x)a|vac> + |g>(x)sum_k u_k|k>: |vac> is orthogonal
    to every |k>, so |a| and ||u_k|| are the Schmidt coefficients and the
    negativity is their product (Vidal & Werner, PRA 65, 032314 (2002))."""
    a, weight = survival_amplitude(p, t0)
    return np.abs(a) * np.sqrt(weight)


def emission_local_signal(p: EmissionParams, t0, t1):
    """Local detection protocol: dephase the atom in {|e>,|g>} at t0, evolve
    to t1 and compare atomic marginals. The marginal stays diagonal, so the
    distance is the excited-population deviation <e,0|U Delta U^dag|e,0>,
    U = U(t1 - t0), Delta = a(t0)|e,0><phi| + h.c., |phi> = sum_k u_k|g,k>.
    As <e,0|U|phi> = a(t1) - a(t1 - t0) a(t0), it vanishes wherever a obeys
    the semigroup law a(t0 + tau) = a(tau) a(t0) of memoryless decay."""
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    if np.any(t1 < t0):
        raise ValueError("detection time must not precede preparation time")
    times = np.stack(np.broadcast_arrays(t0, t1 - t0, t1))
    a0, a_tau, a1 = survival_amplitude(p, times)[0]
    return np.abs(2 * (a0 * a_tau * np.conj(a1 - a_tau * a0)).real)


def structured_params(p: EmissionParams) -> EmissionParams:
    """Variant with the upper half of the band decoupled (structured
    environment)."""
    mask = tuple(
        0.0 if f > p.atomic_gap else 1.0 for f in p.mode_frequencies()
    )
    return replace(p, coupling_mask=mask)
