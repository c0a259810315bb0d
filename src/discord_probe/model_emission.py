"""Spontaneous emission into a discretized flat band: single-excitation
dynamics, transient atom-field negativity and the (null) local signal."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .protocol import EvolutionSpec
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


@dataclass(frozen=True)
class AmplitudeSet:
    u00: complex
    uk0: np.ndarray

    def __post_init__(self):
        norm = abs(self.u00) ** 2 + float(np.sum(np.abs(self.uk0) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"single-excitation norm {norm} deviates from 1")


def sector_hamiltonian(p: EmissionParams) -> np.ndarray:
    """Hamiltonian on the single-excitation sector; index 0 is |e,0>,
    index k >= 1 is |g,k>."""
    n = p.n_modes
    h = np.zeros((n + 1, n + 1), dtype=complex)
    h[0, 0] = p.atomic_gap
    h[np.arange(1, n + 1), np.arange(1, n + 1)] = p.mode_frequencies()
    g = p.couplings()
    h[0, 1:] = g
    h[1:, 0] = g
    return h


@lru_cache(maxsize=8)
def _sector_evolution(p: EmissionParams) -> EvolutionSpec:
    return EvolutionSpec(sector_hamiltonian(p))


def _evolve_excited(p: EmissionParams, t: float) -> np.ndarray:
    """U(t)|e,0> in the sector basis."""
    return _sector_evolution(p).evolve_vectors(np.eye(p.n_modes + 1, 1), [t])[:, 0, 0]


def single_excitation_evolve(p: EmissionParams, t: float) -> AmplitudeSet:
    """Exact sector evolution of |e,0>."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    p.check_regime()
    psi = _evolve_excited(p, t)
    return AmplitudeSet(complex(psi[0]), psi[1:])


def embedded_pure_state(p: EmissionParams, t0: float) -> BipartiteState:
    """Dense atom (x) field density matrix of the transient pure state (field:
    vacuum plus n one-photon states), the reference for transient_negativity."""
    amp = single_excitation_evolve(p, t0)
    nf = p.n_modes + 1
    psi = np.zeros(2 * nf, dtype=complex)
    psi[nf] = amp.u00            # |e> (x) |vac>, atom index 1 is |e>
    psi[1 : p.n_modes + 1] = amp.uk0  # |g> (x) |k>
    return BipartiteState(np.outer(psi, psi.conj()), BipartitionDims(2, nf))


def transient_negativity(p: EmissionParams, t0: float) -> float:
    """Negativity of |e>(x)u00|vac> + |g>(x)sum_k u_k0|k>: |vac> is orthogonal
    to every |k>, so |u00| and ||u_k0|| are the Schmidt coefficients and the
    negativity is their product (Vidal & Werner, PRA 65, 032314 (2002))."""
    amp = single_excitation_evolve(p, t0)
    return abs(amp.u00) * float(np.linalg.norm(amp.uk0))


def emission_local_signal(p: EmissionParams, t0: float, t1: float) -> float:
    """Local detection protocol: dephase the atom in {|e>,|g>} at t0, evolve
    to t1 and compare atomic marginals.

    The atomic marginal is diagonal in {|e>,|g>} throughout (the dephasing
    difference holds only |e,0><g,k| cross terms), so the trace distance is
    the excited-population deviation.
    """
    if t1 < t0:
        raise ValueError("detection time must not precede preparation time")
    amp = single_excitation_evolve(p, t0)
    row = _evolve_excited(p, t0 - t1).conj()  # <e,0| U(t1 - t0)
    return abs(2 * (amp.u00 * row[0] * np.conj(row[1:] @ amp.uk0)).real)


def structured_params(p: EmissionParams) -> EmissionParams:
    """Variant with the upper half of the band decoupled (structured
    environment)."""
    mask = tuple(
        0.0 if f > p.atomic_gap else 1.0 for f in p.mode_frequencies()
    )
    return EmissionParams(
        n_modes=p.n_modes,
        half_bandwidth=p.half_bandwidth,
        coupling=p.coupling,
        atomic_gap=p.atomic_gap,
        coupling_mask=mask,
    )
