"""Local detection protocol: dephase-then-evolve witnesses, the basis
minimized variant, the classical-correlation witness and the Haar-averaged
signal estimate."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import measures
from .measures import BasisGrid, bloch_vectors, rows_times
from .states import (
    BipartiteState,
    ProjectiveBasis,
    dephase,
    dephasing_basis,
    dephasing_delta,
    haar_unitaries,
    local_eigenbasis,
)
from .tensor import (
    PAULI,
    BipartitionDims,
    _couples_sectors,
    local_sandwich,
    pauli_vector,
    require_sector_blocks,
    require_unitary,
    sector_blocks,
)


class WitnessBoundError(RuntimeError):
    """A locally observed distance exceeded its contractivity bound."""


@dataclass(frozen=True)
class TimeGrid:
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if (s.ndim != 1 or len(s) == 0 or s[0] != 0.0 or not np.all(np.isfinite(s))
                or np.any(np.diff(s) <= 0)):
            raise ValueError("time grid must be finite, start at 0 and strictly increase")
        object.__setattr__(self, "samples", s)

    @classmethod
    def linear(cls, t_max: float, n: int) -> "TimeGrid":
        return cls(np.linspace(0.0, t_max, n))


@dataclass
class EvolutionSpec:
    """Time-independent Hermitian generator (hbar = 1), diagonalized at
    construction unless its spectrum is given.

    `sectors` labels each basis state with the invariant subspace of H it
    belongs to, so that H is the direct sum of its sector blocks; without
    labels the whole space is one sector. Construction refuses a nonzero
    entry of H between two sectors, so the split is exact. The spectrum is
    one stacked `eigh` per sector size, and both evolutions work sector by
    sector.
    """

    hamiltonian: np.ndarray
    # the blocks spectral() returns, if the caller has already diagonalized H
    spectrum: list = field(default=None, repr=False, compare=False)
    sectors: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian)
        # a real symmetric generator stays real, and so does its eigh
        self.hamiltonian = h = h if h.dtype == np.float64 else np.asarray(h, dtype=complex)
        self.sectors = np.asarray(np.zeros(h.shape[:1], int) if self.sectors is None
                                  else self.sectors)
        blocks = require_sector_blocks(h, self.sectors)
        if self.spectrum is None:
            self.spectrum = [(rows, *np.linalg.eigh(b)) for rows, b in blocks]

    def spectral(self) -> list:
        """One stacked (rows, w, V) per sector size m, H = sum_s V_s diag(w_s)
        V_s^dag on its sector: rows (S, m) holds the basis indices of S
        sectors, w (S, m) and V (S, m, m) their spectra."""
        return self.spectrum

    def evolve_vectors(self, vecs, times) -> np.ndarray:
        """U(t) psi = V exp(-i w t) V^dag psi for the columns psi of `vecs`
        (d, k) at every time, sector by sector; shape (d, k, T)."""
        vecs = np.asarray(vecs)
        out = np.empty(vecs.shape + (len(times),), dtype=complex)
        for rows, w, v in self.spectral():
            coef = (np.conj(vecs[rows]).swapaxes(-1, -2) @ v).conj().swapaxes(-1, -2)
            phased = coef[..., None] * np.exp(-1j * np.multiply.outer(w, times))[
                ..., None, :]
            out[rows] = (v @ phased.reshape(*phased.shape[:-2], -1)).reshape(phased.shape)
        return out

    def marginal_series(self, mats, dims: BipartitionDims,
                        times: np.ndarray) -> np.ndarray:
        """A-marginals of U(t) X U(t)^dag for a stack of operators X, each
        block diagonal on the sectors of H.

        Returns shape (n_states, n_times, d_A, d_A). Works in the energy
        eigenbasis of each sector and never forms the full evolved matrices.
        An operator with a nonzero entry between two sectors is refused; an
        unlabelled EvolutionSpec of the same H evolves it.
        """
        times = np.asarray(times, dtype=float)
        dims.check(self.hamiltonian)
        stacks = self.spectral()
        for x in mats:  # each operator is read as it is, never stacked
            x = np.asarray(x)
            dims.check(x)
            if _couples_sectors(x, [(r, sector_blocks(x, r)) for r, _, _ in stacks]):
                raise ValueError("the operator couples two sectors of the generator; "
                                 "evolve it with an unlabelled EvolutionSpec")
        out = np.zeros((len(mats), len(times), dims.d_a, dims.d_a), dtype=complex)
        for rows, w, v in stacks:
            i_x, k_x = np.divmod(rows, dims.d_b)
            # E[s, i, x, a] = [i(x) = i] V_s[x, a]: the eigenvectors split by A index
            e = (i_x[:, None] == np.arange(dims.d_a)[:, None])[..., None] * v[:, None]
            # g[s, i, j, a, b], the weight of the eigenbasis coherence |a><b| of
            # sector s in the marginal entry <i|.|j>: E_s^T M conj(E_s) with
            # M[x, y] = [k(x) = k(y)]
            m = k_x[:, :, None] == k_x[:, None]
            g = e.swapaxes(-1, -2)[:, :, None] @ (m[:, None] @ e.conj())[:, None]
            ph = np.exp(-1j * np.multiply.outer(w, times))
            v_h, ph_b = np.conj(v).swapaxes(-1, -2), ph.conj()
            for xi, x in enumerate(mats):
                xt = v_h @ sector_blocks(np.asarray(x), rows).astype(
                    complex, copy=False) @ v
                # sum_b g X~ exp(i w_b t), then sum_a exp(-i w_a t) over the sectors
                y = (g * xt[:, None, None]).reshape(len(rows), -1, xt.shape[-1]) @ ph_b
                out[xi] += np.einsum("pijat,pat->tij", y.reshape(*g.shape[:-1], -1), ph)
        return out


@dataclass(frozen=True)
class WitnessSeries:
    """Local trace distances over a time grid and the bound they certify."""

    times: np.ndarray
    d_t: np.ndarray
    bound_ref: Optional[float] = None

    def __post_init__(self):
        d = np.asarray(self.d_t, dtype=float)
        if len(d) != len(self.times):
            raise ValueError("series length mismatch")
        if not np.all((-1e-12 <= d) & (d <= 1.0 + 1e-9)):  # refuses NaN too
            raise ValueError("trace distances must lie in [0, 1]")
        if self.bound_ref is not None and not np.all(d <= self.bound_ref + 1e-9):
            raise WitnessBoundError(
                f"local distance {d.max():.3e} exceeds bound "
                f"{self.bound_ref:.3e}"
            )
        object.__setattr__(self, "d_t", d)

    @property
    def d_max(self) -> float:
        return float(np.max(self.d_t))

    @property
    def argmax_time(self) -> float:
        """First sample within the 1e-12 floor of d_max, so that rounding
        noise on a flat series does not pick the time."""
        return float(self.times[int(np.argmax(self.d_t >= self.d_max - 1e-12))])


def local_trace_distances(diff: np.ndarray) -> np.ndarray:
    """(1/2)||M||_1 for a batch of Hermitian d_A x d_A matrices M. For a
    qubit, M = (tr M + m.sigma)/2 has eigenvalues (tr M +- |m|)/2, so
    ||M||_1 = max(|tr M|, |m|); eigvalsh otherwise."""
    if diff.shape[-1] == 2:
        tr = (diff[..., 0, 0] + diff[..., 1, 1]).real
        m = np.linalg.norm(pauli_vector(diff), axis=-1)
        return 0.5 * np.maximum(np.abs(tr), m)
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)


def run_local_detection(
    state: BipartiteState,
    evo: EvolutionSpec,
    grid: TimeGrid,
    basis: Optional[ProjectiveBasis] = None,
) -> WitnessSeries:
    """Evolve Delta = rho - Phi(rho), Phi the pinching in the A-marginal
    eigenbasis (or an explicitly supplied basis), and record
    d(t) = (1/2)||Tr_B U(t) Delta U(t)^dag||_1 per time; contractivity bounds
    it by D = (1/2)||Delta||_1, read from the blocks of this same Delta."""
    pinched = dephase(state, dephasing_basis(state, basis))
    delta = state.rho - pinched.rho
    margs = evo.marginal_series([delta], state.dims, grid.samples)
    return WitnessSeries(grid.samples, local_trace_distances(margs[0]),
                         bound_ref=measures.half_trace_norm(delta, pinched.sectors))


# N rho N = sum_p w_p n_a n_b S_p over the pairs p = (a, b), a <= b, with
# S_p = (sigma_a rho sigma_b + sigma_b rho sigma_a)/2 and N = n.sigma (x) I
_PAIRS = np.array([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)])
_PAIR_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])


def run_minimized_detection(
    state: BipartiteState,
    evo: EvolutionSpec,
    grid: TimeGrid,
    bases: Optional[BasisGrid] = None,
    mirror: bool = False,
) -> WitnessSeries:
    """max over t of the basis-minimized local distance, qubit probe only.

    Dephasing along Bloch axis n maps the evolved marginal to
    (R(t) + sum_p w_p n_a n_b S_p(t))/2, so once the marginal series of the
    six S_p are known, the local distance at every (n, t) is half the length
    of the Pauli vector of the traceless R(t) - sum_p w_p n_a n_b S_p(t), each
    time one objective of a Bloch search. The argmin axis n* of the bound caps
    the result at every time, so d_min(t) <= d_{n*}(t) <= D(n*) = D_min
    whatever the grid; it does not seed the refinement, which therefore never
    ends above the search's own result. `mirror` declares D(n) and every d_n(t)
    even in phi, so both searches cover phi in [0, pi] only.
    """
    start = measures._basis_angles(local_eigenbasis(state)[0])  # refuses d_A != 2
    bases = bases or BasisGrid()
    bound, bound_basis = measures.minimal_dephasing_disturbance(state, bases, start, mirror)
    conj = [local_sandwich(PAULI[a], state.rho, PAULI[b], state.dims)
            for a, b in _PAIRS]
    margs = evo.marginal_series(
        [state.rho] + [(m + m.conj().T) / 2 for m in conj], state.dims, grid.samples
    )
    paulis = pauli_vector(margs) / 2
    r_t, s_t = paulis[0], paulis[1:].transpose(1, 0, 2)  # (T, 3), (T, 6, 3)

    n_star = measures._basis_angles(bound_basis)
    # time chunks of at most about 2**17 (axis, time) pairs bound the memory
    chunk = max(1, 2**17 // (len(bases.angles()) + len(start)))
    d_min_t = np.empty(len(grid.samples))
    for lo in range(0, len(d_min_t), chunk):
        r_c, s_c = r_t[lo : lo + chunk], s_t[lo : lo + chunk]

        def local_distance(ang):
            n = bloch_vectors(ang)
            q = n[..., _PAIRS[:, 0]] * n[..., _PAIRS[:, 1]] * _PAIR_WEIGHTS
            return 0.5 * np.sqrt(np.square(r_c[:, None] - rows_times(q, s_c)).sum(-1))

        vals, _ = measures._bloch_search(local_distance, state, bases, start, mirror)
        d_min_t[lo : lo + chunk] = np.minimum(vals, local_distance(n_star[None])[:, 0])
    return WitnessSeries(grid.samples, d_min_t, bound_ref=bound)


def classical_correlation_witness(
    state: BipartiteState,
    perturbation: Optional[np.ndarray],
    evo: EvolutionSpec,
    grid: TimeGrid,
):
    """Compare the evolutions of the state and a locally rotated copy by
    evolving their difference Delta = rho - (V (x) I) rho (V (x) I)^dag for
    the unitary V = `perturbation`, by default sigma_x.

    An increase of the local trace distance above its initial value witnesses
    initial correlations (classical or quantum). Returns (series, detected).
    """
    v = require_unitary(PAULI[0] if perturbation is None else perturbation)
    if v.shape[0] != state.dims.d_a:
        raise ValueError("unitary dimension does not match subsystem A")
    delta = state.rho - local_sandwich(v, state.rho, v.conj().T, state.dims)
    margs = evo.marginal_series([delta], state.dims, grid.samples)
    series = WitnessSeries(grid.samples, local_trace_distances(margs[0]))
    return series, bool(series.d_max > series.d_t[0] + 1e-9)


def haar_coefficient(dims: BipartitionDims) -> float:
    da, db = dims.d_a, dims.d_b
    return (da**2 * db - db) / (da**2 * db**2 - 1)


# complex entries per batch of sampled unitaries, about 16 MB
HAAR_BATCH = 2**20


def haar_average_estimate(state: BipartiteState, n_samples: int, seed: int):
    """Monte-Carlo mean of the locally observed squared HS norm of Delta under
    Haar-random global unitaries, against the closed-form prediction
    c(d_A, d_B) ||Delta||_HS^2."""
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    delta = dephasing_delta(state)
    predicted = haar_coefficient(state.dims) * np.sum(np.abs(delta) ** 2)
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**63 - 1, size=n_samples)
    da, db, dim = state.dims.d_a, state.dims.d_b, state.dims.total
    chunk = max(1, HAAR_BATCH // dim**2)
    vals = np.empty(n_samples)
    for lo in range(0, n_samples, chunk):
        u = haar_unitaries(dim, seeds[lo : lo + chunk])
        rotated = u @ delta @ u.conj().transpose(0, 2, 1)
        loc = np.einsum("nxiyi->nxy", rotated.reshape(-1, da, db, da, db))
        vals[lo : lo + len(u)] = np.sum(np.abs(loc.reshape(len(u), -1)) ** 2, axis=1)
    mean = float(vals.mean())
    std_error = float(vals.std(ddof=1) / np.sqrt(n_samples))
    return mean, std_error, float(predicted)
