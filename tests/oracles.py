"""Dense reference implementations that the fast kernels are checked against.

These are the full-dimension forms of quantities the package computes in a
reduced form: the qubit-probe dephasing disturbance D(n) from an `eigvalsh`
of the 2d_B x 2d_B operator rho - N rho N, the Bloch search over the whole
grid (or its phi columns in [0, pi]) with no pruning, the unmirrored pruning
table on its own, the CSV text one row at a time, the basis-minimized local
distance d_min(t) from a separate grid-and-refine search at every time sample, the full trace norm, the Bloch-axis pinching, the pinching and local
unitaries as products with kron(op, I_B), the dephasing and comparison
witnesses from two separately evolved states, the emission model on
the full atom (x) modes space, the spin-chain Hamiltonian from dense
Pauli strings and its parity as the dense operator (x) sigma_y, the
chain's spectrum from one dense complex `eigh` with degenerate blocks rotated
to definite parity, its ground-state detection from 2x2 marginals and a
whole-space evolution, the spin-chain autocorrelation (through the
original-frame evolution, and from its definition), the dense photon state with
its coherence decay, the closed-form Michelson propagator, the ion state
prepared as a full-matrix conjugation, the ion witness from Delta evolved
as a full matrix by expm, the emission signal from the
eigenvector row formula, the Haar-average estimate one sampled unitary at a
time and the photon frequency sum with one exponential per (delay,
frequency) pair. Small helpers only the tests use (one seeded Haar
unitary, the truncated thermal oscillator state, the locally rotated state,
partial trace over A, purity, squared HS distance) live here too.
"""

from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm

from conftest import SX, SY, SZ
from discord_probe import model_spinchain
from discord_probe.measures import BasisGrid, _basis_angles, _chord, bloch_vectors
from discord_probe.protocol import EvolutionSpec, WitnessSeries
from discord_probe.states import BipartiteState, local_eigenbasis, thermal_populations
from discord_probe.tensor import (BipartitionDims, evolve, kron, local_sandwich,
                                  partial_trace_b, require_square)


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic in the seed: the QR of one
    Ginibre matrix drawn from its own default_rng(seed), with the phases of
    R's diagonal moved into Q."""
    g = np.random.default_rng(seed).standard_normal((2, dim, dim))
    q, r = np.linalg.qr((g[0] + 1j * g[1]) / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def thermal_fock_state(nbar: float, n_max: int) -> np.ndarray:
    """Truncated thermal oscillator state, renormalized to unit trace."""
    return np.diag(thermal_populations(nbar, n_max)).astype(complex)


def partial_trace_a(rho: np.ndarray, dims: BipartitionDims) -> np.ndarray:
    rho = require_square(rho)
    dims.check(rho)
    r = rho.reshape(dims.d_a, dims.d_b, dims.d_a, dims.d_b)
    return np.trace(r, axis1=0, axis2=2)


def purity(state: BipartiteState) -> float:
    return float(np.trace(state.rho @ state.rho).real)


def hs_distance_sq(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Hilbert-Schmidt distance Tr (a-b)^dag (a-b)."""
    a, b = require_square(a), require_square(b)
    if a.shape != b.shape:
        raise ValueError("operator dimensions differ")
    d = a - b
    return float(np.sum(np.abs(d) ** 2))


def trace_norm(x: np.ndarray) -> float:
    """Full trace norm Tr sqrt(X^dag X) (sum of singular values)."""
    x = require_square(x)
    return float(np.sum(np.linalg.svd(x, compute_uv=False)))


def dephase_qubit_bloch(state: BipartiteState, n: np.ndarray) -> np.ndarray:
    """Pinching along Bloch axis n for a qubit probe, returned as a raw matrix.

    Uses sum_i Pi_i rho Pi_i = (rho + N rho N)/2 with N = (n.sigma) (x) I.
    """
    big_n = kron(n[0] * SX + n[1] * SY + n[2] * SZ, np.eye(state.dims.d_b))
    return 0.5 * (state.rho + big_n @ state.rho @ big_n)


def dephase_kron(state: BipartiteState, basis) -> np.ndarray:
    """Pinching sum_i (Pi_i (x) I) rho (Pi_i (x) I) from d x d products."""
    eye_b = np.eye(state.dims.d_b)
    out = np.zeros_like(state.rho)
    for proj in basis.projectors():
        p = kron(proj, eye_b)
        out += p @ state.rho @ p
    return out


def dephasing_disturbance_dense(state: BipartiteState, basis) -> list:
    """D = (1/2)||rho - Phi(rho)||_1 from the `dephase_kron` pinching and an
    `eigvalsh` trace norm and, for a qubit probe, also as the singular-value
    sum of the d_B x d_B block <v_0| rho |v_1> of the basis kets v_0, v_1."""
    delta = state.rho - dephase_kron(state, basis)
    out = [0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))]
    if state.dims.d_a == 2:
        v0, v1 = basis.vectors.T
        r = state.rho.reshape(2, state.dims.d_b, 2, state.dims.d_b)
        block = np.einsum("a,axby,b->xy", v0.conj(), r, v1)
        out.append(float(np.sum(np.linalg.svd(block, compute_uv=False))))
    return out


def apply_local_unitary(state: BipartiteState, u_a: np.ndarray) -> BipartiteState:
    """The state (u_a (x) I) rho (u_a (x) I)^dag, from the A-index contraction
    of `local_sandwich`."""
    rho = local_sandwich(u_a, state.rho, np.conj(u_a).T, state.dims)
    return BipartiteState(rho, state.dims)


def local_unitary_kron(state: BipartiteState, u_a: np.ndarray) -> np.ndarray:
    """(u_a (x) I) rho (u_a (x) I)^dag from d x d products."""
    u = kron(u_a, np.eye(state.dims.d_b))
    return u @ state.rho @ u.conj().T


def two_state_distances(evo: EvolutionSpec, rho: np.ndarray, sigma: np.ndarray,
                        dims: BipartitionDims, times: np.ndarray) -> np.ndarray:
    """(1/2)||Tr_B U(t) rho U(t)^dag - Tr_B U(t) sigma U(t)^dag||_1 per time,
    from the two states evolved apart as full matrices with U(t) = expm(-iHt):
    the dephasing witness for sigma = Phi(rho), the comparison witness for a
    rotated copy."""
    out = []
    for t in times:
        u = expm(-1j * evo.hamiltonian * t)
        out.append(0.5 * trace_norm(partial_trace_b(u @ rho @ u.conj().T, dims)
                                    - partial_trace_b(u @ sigma @ u.conj().T, dims)))
    return np.array(out)


def prepare_ion_state_dense(p, t0: float) -> np.ndarray:
    """Blue-sideband preparation of `IonParams` p as U(t0) rho0 U(t0)^dag on
    the full matrix rho0 = |g><g| (x) thermal motion."""
    from discord_probe.model_ion import build_hamiltonian

    rho0 = kron(np.diag([1.0, 0.0]), thermal_fock_state(p.nbar, p.n_max))
    return evolve(rho0, build_hamiltonian(p), t0)


def ion_local_distance_dense(p, t0: float, grid) -> WitnessSeries:
    """`model_ion.simulated_local_distance` on full matrices, apart from
    `EvolutionSpec`: the state from `prepare_ion_state_dense`, pinched in
    {|g>, |e>} by d x d products, and Delta = rho - Phi(rho) carried along a
    uniform time grid by U(dt) = expm(-i H dt), one step per sample."""
    from discord_probe.model_ion import build_hamiltonian
    from discord_probe.states import computational_basis

    state = BipartiteState(prepare_ion_state_dense(p, t0), p.dims)
    delta = state.rho - dephase_kron(state, computational_basis(2))
    steps = np.diff(grid.samples)
    assert np.allclose(steps, steps[0], rtol=1e-12, atol=0)
    u = expm(-1j * build_hamiltonian(p) * steps[0])
    d_t, x = [], delta
    for _ in grid.samples:
        d_t.append(0.5 * trace_norm(partial_trace_b(x, p.dims)))
        x = u @ x @ u.conj().T
    return WitnessSeries(grid.samples, np.array(d_t), bound_ref=0.5 * trace_norm(delta))


def emission_row_signal(p, t0: float, t1: float) -> tuple:
    """Emission amplitudes U(t0)|e,0> and local signal of `EmissionParams` p
    from one complex eigh of the full sector Hamiltonian, decoupled modes
    included, with the row <e,0| U(t1 - t0) formed from the eigenvectors."""
    from discord_probe.model_emission import sector_hamiltonian

    w, v = np.linalg.eigh(sector_hamiltonian(p).astype(complex))
    psi = v @ (np.exp(-1j * w * t0) * v[0, :].conj())
    row = (v[0] * np.exp(-1j * w * (t1 - t0))) @ v.conj().T
    signal = abs(2 * (psi[0] * row[0] * np.conj(row[1:] @ psi[1:])).real)
    return psi, signal


def full_space_hamiltonian(p) -> np.ndarray:
    """Atom (x) hard-core-boson-modes Hamiltonian of an `EmissionParams`
    instance with at most 10 modes, to validate the single-excitation
    sector restriction."""
    if p.n_modes > 10:
        raise ValueError("full-space construction is limited to <= 10 modes")
    nm = p.n_modes
    dim_f = 2**nm
    sp = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0| per mode
    sigma_minus = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|
    atom_e = np.diag([0.0, 1.0]).astype(complex)
    h = kron(p.atomic_gap * atom_e, np.eye(dim_f))
    freqs = p.mode_frequencies()
    g = p.couplings()
    for k in range(nm):
        a_dag = np.array([[1.0 + 0j]])
        for j in range(nm):
            a_dag = kron(a_dag, sp if j == k else np.eye(2))
        h += kron(np.eye(2), freqs[k] * (a_dag @ a_dag.conj().T))
        h += g[k] * (kron(sigma_minus, a_dag)
                     + kron(sigma_minus.conj().T, a_dag.conj().T))
    return h


def _site_op(op: np.ndarray, site: int, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for j in range(n):
        out = kron(out, op if j == site else np.eye(2, dtype=complex))
    return out


def chain_hamiltonian_dense(p) -> np.ndarray:
    """H = -sum_{i<j} J0/|i-j|^alpha sx_i sx_j - B sum_i sy_i of a
    `ChainParams` instance, summed from dense 2^n x 2^n Pauli strings."""
    n = p.n_spins
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    sx = [_site_op(SX, i, n) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            h -= p.j0 / abs(i - j) ** p.alpha * (sx[i] @ sx[j])
    for i in range(n):
        h -= p.b_field * _site_op(SY, i, n)
    return h


def parity_operator(n: int) -> np.ndarray:
    """Global pi-rotation about y, fixed to the involution (x) sigma_y."""
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = kron(out, SY)
    return out


def autocorrelation_direct(p, t: float, spec) -> float:
    """Tr{rho U rho U^dag} / purity for the y-dephased ground state of a
    spin chain, from the definition."""
    psi0 = spec.states[:, 0]
    chi = kron(SY, np.eye(2 ** (p.n_spins - 1))) @ psi0
    rho = 0.5 * (np.outer(psi0, psi0.conj()) + np.outer(chi, chi.conj()))
    u = (spec.states * np.exp(-1j * spec.energies * t)) @ spec.states.conj().T
    purity = float(np.trace(rho @ rho).real)
    return float(np.trace(rho @ u @ rho @ u.conj().T).real / purity)


def spectral_dense(p) -> SimpleNamespace:
    """The chain's eigendecomposition as one dense complex `eigh` of the
    original-frame H. Numerically degenerate energy blocks (each within 1e-9
    of the scale of the next) are rotated to diagonalize (x) sigma_y, parity
    -1 first, and each vector is then projected onto its dominant parity
    sector. Fields as `model_spinchain.SpectralData`, with `evolution` the
    dense original-frame `EvolutionSpec`."""
    h = model_spinchain.build_chain_hamiltonian(p)
    par = parity_operator(p.n_spins)
    w, v = np.linalg.eigh(h)
    scale = max(np.max(np.abs(w)), 1.0)
    splits = np.where(np.diff(w) > 1e-9 * scale)[0] + 1
    for idx in np.split(np.arange(len(w)), splits):
        if len(idx) > 1:
            sub = v[:, idx]
            _, rot = np.linalg.eigh(sub.conj().T @ (par @ sub))
            v[:, idx] = sub @ rot
    flipped = par @ v
    parities = np.sign(np.real(np.sum(v.conj() * flipped, axis=0)))
    v = 0.5 * (v + flipped * parities[None, :])
    v = v / np.linalg.norm(v, axis=0)
    return SimpleNamespace(energies=w, states=v, parities=parities,
                           evolution=EvolutionSpec(h, spectrum=[
                               (np.arange(len(w))[None], w[None], v[None])]))


def dephased_components(p, spec) -> np.ndarray:
    """The ground state states[:, 0] and its sigma_y^(0)-flipped partner as
    columns: the y-dephased ground state is their even mixture."""
    psi0 = spec.states[:, 0]
    return np.column_stack([psi0, kron(SY, np.eye(2 ** (p.n_spins - 1))) @ psi0])


def ground_detection_dense(p, grid, spec) -> SimpleNamespace:
    """Single-spin ground-state detection with 2x2 marginals in the original
    frame: d(t) = ||m0 - mc(t)||_1 / 4 for the marginals of psi0 and U(t) chi,
    the magnetization form |tr((mc - m0) sigma_y)| / 4, the negativity
    sqrt(det m0) and the gap, from a `spectral_dense` result with the
    whole-space evolution of chi."""
    gap = float(spec.energies[1] - spec.energies[0])
    if gap <= 1e-10:
        raise ValueError("ground state is (numerically) degenerate")
    psi0, chi = dephased_components(p, spec).T
    r0 = psi0.reshape(2, -1)
    m0 = r0 @ r0.conj().T
    evolved = spec.evolution.evolve_vectors(chi[:, None], grid.samples)
    evolved = evolved.reshape(2, -1, len(grid.samples))
    diff = m0 - np.einsum("iat,jat->tij", evolved, evolved.conj())
    d_t = 0.25 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)
    d_mag = np.abs(np.trace(diff @ SY, axis1=1, axis2=2)) / 4
    neg = float(np.sqrt(max(np.linalg.det(m0).real, 0.0)))
    return SimpleNamespace(d_t=d_t, d_mag=d_mag, negativity=neg, gap=gap)


def ground_distances_complex_exp(spec, times: np.ndarray) -> np.ndarray:
    """d(t) of `model_spinchain.ground_state_detection` in its complex form:
    the phases exp(-i w t) from the complex exp, and the real and imaginary
    parts of (chi V)_a exp(-i w_a t) read from the complex product."""
    s, w, v, psi0, chi = model_spinchain._ground_sector(spec)
    half = len(psi0) // 2
    p_up = psi0[:half] @ psi0[:half]
    phased = (chi @ v[s])[:, None] * np.exp(-1j * np.multiply.outer(w[s], times))
    amp = v[s, :half] @ phased.view(float)
    return np.abs(p_up - np.square(amp).reshape(half, -1, 2).sum(axis=(0, 2))) / 2


def autocorrelation(p, grid=None, spec=None):
    """Global autocorrelation Tr{rho U rho U^dag} / Tr{rho^2} of the dephased
    ground state rho = (|psi0><psi0| + |chi><chi|)/2 of a chain: the sum of
    |<x|U(t)|y>|^2 over x, y in {psi0, chi}, over the same sum at t = 0,
    with U(t) the original-frame evolution over the time grid."""
    spec = spec or model_spinchain.spectral(p)
    grid = grid or p.default_time_grid()
    comps = dephased_components(p, spec)
    evolved = model_spinchain.original_frame_evolution(p, spec).evolve_vectors(
        comps, grid.samples)
    overlaps = np.tensordot(comps.conj(), evolved, axes=(0, 0))  # <x|U(t)|y>
    purity = np.sum(np.abs(comps.conj().T @ comps) ** 2)
    return list(zip(grid.samples, np.sum(np.abs(overlaps) ** 2, axis=(0, 1)) / purity))


def coherence_decay(p, t: float) -> float:
    """C(t) = sum_w weights * exp(i (w - w0) t) of `PhotonParams` p; tends to
    exp(-dw |t|)."""
    x = p.frequencies() - p.omega0
    return float(np.sum(p.weights() * np.exp(1j * x * t)).real)


def build_correlated_state(p) -> BipartiteState:
    """Post-crystal state of `PhotonParams` p as a dense matrix: per-frequency
    2x2 polarization blocks with coherence beta * exp(i (w - w0) t_prep)
    (initial phase phi = -w0 t)."""
    w = p.weights()
    phase = np.exp(1j * (p.frequencies() - p.omega0) * p.t_prep)
    m = p.grid_points
    rho = np.zeros((2 * m, 2 * m), dtype=complex)
    idx = np.arange(m)
    rho[idx, idx] = 0.5 * w
    rho[m + idx, m + idx] = 0.5 * w
    rho[idx, m + idx] = p.beta * w * phase
    rho[m + idx, idx] = p.beta * w * phase.conj()
    return BipartiteState(rho, p.dims)


def _rotated_v(eta_angle: float) -> np.ndarray:
    c, s = np.cos(eta_angle), np.sin(eta_angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def michelson_propagator(p, tau: float, eta_angle: float = 0.0) -> np.ndarray:
    """Closed-form Michelson unitary for `PhotonParams` p: phase
    exp(-i w tau) on the polarization axis rotated by eta_angle from V."""
    m = p.grid_points
    ph = np.exp(-1j * p.frequencies() * tau)
    u = np.zeros((2 * m, 2 * m), dtype=complex)
    idx = np.arange(m)
    u[idx, idx] = 1.0
    u[m + idx, m + idx] = ph
    if eta_angle != 0.0:
        w_rot = kron(_rotated_v(eta_angle), np.eye(m))
        u = w_rot @ u @ w_rot.conj().T
    return u


def michelson_evolution(p, eta_angle: float = 0.0) -> EvolutionSpec:
    """Hermitian-generator form of the Michelson imprint (H has eigenvalue w
    on the rotated-V branch), equivalent to michelson_propagator."""
    h_pol = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    if eta_angle != 0.0:
        w_rot = _rotated_v(eta_angle)
        h_pol = w_rot @ h_pol @ w_rot.conj().T
    h = kron(h_pol, np.diag(p.frequencies()).astype(complex))
    return EvolutionSpec(hamiltonian=h)


def sigma_conjugations(state: BipartiteState) -> np.ndarray:
    """A[a, b] = (sigma_a (x) I) rho (sigma_b (x) I) for a qubit probe."""
    eye_b = np.eye(state.dims.d_b)
    s_big = [kron(s, eye_b) for s in (SX, SY, SZ)]
    d = state.dims.total
    out = np.empty((3, 3, d, d), dtype=complex)
    for a in range(3):
        left = s_big[a] @ state.rho
        for b in range(3):
            out[a, b] = left @ s_big[b]
    return out


def disturbance_batch(rho: np.ndarray, conj: np.ndarray,
                      ns: np.ndarray, chunk: int = 256) -> np.ndarray:
    """D(n) = (1/4) || rho - N rho N ||_1 for a batch of Bloch axes n."""
    vals = np.empty(len(ns))
    for lo in range(0, len(ns), chunk):
        nn = ns[lo : lo + chunk]
        pinched = np.einsum("ga,gb,abij->gij", nn, nn, conj, optimize=True)
        diff = rho[None, :, :] - pinched
        w = np.linalg.eigvalsh(diff)
        vals[lo : lo + chunk] = 0.25 * np.sum(np.abs(w), axis=1)
    return vals


def bloch_search_exhaustive(f, grid: BasisGrid, start: np.ndarray, cols=None):
    """`measures._bloch_search` without pruning: the K objectives of `f`
    evaluated on the whole grid, or on its phi columns `cols` only, plus
    `start` in one call, and each incumbent refined on the 8 neighbours of a
    3x3 stencil whose spacing halves each round. Returns the minima (K,) and
    their angles (K, 2)."""
    on = np.isin(np.arange(grid.n_theta * grid.n_phi) % grid.n_phi,
                 np.arange(grid.n_phi) if cols is None else cols)
    angles = np.vstack([grid.angles()[on], start])
    vals = f(angles[None])
    best_val, best_ang = vals.min(axis=1), angles[np.argmin(vals, axis=1)]
    offs = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j])
    rows, step = np.arange(len(vals)), np.array(grid.spacing)
    for _ in range(grid.refine_rounds):
        step = step / 2
        cand = best_ang[:, None, :] + offs * step
        cvals = f(cand)
        j = np.argmin(cvals, axis=1)
        better = cvals[rows, j] < best_val
        best_val[better] = cvals[rows, j][better]
        best_ang[better] = cand[rows, j][better]
    return best_val, best_ang


def pruning_table_unmirrored(grid: BasisGrid):
    """`measures._pruning_table(grid, False)` written for the whole grid
    alone: coarse every 3rd theta row plus the last, times every 3rd phi
    column, with phi wrapping from the last coarse column to the first."""
    ti, pj = np.divmod(np.arange(grid.n_theta * grid.n_phi), grid.n_phi)
    coarse_row = np.arange(grid.n_theta) % 3 == 0
    coarse_row[-1] = True
    rows, cols = np.flatnonzero(coarse_row), np.arange(0, grid.n_phi, 3)
    coarse = coarse_row[ti] & (pj % 3 == 0)
    ti, pj = ti[~coarse], pj[~coarse]
    t_lo = rows[np.searchsorted(rows, ti, "right") - 1]
    t_hi = rows[np.searchsorted(rows, ti, "left")]
    p_lo = cols[np.searchsorted(cols, pj, "right") - 1]
    p_hi = cols[np.searchsorted(cols, pj, "left") % len(cols)]
    corners = np.stack([t_lo * grid.n_phi + p_lo, t_lo * grid.n_phi + p_hi,
                        t_hi * grid.n_phi + p_lo, t_hi * grid.n_phi + p_hi])
    axes = bloch_vectors(grid.angles())
    fine, coarse = np.flatnonzero(~coarse), np.flatnonzero(coarse)
    cells, cell_of = np.unique(np.searchsorted(coarse, corners), axis=1,
                               return_inverse=True)
    return coarse, fine, cells, cell_of.ravel(), _chord(axes[fine], axes[corners])


def csv_text_loop(columns: dict) -> str:
    """The text `cli._write_csv` writes, one row at a time: a header of the
    column names, then one line per row of "%.17g" values."""
    rows = [",".join(columns)]
    for vals in zip(*columns.values()):
        rows.append(",".join("%.17g" % v for v in vals))
    return "\n".join(rows) + "\n"


def minimized_series(state: BipartiteState, evo, times: np.ndarray,
                     bases: BasisGrid) -> np.ndarray:
    """d_min(t) from a grid-and-refine search at each time on its own."""
    conj = sigma_conjugations(state)
    stack = np.concatenate([state.rho[None], conj.reshape(9, *state.rho.shape)])
    margs = evo.marginal_series(stack, state.dims, times)
    r_t = margs[0]
    m_t = margs[1:].reshape(3, 3, len(times), 2, 2)
    angles = np.vstack([bases.angles(), _basis_angles(local_eigenbasis(state)[0])])
    offs = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])
    out = np.empty(len(times))
    for ti in range(len(times)):
        def batch(ang):
            n = bloch_vectors(ang)
            pin = np.einsum("ga,gb,abij->gij", n, n, m_t[:, :, ti], optimize=True)
            w = np.linalg.eigvalsh(r_t[ti][None] - pin)
            return 0.25 * np.sum(np.abs(w), axis=-1)

        vals = batch(angles)
        k = int(np.argmin(vals))
        best, best_ang = vals[k], angles[k]
        dt, dp = bases.spacing
        for _ in range(bases.refine_rounds):
            dt, dp = dt / 2, dp / 2
            cand = best_ang[None, :] + offs * np.array([dt, dp])
            cvals = batch(cand)
            j = int(np.argmin(cvals))
            if cvals[j] < best:
                best, best_ang = cvals[j], cand[j]
        out[ti] = best
    return out


def haar_average_loop(state: BipartiteState, n_samples: int, seed: int):
    """`haar_average_estimate` one sampled unitary at a time: the locally
    observed squared HS norm of Delta under haar_unitary(d, s) for the same
    per-sample seeds, with the mean, its standard error and the prediction."""
    from discord_probe.protocol import haar_coefficient
    from discord_probe.states import dephasing_delta

    delta = dephasing_delta(state)
    predicted = haar_coefficient(state.dims) * np.sum(np.abs(delta) ** 2)
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=n_samples)
    vals = np.empty(n_samples)
    for i, s in enumerate(seeds):
        u = haar_unitary(state.dims.total, int(s))
        loc = partial_trace_b(u @ delta @ u.conj().T, state.dims)
        vals[i] = np.sum(np.abs(loc) ** 2)
    return (float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples)),
            float(predicted))


def photon_distance_dense(p, taus: np.ndarray) -> np.ndarray:
    """d(tau) of `PhotonParams` p as beta |sum_w c_w e^{i w tau}| with
    c_w = weights * sin((w - w0) t_prep), one complex exponential per
    (tau, frequency) pair."""
    c = p.weights() * np.sin((p.frequencies() - p.omega0) * p.t_prep)
    z = c[None, :] * np.exp(1j * np.outer(np.atleast_1d(taus), p.frequencies()))
    return p.beta * np.abs(z.sum(axis=1))
