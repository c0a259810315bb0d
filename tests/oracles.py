"""Dense reference implementations that the fast kernels are checked against.

These are the full-dimension forms of the qubit-probe quantities: the
dephasing disturbance D(n) from an `eigvalsh` of the 2d_B x 2d_B operator
rho - N rho N, and the basis-minimized local distance d_min(t) from a
separate grid-and-refine search at every time sample.
"""

import numpy as np

from conftest import SX, SY, SZ
from discord_probe.measures import BasisGrid, _basis_angles, bloch_vectors
from discord_probe.protocol import _distances_2x2_quarter
from discord_probe.states import BipartiteState, local_eigenbasis
from discord_probe.tensor import kron


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
            return _distances_2x2_quarter(r_t[ti][None] - pin)

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
