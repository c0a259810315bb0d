"""Bipartite states and the local pinching on A: Phi(rho) built from its
blocks <v_i| rho |v_i>, the dephasing basis and Delta = rho - Phi(rho);
Haar-random unitaries and thermal oscillator populations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    BipartitionDims,
    BlockDiagonal,
    hermitian_blocks,
    kron,
    partial_trace_b,
    require_hermitian,
    require_square,
    require_unitary,
    sector_blocks,
)

DEGENERACY_GAP = 1e-8
STATE_TOL = 1e-10  # trace deviation and negative eigenvalue a state may have
FOCK_TAIL_TOL = 1e-8
FOCK_FLOOR = 20    # smallest phonon cutoff
FOCK_HEADROOM = 2  # levels above the tail cut, for sideband leakage into n+1


class BipartiteState:
    """Density operator with its A-first dimension split, `rho` given as its
    BlockDiagonal or dense (one sector). `__post_init__` checks rho as the
    direct sum of its sector `blocks` and keeps them and the `spectrum` it
    checked, given or computed; a dense rho is formed from the blocks when
    first read."""

    def __init__(self, rho, dims: BipartitionDims, spectrum=None):
        self.dims, self.spectrum = dims, spectrum
        self.blocks = rho if isinstance(rho, BlockDiagonal) else require_square(rho)
        self.__post_init__()

    def __post_init__(self):  # the checks, traced under this name by bench/run.py
        self.dims.check(self.blocks)
        self.blocks = rho = hermitian_blocks(self.blocks)
        tr = sum(np.trace(b, axis1=1, axis2=2).sum() for b in rho.blocks).real
        if not abs(tr - 1.0) <= STATE_TOL:
            raise ValueError(f"state trace {tr} deviates from 1")
        w = np.ravel(self.spectrum if self.spectrum is not None else
                     np.concatenate([np.linalg.eigvalsh(b).ravel() for b in rho.blocks]))
        if len(w) != rho.shape[0]:
            raise ValueError("need one eigenvalue per basis state")
        if not np.min(w) >= -STATE_TOL:
            raise ValueError(f"state has negative eigenvalue {np.min(w):.3e}")
        self.spectrum = w

    @property
    def rho(self) -> np.ndarray:
        return self.blocks.dense

    @property
    def marginal_a(self) -> np.ndarray:
        return partial_trace_b(self.rho, self.dims)


@dataclass(frozen=True)
class ProjectiveBasis:
    """Complete orthonormal basis on subsystem A, stored as unitary columns."""

    vectors: np.ndarray

    def __post_init__(self):
        v = require_unitary(self.vectors)
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def projectors(self):
        for i in range(self.dim):
            col = self.vectors[:, i : i + 1]
            yield col @ col.conj().T


def computational_basis(dim: int) -> ProjectiveBasis:
    return ProjectiveBasis(np.eye(dim, dtype=complex))


def qubit_kets(angles) -> np.ndarray:
    """Unitaries (..., 2, 2) for Bloch angles (..., 2): column 0 is the ket
    cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> and column 1 its antipode."""
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles[..., 0] / 2), np.sin(angles[..., 0] / 2)
    e = np.exp(1j * angles[..., 1])
    return np.stack([c, -s * e.conj(), s * e, c], axis=-1).reshape(c.shape + (2, 2))


def qubit_basis(theta: float, phi: float) -> ProjectiveBasis:
    """Qubit basis from Bloch angles of the first basis vector."""
    return ProjectiveBasis(qubit_kets([theta, phi]))


def zero_discord_state(weights, basis_a: ProjectiveBasis, states_b) -> BipartiteState:
    """sum_m p_m |phi_m><phi_m| (x) rho_B^m."""
    weights = np.asarray(weights, dtype=float)
    if not (abs(weights.sum() - 1.0) <= 1e-10 and np.all(weights >= -1e-14)):
        raise ValueError("weights must form a probability distribution")
    if len(weights) != basis_a.dim or len(states_b) != basis_a.dim:
        raise ValueError("weights / basis / ancilla-state counts must match")
    d_b = require_square(states_b[0]).shape[0]
    rho = np.zeros((basis_a.dim * d_b,) * 2, dtype=complex)
    for p, proj, sb in zip(weights, basis_a.projectors(), states_b):
        sb = require_hermitian(sb)
        if abs(np.trace(sb).real - 1.0) > 1e-10 or np.linalg.eigvalsh(sb)[0] < -1e-10:
            raise ValueError("ancilla states must be valid density operators")
        rho += p * kron(proj, sb)
    return BipartiteState(rho, BipartitionDims(basis_a.dim, d_b))


def _pinching_blocks(rho: np.ndarray, dims: BipartitionDims,
                     vectors: np.ndarray) -> np.ndarray:
    """The d_B x d_B blocks <v_i| rho |v_i> (d_A, d_B, d_B) for the columns
    v_i of `vectors`."""
    r = rho.reshape(dims.d_a, dims.d_b, dims.d_a, dims.d_b)
    return np.einsum("ai,axby,bi->ixy", vectors.conj(), r, vectors)


def dephase(state: BipartiteState,
            basis: ProjectiveBasis | None = None) -> BipartiteState:
    """Local pinching Phi(rho) = sum_i (Pi_i (x) I) rho (Pi_i (x) I) on
    subsystem A in `basis`, by default the eigenbasis of the A-marginal, which
    is refused when degenerate because it then does not define the pinching.
    Phi(rho) is built as sum_i |v_i><v_i| (x) B_i from the d_A blocks
    B_i = <v_i| rho |v_i>, whose spectra together are its spectrum. If each
    basis vector has one nonzero entry, every projector is diagonal and the
    pinching zeroes each entry <a x| rho |b y> with a != b: a state of more
    than one sector then keeps its sectors, and is pinched block by block."""
    if basis is None:
        basis, degenerate = local_eigenbasis(state)
        if degenerate:
            raise ValueError("degenerate A-marginal: its eigenbasis does not "
                             "define the dephased reference state")
    if basis.dim != state.dims.d_a:
        raise ValueError("basis dimension does not match subsystem A")
    if (state.blocks.sectors.rows[0].shape[1] < state.dims.total  # more than one sector
            and np.all(np.count_nonzero(basis.vectors, axis=0) == 1)):
        a = [r // state.dims.d_b for r in state.blocks.sectors.rows]  # each row's A index
        out = [b * (i[:, :, None] == i[:, None]) for b, i in zip(state.blocks.blocks, a)]
        return BipartiteState(BlockDiagonal(out, state.blocks.sectors), state.dims)
    v = basis.vectors
    blocks = _pinching_blocks(state.rho, state.dims, v)
    out = np.einsum("ai,ixy,bi->axby", v, blocks, v.conj()).reshape(state.rho.shape)
    return BipartiteState(out, state.dims, spectrum=np.linalg.eigvalsh(blocks))


def local_eigenbasis(state: BipartiteState):
    """Eigenbasis of the A-marginal (eigenvalues descending) and a flag for
    near-degenerate spectra (adjacent gap below 1e-8)."""
    w, v = np.linalg.eigh(state.marginal_a)
    w, v = w[::-1], v[:, ::-1]
    degenerate = bool(np.any(np.abs(np.diff(w)) < DEGENERACY_GAP))
    # fix phases: largest-magnitude component real positive
    for i in range(v.shape[1]):
        k = np.argmax(np.abs(v[:, i]))
        ph = v[k, i] / abs(v[k, i])
        v[:, i] = v[:, i] / ph
    return ProjectiveBasis(v), degenerate


def dephasing_delta(state: BipartiteState,
                    basis: ProjectiveBasis | None = None) -> BlockDiagonal:
    """Delta = rho - Phi(rho) for the pinching Phi of `dephase`, as its blocks
    on the sectors of Phi(rho): the state's if the pinching keeps them."""
    pinched = dephase(state, basis).blocks
    rho = sector_blocks(state.blocks, pinched.sectors)
    return BlockDiagonal([a - b for a, b in zip(rho, pinched.blocks)], pinched.sectors)


def _hashmix(h: int, mult: int):
    """numpy SeedSequence's hashmix on uint32 arrays, with its running hash
    constant h (multiplied by `mult` at each call) kept in the closure."""
    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = h * mult & 0xFFFFFFFF
        v = v * np.uint32(h)
        return v ^ v >> np.uint32(16)
    return hashmix


def _seed_words(seeds) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) (N, 4) for all seeds s in
    [0, 2**64) at once: numpy's mix of a pool of 4 uint32 words, the seed's
    two 32-bit words and two zeros, then 8 hashed pool words read as 4 uint64."""
    s = [int(x) for x in seeds]
    if s and not 0 <= min(s) <= max(s) < 2**64:  # default_rng refuses s < 0 too
        raise ValueError("seeds must be integers in [0, 2**64)")
    s = np.array(s, dtype=np.uint64)
    zero = np.zeros(len(s), np.uint32)
    hash_a = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hash_a(v) for v in (s.astype(np.uint32), (s >> np.uint64(32)).astype(np.uint32),
                                zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:  # mix(x, y) of SeedSequence
                r = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hash_a(pool[src])
                pool[dst] = r ^ r >> np.uint32(16)
    hash_b = _hashmix(0x8B51F9DD, 0x58F38DED)
    out = np.stack([hash_b(pool[k % 4]) for k in range(8)], axis=1)
    return out.astype("<u4").view("<u8").astype(np.uint64)


PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_state(words) -> dict:
    """The state of np.random.PCG64(s) from the 4 words of `_seed_words`:
    state (w0, w1) and stream (w2, w3) as 128-bit numbers, stepped in as
    pcg64_srandom_r does."""
    w0, w1, w2, w3 = map(int, words)
    inc = ((w2 << 64 | w3) << 1 | 1) & (1 << 128) - 1
    state = ((inc + (w0 << 64 | w1)) * PCG64_MULT + inc) & (1 << 128) - 1
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def haar_unitaries(dim: int, seeds) -> np.ndarray:
    """Haar-distributed unitaries (N, dim, dim), one per seed: the QR of a
    Ginibre matrix drawn as default_rng(seed) draws it, with the phases of
    R's diagonal moved into Q (Mezzadri, Notices AMS 54, 592 (2007)). All
    seeds are hashed at once, and one generator is set to each seed's state
    in turn."""
    g = np.empty((len(seeds), 2, dim, dim))
    bits = np.random.PCG64(0)  # numpy.random loads here, not at import
    gen = np.random.Generator(bits)
    for i, w in enumerate(_seed_words(seeds).tolist()):
        bits.state = _pcg64_state(w)
        gen.standard_normal(out=g[i])
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def fock_cutoff(nbar: float) -> int:
    """Smallest cutoff with thermal tail mass below FOCK_TAIL_TOL, floored at
    FOCK_FLOOR, plus FOCK_HEADROOM."""
    if nbar <= 0:
        return FOCK_FLOOR + FOCK_HEADROOM
    # tail mass above n is (nbar/(nbar+1))**(n+1)
    n = int(np.ceil(np.log(FOCK_TAIL_TOL) / np.log(nbar / (nbar + 1.0)))) - 1
    return max(FOCK_FLOOR, n) + FOCK_HEADROOM


def thermal_populations(nbar: float, n_max: int) -> np.ndarray:
    """Fock populations p_0..p_{n_max} of the truncated thermal state."""
    if nbar < 0:
        raise ValueError("mean occupation must be nonnegative")
    n = np.arange(n_max + 1)
    if nbar == 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
    else:
        tail = (nbar / (nbar + 1.0)) ** (n_max + 1)
        if tail >= FOCK_TAIL_TOL:
            raise ValueError(
                f"n_max={n_max} leaves tail mass {tail:.3e} >= {FOCK_TAIL_TOL}"
            )
        # log-space evaluation: nbar**n overflows for hot states
        p = np.exp(n * np.log(nbar) - (n + 1) * np.log(nbar + 1.0))
        p = p / p.sum()
    return p
