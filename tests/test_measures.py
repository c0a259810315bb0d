"""Distance and discord quantifiers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_hermitian, random_pure_state, random_state
from oracles import (bloch_search_exhaustive, dephase_kron, dephase_qubit_bloch,
                     disturbance_batch, hs_distance_sq, sigma_conjugations, trace_norm)
from discord_probe import measures
from discord_probe.measures import (
    FACTOR_TAIL,
    BasisGrid,
    _basis_angles,
    _bloch_search,
    _block_disturbance,
    _chord,
    _chord_lipschitz,
    _disturbance_kernel,
    _factored_disturbance,
    bloch_vectors,
    dephasing_disturbance,
    minimal_dephasing_disturbance,
    negativity,
    trace_distance,
)
from discord_probe.protocol import EvolutionSpec, TimeGrid, run_minimized_detection
from discord_probe.states import (
    STATE_TOL,
    BipartiteState,
    ProjectiveBasis,
    apply_local_unitary,
    computational_basis,
    dephase,
    haar_unitary,
    local_eigenbasis,
    qubit_basis,
    zero_discord_state,
)
from discord_probe.tensor import BipartitionDims, kron, partial_trace_b

D22 = BipartitionDims(2, 2)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.outer([1, 1], [1, 1]).astype(complex) / 2


def random_rank_state(d_b: int, rank: int, rng) -> BipartiteState:
    """A qubit-probe state of rank min(rank, 2 d_B) with random eigenvectors."""
    z = rng.standard_normal((2 * d_b, rank)) + 1j * rng.standard_normal((2 * d_b, rank))
    rho = z @ z.conj().T
    return BipartiteState(rho / np.trace(rho).real, BipartitionDims(2, d_b))


def random_angles(n: int, rng) -> np.ndarray:
    return np.column_stack([rng.uniform(-np.pi, np.pi, n), rng.uniform(0, 2 * np.pi, n)])


def minimized_objective(state: BipartiteState, rng, n_times: int):
    """The d_n(t) objective, one per time sample, that run_minimized_detection
    hands to the Bloch search for a random generator."""
    evo = EvolutionSpec(hamiltonian=random_hermitian(state.dims.total, rng))
    handed = []
    real = measures._bloch_search
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_bloch_search", lambda f, *a: handed.append(f) or real(f, *a))
        run_minimized_detection(state, evo, TimeGrid.linear(3.0, n_times),
                                BasisGrid(3, 4, refine_rounds=0))
    return handed[-1]  # handed[0] is D(n)


def two_qubit_schmidt(gamma: float) -> BipartiteState:
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.cos(gamma)
    psi[3] = np.sin(gamma)
    return BipartiteState(np.outer(psi, psi.conj()), D22)


class TestTraceDistance:
    def test_identical(self, rng):
        rho = random_density(4, rng)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert abs(trace_distance(P0, P1) - 1.0) <= 1e-12

    def test_nonorthogonal_pure(self):
        assert abs(trace_distance(P0, PLUS) - 1 / np.sqrt(2)) <= 1e-12

    def test_unitary_invariance(self, rng):
        a, b = random_density(4, rng), random_density(4, rng)
        u = haar_unitary(4, 3)
        assert abs(
            trace_distance(u @ a @ u.conj().T, u @ b @ u.conj().T)
            - trace_distance(a, b)
        ) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_contractivity_under_partial_trace(self, seed):
        rng = np.random.default_rng(seed)
        dims = BipartitionDims(2, 3)
        a, b = random_density(6, rng), random_density(6, rng)
        assert trace_distance(
            partial_trace_b(a, dims), partial_trace_b(b, dims)
        ) <= trace_distance(a, b) + 1e-12


class TestHSDistance:
    def test_identical(self, rng):
        rho = random_density(3, rng)
        assert hs_distance_sq(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert abs(hs_distance_sq(P0, P1) - 2.0) <= 1e-12

    def test_spectral_oracle(self, rng):
        a, b = random_density(5, rng), random_density(5, rng)
        w = np.linalg.eigvalsh(a - b)
        assert abs(hs_distance_sq(a, b) - np.sum(w**2)) <= 1e-12


class TestDephasingDisturbance:
    def test_zero_discord(self, rng):
        s = zero_discord_state(
            [0.7, 0.3], computational_basis(2),
            [random_density(3, rng), random_density(3, rng)],
        )
        assert dephasing_disturbance(s) <= 1e-12

    def test_refuses_degenerate(self):
        b = np.array([1, 0, 0, 1]) / np.sqrt(2)
        bell = BipartiteState(np.outer(b, b).astype(complex), D22)
        with pytest.raises(ValueError, match="degenerate"):
            dephasing_disturbance(bell)

    def test_schmidt_family(self):
        for gamma in (0.3, 0.6, 1.2):
            s = two_qubit_schmidt(gamma)
            assert abs(
                dephasing_disturbance(s) - abs(np.sin(gamma) * np.cos(gamma))
            ) <= 1e-12

    def test_pure_state_equals_negativity(self, rng):
        for d_b in (2, 3, 4):
            s = random_pure_state(2, d_b, rng)
            assert abs(dephasing_disturbance(s) - negativity(s)) <= 1e-9


class TestNegativity:
    def test_product_state(self, rng):
        rho = kron(random_density(2, rng), random_density(3, rng))
        assert negativity(BipartiteState(rho, BipartitionDims(2, 3))) == 0.0

    def test_bell(self):
        b = np.array([1, 0, 0, 1]) / np.sqrt(2)
        bell = BipartiteState(np.outer(b, b).astype(complex), D22)
        assert abs(negativity(bell) - 0.5) <= 1e-12

    def test_schmidt_family(self):
        for gamma in (0.2, 0.8, 1.4):
            assert abs(
                negativity(two_qubit_schmidt(gamma))
                - abs(np.sin(gamma) * np.cos(gamma))
            ) <= 1e-12

    def test_local_unitary_invariance(self, rng):
        s = random_pure_state(2, 3, rng)
        ua, ub = haar_unitary(2, 1), haar_unitary(3, 2)
        u = kron(ua, ub)
        rotated = BipartiteState(u @ s.rho @ u.conj().T, s.dims)
        assert abs(negativity(rotated) - negativity(s)) <= 1e-9


class TestMinimalDisturbance:
    def test_zero_discord_in_rotated_basis(self, rng):
        # zero-discord along a basis off the grid: minimum must still find ~0
        b = qubit_basis(0.513, 4.177)
        s = zero_discord_state(
            [0.6, 0.4], b, [random_density(2, rng), random_density(2, rng)]
        )
        val, _ = minimal_dephasing_disturbance(s)
        assert val <= 1e-6

    def test_pure_state_matches_eigenbasis(self, rng):
        s = random_pure_state(2, 3, rng)
        val, _ = minimal_dephasing_disturbance(s)
        assert abs(val - dephasing_disturbance(s)) <= 1e-4

    def test_never_above_plain_disturbance(self, rng):
        for _ in range(10):
            s = random_state(2, 3, rng)
            val, _ = minimal_dephasing_disturbance(s)
            assert val <= dephasing_disturbance(s) + 1e-12

    def test_returns_argmin_basis(self, rng):
        s = random_state(2, 2, rng)
        val, basis = minimal_dephasing_disturbance(s)
        direct = trace_distance(s.rho, dephase(s, basis).rho)
        assert abs(val - direct) <= 1e-10

    def test_rejects_large_probe(self, rng):
        with pytest.raises(ValueError):
            minimal_dephasing_disturbance(random_state(3, 2, rng))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.booleans())
    def test_block_kernel_matches_dense_oracle(self, seed, d_b, pure):
        rng = np.random.default_rng(seed)
        s = (random_pure_state if pure else random_state)(2, d_b, rng)
        angles = np.column_stack(
            [rng.uniform(-np.pi, np.pi, 50), rng.uniform(0, 2 * np.pi, 50)]
        )
        dense = disturbance_batch(
            s.rho, sigma_conjugations(s), bloch_vectors(angles)
        )
        assert np.max(np.abs(_block_disturbance(s.rho, d_b, angles) - dense)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.booleans())
    def test_qubit_block_identity_matches_dense_trace_norm(self, seed, d_b, pure):
        # D = (1/2)||rho - Phi(rho)||_1 is the singular-value sum of <0|rho|1>
        rng = np.random.default_rng(seed)
        s = (random_pure_state if pure else random_state)(2, d_b, rng)
        basis = ProjectiveBasis(haar_unitary(2, seed))
        dense = 0.5 * trace_norm(s.rho - dephase_kron(s, basis))
        assert abs(dephasing_disturbance(s, basis) - dense) <= 1e-12
        eigen, degenerate = local_eigenbasis(s)
        if not degenerate:
            dense = 0.5 * trace_norm(s.rho - dephase_kron(s, eigen))
            assert abs(dephasing_disturbance(s) - dense) <= 1e-12


class TestDisturbanceSearch:
    """The pruned grid and the rank-r kernel behind minimal_dephasing_disturbance."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 16))
    def test_lipschitz_in_the_chord(self, seed, d_b, rank):
        rng = np.random.default_rng(seed)
        s = random_rank_state(d_b, rank, rng)
        n, m = random_angles(60, rng), random_angles(60, rng)
        # nearby pairs too, where the bound is tight
        m[::2] = n[::2] + rng.normal(scale=1e-3, size=(30, 2))
        dn, dm = _block_disturbance(s.rho, d_b, n), _block_disturbance(s.rho, d_b, m)
        vn, vm = bloch_vectors(n), bloch_vectors(m)
        assert np.all(np.abs(dn - dm) <= np.linalg.norm(vn - vm, axis=1) / 2 + 1e-12)
        assert np.all(np.abs(dn - dm) <= _chord(vn, vm) / 2 + 1e-12)
        antipodes = np.column_stack([np.pi - n[:, 0], n[:, 1] + np.pi])
        assert np.allclose(_block_disturbance(s.rho, d_b, antipodes), dn,
                           rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 16),
           st.sampled_from([(1, 1), (1, 2), (1, 7), (2, 5), (3, 3), (4, 9), (7, 12),
                            (20, 40)]),
           st.integers(1, 6))
    def test_pruned_grid_is_exhaustive_grid(self, seed, d_b, rank, shape, n_times):
        # K = 1 for D(n), K = n_times for d_n(t) and for cones lip * chord(n, a)
        # that attain the Lipschitz bound; refine_rounds = 0 leaves the grid
        rng = np.random.default_rng(seed)
        s = random_rank_state(d_b, rank, rng)
        grid = BasisGrid(*shape, refine_rounds=0)
        start = np.vstack([_basis_angles(local_eigenbasis(s)[0]), random_angles(1, rng)])
        angles = np.vstack([grid.angles(), start])
        kernel, lip = _disturbance_kernel(s.rho, d_b), _chord_lipschitz(s)
        apexes = bloch_vectors(np.vstack([random_angles(n_times, rng),
                                          angles[rng.integers(len(angles) - 2)]]))
        for f in (lambda a: kernel(a[0])[None], minimized_objective(s, rng, n_times),
                  lambda a: lip * _chord(bloch_vectors(a), apexes[:, None])):
            calls = []

            def spy(a):
                calls.append((a[0], f(a)))
                return calls[-1][1]

            val, ang = _bloch_search(spy, s, grid, start)
            full = f(angles[None])
            k = np.argmin(full, axis=1)
            assert np.array_equal(val, full[np.arange(len(full)), k])  # bit for bit
            assert np.array_equal(ang, angles[k])
            assert np.array_equal(calls[0][0][-len(start):], start)  # always evaluated
            seen = np.vstack([a for a, _ in calls])
            seen_vals = np.hstack([v for _, v in calls])
            # every evaluated point has its whole-grid value, bit for bit
            keys = angles @ [1, 1j]
            at = np.array([np.flatnonzero(keys == key)[0] for key in seen @ [1, 1j]])
            assert np.array_equal(seen_vals, full[:, at])
            skipped = ~np.isin(keys, seen @ [1, 1j])
            assert len(seen) + skipped.sum() == len(angles)  # each point at most once
            assert np.all(full[:, skipped] > val[:, None])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 16))
    def test_factored_kernel_matches_block_and_dense_oracle(self, seed, d_b, rank):
        rng = np.random.default_rng(seed)
        s = random_rank_state(d_b, rank, rng)
        w, v = np.linalg.eigh(s.rho)
        keep = w > FACTOR_TAIL
        right = v[:, keep] * np.sqrt(w[keep])
        angles = random_angles(30, rng)
        got = _factored_disturbance(right, right, angles)
        block = _block_disturbance(s.rho, d_b, angles)
        dense = [0.5 * trace_norm(s.rho - dephase_qubit_bloch(s, n))
                 for n in bloch_vectors(angles)]
        assert np.max(np.abs(got - block)) <= 1e-12
        assert np.max(np.abs(got - dense)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 16))
    def test_kernel_choice_follows_rank(self, seed, d_b, rank):
        # r <= d_B / 2 runs on the r x r core; larger ranks, r >= d_B among
        # them, on the d_B x d_B block
        rng = np.random.default_rng(seed)
        s = random_rank_state(d_b, rank, rng)
        f = _disturbance_kernel(s.rho, d_b)
        r = min(rank, 2 * d_b)
        assert f.func is (_factored_disturbance if 2 * r <= d_b else _block_disturbance)
        angles = random_angles(20, rng)
        assert np.max(np.abs(f(angles) - _block_disturbance(s.rho, d_b, angles))) <= 1e-12

    @pytest.mark.parametrize("tail,kernel", [
        (FACTOR_TAIL, _block_disturbance), (2 * FACTOR_TAIL, _block_disturbance),
        (FACTOR_TAIL * (1 - 2**-20), _factored_disturbance),
        (FACTOR_TAIL / 4, _factored_disturbance)])
    def test_tail_cut_is_below_eps_only(self, tail, kernel):
        # rank one plus a tail: eigh returns the diagonal exactly, so the tail
        # sits at the cut to the bit
        rho = np.diag([1 - tail, tail / 2, tail / 2, 0, 0, 0]).astype(complex)
        s = BipartiteState(rho, BipartitionDims(2, 3))
        assert np.array_equal(np.linalg.eigvalsh(rho), np.sort(np.diag(rho).real))
        assert _disturbance_kernel(s.rho, 3).func is kernel

    def test_tail_at_eps_in_a_random_basis_takes_block(self, rng):
        d_b = 4
        w = np.array([1 - 2 * FACTOR_TAIL] + [2 * FACTOR_TAIL / 7] * 7)
        u = haar_unitary(2 * d_b, 11)
        s = BipartiteState((u * w) @ u.conj().T, BipartitionDims(2, d_b))
        assert _disturbance_kernel(s.rho, d_b).func is _block_disturbance
        w = np.array([1 - FACTOR_TAIL / 2] + [FACTOR_TAIL / 14] * 7)
        s = BipartiteState((u * w) @ u.conj().T, BipartitionDims(2, d_b))
        f = _disturbance_kernel(s.rho, d_b)
        assert f.func is _factored_disturbance
        angles = random_angles(40, rng)
        # dropping a tail below eps moves D(n) by less than eps
        dev = np.abs(f(angles) - _block_disturbance(s.rho, d_b, angles))
        assert np.max(dev) <= FACTOR_TAIL

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 16),
           st.integers(1, 6))
    def test_search_matches_exhaustive_search(self, seed, d_b, rank, n_times):
        rng = np.random.default_rng(seed)
        s = random_rank_state(d_b, rank, rng)
        grid = BasisGrid(n_theta=6, n_phi=10, refine_rounds=3)
        start = _basis_angles(local_eigenbasis(s)[0])
        val, basis = minimal_dephasing_disturbance(s, grid)
        ref, _ = bloch_search_exhaustive(
            lambda a: _block_disturbance(s.rho, d_b, a[0])[None], grid, start)
        assert abs(val - ref[0]) <= 1e-12
        kernel = _disturbance_kernel(s.rho, d_b)
        ref, ang = bloch_search_exhaustive(lambda a: kernel(a[0])[None], grid, start)
        assert val == ref[0]  # bit for bit with the same kernel
        assert np.array_equal(basis.vectors, qubit_basis(*ang[0]).vectors)
        # d_n(t): one objective per time sample, bit for bit
        f = minimized_objective(s, rng, n_times)
        got = _bloch_search(f, s, grid, start)
        ref = bloch_search_exhaustive(f, grid, start)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    # (grid shape, seed, d_B, rank, times) where exactly one fine point is
    # left to evaluate; with one time sample, or for D(n) (times 0), its lone
    # row goes through gemv
    @pytest.mark.parametrize("shape,seed,d_b,rank,n_times", [
        ((5, 12), 6, 1, 1, 1), ((5, 12), 45, 1, 2, 1), ((20, 40), 7, 2, 2, 1),
        ((20, 40), 3, 1, 2, 1), ((5, 12), 2, 1, 1, 2), ((5, 12), 19, 1, 2, 3),
        ((5, 12), 6, 1, 1, 0), ((20, 40), 3, 1, 2, 0)])
    def test_single_survivor_is_exhaustive(self, shape, seed, d_b, rank, n_times):
        rng = np.random.default_rng(seed)
        s = random_rank_state(d_b, rank, rng)
        grid = BasisGrid(*shape, refine_rounds=0)
        start = _basis_angles(local_eigenbasis(s)[0])
        kernel = _disturbance_kernel(s.rho, d_b)
        f = (minimized_objective(s, rng, n_times) if n_times
             else lambda a: kernel(a[0])[None])
        calls = []
        got = _bloch_search(lambda a: calls.append(a[0]) or f(a), s, grid, start)
        assert [len(a) for a in calls[1:]] == [1]
        angles = np.vstack([grid.angles(), start])
        full = f(angles[None])
        lone = np.flatnonzero((angles == calls[1]).all(axis=1))
        assert np.array_equal(f(calls[1][None]), full[:, lone])  # bit for bit
        ref = bloch_search_exhaustive(f, grid, start)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8))
    def test_lipschitz_constant_bounds_the_trace_norm(self, seed, d_b):
        # eigenvalues at the edges of the construction checks: trace up to
        # 1 + STATE_TOL and eigenvalues down to -STATE_TOL
        rng = np.random.default_rng(seed)
        d = 2 * d_b
        n_neg = rng.integers(0, d)
        w = np.concatenate([np.full(n_neg, -0.99 * STATE_TOL), rng.dirichlet(np.ones(d - n_neg))])
        w[-1] += 0.99 * STATE_TOL - w.sum() + 1
        u = haar_unitary(d, seed)
        s = BipartiteState((u * w) @ u.conj().T, BipartitionDims(2, d_b))
        assert 0.5 * trace_norm(s.rho) <= _chord_lipschitz(s) <= 0.5 + 1e-8


class TestBasisGrid:
    @pytest.mark.parametrize("kw", [{"n_theta": 0}, {"n_phi": 0}, {"n_theta": -2},
                                    {"refine_rounds": -3}])
    def test_refuses_grids_it_cannot_search(self, kw):
        with pytest.raises(ValueError, match="basis grid needs"):
            BasisGrid(**kw)

    def test_smallest_grid_accepted(self):
        assert len(BasisGrid(n_theta=1, n_phi=1, refine_rounds=0).angles()) == 1

    def test_coverage(self):
        g = BasisGrid(n_theta=5, n_phi=8)
        ang = g.angles()
        assert len(ang) == 40
        assert ang[:, 0].min() == 0.0 and abs(ang[:, 0].max() - np.pi / 2) <= 1e-12
        assert ang[:, 1].max() < 2 * np.pi
