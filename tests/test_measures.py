"""Distance and discord quantifiers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_density, random_hermitian, random_pure_state, random_state
from oracles import (bloch_search_exhaustive, dephase_kron, dephase_qubit_bloch,
                     dephasing_disturbance_dense, disturbance_batch, haar_unitary,
                     hs_distance_sq, minimized_objective_rows, pruning_table_unmirrored,
                     sigma_conjugations, trace_norm)
from discord_probe import measures, model_spinchain, protocol
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
    _fold_points,
    _pruned_argmin,
    _pruning_table,
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
    computational_basis,
    dephase,
    local_eigenbasis,
    qubit_basis,
    zero_discord_state,
)
from discord_probe.tensor import BipartitionDims, kron, partial_trace_b, pauli_vector

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


def searched_cols(grid: BasisGrid, fold: int) -> np.ndarray:
    """The phi columns a search of `fold` covers: all for fold 1,
    0 .. n_phi // 2 for fold 2, and 0 .. n_phi // 4 for fold 4, or
    0 .. n_phi // 2 if n_phi is odd."""
    fold = 2 if fold == 4 and grid.n_phi % 2 else fold
    return np.arange(grid.n_phi // fold + 1 if fold > 1 else grid.n_phi)


def searched_angles(grid: BasisGrid, fold: int) -> np.ndarray:
    """The grid points a search of `fold` covers, in grid order."""
    on = np.isin(np.arange(grid.n_theta * grid.n_phi) % grid.n_phi, searched_cols(grid, fold))
    return grid.angles()[on]


def check_single_survivor(shape, seed, d_b, rank, fold):
    rng = np.random.default_rng(seed)
    s = random_rank_state(d_b, rank, rng)
    grid = BasisGrid(*shape, refine_rounds=0)
    start = _basis_angles(local_eigenbasis(s)[0])
    f = _disturbance_kernel(s.rho, d_b)
    calls = []
    got = _pruned_argmin(lambda a: calls.append(a) or f(a), _chord_lipschitz(s), grid,
                         start, fold)
    assert [len(a) for a in calls[1:]] == [1]
    angles = np.vstack([searched_angles(grid, fold), start])
    full = f(angles)
    lone = np.flatnonzero((angles == calls[1]).all(axis=1))
    assert np.array_equal(f(calls[1]), full[lone])  # bit for bit
    ref = bloch_search_exhaustive(lambda a: f(a[0])[None], grid, start,
                                  searched_cols(grid, fold))
    assert np.array_equal(got, ref[1])
    val, basis = minimal_dephasing_disturbance(s, grid, start, fold)
    assert val == ref[0][0]  # the refinement's lone row keeps the bits
    assert np.array_equal(basis.vectors, qubit_basis(*ref[1][0]).vectors)


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
        for dense in [0.5 * trace_norm(s.rho - dephase_kron(s, basis)),
                      *dephasing_disturbance_dense(s, basis)]:
            assert abs(dephasing_disturbance(s, basis) - dense) <= 1e-12
        eigen, degenerate = local_eigenbasis(s)
        if not degenerate:
            for dense in [0.5 * trace_norm(s.rho - dephase_kron(s, eigen)),
                          *dephasing_disturbance_dense(s, eigen)]:
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
           st.sampled_from([(1, 1), (1, 2), (1, 7), (2, 5), (3, 3), (3, 4), (4, 9),
                            (7, 12), (20, 40)]),
           st.integers(1, 6), st.sampled_from([1, 2, 4]))
    @example(seed=1, d_b=2, rank=3, shape=(7, 1), n_times=2, fold=2)
    @example(seed=2, d_b=3, rank=2, shape=(5, 2), n_times=1, fold=2)
    @example(seed=3, d_b=1, rank=2, shape=(6, 3), n_times=3, fold=2)
    @example(seed=4, d_b=4, rank=1, shape=(5, 4), n_times=2, fold=2)
    @example(seed=5, d_b=2, rank=4, shape=(4, 5), n_times=4, fold=2)
    @example(seed=6, d_b=3, rank=5, shape=(20, 40), n_times=6, fold=2)
    @example(seed=7, d_b=2, rank=3, shape=(7, 2), n_times=2, fold=4)
    @example(seed=8, d_b=3, rank=2, shape=(5, 4), n_times=1, fold=4)
    @example(seed=9, d_b=1, rank=2, shape=(4, 5), n_times=3, fold=4)
    @example(seed=10, d_b=2, rank=4, shape=(7, 12), n_times=2, fold=4)
    @example(seed=11, d_b=3, rank=5, shape=(20, 40), n_times=6, fold=4)
    @example(seed=12, d_b=2, rank=2, shape=(20, 42), n_times=1, fold=4)
    def test_pruned_grid_is_exhaustive_grid(self, seed, d_b, rank, shape, n_times,
                                            fold):
        # the prune of one objective, D(n) or each of n_times + 1 cones
        # lip * chord(n, a) that attain the Lipschitz bound, keeps the
        # exhaustive argmin; the d_n(t) search (K = n_times, folds 1 and 2)
        # evaluates its candidates in one call. refine_rounds = 0 leaves the
        # grid, which under a fold is its searched phi columns
        rng = np.random.default_rng(seed)
        s = random_rank_state(d_b, rank, rng)
        grid = BasisGrid(*shape, refine_rounds=0)
        start = np.vstack([_basis_angles(local_eigenbasis(s)[0]), random_angles(1, rng)])
        angles = np.vstack([searched_angles(grid, fold), start])
        kernel, lip = _disturbance_kernel(s.rho, d_b), _chord_lipschitz(s)
        apexes = bloch_vectors(np.vstack([random_angles(n_times, rng),
                                          angles[rng.integers(len(angles) - 2)]]))
        for f in [kernel] + [lambda a, c=c: lip * _chord(bloch_vectors(a), c) for c in apexes]:
            calls = []

            def spy(a):
                calls.append((a, f(a)))
                return calls[-1][1]

            got = _pruned_argmin(spy, lip, grid, start, fold)
            full = f(angles)
            k = np.argmin(full)
            assert np.array_equal(got, angles[k, None])  # first in grid order on a tie
            assert np.array_equal(calls[0][0][-len(start):], start)  # always evaluated
            seen = np.vstack([a for a, _ in calls])
            seen_vals = np.hstack([v for _, v in calls])
            # every evaluated point has its whole-grid value, bit for bit
            keys = angles @ [1, 1j]
            at = np.array([np.flatnonzero(keys == key)[0] for key in seen @ [1, 1j]])
            assert np.array_equal(seen_vals, full[at])
            skipped = ~np.isin(keys, seen @ [1, 1j])
            assert len(seen) + skipped.sum() == len(angles)  # each point at most once
            assert np.all(full[skipped] > full[k])
        f, d_fold, calls = minimized_objective(s, rng, n_times), min(fold, 2), []
        cand = np.vstack([searched_angles(grid, d_fold), start])
        got = _bloch_search(lambda a: calls.append(a) or f(a), cand, grid, d_fold)
        assert len(calls) == 1 and np.array_equal(calls[0][0], cand)
        ref = bloch_search_exhaustive(f, grid, start, searched_cols(grid, d_fold))
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 12),
           st.sampled_from([1, 2, 5, 40]), st.sampled_from([1, 2, 4]))
    def test_objective_matches_component_last_oracle(self, seed, d_b, rank, n_times,
                                                      fold):
        # the (T, 3, G) objective against the (T, G, 3) one with its sum over
        # the components, bit for bit: axes shared by all K times (one, two or
        # the searched grid) and K of their own each (one, or a stencil of 8)
        rng = np.random.default_rng(seed)
        s = random_rank_state(d_b, rank, rng)
        series = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "pauli_vector",
                       lambda m: series.append(pauli_vector(m)) or series[-1])
            f = minimized_objective(s, rng, n_times)
        oracle = minimized_objective_rows(series[0])
        grid = searched_angles(BasisGrid(20, 40), fold)
        for ang in (grid[None, :1], grid[None, :2], grid[None],
                    random_angles(n_times, rng)[:, None],
                    random_angles(8 * n_times, rng).reshape(n_times, 8, 2)):
            got = f(ang)
            assert got.shape == (n_times, ang.shape[1])
            assert got.tobytes() == oracle(ang).tobytes()

    @pytest.mark.parametrize("folds,n_cand,n_chunks", [((1, 1), 60 * 120 + 1, 3),
                                                       ((4, 2), 60 * 61 + 1, 2)])
    def test_time_chunks_match_one_search(self, folds, n_cand, n_chunks):
        # 40 times on the 60 x 120 grid, in chunks of 2**17 // n_cand times:
        # d_t is the exhaustive search over all 40 time objectives in one
        # call, clamped by d_{n*}(t), bit for bit
        p = model_spinchain.ChainParams(n_spins=4, b_field=0.6, kT=0.4)
        spec = model_spinchain.spectral(p)
        g = model_spinchain.gibbs_state(p, spec)
        evo = model_spinchain.original_frame_evolution(p, spec)
        bases = BasisGrid(60, 120)
        series, searched = [], []
        real = measures._bloch_search
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "pauli_vector",
                       lambda m: series.append(pauli_vector(m)) or series[-1])
            mp.setattr(measures, "_bloch_search",
                       lambda f, a, *r: searched.append(len(a)) or real(f, a, *r))
            got = run_minimized_detection(g, evo, TimeGrid.linear(6.0, 40), bases, folds)
        assert searched == [1] + [n_cand] * n_chunks  # D_min's refinement, then the chunks
        f = minimized_objective_rows(series[0])
        start = _basis_angles(local_eigenbasis(g)[0])
        vals, _ = bloch_search_exhaustive(f, bases, start, searched_cols(bases, folds[1]))
        _, n_star = minimal_dephasing_disturbance(g, bases, start, folds[0])
        ref = np.minimum(vals, f(_basis_angles(n_star)[None])[:, 0])
        assert got.d_t.tobytes() == ref.tobytes()

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
        got = _bloch_search(f, np.vstack([grid.angles(), start]), grid)
        ref = bloch_search_exhaustive(f, grid, start)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    # (grid shape, seed, d_B, rank) where exactly one fine point is left for
    # the prune of D(n) to evaluate; its lone row goes through gemv
    @pytest.mark.parametrize("shape,seed,d_b,rank", [
        pytest.param((5, 12), 6, 1, 1, id="shape6-6-1-1-0"),
        pytest.param((20, 40), 3, 1, 2, id="shape7-3-1-2-0")])
    def test_single_survivor_is_exhaustive(self, shape, seed, d_b, rank):
        check_single_survivor(shape, seed, d_b, rank, fold=1)

    # the same under fold 2, for n_phi 2, 5 and 40
    @pytest.mark.parametrize("shape,seed,d_b,rank", [
        pytest.param((5, 2), 39, 1, 1, id="shape1-39-1-1-0"),
        pytest.param((3, 5), 3, 1, 1, id="shape4-3-1-1-0"),
        pytest.param((20, 40), 21, 1, 2, id="shape6-21-1-2-0")])
    def test_single_survivor_is_exhaustive_mirrored(self, shape, seed, d_b, rank):
        check_single_survivor(shape, seed, d_b, rank, fold=2)

    # and under fold 4: the quarter's columns for an even n_phi, n_phi % 4 == 2
    # among them, and the half's for an odd one
    @pytest.mark.parametrize("shape,seed,d_b,rank", [
        pytest.param((5, 2), 0, 1, 2, id="shape0-0-1-2-0"),
        pytest.param((5, 10), 1, 1, 2, id="shape3-1-1-2-0"),
        pytest.param((20, 40), 40, 2, 2, id="shape4-40-2-2-0"),
        pytest.param((20, 42), 37, 1, 2, id="shape6-37-1-2-0"),
        pytest.param((20, 41), 1, 1, 2, id="shape8-1-1-2-0")])
    def test_single_survivor_is_exhaustive_quartered(self, shape, seed, d_b, rank):
        check_single_survivor(shape, seed, d_b, rank, fold=4)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 12),
                                       (7, 9), (20, 40), (60, 120)])
    def test_pruning_table(self, shape):
        grid = BasisGrid(*shape)
        table = _pruning_table(grid, 1)
        ref = pruning_table_unmirrored(grid)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(table, ref))
        # the folded tables partition the positions of the searched points,
        # and the last searched column is coarse
        for fold in (2, 4):
            coarse, fine = _pruning_table(grid, fold)[:2]
            n_col = len(searched_cols(grid, fold))
            assert np.array_equal(np.sort(np.concatenate([coarse, fine])),
                                  np.arange(grid.n_theta * n_col))
            assert n_col - 1 in coarse % n_col

    @pytest.mark.parametrize("n_phi", [1, 3, 5, 41, 2, 6, 42, 4, 40])
    def test_odd_grid_keeps_the_half(self, n_phi):
        # the fold 4 images of an odd n_phi's grid points are not grid points,
        # so a search of fold 4 covers the half's columns
        grid = BasisGrid(7, n_phi, refine_rounds=0)
        n_col = n_phi // 2 + 1 if n_phi % 2 else n_phi // 4 + 1
        on = np.arange(7 * n_phi) % n_phi < n_col
        assert np.array_equal(_fold_points(grid, 4), grid.angles()[on])
        s = random_rank_state(2, 2, np.random.default_rng(n_phi))
        start = _basis_angles(local_eigenbasis(s)[0])
        kernel, calls = _disturbance_kernel(s.rho, 2), []
        _pruned_argmin(lambda a: calls.append(a) or kernel(a), _chord_lipschitz(s), grid,
                       start, 4)
        coarse = _pruning_table(grid, 2 if n_phi % 2 else 4)[0]
        assert np.array_equal(calls[0][:-1], grid.angles()[on][coarse])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.floats(-3.0, 3.0), st.floats(0.02, 5.0),
           st.sampled_from([40, 42, 41]))
    def test_trimmed_stencil_matches_full_stencil(self, n_spins, b_field, kT, n_phi):
        # under fold 4 the stencil drops the images of its other points on
        # theta = pi/2, phi = 0 and phi = pi/2; on chain Gibbs states, which
        # have the fold's symmetries, the refined D_min is the full stencil's
        # over the same columns up to rounding
        p = model_spinchain.ChainParams(n_spins=n_spins, b_field=b_field, kT=kT)
        g = model_spinchain.gibbs_state(p)
        grid = BasisGrid(20, n_phi)
        start = _basis_angles(local_eigenbasis(g)[0])
        kernel = _disturbance_kernel(g.rho, g.dims.d_b)
        val, _ = minimal_dephasing_disturbance(g, grid, start, 4)
        ref, _ = bloch_search_exhaustive(lambda a: kernel(a[0])[None], grid, start,
                                         searched_cols(grid, 4))
        assert abs(val - ref[0]) <= 1e-15

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

    def test_angles_are_shared_and_read_only(self):
        # built once per (n_theta, n_phi), whatever the refinement, as the
        # meshgrid of the theta and phi samples
        g = BasisGrid(n_theta=7, n_phi=12, refine_rounds=2)
        ang = g.angles()
        assert ang is BasisGrid(7, 12, 2).angles() is BasisGrid(7, 12, 0).angles()
        assert ang is not BasisGrid(7, 11, 2).angles()
        assert not ang.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ang[0, 0] = 1.0
        tt, pp = np.meshgrid(np.linspace(0.0, np.pi / 2, 7),
                             np.linspace(0.0, 2 * np.pi, 12, endpoint=False), indexing="ij")
        assert ang.tobytes() == np.column_stack([tt.ravel(), pp.ravel()]).tobytes()

    def test_coverage(self):
        g = BasisGrid(n_theta=5, n_phi=8)
        ang = g.angles()
        assert len(ang) == 40
        assert ang[:, 0].min() == 0.0 and abs(ang[:, 0].max() - np.pi / 2) <= 1e-12
        assert ang[:, 1].max() < 2 * np.pi
