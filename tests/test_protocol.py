"""Local detection protocol, minimized witness, classical-correlation
witness and the Haar-average estimator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    SX,
    random_density,
    random_hermitian,
    random_pure_state,
    random_state,
)
from oracles import (
    dephase_kron,
    dephasing_disturbance_dense,
    haar_average_loop,
    haar_unitary,
    hs_distance_sq,
    labelled_blocks,
    local_unitary_kron,
    minimized_series,
    partial_trace_a,
    trace_norm,
    two_state_distances,
)
from discord_probe import measures, model_ion, model_spinchain, protocol, tensor
from discord_probe.measures import (
    BasisGrid,
    bloch_vectors,
    dephasing_disturbance,
    minimal_dephasing_disturbance,
    trace_distance,
)
from discord_probe.protocol import (
    EvolutionSpec,
    TimeGrid,
    WitnessBoundError,
    WitnessSeries,
    classical_correlation_witness,
    haar_average_estimate,
    haar_coefficient,
    local_trace_distances,
    run_local_detection,
    run_minimized_detection,
)
from discord_probe.states import (
    BipartiteState,
    ProjectiveBasis,
    computational_basis,
    dephase,
    local_eigenbasis,
    qubit_basis,
    zero_discord_state,
)
from discord_probe.tensor import (
    BipartitionDims,
    evolve,
    kron,
    partial_trace_b,
)

GRID = TimeGrid.linear(5.0, 60)


def _bell_state() -> BipartiteState:
    b = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return BipartiteState(np.outer(b, b).astype(complex), BipartitionDims(2, 2))


@pytest.mark.parametrize("call", [
    lambda s: run_local_detection(
        s, EvolutionSpec(hamiltonian=np.eye(4, dtype=complex)), GRID),
    dephasing_disturbance,
    lambda s: haar_average_estimate(s, 100, seed=0),
], ids=["run_local_detection", "dephasing_disturbance", "haar_average_estimate"])
def test_degenerate_marginal_refused(call):
    # the A-marginal of a Bell state is I/2: no eigenbasis defines Phi
    with pytest.raises(ValueError, match="degenerate"):
        call(_bell_state())


@pytest.mark.parametrize("call", [
    lambda s, b: run_local_detection(s, EvolutionSpec(np.eye(4)), GRID, b),
    dephasing_disturbance,
], ids=["run_local_detection", "dephasing_disturbance"])
def test_basis_dimension_refused(call, rng):
    # a 3-dimensional basis cannot pinch the qubit A of a 2 x 2 state
    state = BipartiteState(random_density(4, rng), BipartitionDims(2, 2))
    with pytest.raises(ValueError, match="basis dimension does not match subsystem A"):
        call(state, computational_basis(3))


class TestTimeGrid:
    def test_valid(self):
        g = TimeGrid.linear(2.0, 5)
        assert g.samples[0] == 0.0 and len(g.samples) == 5

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="must be finite"):
            TimeGrid(np.array([0.0, np.nan]))
        with pytest.raises(ValueError, match="must be finite"):
            TimeGrid(np.array([0.0, 1.0, np.inf]))


class TestEvolutionSpec:
    def test_marginal_series_matches_direct(self, rng):
        dims = BipartitionDims(2, 3)
        h = random_hermitian(6, rng)
        rho = random_density(6, rng)
        evo = EvolutionSpec(hamiltonian=h)
        times = np.array([0.0, 0.7, 1.9])
        out = evo.marginal_series([rho], dims, times)
        for ti, t in enumerate(times):
            direct = partial_trace_b(evolve(rho, h, t), dims)
            assert np.max(np.abs(out[0, ti] - direct)) <= 1e-10

    @staticmethod
    def _direct_sum(seed, d):
        """A random Hermitian direct sum of blocks of size 1-4 (some zero),
        with the basis permuted; returns H and a sector label per state."""
        rng = np.random.default_rng(seed)
        sizes = []
        while sum(sizes) < d:
            sizes.append(min(int(rng.integers(1, 5)), d - sum(sizes)))
        perm = rng.permutation(d)
        h = np.zeros((d, d), dtype=complex)
        labels = np.empty(d, dtype=int)
        lo = 0
        for s, m in enumerate(sizes):
            idx = perm[lo : lo + m]
            h[np.ix_(idx, idx)] = random_hermitian(m, rng) * (rng.random() > 0.2)
            labels[idx] = 7 * s - 3  # any distinct integers label sectors
            lo += m
        return h, labels, rng

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 3), st.integers(1, 6))
    def test_sectors_match_dense_and_expm(self, seed, d_a, d_b):
        dims = BipartitionDims(d_a, d_b)
        h, labels, rng = self._direct_sum(seed, dims.total)
        sectored, dense = EvolutionSpec(labelled_blocks(h, labels)), EvolutionSpec(h)
        times = np.concatenate([[0.0], rng.uniform(-3.0, 3.0, 3)])
        # operators block diagonal on the labels, so exactly zero between
        # sectors: a pinched state, a real and a complex non-Hermitian one, and
        # one whose blocks on some sectors are exactly zero too; given to the
        # sectored spec as their blocks on its sector value
        _, sec = np.unique(labels, return_inverse=True)
        on = sec[:, None] == sec
        kept = rng.random(sec.max() + 1) < 0.5
        z = rng.standard_normal((dims.total,) * 2) + 1j * rng.standard_normal(
            (dims.total,) * 2)
        mats = [random_density(dims.total, rng) * on,
                rng.standard_normal((dims.total,) * 2) * on + 0j, z * on,
                z * (on & kept[sec])]
        margs = sectored.marginal_series(
            [labelled_blocks(x, sectored.blocks.sectors) for x in mats], dims, times)
        assert np.max(np.abs(margs - dense.marginal_series(mats, dims, times))) <= 1e-12
        for ti, t in enumerate(times):
            u = expm(-1j * h * t)
            for xi, x in enumerate(mats):
                direct = partial_trace_b(u @ x @ u.conj().T, dims)
                assert np.max(np.abs(margs[xi, ti] - direct)) <= 1e-12

    @pytest.mark.parametrize("value", [1e-300, np.nan, np.inf])
    def test_marginal_series_refuses_operator_between_sectors(self, value):
        # a dense operator on a generator of more than one sector, with one
        # entry between two of them however small or none, even after a valid
        # operator; the spec of the dense H evolves a finite one
        h, labels, _ = self._direct_sum(7, 8)
        dims, times = BipartitionDims(2, 4), np.array([0.0, 0.4])
        x = np.diag(np.arange(8.0)) + 0j
        evo = EvolutionSpec(labelled_blocks(h, labels))
        valid = labelled_blocks(x, evo.blocks.sectors)
        a, b = np.nonzero(labels[:, None] != labels)
        x[a[0], b[0]] = value
        for ops in ([valid, x], [valid, valid.dense]):
            with pytest.raises(ValueError, match="BlockDiagonal on the generator's sectors"):
                evo.marginal_series(ops, dims, times)
        if np.isfinite(value):
            EvolutionSpec(h).marginal_series([x], dims, times)

    def test_marginal_series_refuses_operator_shape(self):
        # a larger operator is refused even when it is zero outside the
        # block that H's sectors would select
        x = np.zeros((6, 6), dtype=complex)
        x[:4, :4] = np.eye(4) / 4
        for evo in (EvolutionSpec(np.diag([0.0, 1, 2, 3])),
                    EvolutionSpec(labelled_blocks(np.diag([0.0, 1, 2, 3]), [0, 1, 1, 0]))):
            with pytest.raises(ValueError, match="does not match split"):
                evo.marginal_series([x], BipartitionDims(2, 2), np.array([0.0, 1.0]))

    def test_sectors_refuse_coupling_between_them(self):
        # the labelled reference cuts no H with an entry between two sectors,
        # nor one with a label too few; the dense H is one sector, and its
        # spec's spectrum is the dense eigh
        h, labels, _ = self._direct_sum(7, 8)
        a, b = np.nonzero(labels[:, None] != labels)
        h[a[0], b[0]] = 1e-3j  # one entry between two sectors, H kept Hermitian
        h[b[0], a[0]] = -1e-3j
        with pytest.raises(ValueError, match="couples two declared sectors"):
            labelled_blocks(h, labels)
        with pytest.raises(ValueError, match="one sector label per basis state"):
            labelled_blocks(np.eye(3), [0, 1])
        (rows, w, v), = EvolutionSpec(h).spectrum
        assert rows.tolist() == [list(range(8))]
        assert np.array_equal(w[0], np.linalg.eigh(h)[0])

    def test_rejects_nan_generator(self):
        for h in (np.full((2, 2), np.nan), np.diag([0.0, np.nan])):
            with pytest.raises(ValueError, match="not Hermitian"):
                EvolutionSpec(h)

    def test_marginal_series_memory(self):
        # the seven operators of the minimized witness on the n = 8 Gibbs state
        # (d = 256) over 400 times, under the original frame's dense evolution
        # that the thermal path uses: contracting one operator at a time, with
        # no stacked copy of the operators, peaks near 32 MB, one contraction
        # over all seven near 100 MB
        p = model_spinchain.ChainParams(n_spins=8, kT=0.1)
        spec = model_spinchain.spectral(p)
        state = model_spinchain.gibbs_state(p, spec)
        evolution = model_spinchain.original_frame_evolution(p, spec)
        conj = [tensor.local_sandwich(tensor.PAULI[a], state.rho, tensor.PAULI[b],
                                      state.dims) for a, b in protocol._PAIRS]
        mats = [state.rho] + [(m + m.conj().T) / 2 for m in conj]
        times = TimeGrid.linear(20.0, 400).samples
        tracemalloc.start()
        try:
            evolution.marginal_series(mats, state.dims, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6

    def test_given_spectrum_is_used(self, rng):
        h = random_hermitian(4, rng)
        w, v = np.linalg.eigh(h)
        spectrum = [(np.arange(4)[None], w[None], v[None])]
        evo = EvolutionSpec(hamiltonian=h, spectrum=spectrum)
        assert evo.spectrum is spectrum

    def test_spectral_checks_hermiticity_once(self, rng, monkeypatch):
        # the generator is checked once, on construction, which diagonalizes it
        calls = []
        real = tensor._require_hermitian_stack
        monkeypatch.setattr(tensor, "_require_hermitian_stack",
                            lambda m, *a: calls.append(1) or real(m, *a))
        h = random_hermitian(5, rng)
        (_, w, v), = EvolutionSpec(h).spectrum
        assert len(calls) == 1
        assert np.array_equal(w[0], np.linalg.eigh(h)[0])


class TestLocalTraceDistances:
    @staticmethod
    def _eigvalsh_distances(m):
        return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(m)), axis=-1)

    @pytest.mark.parametrize("traceless", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 1e-16])
    def test_qubit_matches_eigvalsh(self, rng, traceless, scale):
        m = np.stack([random_hermitian(2, rng) for _ in range(200)]) * scale
        if traceless:
            m -= np.trace(m, axis1=1, axis2=2)[:, None, None] * np.eye(2) / 2
        ref = self._eigvalsh_distances(m)
        assert np.max(np.abs(local_trace_distances(m) - ref)) <= 1e-14 * scale

    def test_qubit_rank_one(self, rng):
        psi = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
        sign = rng.choice([-1.0, 1.0], 50)[:, None, None]
        m = sign * np.einsum("ti,tj->tij", psi, psi.conj())
        ref = self._eigvalsh_distances(m)
        assert np.max(np.abs(local_trace_distances(m) - ref)) <= 1e-14 * np.max(ref)

    def test_qutrit_is_eigvalsh(self, rng):
        m = np.stack([random_hermitian(3, rng) for _ in range(20)])
        ref = [0.5 * trace_norm(x) for x in m]
        assert np.max(np.abs(local_trace_distances(m) - ref)) <= 1e-13


class TestWitnessSeries:
    def test_bound_enforced(self):
        for bound in (0.1, np.nan):
            with pytest.raises(WitnessBoundError):
                WitnessSeries(np.array([0.0, 1.0]), np.array([0.0, 0.5]), bound_ref=bound)

    def test_range_enforced(self):
        for bad in (1.5, np.nan):
            with pytest.raises(ValueError, match="must lie in"):
                WitnessSeries(np.array([0.0, 1.0]), np.array([0.0, bad]))

    def test_maxima(self):
        s = WitnessSeries(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.3, 0.1]))
        assert s.d_max == 0.3 and s.argmax_time == 1.0

    def test_argmax_time_ignores_rounding_noise(self, rng):
        # a series that is zero in exact arithmetic: no sample is picked out
        noise = np.abs(rng.standard_normal(50)) * 1e-16
        times = np.linspace(0.0, 10.0, 50)
        for _ in range(20):
            assert WitnessSeries(times, rng.permutation(noise)).argmax_time == 0.0


class TestRunLocalDetection:
    def test_product_state_silent(self, rng):
        rho_b = random_density(3, rng)
        s = zero_discord_state([1.0, 0.0], computational_basis(2), [rho_b, rho_b])
        evo = EvolutionSpec(hamiltonian=random_hermitian(6, rng))
        series = run_local_detection(s, evo, GRID)
        assert series.d_max <= 1e-12

    def test_zero_discord_silent(self, rng):
        s = zero_discord_state(
            [0.8, 0.2], computational_basis(2),
            [random_density(2, rng), random_density(2, rng)],
        )
        evo = EvolutionSpec(hamiltonian=random_hermitian(4, rng))
        assert run_local_detection(s, evo, GRID).d_max <= 1e-12

    def test_noninteracting_silent(self, rng):
        s = random_state(2, 3, rng)
        h = kron(random_hermitian(2, rng), np.eye(3)) + kron(
            np.eye(2), random_hermitian(3, rng)
        )
        series = run_local_detection(s, EvolutionSpec(hamiltonian=h), GRID)
        assert series.d_max <= 1e-12

    def test_d0_zero_and_bound(self, rng):
        s = random_state(2, 2, rng)
        evo = EvolutionSpec(hamiltonian=random_hermitian(4, rng))
        series = run_local_detection(s, evo, GRID)
        assert series.d_t[0] <= 1e-12
        assert series.bound_ref == dephasing_disturbance(s)
        assert np.all(series.d_t <= series.bound_ref + 1e-9)

    @pytest.mark.parametrize("d_a,d_b", [(2, 3), (3, 2), (3, 4),
                                         pytest.param("ion", 5.9, id="ion")])
    def test_bound_matches_dense_trace_norm(self, d_a, d_b):
        # D on the sectors of Delta (one sector, or the ion's labels kept by
        # the pinching) against the full trace norm and, for d_A = 2, the
        # singular values of <0|rho|1>; the bound read from the evolved Delta
        # is dephasing_disturbance's to the bit
        if d_a == "ion":
            p = model_ion.IonParams(nbar=d_b)
            basis, evo = computational_basis(2), model_ion.evolution(p)
            s = model_ion.prepare_state(p, np.pi / (2 * p.omega0))  # on labels equal to evo's
            assert len(np.unique(s.blocks.sectors.labels)) > 1
        else:
            rng = np.random.default_rng(10 * d_a + d_b)
            s = random_state(d_a, d_b, rng)
            basis = ProjectiveBasis(haar_unitary(d_a, d_b))
            evo = EvolutionSpec(hamiltonian=random_hermitian(d_a * d_b, rng))
        bound = run_local_detection(s, evo, GRID, basis).bound_ref
        assert bound == dephasing_disturbance(s, basis)
        dense = 0.5 * trace_norm(s.rho - dephase_kron(s, basis))
        for dense in [dense, *dephasing_disturbance_dense(s, basis)]:
            assert abs(bound - dense) <= 1e-12
            assert abs(dephasing_disturbance(s, basis) - dense) <= 1e-12

    def test_b_marginals_coincide_at_t0(self, rng):
        s = random_state(2, 3, rng)
        basis, _ = local_eigenbasis(s)
        deph = dephase(s, basis)
        assert np.max(np.abs(
            partial_trace_a(s.rho, s.dims) - partial_trace_a(deph.rho, s.dims)
        )) <= 1e-12

    def test_refusal_on_degeneracy(self):
        b = np.array([1, 0, 0, 1]) / np.sqrt(2)
        bell = BipartiteState(np.outer(b, b).astype(complex), BipartitionDims(2, 2))
        evo = EvolutionSpec(hamiltonian=np.eye(4, dtype=complex))
        with pytest.raises(ValueError, match="degenerate"):
            run_local_detection(bell, evo, GRID)

    def test_grid_refinement_monotone(self, rng):
        s = random_state(2, 2, rng)
        evo = EvolutionSpec(hamiltonian=random_hermitian(4, rng))
        coarse = run_local_detection(s, evo, TimeGrid.linear(5.0, 20))
        fine = run_local_detection(
            s, evo, TimeGrid(np.unique(np.concatenate(
                [coarse.times, np.linspace(0, 5.0, 77)])))
        )
        assert fine.d_max >= coarse.d_max - 1e-15

    def test_qubit_fast_path_matches_general(self, rng):
        # same physics through the d_A = 2 closed form and the generic eigh path
        s = random_state(2, 4, rng)
        h = random_hermitian(8, rng)
        evo = EvolutionSpec(hamiltonian=h)
        series = run_local_detection(s, evo, GRID)
        basis, _ = local_eigenbasis(s)
        deph = dephase(s, basis)
        for ti in (7, 23, 41):
            t = GRID.samples[ti]
            direct = trace_distance(
                partial_trace_b(evolve(s.rho, h, t), s.dims),
                partial_trace_b(evolve(deph.rho, h, t), s.dims),
            )
            assert abs(series.d_t[ti] - direct) <= 1e-10

    @pytest.mark.parametrize("d_a,d_b", [(2, 3), (3, 2), (3, 3)])
    def test_matches_two_state_oracle(self, d_a, d_b):
        # one evolved Delta against rho and its pinching evolved apart
        rng = np.random.default_rng(10 * d_a + d_b)
        s = random_state(d_a, d_b, rng)
        evo = EvolutionSpec(hamiltonian=random_hermitian(d_a * d_b, rng))
        for basis in (None, ProjectiveBasis(haar_unitary(d_a, 4))):
            series = run_local_detection(s, evo, GRID, basis)
            dephased = dephase_kron(s, basis or local_eigenbasis(s)[0])
            d_t = two_state_distances(evo, s.rho, dephased, s.dims, GRID.samples)
            assert np.max(np.abs(series.d_t - d_t)) <= 1e-12
            assert abs(series.bound_ref - 0.5 * trace_norm(s.rho - dephased)) <= 1e-12


class TestRunMinimizedDetection:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.booleans())
    def test_local_distance_is_lipschitz_in_the_chord(self, seed, d_b, near):
        # |d_n(t) - d_m(t)| <= ||N rho N - M rho M||_1 / 4 <= ||rho||_1 chord / 2,
        # the constant that prunes the d_min(t) search
        rng = np.random.default_rng(seed)
        s = random_state(2, d_b, rng)
        evo = EvolutionSpec(hamiltonian=random_hermitian(2 * d_b, rng))
        n = rng.uniform([0.0, 0.0], [np.pi, 2 * np.pi])
        m = n + rng.normal(scale=1e-3 if near else 1.0, size=2)
        d_n = run_local_detection(s, evo, GRID, basis=qubit_basis(*n)).d_t
        d_m = run_local_detection(s, evo, GRID, basis=qubit_basis(*m)).d_t
        lip = 0.5 * trace_norm(s.rho)
        assert lip <= measures._chord_lipschitz(s)
        chord = measures._chord(bloch_vectors(n), bloch_vectors(m))
        assert np.all(np.abs(d_n - d_m) <= lip * chord + 1e-12)

    def test_zero_discord(self, rng):
        s = zero_discord_state(
            [0.7, 0.3], computational_basis(2),
            [random_density(2, rng), random_density(2, rng)],
        )
        evo = EvolutionSpec(hamiltonian=random_hermitian(4, rng))
        series = run_minimized_detection(s, evo, TimeGrid.linear(3.0, 16))
        assert series.d_max <= 1e-4

    def test_below_plain_witness(self, rng):
        s = random_state(2, 2, rng)
        evo = EvolutionSpec(hamiltonian=random_hermitian(4, rng))
        grid = TimeGrid.linear(3.0, 16)
        plain = run_local_detection(s, evo, grid)
        minimized = run_minimized_detection(s, evo, grid)
        assert np.all(minimized.d_t <= plain.d_t + 1e-9)

    def test_diagonalizes_marginal_once(self, rng, monkeypatch):
        calls = []
        real = local_eigenbasis
        for module in (protocol, measures):
            monkeypatch.setattr(module, "local_eigenbasis",
                                lambda st: calls.append(1) or real(st))
        s = random_state(2, 3, rng)
        evo = EvolutionSpec(hamiltonian=random_hermitian(6, rng))
        bases = BasisGrid(n_theta=6, n_phi=12)
        series = run_minimized_detection(s, evo, TimeGrid.linear(3.0, 8), bases)
        assert len(calls) == 1
        monkeypatch.undo()
        assert series.bound_ref == minimal_dephasing_disturbance(s, bases)[0]

    def test_rejects_large_probe(self, rng):
        s = random_state(3, 2, rng)
        evo = EvolutionSpec(hamiltonian=random_hermitian(6, rng))
        with pytest.raises(ValueError):
            run_minimized_detection(s, evo, GRID)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6))
    def test_bound_holds_on_coarsest_grid(self, seed, d_b):
        # d_min(t) <= d_{n*}(t) <= D(n*) = D_min whatever the grid
        rng = np.random.default_rng(seed)
        s = random_state(2, d_b, rng)
        evo = EvolutionSpec(hamiltonian=random_hermitian(2 * d_b, rng))
        grid = TimeGrid.linear(4.0, 12)
        for rounds in (0, 3):
            bases = BasisGrid(n_theta=3, n_phi=4, refine_rounds=rounds)
            series = run_minimized_detection(s, evo, grid, bases)
            assert series.d_max <= series.bound_ref + 1e-12
            _, n_star = minimal_dephasing_disturbance(s, bases)
            along_n_star = run_local_detection(s, evo, grid, basis=n_star)
            assert np.all(series.d_t <= along_n_star.d_t + 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.booleans())
    def test_never_above_per_time_oracle(self, seed, d_b, pure):
        rng = np.random.default_rng(seed)
        s = (random_pure_state if pure else random_state)(2, d_b, rng)
        evo = EvolutionSpec(hamiltonian=random_hermitian(2 * d_b, rng))
        grid = TimeGrid.linear(4.0, 12)
        bases = BasisGrid(n_theta=6, n_phi=12, refine_rounds=3)
        series = run_minimized_detection(s, evo, grid, bases)
        oracle = minimized_series(s, evo, grid.samples, bases)
        assert np.all(series.d_t <= oracle + 1e-12)


class TestClassicalCorrelationWitness:
    def test_product_state_never_fires(self, rng):
        rho_b = random_density(2, rng)
        s = zero_discord_state([1.0, 0.0], computational_basis(2), [rho_b, rho_b])
        for seed in range(5):
            h = random_hermitian(4, np.random.default_rng(seed))
            _, detected = classical_correlation_witness(
                s, SX, EvolutionSpec(hamiltonian=h), GRID
            )
            assert not detected

    def test_identity_perturbation_silent(self, rng):
        s = random_state(2, 2, rng)
        evo = EvolutionSpec(hamiltonian=random_hermitian(4, rng))
        series, detected = classical_correlation_witness(
            s, np.eye(2, dtype=complex), evo, GRID
        )
        assert np.max(series.d_t) <= 1e-12 and not detected

    def test_correlated_state_fires(self, rng):
        s = zero_discord_state(
            [0.5, 0.5], computational_basis(2),
            [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        )
        h = kron(SX, np.diag([0.0, 1.0]).astype(complex))
        _, detected = classical_correlation_witness(
            s, SX, EvolutionSpec(hamiltonian=h), GRID
        )
        assert detected

    @pytest.mark.parametrize("d_a,d_b", [(2, 3), (3, 2), (3, 3)])
    def test_matches_two_state_oracle(self, d_a, d_b):
        rng = np.random.default_rng(20 * d_a + d_b)
        s = random_state(d_a, d_b, rng)
        evo = EvolutionSpec(hamiltonian=random_hermitian(d_a * d_b, rng))
        u = SX if d_a == 2 else haar_unitary(d_a, 9)
        series, _ = classical_correlation_witness(s, u, evo, GRID)
        rotated = local_unitary_kron(s, u)
        d_t = two_state_distances(evo, s.rho, rotated, s.dims, GRID.samples)
        assert np.max(np.abs(series.d_t - d_t)) <= 1e-12

    def test_rejects_nonunitary(self, rng):
        evo = EvolutionSpec(hamiltonian=random_hermitian(4, rng))
        with pytest.raises(ValueError, match="not unitary"):
            classical_correlation_witness(random_state(2, 2, rng), 2 * np.eye(2), evo, GRID)

    def test_rejects_wrong_dimension(self, rng):
        evo = EvolutionSpec(hamiltonian=random_hermitian(6, rng))
        with pytest.raises(ValueError, match="unitary dimension"):
            classical_correlation_witness(random_state(2, 3, rng), np.eye(3), evo, GRID)


class TestHaarAverage:
    def test_coefficients(self):
        assert haar_coefficient(BipartitionDims(2, 2)) == pytest.approx(0.4)
        assert haar_coefficient(BipartitionDims(2, 3)) == pytest.approx(9 / 35)

    def test_zero_discord_mean_zero(self, rng):
        s = zero_discord_state(
            [0.7, 0.3], computational_basis(2),
            [random_density(2, rng), random_density(2, rng)],
        )
        mean, _, predicted = haar_average_estimate(s, 100, seed=5)
        assert mean <= 1e-12 and predicted <= 1e-12

    def test_three_sigma(self, rng):
        s = random_state(2, 2, rng)
        mean, se, predicted = haar_average_estimate(s, 10_000, seed=11)
        assert abs(mean - predicted) <= 3 * se
        basis, _ = local_eigenbasis(s)
        assert predicted == pytest.approx(
            0.4 * hs_distance_sq(s.rho, dephase(s, basis).rho)
        )

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**31 - 1),
           st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]),
           st.integers(100, 400))
    def test_batched_draws_equal_the_loop(self, seed, dims, n_samples):
        s = random_state(*dims, np.random.default_rng(seed))
        assert haar_average_estimate(s, n_samples, seed + 1) == haar_average_loop(
            s, n_samples, seed + 1)

    @pytest.mark.parametrize("batch", [1, 36 * 7, 36 * 300])
    def test_batch_boundaries_keep_the_stream(self, monkeypatch, batch, rng):
        # d = 6: one sample per batch, batches of 7, and one batch
        s = random_state(2, 3, rng)
        expect = haar_average_loop(s, 250, 3)
        monkeypatch.setattr(protocol, "HAAR_BATCH", batch)
        assert haar_average_estimate(s, 250, 3) == expect

    def test_sample_floor(self, rng):
        with pytest.raises(ValueError):
            haar_average_estimate(random_state(2, 2, rng), 50, seed=0)
