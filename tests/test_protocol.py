"""Local detection protocol, minimized witness, classical-correlation
witness and the Haar-average estimator."""

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
    haar_average_loop,
    hs_distance_sq,
    local_unitary_kron,
    minimized_series,
    partial_trace_a,
    trace_norm,
    two_state_distances,
)
from discord_probe import measures, protocol, tensor
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
    haar_unitary,
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


class TestTimeGrid:
    def test_valid(self):
        g = TimeGrid.linear(2.0, 5)
        assert g.samples[0] == 0.0 and len(g.samples) == 5

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 2.0, 1.0]))


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(1, 3))
    def test_evolve_vectors_matches_expm(self, seed, d, k):
        rng = np.random.default_rng(seed)
        h = random_hermitian(d, rng)
        vecs = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        times = np.concatenate([[0.0], rng.uniform(-3.0, 3.0, 3)])
        out = EvolutionSpec(hamiltonian=h).evolve_vectors(vecs, times)
        assert out.shape == (d, k, len(times))
        for ti, t in enumerate(times):
            assert np.max(np.abs(out[:, :, ti] - expm(-1j * h * t) @ vecs)) <= 1e-12

    def test_given_spectrum_is_used(self, rng):
        h = random_hermitian(4, rng)
        w, v = np.linalg.eigh(h)
        evo = EvolutionSpec(hamiltonian=h, spectrum=(w, v))
        assert evo.spectral()[1] is v

    def test_real_generator_stays_real(self, rng):
        h = random_hermitian(5, rng).real
        evo = EvolutionSpec(h)
        assert evo.hamiltonian.dtype == np.float64
        assert evo.spectral()[1].dtype == np.float64
        times = np.array([0.0, 0.8, 2.1])
        out = evo.evolve_vectors(np.eye(5, 2), times)
        ref = EvolutionSpec(h.astype(complex)).evolve_vectors(np.eye(5, 2), times)
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_spectral_checks_hermiticity_once(self, rng, monkeypatch):
        # the generator is checked on construction, not again by spectral()
        calls = []
        for module in (protocol, tensor):
            real = module.require_hermitian
            monkeypatch.setattr(module, "require_hermitian",
                                lambda m, *a, real=real: calls.append(1) or real(m, *a))
        h = random_hermitian(5, rng)
        w, v = EvolutionSpec(h).spectral()
        assert len(calls) == 1
        assert np.array_equal(w, np.linalg.eigh(h)[0])


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
        with pytest.raises(WitnessBoundError):
            WitnessSeries(np.array([0.0, 1.0]), np.array([0.0, 0.5]), bound_ref=0.1)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            WitnessSeries(np.array([0.0, 1.0]), np.array([0.0, 1.5]))

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
        assert series.bound_ref == pytest.approx(dephasing_disturbance(s), abs=1e-12)
        assert np.all(series.d_t <= series.bound_ref + 1e-9)

    @pytest.mark.parametrize("d_a,d_b", [(2, 3), (3, 2), (3, 4)])
    def test_bound_matches_dense_trace_norm(self, d_a, d_b):
        # the qubit block kernel for d_A = 2, the trace norm of Delta above
        rng = np.random.default_rng(10 * d_a + d_b)
        s = random_state(d_a, d_b, rng)
        basis = ProjectiveBasis(haar_unitary(d_a, d_b))
        evo = EvolutionSpec(hamiltonian=random_hermitian(d_a * d_b, rng))
        dense = 0.5 * trace_norm(s.rho - dephase_kron(s, basis))
        assert abs(run_local_detection(s, evo, GRID, basis).bound_ref - dense) <= 1e-12
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
                s, None, EvolutionSpec(hamiltonian=h), GRID
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
            s, None, EvolutionSpec(hamiltonian=h), GRID
        )
        assert detected

    @pytest.mark.parametrize("d_a,d_b", [(2, 3), (3, 2), (3, 3)])
    def test_matches_two_state_oracle(self, d_a, d_b):
        rng = np.random.default_rng(20 * d_a + d_b)
        s = random_state(d_a, d_b, rng)
        evo = EvolutionSpec(hamiltonian=random_hermitian(d_a * d_b, rng))
        u = SX if d_a == 2 else haar_unitary(d_a, 9)
        series, _ = classical_correlation_witness(
            s, None if d_a == 2 else u, evo, GRID)
        rotated = local_unitary_kron(s, u)
        d_t = two_state_distances(evo, s.rho, rotated, s.dims, GRID.samples)
        assert np.max(np.abs(series.d_t - d_t)) <= 1e-12


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
