"""Bipartite state constructors and local channels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SX, fresh_interpreter, random_density, random_hermitian, random_state
from oracles import (
    apply_local_unitary,
    dephase_kron,
    dephase_qubit_bloch,
    haar_unitary,
    local_unitary_kron,
    partial_trace_a,
    purity,
    thermal_fock_state,
)
from discord_probe.states import (
    BipartiteState,
    ProjectiveBasis,
    _pcg64_state,
    _pinching_blocks,
    _seed_words,
    computational_basis,
    dephase,
    dephasing_delta,
    fock_cutoff,
    haar_unitaries,
    local_eigenbasis,
    qubit_basis,
    qubit_kets,
    zero_discord_state,
)
from discord_probe.tensor import PAULI, BipartitionDims, kron

D22 = BipartitionDims(2, 2)


class TestBipartiteState:
    def test_valid(self, rng):
        s = random_state(2, 3, rng)
        assert abs(np.trace(s.rho) - 1.0) <= 1e-12

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            BipartiteState(np.eye(4, dtype=complex), D22)

    def test_rejects_negative(self):
        rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            BipartiteState(rho, D22)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (3, 2)])
    def test_rejects_nan(self, entry):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[entry] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            BipartiteState(rho, D22)

    def test_rejects_nan_spectrum(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue nan"):
            BipartiteState(rho, D22, spectrum=np.array([0.5, 0.5, np.nan, 0.0]))


class TestProjectiveBasis:
    def test_computational(self):
        b = computational_basis(3)
        projs = list(b.projectors())
        assert np.allclose(sum(projs), np.eye(3))
        for p in projs:
            assert np.allclose(p @ p, p)

    def test_rejects_nonorthonormal(self):
        with pytest.raises(ValueError):
            ProjectiveBasis(np.array([[1, 1], [0, 0]], dtype=complex))

    def test_qubit_basis_bloch(self):
        b = qubit_basis(np.pi / 2, 0.0)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(plus @ b.vectors[:, 0]) - 1) <= 1e-12

    def test_qubit_kets_batch(self, rng):
        # one formula: a batch of kets is the stack of the single bases, and
        # column 0 has Bloch vector (sin t cos p, sin t sin p, cos t)
        angles = rng.uniform(0, np.pi, (7, 2)) * [1, 2]
        kets = qubit_kets(angles)
        for a, u in zip(angles, kets):
            assert np.array_equal(u, qubit_basis(*a).vectors)
            n = np.real([u[:, 0].conj() @ s @ u[:, 0] for s in PAULI])
            assert np.allclose(n, [np.sin(a[0]) * np.cos(a[1]),
                                   np.sin(a[0]) * np.sin(a[1]), np.cos(a[0])],
                               atol=1e-14)


class TestZeroDiscord:
    def test_single_term(self, rng):
        rb = random_density(3, rng)
        s = zero_discord_state([1.0, 0.0], computational_basis(2), [rb, rb])
        expect = kron(np.diag([1.0, 0.0]), rb)
        assert np.allclose(s.rho, expect)

    def test_uniform_identical(self, rng):
        rb = random_density(2, rng)
        s = zero_discord_state([0.5, 0.5], computational_basis(2), [rb, rb])
        assert np.allclose(s.rho, kron(np.eye(2) / 2, rb))

    def test_invariant_under_own_dephasing(self, rng):
        b = qubit_basis(0.7, 1.1)
        s = zero_discord_state(
            [0.3, 0.7], b, [random_density(3, rng), random_density(3, rng)]
        )
        assert np.max(np.abs(dephase(s, b).rho - s.rho)) <= 1e-12

    def test_rejects_bad_weights(self, rng):
        rb = random_density(2, rng)
        for weights in ([0.6, 0.6], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="probability distribution"):
                zero_discord_state(weights, computational_basis(2), [rb, rb])


class TestDephase:
    def test_bell_state(self):
        b = np.array([1, 0, 0, 1]) / np.sqrt(2)
        bell = BipartiteState(np.outer(b, b).astype(complex), D22)
        out = dephase(bell, computational_basis(2))
        expect = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert np.allclose(out.rho, expect)

    def test_marginals_unchanged(self, rng):
        s = random_state(2, 3, rng)
        out = dephase(s, qubit_basis(0.4, 2.2))
        assert np.max(np.abs(out.marginal_a - s.marginal_a)) > 0  # A may change
        # dephasing in the eigenbasis of rho_A preserves the A-marginal
        basis, _ = local_eigenbasis(s)
        out2 = dephase(s, basis)
        assert np.max(np.abs(out2.marginal_a - s.marginal_a)) <= 1e-12
        # the B-marginal is preserved for any basis
        assert np.max(np.abs(
            partial_trace_a(out.rho, s.dims) - partial_trace_a(s.rho, s.dims)
        )) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0, np.pi / 2),
           st.floats(0, 2 * np.pi))
    def test_idempotent_and_unital(self, seed, theta, phi):
        rng = np.random.default_rng(seed)
        s = random_state(2, 2, rng)
        b = qubit_basis(theta, phi)
        once = dephase(s, b)
        twice = dephase(once, b)
        assert np.max(np.abs(twice.rho - once.rho)) <= 1e-12
        assert purity(once) <= purity(s) + 1e-12

    def test_bloch_axis_shortcut(self, rng):
        s = random_state(2, 3, rng)
        theta, phi = 0.9, 2.4
        n = np.array([np.sin(theta) * np.cos(phi),
                      np.sin(theta) * np.sin(phi), np.cos(theta)])
        direct = dephase(s, qubit_basis(theta, phi)).rho
        shortcut = dephase_qubit_bloch(s, n)
        assert np.max(np.abs(direct - shortcut)) <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            dephase(random_state(3, 2, rng), computational_basis(2))

    def test_unlabelled_state_is_checked_on_its_d_a_blocks(self, rng, monkeypatch):
        # pinched in the computational basis, an unlabelled 2 x 64 state is
        # checked on its two 64 x 64 blocks, not as one 128 x 128 sector, and
        # keeps the bits of the mask [a = b]
        s = random_state(2, 64, rng)
        shapes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *r, **k:
                            shapes.append(np.shape(a)) or eigvalsh(a, *r, **k))
        out = dephase(s, computational_basis(2))
        assert shapes and max(shape[-1] for shape in shapes) == 64
        assert np.array_equal(out.rho, s.rho * kron(np.eye(2), np.ones((64, 64))))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 3), st.integers(1, 6),
           st.sampled_from([-1e-3, -1e-8, 0.0, 1e-3]))
    def test_blockwise_least_eigenvalue_is_the_dense_one(self, seed, d_a, d_b, floor):
        # rho = sum_ij |v_i><v_j| (x) B_ij, Hermitian with unit trace, whose
        # pinching sum_i |v_i><v_i| (x) B_ii has the eigenvalues w, one of them
        # floor; the off-diagonal B_ij make rho itself differ from it
        rng = np.random.default_rng(seed)
        v = haar_unitary(d_a, seed)
        w = rng.dirichlet(np.ones(d_a * d_b)).reshape(d_a, d_b)
        w[0, 0], w[-1, -1] = floor, w[-1, -1] + w[0, 0] - floor
        b = [[0.1 * random_hermitian(d_b, rng) for _ in range(d_a)] for _ in range(d_a)]
        for i in range(d_a):
            u = haar_unitary(d_b, seed + i + 1)
            b[i][i] = (u * w[i]) @ u.conj().T
            for j in range(i):
                b[i][j] = b[j][i].conj().T
        rho = sum(kron(np.outer(v[:, i], v[:, j].conj()), b[i][j])
                  for i in range(d_a) for j in range(d_a))
        # unchecked: rho need not be positive
        s = BipartiteState(rho, BipartitionDims(d_a, d_b), spectrum=np.zeros(d_a * d_b))
        basis = ProjectiveBasis(v)
        pinched = dephase_kron(s, basis)
        dense = np.linalg.eigvalsh(pinched)[0]
        assert abs(np.linalg.eigvalsh(_pinching_blocks(s.rho, s.dims, v)).min()
                   - dense) <= 1e-12
        if dense < -1e-10:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                dephase(s, basis)
        else:
            assert np.max(np.abs(dephase(s, basis).rho - pinched)) <= 1e-12

    @pytest.mark.parametrize("d_a,d_b", [(2, 1), (2, 3), (3, 2), (3, 4)])
    def test_matches_kron_oracle(self, d_a, d_b):
        rng = np.random.default_rng(100 * d_a + d_b)
        s = random_state(d_a, d_b, rng)
        for seed in range(5):
            basis = ProjectiveBasis(haar_unitary(d_a, seed))
            assert np.max(np.abs(dephase(s, basis).rho - dephase_kron(s, basis))) <= 1e-12


class TestDephasingDelta:
    def test_default_is_marginal_eigenbasis(self, rng):
        s = random_state(3, 2, rng)
        basis, _ = local_eigenbasis(s)
        assert np.array_equal(dephasing_delta(s).dense, dephasing_delta(s, basis).dense)
        delta = dephasing_delta(s).dense
        assert np.max(np.abs(delta - (s.rho - dephase_kron(s, basis)))) <= 1e-12

    def test_degenerate_marginal_refused(self):
        b = np.array([1, 0, 0, 1]) / np.sqrt(2)
        bell = BipartiteState(np.outer(b, b).astype(complex), D22)
        with pytest.raises(ValueError, match="degenerate"):
            dephasing_delta(bell)
        # an explicit basis is always accepted
        assert np.max(np.abs(dephasing_delta(bell, computational_basis(2)).dense)) > 0


class TestLocalEigenbasis:
    def test_pure_marginal(self, rng):
        plus = np.array([1, 1]) / np.sqrt(2)
        s = BipartiteState(
            kron(np.outer(plus, plus), random_density(2, rng)), D22
        )
        basis, degenerate = local_eigenbasis(s)
        assert not degenerate
        assert abs(abs(plus @ basis.vectors[:, 0]) - 1) <= 1e-10

    def test_maximally_mixed_flagged(self):
        b = np.array([1, 0, 0, 1]) / np.sqrt(2)
        bell = BipartiteState(np.outer(b, b).astype(complex), D22)
        _, degenerate = local_eigenbasis(bell)
        assert degenerate

    def test_descending_and_diagonalizing(self, rng):
        s = random_state(3, 3, rng)
        basis, _ = local_eigenbasis(s)
        v = basis.vectors
        d = v.conj().T @ s.marginal_a @ v
        assert np.max(np.abs(d - np.diag(np.diagonal(d)))) <= 1e-10
        assert np.all(np.diff(np.diagonal(d).real) <= 1e-12)

    def test_phase_convention_reproducible(self, rng):
        s = random_state(2, 4, rng)
        b1, _ = local_eigenbasis(s)
        b2, _ = local_eigenbasis(s)
        assert np.array_equal(b1.vectors, b2.vectors)


class TestApplyLocalUnitary:
    def test_identity(self, rng):
        s = random_state(2, 2, rng)
        assert np.allclose(apply_local_unitary(s, np.eye(2)).rho, s.rho)

    def test_flip(self, rng):
        rb = random_density(3, rng)
        s = BipartiteState(kron(np.diag([1.0, 0.0]), rb), BipartitionDims(2, 3))
        out = apply_local_unitary(s, SX)
        assert np.allclose(out.rho, kron(np.diag([0.0, 1.0]), rb))

    def test_purity_and_b_marginal_invariant(self, rng):
        s = random_state(2, 3, rng)
        u = haar_unitary(2, 7)
        out = apply_local_unitary(s, u)
        assert abs(purity(out) - purity(s)) <= 1e-12
        assert np.max(np.abs(
            partial_trace_a(out.rho, s.dims) - partial_trace_a(s.rho, s.dims)
        )) <= 1e-12

    @pytest.mark.parametrize("d_a,d_b", [(2, 3), (3, 2)])
    def test_matches_kron_oracle(self, d_a, d_b):
        rng = np.random.default_rng(10 * d_a + d_b)
        s = random_state(d_a, d_b, rng)
        u = haar_unitary(d_a, 3)
        assert np.max(np.abs(apply_local_unitary(s, u).rho - local_unitary_kron(s, u))) <= 1e-12


SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 2]
SEEDS = st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**63 - 2))


class TestHaarUnitary:
    def test_unitary_and_deterministic(self):
        u1 = haar_unitary(4, 42)
        u2 = haar_unitary(4, 42)
        assert np.array_equal(u1, u2)
        assert np.max(np.abs(u1.conj().T @ u1 - np.eye(4))) <= 1e-10

    def test_first_moment(self):
        n = 10_000
        vals = np.abs(haar_unitaries(3, range(n))[:, 0, 0]) ** 2
        # E|U00|^2 = 1/dim; Var|U00|^2 known finite, use sample std error
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1 / 3) <= 3 * se

    def test_trace_statistics(self):
        n = 1000
        traces = np.trace(haar_unitaries(2, range(n)), axis1=1, axis2=2) / 2
        se = np.sqrt(np.var(traces.real) + np.var(traces.imag)) / np.sqrt(n)
        assert abs(traces.mean()) <= 5 * se

    @settings(max_examples=40, deadline=None)
    @given(st.lists(SEEDS, min_size=1, max_size=12))
    def test_seed_words_match_seed_sequence(self, seeds):
        for given_as in (seeds + SEED_EDGES, np.array(seeds + SEED_EDGES)):
            expect = [np.random.SeedSequence(int(s)).generate_state(4, np.uint64)
                      for s in given_as]
            words = _seed_words(given_as)
            assert words.dtype == np.uint64 and np.array_equal(words, expect)

    @settings(max_examples=40, deadline=None)
    @given(SEEDS)
    def test_pcg64_state_matches_the_constructor(self, seed):
        for s in (seed, *SEED_EDGES):
            assert _pcg64_state(_seed_words([s])[0]) == np.random.PCG64(s).state

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.lists(SEEDS, min_size=1, max_size=8))
    def test_draws_equal_the_oracle_loop(self, dim, seeds):
        # single seeds, then one mixed batch with the edges
        for batch in [[s] for s in seeds] + [seeds + SEED_EDGES]:
            u = haar_unitaries(dim, np.array(batch))
            expect = np.stack([haar_unitary(dim, s) for s in batch])
            assert u.shape == (len(batch), dim, dim)
            assert np.array_equal(u.view(float), expect.view(float))

    @pytest.mark.parametrize("seeds", [[-1], [5, -2], np.array([3, -(2**62)])])
    def test_refuses_a_negative_seed(self, seeds):
        # as default_rng does, where a cast to uint64 would wrap it
        with pytest.raises(ValueError):
            np.random.default_rng(int(min(seeds)))
        with pytest.raises(ValueError, match="seeds must be integers"):
            haar_unitaries(2, seeds)

    def test_package_import_leaves_numpy_random_unloaded(self):
        # numpy.random loads at the first draw, not with `states`; the guard
        # below holds the whole CLI's import to the same
        code = "import sys, discord_probe.states; print('numpy.random' in sys.modules)"
        assert fresh_interpreter(code) == ["False"]

    def test_cli_import_leaves_scipy_and_numpy_random_unloaded(self):
        # every `discord-probe` start pays this import; scipy loads only at
        # photon-cv's first D (tests/test_cli.py::TestStartup)
        code = ("import sys, discord_probe.cli; "
                "print('scipy' in sys.modules, 'numpy.random' in sys.modules)")
        assert fresh_interpreter(code) == ["False", "False"]


class TestThermalFock:
    def test_ground(self):
        out = thermal_fock_state(0.0, 5)
        expect = np.zeros((6, 6))
        expect[0, 0] = 1.0
        assert np.allclose(out, expect)

    def test_geometric_populations(self):
        n_max = fock_cutoff(1.0)
        out = np.diag(thermal_fock_state(1.0, n_max)).real
        raw = np.array([1 / 2, 1 / 4, 1 / 8])
        norm = (0.5 ** np.arange(1, n_max + 2)).sum()
        assert np.allclose(out[:3], raw / norm, atol=1e-12)

    def test_unit_trace(self):
        for nbar in (0.0, 0.3, 2.0, 7.7):
            out = thermal_fock_state(nbar, fock_cutoff(nbar))
            assert abs(np.trace(out).real - 1.0) <= 1e-12

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError):
            thermal_fock_state(50.0, 10)

    def test_cutoff_rule(self):
        assert fock_cutoff(0.0) == 22  # floor 20 + headroom 2
        n = fock_cutoff(5.0)
        assert (5.0 / 6.0) ** (n - 2 + 1) < 1e-8  # tail below tol before headroom
