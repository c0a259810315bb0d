"""Distance and discord quantifiers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_hermitian, random_pure_state, random_state
from oracles import disturbance_batch, hs_distance_sq, sigma_conjugations
from discord_probe.measures import (
    BasisGrid,
    _block_disturbance,
    bloch_vectors,
    dephasing_disturbance,
    minimal_dephasing_disturbance,
    negativity,
    trace_distance,
)
from discord_probe.states import (
    BipartiteState,
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
