"""Dense bipartite linear algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SX, SY, SZ, random_density, random_hermitian
from oracles import partial_trace_a, trace_norm
from discord_probe.measures import half_trace_norm
from discord_probe.tensor import (
    PAULI,
    BipartitionDims,
    eig_hermitian,
    evolve,
    hermitian_blocks,
    kron,
    local_sandwich,
    partial_trace_b,
    partial_transpose_a,
    pauli_vector,
    require_hermitian,
    require_unitary,
    Sectors,
)

I2 = np.eye(2)
BELL = np.zeros((4, 4), dtype=complex)
_b = np.array([1, 0, 0, 1]) / np.sqrt(2)
BELL[:, :] = np.outer(_b, _b)
D22 = BipartitionDims(2, 2)


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(I2, I2), np.eye(4))

    def test_basis_action(self):
        v00 = np.zeros(4)
        v00[0] = 1.0
        out = kron(SX, I2) @ v00
        expect = np.zeros(4)
        expect[2] = 1.0  # |1> (x) |0>, A slow index
        assert np.allclose(out, expect)

    def test_diagonal_hand_expansion(self):
        out = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3),
           st.integers(0, 2**31 - 1))
    def test_associativity(self, da, db, dc, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_hermitian(d, rng) for d in (da, db, dc))
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) <= 1e-12


class TestPartialTrace:
    def test_product_factorization(self, rng):
        ra, rb = random_density(2, rng), random_density(3, rng)
        out = partial_trace_b(kron(ra, rb), BipartitionDims(2, 3))
        assert np.allclose(out, ra)
        out_a = partial_trace_a(kron(ra, rb), BipartitionDims(2, 3))
        assert np.allclose(out_a, rb)

    def test_bell_marginal(self):
        assert np.allclose(partial_trace_b(BELL, D22), I2 / 2)

    def test_index_sum_oracle(self, rng):
        rho = random_density(4, rng)
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    oracle[i, j] += rho[i * 2 + k, j * 2 + k]
        out = partial_trace_b(rho, D22)
        assert np.allclose(out, oracle)
        assert abs(np.trace(out) - 1.0) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(6, rng)
        out = partial_trace_b(rho, BipartitionDims(2, 3))
        assert abs(np.trace(out) - np.trace(rho)) <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            partial_trace_b(random_density(4, rng), BipartitionDims(2, 3))


def _random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestLocalSandwich:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_matches_kron_products(self, d_a, d_b, seed):
        # arbitrary complex, non-Hermitian operators on both sides and in the middle
        rng = np.random.default_rng(seed)
        left, right = _random_complex((d_a, d_a), rng), _random_complex((d_a, d_a), rng)
        d = d_a * d_b
        rho = _random_complex((d, d), rng)
        eye_b = np.eye(d_b)
        oracle = kron(left, eye_b) @ rho @ kron(right, eye_b)
        out = local_sandwich(left, rho, right, BipartitionDims(d_a, d_b))
        assert out.shape == (d, d)
        assert np.max(np.abs(out - oracle)) <= 1e-12

    def test_rejects_split_mismatch(self, rng):
        with pytest.raises(ValueError):
            local_sandwich(SX, random_density(6, rng), SX, D22)


class TestPauliVector:
    def test_reconstructs_matrix(self, rng):
        m = np.stack([random_hermitian(2, rng) for _ in range(10)])
        vec = pauli_vector(m)
        tr = np.trace(m, axis1=1, axis2=2)
        back = (tr[:, None, None] * I2 + np.einsum("ta,aij->tij", vec, PAULI)) / 2
        assert vec.shape == (10, 3) and np.max(np.abs(back - m)) <= 1e-14

    def test_pauli_basis(self):
        assert np.array_equal(pauli_vector(PAULI), 2 * np.eye(3))


class TestPartialTranspose:
    def test_product_state(self, rng):
        ra, rb = random_density(2, rng), random_density(2, rng)
        out = partial_transpose_a(kron(ra, rb), D22)
        assert np.allclose(out, kron(ra.T, rb))

    def test_bell_min_eigenvalue(self):
        w = np.linalg.eigvalsh(partial_transpose_a(BELL, D22))
        assert abs(w[0] + 0.5) <= 1e-12

    def test_involution(self, rng):
        rho = random_density(6, rng)
        dims = BipartitionDims(3, 2)
        twice = partial_transpose_a(partial_transpose_a(rho, dims), dims)
        assert np.array_equal(twice, rho)


class TestEigHermitian:
    def test_pauli_z(self):
        w, _ = eig_hermitian(SZ)
        assert np.allclose(w, [-1, 1])

    def test_pauli_x(self):
        w, v = eig_hermitian(SX)
        assert np.allclose(w, [-1, 1])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(minus @ v[:, 0]) - 1) <= 1e-12
        assert abs(abs(plus @ v[:, 1]) - 1) <= 1e-12

    def test_reconstruction(self, rng):
        h = random_hermitian(8, rng)
        w, v = eig_hermitian(h)
        resid = np.max(np.abs(h @ v - v * w))
        assert resid <= 1e-9 * np.max(np.abs(h))
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestRequire:
    @pytest.mark.parametrize("check", [require_hermitian, require_unitary])
    def test_rejects_nan(self, check):
        # a NaN deviation compares False against the tolerance either way
        one = np.eye(2, dtype=complex)
        one[0, 0] = np.nan
        for m in (one, np.full((2, 2), np.nan, dtype=complex)):
            with pytest.raises(ValueError, match="max deviation nan"):
                check(m)

    @pytest.mark.parametrize("check", [require_hermitian, require_unitary])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0, np.inf)])
    def test_rejects_inf(self, check, at, value):
        # inf - inf is NaN; with warnings as errors the ValueError must still
        # be what is raised
        m = np.eye(2, dtype=complex)
        m[at] = value
        with pytest.raises(ValueError, match="max deviation (nan|inf)"):
            check(m)

    def test_rejects_overflow(self):
        # finite entries whose deviation overflows to inf
        with pytest.raises(ValueError, match="max deviation inf"):
            require_hermitian(np.array([[0, 1e308], [-1e308, 0]]))
        with pytest.raises(ValueError, match="max deviation inf"):
            require_unitary(1e300 * np.eye(2))

    @pytest.mark.parametrize("check", [require_hermitian, require_unitary, eig_hermitian])
    def test_rejects_a_stack(self, check):
        # the checks take one matrix; a stack of blocks is checked only
        # through hermitian_blocks
        with pytest.raises(ValueError, match="expected a square matrix"):
            check(np.zeros((2, 3, 3)))


class TestSectorRows:
    def test_groups_by_label_and_size(self):
        labels = [4, -1, 4, 7, 7, 2, 7]
        for given in (labels, tuple(labels), np.array(labels)):
            rows = Sectors(given).rows
            assert [r.tolist() for r in rows] == [[[1], [5]], [[0, 2]], [[3, 4, 6]]]
        for one in (Sectors([3.0] * 4).rows, Sectors(np.zeros(4, int)).rows):
            assert [r.tolist() for r in one] == [[[0, 1, 2, 3]]] and one[0].dtype == np.intp


class TestTraceNorm:
    def test_density_matrix(self, rng):
        assert abs(trace_norm(random_density(5, rng)) - 1.0) <= 1e-12

    def test_pauli(self):
        assert abs(trace_norm(SZ) - 2.0) <= 1e-12

    def test_zero(self, rng):
        rho = random_density(4, rng)
        assert trace_norm(rho - rho) <= 1e-12

    def test_hermitian_fast_path_matches(self, rng):
        h = random_hermitian(6, rng)
        assert abs(trace_norm(h) - 2 * half_trace_norm(hermitian_blocks(h))) <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        assert abs(trace_norm(u @ x @ v) - trace_norm(x)) <= 1e-9


class TestEvolve:
    def test_t_zero(self, rng):
        rho = random_density(3, rng)
        h = random_hermitian(3, rng)
        assert np.allclose(evolve(rho, h, 0.0), rho, atol=1e-12)

    def test_bloch_rotation(self):
        plus = np.outer([1, 1], [1, 1]) / 2
        # exp(-i sz t) sends rho01 -> e^{-2it} rho01, i.e. x -> +y at t = pi/4
        out = evolve(plus.astype(complex), SZ, np.pi / 4)
        plus_i = np.outer([1, 1j], np.conj([1, 1j])) / 2
        assert np.allclose(out, plus_i, atol=1e-12)

    def test_purity_conserved(self, rng):
        rho = random_density(4, rng)
        h = random_hermitian(4, rng)
        out = evolve(rho, h, 1.7)
        assert abs(np.trace(out @ out).real - np.trace(rho @ rho).real) <= 1e-10
        assert np.max(np.abs(out - out.conj().T)) <= 1e-10
        assert abs(np.trace(out).real - 1.0) <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1),
           st.floats(-2, 2), st.floats(-2, 2))
    def test_one_parameter_group(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        rho = random_density(4, rng)
        h = random_hermitian(4, rng)
        a = evolve(evolve(rho, h, t1), h, t2)
        b = evolve(rho, h, t1 + t2)
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_noninteracting_factorizes(self, rng):
        ra, rb = random_density(2, rng), random_density(3, rng)
        ha, hb = random_hermitian(2, rng), random_hermitian(3, rng)
        dims = BipartitionDims(2, 3)
        h = kron(ha, np.eye(3)) + kron(np.eye(2), hb)
        left = partial_trace_b(evolve(kron(ra, rb), h, 0.9), dims)
        assert np.max(np.abs(left - evolve(ra, ha, 0.9))) <= 1e-10

    def test_generator_dimension_refused_first(self, rng):
        # the shapes are compared before h is checked or diagonalized, so a
        # mismatched generator that is not Hermitian either names the mismatch
        rho = random_density(3, rng)
        for h in (random_hermitian(4, rng), np.triu(np.ones((2, 2))),
                  np.full((4, 4), np.nan)):
            with pytest.raises(ValueError, match="generator and state dimensions differ"):
                evolve(rho, h, 0.5)


class TestValidators:
    def test_hermitian_rejected_not_symmetrized(self):
        m = np.array([[0, 1e-6], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            require_hermitian(m)

    def test_unitary_check(self):
        require_unitary(np.eye(3))
        with pytest.raises(ValueError):
            require_unitary(2 * np.eye(3))

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            BipartitionDims(0, 2)
        with pytest.raises(ValueError):
            BipartitionDims(2, 3).check(np.eye(4))
