"""Trapped-ion blue-sideband model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_genlaguerre

from oracles import ion_local_distance_dense, labelled_blocks, prepare_ion_state_dense
from discord_probe import model_ion, states, tensor
from discord_probe.cli import execute
from discord_probe.measures import dephasing_disturbance
from discord_probe.protocol import TimeGrid, run_local_detection
from discord_probe.states import BipartiteState, local_eigenbasis
from discord_probe.tensor import kron


class TestParams:
    def test_rabi_ld(self):
        p = model_ion.IonParams(omega=2.0, eta=0.1)
        assert p.rabi(np.array(0.0)) == pytest.approx(0.1 * 2.0)
        assert p.rabi(np.array(3.0)) == pytest.approx(2 * 0.1 * 2.0)

    def test_laguerre_reduces_to_ld(self):
        ld = model_ion.IonParams(eta=0.01)
        lag = model_ion.IonParams(eta=0.01, lamb_dicke_limit=False)
        n = np.arange(21)
        rel = np.abs(lag.rabi(n) - ld.rabi(n)) / ld.rabi(n)
        # leading correction is eta^2 (n/2 + 1), i.e. 1.1e-3 at n = 20
        assert np.max(rel) <= 1.2e-3

    @pytest.mark.xfail(strict=True, reason=(
        "rabi() uses the Debye-Waller factor exp(-eta**2); the sideband "
        "element <n+1| exp(i eta (a + a^dag)) |n> has exp(-eta**2 / 2), so at "
        "eta = 0.3 the frequencies are 4.4% low"))
    def test_rabi_is_the_sideband_element(self):
        # Omega_n / Omega = |<n+1| exp(i eta (a + a^dag)) |n>| (Wineland et
        # al., J. Res. NIST 103, 259 (1998)), from a dense expm on 80 levels
        p = model_ion.IonParams(eta=0.3, lamb_dicke_limit=False)
        a = np.diag(np.sqrt(np.arange(1, 80)), 1)
        element = np.abs(np.diagonal(expm(1j * p.eta * (a + a.T)), -1))
        n = np.arange(21)
        assert np.max(np.abs(p.rabi(n) / p.omega - element[n])) <= 1e-12

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            model_ion.IonParams(eta=0.0)
        with pytest.raises(ValueError):
            model_ion.IonParams(nbar=-1.0)


def rabi_scipy(p, n):
    """IonParams.rabi off the Lamb-Dicke limit with scipy's L_n^1, one call
    per entry of `n`."""
    n = np.asarray(n, dtype=float)
    lag = eval_genlaguerre(n.astype(int), 1, p.eta**2)
    return p.eta * np.exp(-p.eta**2) * lag / np.sqrt(n + 1) * p.omega


class TestLaguerre:
    """`_laguerre1` equals scipy's eval_genlaguerre to the bit (==)."""

    # 0.05: the benchmark lattice's eta; 0.3: L_1 = -x + 1 + 1, where
    # -x + 2 is 1 ulp off
    @pytest.mark.parametrize("eta", [0.005, 0.05, 0.1, 0.3, 0.5, 0.7])
    def test_table_to_n_400(self, eta):
        x = eta**2
        table = model_ion._laguerre1(400, x)
        assert table.shape == (401,)
        assert np.array_equal(table, eval_genlaguerre(np.arange(401), 1, x))

    def test_first_entries(self):
        assert model_ion._laguerre1(0, 0.09).tolist() == [1.0]
        assert model_ion._laguerre1(1, 0.09).tolist() == [1.0, -0.09 + 1.0 + 1.0]
        assert -0.09 + 1.0 + 1.0 != -0.09 + 2.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.005, 0.7), st.integers(0, 300))
    def test_any_eta(self, eta, n_max):
        x = eta**2
        assert np.array_equal(model_ion._laguerre1(n_max, x),
                              eval_genlaguerre(np.arange(n_max + 1), 1, x))

    @pytest.mark.parametrize("eta", [0.05, 0.3])
    def test_rabi_matches_scipy(self, eta):
        p = model_ion.IonParams(omega=1.7, eta=eta, lamb_dicke_limit=False)
        n = np.array([7.0, 0.0, 3.0, 3.0, 150.0, 1.0])  # not an arange
        assert np.array_equal(p.rabi(n), rabi_scipy(p, n))
        assert np.array_equal(p.rabi(np.arange(p.n_max + 1)),
                              rabi_scipy(p, np.arange(p.n_max + 1)))
        # the omega0 path: a 0-d n
        assert p.rabi(np.array(0.0)) == rabi_scipy(p, np.array(0.0))
        assert p.omega0 == float(rabi_scipy(p, np.array(0.0)))
        assert p.rabi(np.arange(0)).shape == (0,)


class TestHamiltonian:
    @pytest.mark.parametrize("nbar", [0.0, 2.5, 10.0])
    @pytest.mark.parametrize("ld", [True, False])
    def test_bytes_match_loop(self, nbar, ld):
        p = model_ion.IonParams(eta=0.3, nbar=nbar, lamb_dicke_limit=ld)
        nb = p.n_max + 1
        h = np.zeros((2 * nb, 2 * nb), dtype=complex)
        for n in range(p.n_max):
            h[nb + n + 1, n] = h[n, nb + n + 1] = 0.5 * p.rabi(np.array(float(n)))
        assert model_ion.evolution(p).hamiltonian.tobytes() == h.tobytes()

    def test_sideband_element(self):
        p = model_ion.IonParams(omega=1.0, eta=0.05)
        h = model_ion.evolution(p).hamiltonian
        nb = p.n_max + 1
        # <e,1|H|g,0> = Omega_0 / 2 = eta * Omega / 2
        assert h[nb + 1, 0] == pytest.approx(0.05 / 2)

    def test_selection_rule(self):
        p = model_ion.IonParams()
        h = model_ion.evolution(p).hamiltonian
        nb = p.n_max + 1
        for n in range(nb):
            for m in range(nb):
                if n != m + 1:
                    assert h[nb + n, m] == 0.0

    def test_hermitian_and_conserves_excitation(self):
        p = model_ion.IonParams()
        h = model_ion.evolution(p).hamiltonian
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12
        nb = p.n_max + 1
        # the sideband coupling |g,n> <-> |e,n+1> conserves a^dag a - |e><e|
        num = kron(np.eye(2), np.diag(np.arange(nb, dtype=float))) - kron(
            np.diag([0.0, 1.0]), np.eye(nb)
        )
        assert np.max(np.abs(h @ num - num @ h)) <= 1e-12


class TestPrepareState:
    def test_t0_zero_product(self):
        p = model_ion.IonParams(nbar=0.5)
        s = model_ion.prepare_state(p, 0.0)
        assert dephasing_disturbance(s) <= 1e-12

    def test_full_flop(self):
        p = model_ion.IonParams()
        s = model_ion.prepare_state(p, np.pi / p.omega0)
        nb = p.n_max + 1
        # |e,1><e,1| up to truncation leakage
        assert s.rho[nb + 1, nb + 1].real == pytest.approx(1.0, abs=1e-9)

    def test_excited_population(self):
        p = model_ion.IonParams(nbar=1.3)
        t0 = 0.8 / p.omega0
        s = model_ion.prepare_state(p, t0)
        pn = p.populations()
        om = p.rabi(np.arange(len(pn)))
        expect = np.sum(pn * np.sin(om * t0 / 2) ** 2)
        pe = np.trace(s.marginal_a @ np.diag([0.0, 1.0])).real
        assert pe == pytest.approx(expect, abs=1e-9)

    def test_marginal_diagonal_all_times(self):
        p = model_ion.IonParams(nbar=0.7)
        for t in (0.3, 1.1, 2.9, 7.0):
            s = model_ion.prepare_state(p, t / p.omega0)
            m = s.marginal_a
            assert abs(m[0, 1]) <= 1e-10

    @pytest.mark.parametrize("nbar", [0.0, 0.5, 5.9, 10.0])
    def test_matches_dense_conjugation(self, nbar):
        # the closed-form pulse against U(t0) rho0 U(t0)^dag of the dense H, up
        # to the cutoff's edges: |e,0> is never reached and |g,n_max>, whose
        # partner lies beyond the cutoff, keeps its thermal weight
        for limit in (True, False):
            p = model_ion.IonParams(nbar=nbar, lamb_dicke_limit=limit)
            for t0 in (0.0, 0.7 / p.omega0, np.pi / p.omega0, 3.1 / p.omega0):
                s = model_ion.prepare_state(p, t0)
                assert np.max(np.abs(s.rho - prepare_ion_state_dense(p, t0))) <= 1e-12
                e0, g_top = p.n_max + 1, p.n_max
                assert not np.any(s.rho[e0]) and not np.any(s.rho[:, e0])
                assert s.rho[g_top, g_top] == pytest.approx(p.populations()[-1],
                                                            rel=1e-15, abs=0)

    def test_diagonalizes_nothing(self, monkeypatch):
        # the pulse is in closed form and the sectors are N's labels, so the
        # preparation makes no eigh, not even of the generator's sector blocks
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a, *r, **k: calls.append(np.shape(a)) or eigh(a, *r, **k))
        p = model_ion.IonParams(nbar=10.0)
        s = model_ion.prepare_state(p, np.pi / (2 * p.omega0))
        assert calls == []
        assert np.array_equal(s.blocks.sectors.labels,
                              model_ion.evolution(p).blocks.sectors.labels)

    @pytest.mark.parametrize("nbar,limit", [(0.0, True), (1.3, True), (10.0, False)])
    def test_gram_spectrum_is_state_spectrum(self, nbar, limit):
        # positivity is checked on the eigenvalues of the 2x2 and 1x1 sector
        # blocks of rho, which construction keeps as the state's spectrum;
        # the blocks are those the labelled reference cuts from the dense rho
        # on the generator's labels, which it leaves no entry between
        p = model_ion.IonParams(nbar=nbar, lamb_dicke_limit=limit)
        s = model_ion.prepare_state(p, 1.3 / p.omega0)
        cut = labelled_blocks(s.rho, model_ion.evolution(p).blocks.sectors.labels)
        assert np.array_equal(s.blocks.sectors.labels, cut.sectors.labels)
        for a, b in zip(s.blocks.blocks, cut.blocks, strict=True):
            assert a.tobytes() == b.tobytes()
        assert s.spectrum.shape == (p.dims.total,)
        dense = np.linalg.eigvalsh(s.rho)
        assert np.max(np.abs(np.sort(s.spectrum) - dense)) <= 1e-12

    def test_four_term_expansion(self):
        # rho(t0) = sum_n p_n (cos^2 |g,n><g,n| + sincos cross + sin^2 |e,n+1><e,n+1|)
        p = model_ion.IonParams(nbar=0.4)
        t0 = 1.3 / p.omega0
        s = model_ion.prepare_state(p, t0)
        nb = p.n_max + 1
        pn = p.populations()
        om = p.rabi(np.arange(nb))
        expect = np.zeros((2 * nb, 2 * nb), dtype=complex)
        for n in range(nb - 1):
            c, sn = np.cos(om[n] * t0 / 2), np.sin(om[n] * t0 / 2)
            g_n, e_np1 = n, nb + n + 1
            expect[g_n, g_n] = pn[n] * c**2
            expect[e_np1, e_np1] = pn[n] * sn**2
            expect[e_np1, g_n] = -1j * pn[n] * sn * c
            expect[g_n, e_np1] = 1j * pn[n] * sn * c
        expect[nb - 1, nb - 1] += pn[nb - 1]  # top level has no partner in truncation
        assert np.max(np.abs(s.rho - expect)) <= 1e-9


class TestClosedForms:
    def test_point_value(self):
        p = model_ion.IonParams()
        t = np.pi / (2 * p.omega0)
        assert model_ion.analytic_local_distance(p, t, t) == pytest.approx(0.5)

    def test_zero_times(self):
        p = model_ion.IonParams(nbar=2.0)
        assert model_ion.analytic_local_distance(p, 0.0, 1.0) == 0.0
        assert model_ion.analytic_local_distance(p, 1.0, 0.0) == 0.0

    def test_hot_plateau(self):
        p = model_ion.IonParams(nbar=20.0)
        t = np.pi / (2 * p.omega0)
        assert abs(model_ion.analytic_local_distance(p, t, t) - 0.25) <= 0.05

    @pytest.mark.parametrize("nbar,ld", [(0.0, True), (2.5, False), (10.0, False)])
    def test_time_grid_call_matches_scalar_calls(self, nbar, ld):
        p = model_ion.IonParams(nbar=nbar, lamb_dicke_limit=ld)
        t0 = np.pi / (2 * p.omega0)
        t1 = np.linspace(0.0, 4 * np.pi / p.omega0, 100)
        scalar = [model_ion.analytic_local_distance(p, t0, t) for t in t1]
        assert all(type(d) is float for d in scalar)
        grid = model_ion.analytic_local_distance(p, t0, t1)
        assert np.max(np.abs(grid - scalar)) <= 1e-15

    def test_disturbance_values(self):
        p = model_ion.IonParams()
        assert model_ion.analytic_disturbance(p, 0.0) == 0.0
        t = np.pi / (2 * p.omega0)
        assert model_ion.analytic_disturbance(p, t) == pytest.approx(0.5)

    def test_disturbance_full_matrix_oracle(self):
        p = model_ion.IonParams(nbar=0.9)
        for t0 in (0.6, 1.7):
            s = model_ion.prepare_state(p, t0 / p.omega0)
            assert model_ion.analytic_disturbance(p, t0 / p.omega0) == pytest.approx(
                dephasing_disturbance(s), abs=1e-8
            )


class TestProtocolEquivalence:
    def test_marginal_eigenbasis_is_computational(self):
        p = model_ion.IonParams(nbar=0.3)
        s = model_ion.prepare_state(p, 0.9 / p.omega0)
        basis, degenerate = local_eigenbasis(s)
        assert not degenerate
        assert np.max(np.abs(np.abs(basis.vectors) - np.eye(2))) <= 1e-10

    def test_simulated_matches_analytic(self):
        p = model_ion.IonParams(nbar=0.2)
        t0 = np.pi / (2 * p.omega0)
        grid = TimeGrid.linear(4 * np.pi / p.omega0, 50)
        series = model_ion.simulated_local_distance(p, t0, grid)
        analytic = np.array(
            [model_ion.analytic_local_distance(p, t0, t) for t in grid.samples]
        )
        assert np.max(np.abs(series.d_t - analytic)) <= 1e-7

    @pytest.mark.parametrize("nbar", [0.0, 2.5, 10.0])
    @pytest.mark.parametrize("ld", [True, False])
    def test_sectors_match_dense_generator(self, nbar, ld):
        p = model_ion.IonParams(nbar=nbar, lamb_dicke_limit=ld)
        t0 = np.pi / (2 * p.omega0)
        grid = TimeGrid.linear(4 * np.pi / p.omega0, 100)
        series = model_ion.simulated_local_distance(p, t0, grid)
        dense = ion_local_distance_dense(p, t0, grid)
        assert np.max(np.abs(series.d_t - dense.d_t)) <= 1e-12
        assert abs(series.bound_ref - dense.bound_ref) <= 1e-12

    @pytest.mark.parametrize("nbar", [0.0, 2.5])
    def test_two_evolution_calls_give_shared_bits(self, nbar):
        # a prepared state carries labels equal to those of any evolution(p),
        # which evolves its Delta on the blocks to the bit of the call that
        # simulated_local_distance makes
        p = model_ion.IonParams(nbar=nbar)
        t0, basis = np.pi / (2 * p.omega0), states.computational_basis(2)
        grid = TimeGrid.linear(4 * np.pi / p.omega0, 60)
        got = run_local_detection(model_ion.prepare_state(p, t0), model_ion.evolution(p),
                                  grid, basis)
        want = model_ion.simulated_local_distance(p, t0, grid)
        assert got.d_t.tobytes() == want.d_t.tobytes() and got.bound_ref == want.bound_ref

    def test_zero_rabi_block_is_a_sector(self, monkeypatch):
        # off the Lamb-Dicke limit a Rabi frequency can vanish: its block is
        # then zero, and still a sector of its own
        rabi = model_ion.IonParams.rabi
        monkeypatch.setattr(model_ion.IonParams, "rabi",
                            lambda self, n: rabi(self, n) * (np.asarray(n) != 2))
        p = model_ion.IonParams(nbar=1.5, lamb_dicke_limit=False)
        assert p.rabi(np.arange(4))[2] == 0.0
        t0 = 0.8 / p.omega0
        grid = TimeGrid.linear(4 * np.pi / p.omega0, 60)
        series = model_ion.simulated_local_distance(p, t0, grid)
        dense = ion_local_distance_dense(p, t0, grid)
        assert np.max(np.abs(series.d_t - dense.d_t)) <= 1e-12
        assert abs(series.bound_ref - dense.bound_ref) <= 1e-12

    def test_point_makes_no_eigh_above_2x2(self, monkeypatch, tmp_path):
        # the spectrum is one stacked eigh of the 2x2 sideband blocks (and
        # one of the two 1x1 singletons), never one of the dense generator;
        # the state's checks, its pinching and D run on the same blocks, so a
        # point decomposes no matrix above 2x2 and checks none d x d
        shapes, checked = {"eigh": [], "eigvalsh": [], "svd": []}, []
        for name, seen in shapes.items():
            monkeypatch.setattr(np.linalg, name, lambda a, *r, seen=seen,
                                real=getattr(np.linalg, name), **k:
                                seen.append(np.shape(a)) or real(a, *r, **k))
        monkeypatch.setattr(tensor, "_require_hermitian_stack", lambda m, *r,
                            real=tensor._require_hermitian_stack:
                            checked.append(np.shape(m)) or real(m, *r))
        for nbar in (2.5, 10.0):
            execute({"model": "ion", "params": {"nbar": nbar}}, str(tmp_path))
            assert (model_ion.IonParams(nbar=nbar).n_max, 2, 2) in shapes["eigh"]
            assert max(s[-1] for seen in (*shapes.values(), checked) for s in seen) == 2
            for seen in (*shapes.values(), checked):
                seen.clear()

    def test_point_forms_no_dense_matrix(self, monkeypatch, tmp_path):
        # the generator, the prepared state, its pinching and Delta are built
        # and used as their sector blocks: none is formed as a d x d matrix
        formed, seen = [], []
        dense = tensor.BlockDiagonal.dense
        monkeypatch.setattr(tensor.BlockDiagonal, "dense", property(
            lambda self: formed.append(self.shape) or dense.func(self)))
        for module, name in ((model_ion, "prepare_state"), (states, "dephase")):
            monkeypatch.setattr(module, name, lambda *a, real=getattr(module, name):
                                seen.append(real(*a)) or seen[-1])
        for nbar in (2.5, 10.0):
            execute({"model": "ion", "params": {"nbar": nbar}}, str(tmp_path))
        assert len(seen) == 4  # the prepared and the pinched state of each point
        for s in seen:
            assert [len(r[0]) for r in s.blocks.sectors.rows] == [1, 2]
        assert formed == []

    def test_simulation_builds_one_hamiltonian(self, monkeypatch):
        # detection builds the one EvolutionSpec and its eigh; the preparation
        # builds none
        built = []
        build = model_ion.evolution
        monkeypatch.setattr(model_ion, "evolution", lambda p: built.append(p) or build(p))
        p = model_ion.IonParams(nbar=0.2)
        model_ion.simulated_local_distance(p, 1.0, TimeGrid.linear(5.0, 5))
        assert built == [p]


class TestTemperatureSweep:
    def test_cold_limit(self):
        out = model_ion.signal_vs_temperature(model_ion.IonParams(), [0.0])
        assert out[0][1] == pytest.approx(0.5)

    def test_experimental_nbar(self):
        out = model_ion.signal_vs_temperature(model_ion.IonParams(), [5.9])
        assert 0.0 < out[0][1] < 0.5

    def test_hot_plateau(self):
        out = model_ion.signal_vs_temperature(model_ion.IonParams(), [50.0])
        assert abs(out[0][1] - 0.25) <= 0.05
