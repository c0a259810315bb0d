"""Trapped-ion blue-sideband model."""

import numpy as np
import pytest

from oracles import prepare_ion_state_dense
from discord_probe import model_ion
from discord_probe.measures import dephasing_disturbance
from discord_probe.protocol import TimeGrid
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

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            model_ion.IonParams(eta=0.0)
        with pytest.raises(ValueError):
            model_ion.IonParams(nbar=-1.0)


class TestHamiltonian:
    @pytest.mark.parametrize("nbar", [0.0, 2.5, 10.0])
    @pytest.mark.parametrize("ld", [True, False])
    def test_bytes_match_loop(self, nbar, ld):
        p = model_ion.IonParams(eta=0.3, nbar=nbar, lamb_dicke_limit=ld)
        nb = p.n_max + 1
        h = np.zeros((2 * nb, 2 * nb), dtype=complex)
        for n in range(p.n_max):
            h[nb + n + 1, n] = h[n, nb + n + 1] = 0.5 * p.rabi(np.array(float(n)))
        assert model_ion.build_hamiltonian(p).tobytes() == h.tobytes()

    def test_sideband_element(self):
        p = model_ion.IonParams(omega=1.0, eta=0.05)
        h = model_ion.build_hamiltonian(p)
        nb = p.n_max + 1
        # <e,1|H|g,0> = Omega_0 / 2 = eta * Omega / 2
        assert h[nb + 1, 0] == pytest.approx(0.05 / 2)

    def test_selection_rule(self):
        p = model_ion.IonParams()
        h = model_ion.build_hamiltonian(p)
        nb = p.n_max + 1
        for n in range(nb):
            for m in range(nb):
                if n != m + 1:
                    assert h[nb + n, m] == 0.0

    def test_hermitian_and_conserves_excitation(self):
        p = model_ion.IonParams()
        h = model_ion.build_hamiltonian(p)
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

    @pytest.mark.parametrize("nbar", [0.0, 5.9])
    def test_matches_dense_conjugation(self, nbar):
        p = model_ion.IonParams(nbar=nbar)
        for t0 in (0.0, 0.7 / p.omega0, 3.1 / p.omega0):
            s = model_ion.prepare_state(p, t0)
            assert np.max(np.abs(s.rho - prepare_ion_state_dense(p, t0))) <= 1e-12

    @pytest.mark.parametrize("nbar,limit", [(0.0, True), (1.3, True), (10.0, False)])
    def test_gram_spectrum_is_state_spectrum(self, nbar, limit, monkeypatch):
        # positivity is checked on eigvalsh(psi^dag psi), d_B x d_B: the
        # nonzero spectrum of rho = psi psi^dag, whose other d_B eigenvalues vanish
        p = model_ion.IonParams(nbar=nbar, lamb_dicke_limit=limit)
        real, checked = BipartiteState._with_spectrum, []
        monkeypatch.setattr(BipartiteState, "_with_spectrum", classmethod(
            lambda cls, rho, dims, w: checked.append(w) or real(rho, dims, w)))
        s = model_ion.prepare_state(p, 1.3 / p.omega0)
        (gram,) = checked
        assert len(gram) == p.n_max + 1
        dense = np.linalg.eigvalsh(s.rho)
        assert np.max(np.abs(np.sort(np.concatenate([gram, np.zeros(len(gram))]))
                             - dense)) <= 1e-12

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

    def test_simulation_builds_one_hamiltonian(self, monkeypatch):
        # preparation and detection share one EvolutionSpec and its eigh
        built = []
        build = model_ion.build_hamiltonian
        monkeypatch.setattr(model_ion, "build_hamiltonian",
                            lambda p: built.append(p) or build(p))
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
