"""Photonic continuum and discrete-ancilla models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import (
    build_correlated_state,
    coherence_decay,
    michelson_evolution,
    michelson_propagator,
    partial_trace_a,
    photon_distance_dense,
)
from discord_probe import model_photon
from discord_probe.measures import minimal_dephasing_disturbance, trace_distance
from discord_probe.protocol import (
    EvolutionSpec,
    TimeGrid,
    classical_correlation_witness,
    run_local_detection,
    run_minimized_detection,
)
from discord_probe.states import dephase, local_eigenbasis

SMALL = dict(grid_span=40.0, grid_points=401)  # fast variant for matrix-level tests


class TestCorrelatedState:
    def test_t0_product(self):
        p = model_photon.PhotonParams(t_prep=0.0, **SMALL)
        s = build_correlated_state(p)
        m = p.grid_points
        qubit = s.marginal_a
        assert qubit[0, 1] == pytest.approx(0.4, abs=1e-12)
        # product structure: rho = qubit (x) diag(weights)
        w = p.weights()
        assert np.max(np.abs(np.diag(s.rho[:m, :m]) - 0.5 * w)) <= 1e-15

    def test_marginal_eigenvectors_plus_minus(self):
        p = model_photon.PhotonParams(**SMALL)
        s = build_correlated_state(p)
        basis, _ = local_eigenbasis(s)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        overlaps = sorted(
            abs(v @ basis.vectors[:, 0]) for v in (plus, minus)
        )
        assert overlaps[1] >= 1 - 1e-10

    def test_coherence_decay_matches_lorentzian(self):
        p = model_photon.PhotonParams()
        for t in (0.3, 1.0, 2.5):
            assert abs(
                coherence_decay(p, t) - np.exp(-p.delta_omega * t)
            ) <= 1e-3

    def test_coherence_monotone_decay(self):
        p = model_photon.PhotonParams()
        ts = np.linspace(0.0, 5.0, 40)
        c = np.array([coherence_decay(p, t) for t in ts])
        assert np.all(np.diff(c) <= 1e-10)

    def test_dephasing_preserves_marginals(self):
        p = model_photon.PhotonParams(**SMALL)
        s = build_correlated_state(p)
        basis, _ = local_eigenbasis(s)
        out = dephase(s, basis)
        assert np.max(np.abs(out.marginal_a - s.marginal_a)) <= 1e-12
        assert np.max(np.abs(
            partial_trace_a(out.rho, s.dims) - partial_trace_a(s.rho, s.dims)
        )) <= 1e-12


class TestClosedForms:
    def test_tau_zero(self):
        p = model_photon.PhotonParams()
        assert model_photon.analytic_local_distance_photon(p, 0.0) == 0.0

    def test_peak_at_tau_equals_t(self):
        p = model_photon.PhotonParams(beta=0.4, delta_omega=1.0, t_prep=1.0)
        peak = model_photon.analytic_local_distance_photon(p, p.t_prep)
        assert peak == pytest.approx(0.2 * (1 - np.exp(-2.0)))

    def test_decay_at_large_tau(self):
        p = model_photon.PhotonParams()
        d10 = model_photon.analytic_local_distance_photon(p, 10.0)
        d12 = model_photon.analytic_local_distance_photon(p, 12.0)
        assert d12 < d10
        assert d12 / d10 == pytest.approx(np.exp(-2 * p.delta_omega), rel=1e-6)

    def test_disturbance_zero_time(self):
        p = model_photon.PhotonParams(t_prep=0.0)
        assert model_photon.analytic_disturbance_photon(p) == 0.0

    def test_disturbance_bounds_signal(self):
        for t in (0.5, 1.0, 2.0):
            p = model_photon.PhotonParams(t_prep=t)
            disturbance = model_photon.analytic_disturbance_photon(p)
            peak = 0.5 * p.beta * (1 - np.exp(-2 * p.delta_omega * t))
            assert disturbance >= peak

    def test_disturbance_large_time_limit(self):
        # dw*t >> 1: mean |sin| over the Lorentzian tends to 2/pi
        p = model_photon.PhotonParams(t_prep=50.0)
        assert model_photon.analytic_disturbance_photon(p) == pytest.approx(
            p.beta * 2 / np.pi, rel=1e-2
        )

    def test_disturbance_grid_oracle(self):
        # brute-force Riemann sum on a dense frequency grid
        p = model_photon.PhotonParams(t_prep=1.0)
        x = np.linspace(-4000, 4000, 4_000_001)
        g = (1 / np.pi) / (1 + x * x)
        val = p.beta * np.trapezoid(g * np.abs(np.sin(x * p.t_prep)), x)
        assert model_photon.analytic_disturbance_photon(p) == pytest.approx(
            val, abs=1e-4
        )

    @pytest.mark.xfail(strict=True, reason=(
        "the quadrature replaces |sin| beyond x = 200 by its mean 2/pi: D is "
        "off the closed form by 3.5e-6, 1.0e-6 and -5.5e-7 at t = 0.25, 1, 2"))
    def test_disturbance_closed_form(self):
        # int_0^inf |sin(a x)|/(1 + x^2) dx = 2 sinh(a) artanh(e^-a), so
        # D = (4 beta / pi) sinh(a) artanh(e^-a) with a = delta_omega t_prep
        for t in (0.25, 1.0, 2.0):
            p = model_photon.PhotonParams(t_prep=t)
            a = p.delta_omega * p.t_prep
            exact = 4 * p.beta / np.pi * np.sinh(a) * np.arctanh(np.exp(-a))
            assert abs(model_photon.analytic_disturbance_photon(p) - exact) <= 1e-9


class TestSimulation:
    def test_matches_continuum(self):
        p = model_photon.PhotonParams()
        taus = np.linspace(0.0, 6.0, 200)
        sim = model_photon.simulated_local_distance_photon(p, taus)
        closed = np.array(
            [model_photon.analytic_local_distance_photon(p, t) for t in taus]
        )
        assert np.max(np.abs(sim - closed)) <= 1e-3

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([101, 1001, 3201]), st.floats(40.0, 640.0),
           st.floats(0.0, 0.5), st.floats(0.5, 2.0), st.floats(0.0, 2.0),
           st.floats(0.1, 20.0), st.booleans(), st.integers(0, 2**31 - 1))
    def test_factored_sum_matches_dense(self, n, span, beta, dw, t_prep,
                                        omega0, negative, seed):
        # odd point counts that are not perfect squares pad the last row
        p = model_photon.PhotonParams(beta=beta, delta_omega=dw, t_prep=t_prep,
                                      omega0=-omega0 if negative else omega0,
                                      grid_span=span, grid_points=n)
        taus = np.random.default_rng(seed).uniform(0.0, 6.0 / dw, 50)
        fast = model_photon.simulated_local_distance_photon(p, taus)
        assert np.max(np.abs(fast - photon_distance_dense(p, taus))) <= 1e-12

    def test_closed_form_grid_call_matches_scalar_calls(self):
        p = model_photon.PhotonParams(t_prep=0.7)
        taus = np.linspace(0.0, 6.0, 400)
        scalar = [model_photon.analytic_local_distance_photon(p, t) for t in taus]
        assert all(type(d) is float for d in scalar)
        grid = model_photon.analytic_local_distance_photon(p, taus)
        assert np.max(np.abs(grid - scalar)) <= 1e-15

    def test_doubling_convergence(self):
        taus = np.linspace(0.0, 6.0, 60)
        p1 = model_photon.PhotonParams()
        p2 = model_photon.PhotonParams(
            grid_span=2 * p1.grid_span, grid_points=2 * p1.grid_points - 1
        )
        d1 = model_photon.simulated_local_distance_photon(p1, taus)
        d2 = model_photon.simulated_local_distance_photon(p2, taus)
        assert np.max(np.abs(d1 - d2)) <= 1e-4

    def test_protocol_matches_fast_path(self):
        # full matrix protocol on a small grid against the vectorized formula
        p = model_photon.PhotonParams(**SMALL)
        s = build_correlated_state(p)
        grid = TimeGrid.linear(4.0, 9)
        series = run_local_detection(
            s, michelson_evolution(p), grid
        )
        fast = model_photon.simulated_local_distance_photon(p, grid.samples)
        assert np.max(np.abs(series.d_t - fast)) <= 1e-10


class TestMichelson:
    def test_identity_at_zero(self):
        p = model_photon.PhotonParams(**SMALL)
        u = michelson_propagator(p, 0.0)
        assert np.max(np.abs(u - np.eye(2 * p.grid_points))) <= 1e-12

    def test_unitarity(self):
        p = model_photon.PhotonParams(**SMALL)
        u = michelson_propagator(p, 1.3, eta_angle=0.4)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2 * p.grid_points))) <= 1e-12

    def test_populations_frozen(self):
        # pure dephasing: H/V populations never change under the imprint
        p = model_photon.PhotonParams(**SMALL)
        s = build_correlated_state(p)
        for tau in (0.7, 2.1):
            u = michelson_propagator(p, tau)
            evolved = u @ s.rho @ u.conj().T
            m = p.grid_points
            assert abs(np.trace(evolved[:m, :m]) - np.trace(s.rho[:m, :m])) <= 1e-12

    def test_eta_independence(self):
        p = model_photon.PhotonParams(**SMALL)
        s = build_correlated_state(p)
        grid = TimeGrid.linear(3.0, 7)
        base = run_local_detection(s, michelson_evolution(p), grid)
        for eta in (0.3, 0.9, 1.4):
            rotated = run_local_detection(
                s, michelson_evolution(p, eta_angle=eta), grid
            )
            assert np.max(np.abs(rotated.d_t - base.d_t)) <= 1e-9

    def test_propagator_matches_generator(self):
        # U(tau) = expm(-i H tau) of the generator
        p = model_photon.PhotonParams(**SMALL)
        h = michelson_evolution(p).hamiltonian
        for tau in (0.0, 0.8):
            assert np.max(np.abs(michelson_propagator(p, tau) - expm(-1j * h * tau))) <= 1e-9


class TestDiscreteAncilla:
    def test_zero_discord_angles(self):
        for theta in (0.0, np.pi / 2):
            s = model_photon.build_discrete_state(
                model_photon.DiscreteAncillaParams(lam=0.5, theta=theta)
            )
            val, _ = minimal_dephasing_disturbance(s)
            assert val <= 1e-6

    def test_discordant_angle(self):
        s = model_photon.build_discrete_state(
            model_photon.DiscreteAncillaParams(lam=0.5, theta=np.pi / 4)
        )
        val, _ = minimal_dephasing_disturbance(s)
        assert val > 1e-3

    def test_product_state(self):
        s = model_photon.build_discrete_state(
            model_photon.DiscreteAncillaParams(lam=1.0, theta=np.pi / 4)
        )
        val, _ = minimal_dephasing_disturbance(s)
        assert val <= 1e-9

    def test_two_step_witnesses(self):
        evo = model_photon.channel_phase_evolution()
        grid = TimeGrid.linear(2 * np.pi, 60)
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

        discordant = model_photon.build_discrete_state(
            model_photon.DiscreteAncillaParams(lam=0.5, theta=np.pi / 4)
        )
        assert run_minimized_detection(discordant, evo, grid).d_max > 1e-3

        classical = model_photon.build_discrete_state(
            model_photon.DiscreteAncillaParams(lam=0.5, theta=np.pi / 2)
        )
        assert run_minimized_detection(classical, evo, grid).d_max <= 1e-6
        _, fired = classical_correlation_witness(classical, hadamard, evo, grid)
        assert fired

        product = model_photon.build_discrete_state(
            model_photon.DiscreteAncillaParams(lam=1.0, theta=0.3)
        )
        assert run_minimized_detection(product, evo, grid).d_max <= 1e-6
        _, fired = classical_correlation_witness(product, hadamard, evo, grid)
        assert not fired
