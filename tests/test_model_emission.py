"""Discretized flat-band spontaneous emission."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import emission_row_signal, full_space_hamiltonian
from discord_probe import model_emission, tensor
from discord_probe.cli import execute
from discord_probe.states import BipartiteState, computational_basis, dephase
from discord_probe.tensor import (
    BipartitionDims,
    evolve,
    kron,
    partial_trace_b,
)
from discord_probe.measures import negativity, trace_distance

FAST = model_emission.EmissionParams(n_modes=101, half_bandwidth=20.0)


@pytest.mark.parametrize("structured", [False, True])
def test_point_makes_one_real_coupled_eigh(structured, monkeypatch, tmp_path):
    # the only diagonalization of a point is one real eigh of the coupled
    # sub-sector, |e,0> plus the 11 of 21 modes a structured band keeps
    # coupled; no Hermitian check runs, as sector_hamiltonian fills H
    # symmetric entry by entry
    model_emission._sector_spectrum.cache_clear()
    calls, checked = [], []
    real_check = tensor._require_hermitian_stack
    monkeypatch.setattr(tensor, "_require_hermitian_stack",
                        lambda m, *r: checked.append(m.dtype) or real_check(m, *r))
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *r, **k: calls.append(a) or eigh(a, *r, **k))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *r, **k: calls.append(a) or eigvalsh(a, *r, **k))
    execute({"model": "emission", "params": {"n_modes": 21, "structured": structured},
             "time_grid": {"t_max": 3.0, "points": 7}}, str(tmp_path))
    assert len(calls) == 1
    assert calls[0].dtype == np.float64
    assert calls[0].shape == ((12, 12) if structured else (22, 22))
    assert checked == []


class TestParams:
    def test_rate_normalization(self):
        p = model_emission.EmissionParams()
        assert p.rate == pytest.approx(1.0)

    def test_rejects_even_modes(self):
        with pytest.raises(ValueError):
            model_emission.EmissionParams(n_modes=400)

    def test_regime_warning(self):
        bad = model_emission.EmissionParams(n_modes=11, half_bandwidth=2.0)
        with pytest.warns(UserWarning):
            bad.check_regime()


def one_photon_populations(p, t):
    """|u_k(t)|^2 per mode from the dense embedded state (|g> (x) |k>)."""
    return np.diag(model_emission.embedded_pure_state(p, t).rho).real[1 : p.n_modes + 1]


class TestSectorEvolution:
    def test_initial_amplitudes(self):
        a, weight = model_emission.survival_amplitude(FAST, 0.0)
        assert a == pytest.approx(1.0)
        assert weight <= 1e-28
        assert np.max(one_photon_populations(FAST, 0.0)) <= 1e-28

    def test_norm_conservation(self):
        for t in (0.3, 1.0, 2.7):
            a, weight = model_emission.survival_amplitude(FAST, t)
            pops = one_photon_populations(FAST, t)
            assert abs(abs(a) ** 2 + np.sum(pops) - 1.0) <= 1e-8
            assert weight == pytest.approx(np.sum(pops), abs=1e-12)

    def test_exponential_decay(self):
        # past the short-time (sub-1/bandwidth) transient the decay is
        # exponential to a few percent at bandwidth = 20 rates
        p = model_emission.EmissionParams()
        for t in (0.5, 1.0, 2.0, 3.0):
            a, _ = model_emission.survival_amplitude(p, t)
            assert abs(abs(a) ** 2 - np.exp(-t)) <= 0.025 * np.exp(-t)

    def test_wigner_weisskopf_point(self):
        a, _ = model_emission.survival_amplitude(model_emission.EmissionParams(), 1.0)
        assert abs(abs(a) ** 2 - np.exp(-1.0)) <= 0.02

    @pytest.mark.filterwarnings("ignore:decay rate")
    def test_full_space_oracle(self):
        # sector restriction against the full atom (x) hard-core-modes space;
        # the tiny instance is intentionally outside the flat-band regime
        p = model_emission.EmissionParams(n_modes=5, half_bandwidth=4.0,
                                          coupling=0.3)
        h_full = full_space_hamiltonian(p)
        nm = p.n_modes
        # embed |e, vacuum>: atom index 1 = |e>, field index 0 = no photons
        psi = np.zeros(2 * 2**nm, dtype=complex)
        psi[2**nm] = 1.0
        rho = np.outer(psi, psi.conj())
        t = 0.9
        out = evolve(rho, h_full, t)
        a, _ = model_emission.survival_amplitude(p, t)
        # excited-state population comparison
        pe_full = np.trace(out[2**nm:, 2**nm:]).real
        assert abs(pe_full - abs(a) ** 2) <= 1e-10
        # one-photon populations: field basis state with only mode k occupied
        pops = one_photon_populations(p, t)
        for k in range(nm):
            idx = 2 ** (nm - 1 - k)
            assert abs(out[idx, idx].real - pops[k]) <= 1e-10


class TestNegativity:
    def test_zero_at_start(self):
        assert model_emission.transient_negativity(FAST, 0.0) <= 1e-12

    def test_decays_at_late_times(self):
        late = model_emission.transient_negativity(FAST, 12.0)
        peak = model_emission.transient_negativity(FAST, np.log(2.0))
        assert late <= 0.1 * peak

    def test_square_root_law_constancy(self):
        # the earliest times carry the decay-law (bandwidth) error, so the
        # constancy window starts past the short-time transient
        p = model_emission.EmissionParams()
        t0s = np.linspace(0.4, 2.0, 9)
        ratios = np.array([
            model_emission.transient_negativity(p, t)
            / np.sqrt(np.exp(-t) * (1 - np.exp(-t)))
            for t in t0s
        ])
        c = ratios.mean()
        assert np.max(np.abs(ratios - c) / c) <= 0.03
        assert c * 0.5 >= 0.45  # peak N = c/2 stays near the pure-state cap 1/2

    @pytest.mark.parametrize("structured", [False, True])
    @pytest.mark.parametrize("n_modes", [21, 101, 201])
    def test_schmidt_product_is_dense_negativity(self, n_modes, structured):
        p = model_emission.EmissionParams(n_modes=n_modes)
        if structured:
            p = model_emission.structured_params(p)
        for t0 in (0.0, 1e-7, 1e-5, 1e-3, 0.3, 1.0, 2.5):
            assert model_emission.transient_negativity(p, t0) == pytest.approx(
                negativity(model_emission.embedded_pure_state(p, t0)), abs=1e-12
            )

    def test_square_root_law_exact_in_population(self):
        # for the pure sector state the law is exact in the excited population
        p = model_emission.EmissionParams()
        for t in (0.2, 0.7, 1.9):
            pe = abs(model_emission.survival_amplitude(p, t)[0]) ** 2
            assert model_emission.transient_negativity(p, t) == pytest.approx(
                np.sqrt(pe * (1 - pe)), abs=1e-9
            )


class TestLocalSignal:
    def test_zero_at_t0_zero(self):
        assert model_emission.emission_local_signal(FAST, 0.0, 1.0) <= 1e-12

    @pytest.mark.filterwarnings("ignore:decay rate")
    def test_matches_full_protocol(self):
        # the vector-algebra signal equals the dephase-evolve-compare distance
        p = model_emission.EmissionParams(n_modes=31, half_bandwidth=10.0)
        t0, t1 = 0.6, 1.7
        state = model_emission.embedded_pure_state(p, t0)
        w, v = np.linalg.eigh(model_emission.sector_hamiltonian(p))
        dephased = dephase(state, computational_basis(2))
        nf = p.n_modes + 1
        # evolve both full-space states by embedding the sector propagator
        u_sector = v @ np.diag(np.exp(-1j * w * (t1 - t0))) @ v.conj().T
        u_full = np.eye(2 * nf, dtype=complex)
        # sector basis: |e,0> then |g,k>; embedding indices: nf and 1..n
        idx = [nf] + list(range(1, p.n_modes + 1))
        u_full[np.ix_(idx, idx)] = u_sector
        dims = BipartitionDims(2, nf)
        a = partial_trace_b(u_full @ state.rho @ u_full.conj().T, dims)
        b = partial_trace_b(u_full @ dephased.rho @ u_full.conj().T, dims)
        direct = trace_distance(a, b)
        assert abs(
            model_emission.emission_local_signal(p, t0, t1) - direct
        ) <= 1e-10

    def test_vanishes_at_zero_delay(self):
        # the signal is built from a(t1 - t0), and a(0) = 1 leaves no
        # difference between the two evolutions at t1 = t0
        for t0 in (0.0, 0.4, 1.1, 2.5):
            assert abs(model_emission.emission_local_signal(FAST, t0, t0)) <= 1e-15

    def test_flat_band_residue_small(self):
        p = model_emission.EmissionParams()
        vals = [
            model_emission.emission_local_signal(p, t0, t0 + tau)
            for t0 in (1.0, 2.0, 4.0)
            for tau in (1.0, 2.0, 5.0)
        ]
        assert max(vals) <= 0.01

    def test_structured_band_restores_signal(self):
        p = model_emission.EmissionParams()
        sp = model_emission.structured_params(p)
        flat = max(
            model_emission.emission_local_signal(p, t0, t0 + 1.0)
            for t0 in (0.5, 1.0, 2.0)
        )
        structured = max(
            model_emission.emission_local_signal(sp, t0, t0 + 1.0)
            for t0 in (0.5, 1.0, 2.0)
        )
        assert structured >= 5 * flat

    @pytest.mark.parametrize("structured", [False, True])
    def test_matches_row_formula(self, structured):
        p = FAST if not structured else model_emission.structured_params(FAST)
        for t0, t1 in ((0.0, 0.5), (0.4, 0.8), (1.3, 2.6), (2.0, 7.5)):
            psi, signal = emission_row_signal(p, t0, t1)
            a, weight = model_emission.survival_amplitude(p, t0)
            assert abs(a - psi[0]) <= 1e-12
            assert abs(weight - np.sum(np.abs(psi[1:]) ** 2)) <= 1e-12
            # <g,k| rho |e,0> = u_k conj(a) in the embedded state
            nf = p.n_modes + 1
            rho = model_emission.embedded_pure_state(p, t0).rho
            assert np.max(np.abs(rho[1:nf, nf] - psi[1:] * np.conj(psi[0]))) <= 1e-12
            assert abs(model_emission.emission_local_signal(p, t0, t1) - signal) <= 1e-12

    def test_rejects_reversed_times(self):
        with pytest.raises(ValueError):
            model_emission.emission_local_signal(FAST, 1.0, 0.5)

    def test_shifted_energies_leave_signal(self):
        # atomic_gap moves the atom and the band together: a(t) only picks up
        # the phase exp(-i gap t), which the semigroup defect does not see
        shifted = model_emission.EmissionParams(n_modes=101, atomic_gap=7.5)
        for structured in (False, True):
            p, q = FAST, shifted
            if structured:
                p, q = map(model_emission.structured_params, (p, q))
            for t0, t1 in ((0.2, 0.5), (0.7, 1.4), (1.5, 4.0)):
                assert abs(model_emission.emission_local_signal(q, t0, t1)
                           - model_emission.emission_local_signal(p, t0, t1)) <= 1e-12
                assert abs(abs(model_emission.survival_amplitude(q, t0)[0])
                           - abs(model_emission.survival_amplitude(p, t0)[0])) <= 1e-12


class TestSurvivalAmplitude:
    @pytest.mark.parametrize("structured", [False, True])
    def test_arrays_equal_scalar_calls(self, structured):
        p = FAST if not structured else model_emission.structured_params(FAST)
        t0s = np.array([0.0, 1e-6, 0.3, 1.1, 2.9])
        a, weight = model_emission.survival_amplitude(p, t0s)
        neg = model_emission.transient_negativity(p, t0s)
        sig = model_emission.emission_local_signal(p, t0s, 2 * t0s)
        assert a.shape == weight.shape == neg.shape == sig.shape == t0s.shape
        for i, t in enumerate(t0s):
            a_i, w_i = model_emission.survival_amplitude(p, t)
            assert abs(a[i] - a_i) <= 1e-15 and abs(weight[i] - w_i) <= 1e-15
            assert abs(neg[i] - model_emission.transient_negativity(p, t)) <= 1e-15
            assert abs(sig[i] - model_emission.emission_local_signal(p, t, 2 * t)) <= 1e-15

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="nonnegative"):
            model_emission.survival_amplitude(FAST, [0.5, -0.1])

    def test_rejects_spectral_weights_off_one(self, monkeypatch):
        # a non-unitary eigenvector matrix breaks sum_k q_k = 1
        w, v = np.linalg.eigh(model_emission.sector_hamiltonian(FAST))
        monkeypatch.setattr(model_emission, "_sector_spectrum",
                            lambda p: (w, v * (1 + 1e-9)))
        with pytest.raises(ValueError, match="spectral weights"):
            model_emission.survival_amplitude(FAST, 1.0)


@st.composite
def masked_params(draw):
    n = 2 * draw(st.integers(1, 20)) + 1
    mask = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 0.4, -1.7]),
                         min_size=n, max_size=n))
    return model_emission.EmissionParams(
        n_modes=n, coupling_mask=tuple(mask),
        half_bandwidth=draw(st.floats(0.5, 30.0)),
        atomic_gap=draw(st.floats(-10.0, 10.0)))


class TestCoupledSector:
    # decoupled modes (g_k = 0) are exact eigenvectors orthogonal to |e,0>,
    # so the coupled sub-sector must reproduce the full complex sector

    @pytest.mark.filterwarnings("ignore:decay rate")
    @settings(max_examples=40, deadline=None)
    @example(model_emission.EmissionParams(n_modes=7, coupling_mask=(0.0,) * 7,
                                           atomic_gap=2.5))
    @given(masked_params())
    def test_survival_amplitude_matches_full_sector(self, p):
        times = np.array([0.0, 0.37, 1.0, 2.9])
        a, weight = model_emission.survival_amplitude(p, times)
        for i, t in enumerate(times):
            psi, _ = emission_row_signal(p, t, t)
            assert abs(a[i] - psi[0]) <= 1e-12
            assert abs(weight[i] - np.sum(np.abs(psi[1:]) ** 2)) <= 1e-12
        if not any(p.coupling_mask):
            assert np.max(np.abs(a - np.exp(-1j * p.atomic_gap * times))) <= 1e-15
            assert np.all(weight == 0.0)

    @pytest.mark.filterwarnings("ignore:decay rate")
    @pytest.mark.parametrize("p", [
        model_emission.structured_params(FAST),
        model_emission.EmissionParams(n_modes=9, coupling_mask=(0, 1, 0, 0, 1, 1, 0, 1, 0),
                                      half_bandwidth=3.0, atomic_gap=-1.2),
        model_emission.EmissionParams(n_modes=5, coupling_mask=(0,) * 5),
    ], ids=["structured", "scattered", "decoupled"])
    def test_embedded_state_scatters_coupled_modes(self, p):
        nf = p.n_modes + 1
        off = 1 + np.flatnonzero(p.couplings() == 0)  # |g,k> of decoupled modes
        for t0 in (0.0, 0.6, 2.2):
            rho = model_emission.embedded_pure_state(p, t0).rho
            assert not np.any(rho[off]) and not np.any(rho[:, off])
            psi, _ = emission_row_signal(p, t0, t0)
            full = np.zeros(2 * nf, dtype=complex)
            full[nf], full[1:nf] = psi[0], psi[1:]
            assert np.max(np.abs(rho - np.outer(full, full.conj()))) <= 1e-12
