"""Variable-range transverse Ising chain."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import SY
from oracles import (autocorrelation, autocorrelation_direct, chain_hamiltonian_dense,
                     ground_detection_dense, ground_distances_complex_exp,
                     labelled_blocks, parity_operator, spectral_dense)
from discord_probe import measures, model_spinchain
from discord_probe.cli import execute
from discord_probe.measures import (BasisGrid, dephasing_disturbance, negativity,
                                    trace_distance)
from discord_probe.protocol import TimeGrid, run_minimized_detection
from discord_probe.states import BipartiteState
from discord_probe.tensor import evolve, kron, partial_trace_b


def params(**kw):
    base = dict(n_spins=5, alpha=1.0, j0=1.0, b_field=1.0)
    base.update(kw)
    return model_spinchain.ChainParams(**base)


@pytest.mark.parametrize("cfg", [
    {"n_spins": 5, "kT": 0.1},
    {"n_spins": 5, "b_field": 0.7},
], ids=["thermal", "ground"])
def test_point_builds_one_hamiltonian(cfg, monkeypatch, tmp_path):
    # spectral() diagonalizes the rotated frame's H once and its sectors serve
    # every stage; a thermal point also builds the original frame's H, once,
    # for its evolution and the parity check
    built = []
    build = model_spinchain.build_chain_hamiltonian
    monkeypatch.setattr(model_spinchain, "build_chain_hamiltonian",
                        lambda p, rotated=False: built.append(rotated) or build(p, rotated))
    execute({"model": "spinchain", "params": cfg,
             "time_grid": {"t_max": 5.0, "points": 20},
             "basis_grid": {"n_theta": 6, "n_phi": 12}}, str(tmp_path))
    assert sorted(built) == ([False, True] if cfg.get("kT") else [True])


def test_ground_point_kernels(monkeypatch, tmp_path):
    # one n = 8 ground point diagonalizes once: one real eigh of the two
    # 128-state popcount sectors, no complex or larger matrix, no eigvalsh
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *r, name=name, real=real, **k:
                            calls.append((name, np.asarray(a))) or real(a, *r, **k))
    execute({"model": "spinchain", "params": {"n_spins": 8, "b_field": 0.7}},
            str(tmp_path))
    assert [name for name, _ in calls] == ["eigh"]
    a = calls[0][1]
    assert a.dtype == np.float64 and a.shape == (2, 128, 128)


def test_thermal_point_searches_half_the_grid(monkeypatch, tmp_path):
    # the parity mirror: before refinement, each Bloch search of a thermal
    # point evaluates phi in [0, pi] only, at most n_theta (n_phi // 2 + 1)
    # grid points plus the one start
    searches = []
    real = measures._bloch_search

    def spy(f, *args):
        calls = []
        searches.append(calls)
        return real(lambda a: calls.append(a.reshape(-1, 2)) or f(a), *args)

    monkeypatch.setattr(measures, "_bloch_search", spy)
    execute({"model": "spinchain", "params": {"n_spins": 5, "kT": 0.3},
             "time_grid": {"t_max": 5.0, "points": 20},
             "basis_grid": {"n_theta": 20, "n_phi": 40}}, str(tmp_path))
    grid = BasisGrid(20, 40)
    assert len(searches) == 2  # D_min, and d_min(t) in one chunk
    for calls in searches:
        assert len(calls) == 2 + grid.refine_rounds
        first, rest = calls[0][:-1], calls[1]
        # the coarse subgrid: theta rows 0, 3, .., 18, 19 x phi columns 0, 3, .., 18, 20
        assert len(first) == 8 * 8
        assert len(first) + len(rest) + 1 <= 20 * (40 // 2 + 1) + 1
        assert np.all(np.vstack([first, rest])[:, 1] <= np.pi)
        assert len(np.unique(np.vstack([first, rest]), axis=0)) == len(first) + len(rest)


@pytest.mark.parametrize("kT,mirror,kept", [
    (0.05, False, [382, 686]), (0.05, True, [196, 354]),
    (0.5, False, [50, 688]), (0.5, True, [28, 343]),
])
def test_pruned_search_evaluates_pinned_counts(kT, mirror, kept, monkeypatch):
    # the fine grid points the Lipschitz prune keeps for D_min and for the
    # d_min(t) search (20 times, one chunk) of a cold and a warm Gibbs state;
    # the 20 x 40 grid has 112 coarse points (64 mirrored) and 688 fine ones
    # (356 mirrored), so a wider kept set shows here even when no value moves
    p = params(kT=kT)
    spec = model_spinchain.spectral(p)
    state = model_spinchain.gibbs_state(p, spec)
    evo = model_spinchain.original_frame_evolution(p, spec)
    searches = []
    real = measures._bloch_search

    def spy(f, *args):
        calls = []
        searches.append(calls)
        return real(lambda a: calls.append(a.shape[-2]) or f(a), *args)

    monkeypatch.setattr(measures, "_bloch_search", spy)
    run_minimized_detection(state, evo, TimeGrid.linear(20.0, 20), BasisGrid(20, 40), mirror)
    assert [calls[0] for calls in searches] == [65 if mirror else 113] * 2  # coarse + start
    assert [calls[1] for calls in searches] == kept


class TestHamiltonian:
    @pytest.mark.parametrize("n_spins", range(2, 8))
    def test_rotated_frame(self, n_spins):
        # R H R^dag with R = (x) exp(-i pi/4 sigma_x): real, and without an
        # entry between the even- and odd-popcount sectors
        p = params(n_spins=n_spins, alpha=0.7, j0=0.37, b_field=-0.4)
        r = np.array([[1.0 + 0j]])
        for _ in range(n_spins):
            r = kron(r, (np.eye(2) - 1j * np.array([[0, 1], [1, 0]])) / np.sqrt(2))
        h = model_spinchain.build_chain_hamiltonian(p, rotated=True)
        assert h.dtype == np.float64
        ref = r @ chain_hamiltonian_dense(p) @ r.conj().T
        assert np.max(np.abs(h - ref)) <= 1e-13
        odd = np.bitwise_count(np.arange(2**n_spins)) & 1
        assert not np.any(h[odd[:, None] != odd])

    def test_two_spin_ising_only(self):
        p = model_spinchain.ChainParams(n_spins=2, b_field=1e-12)
        w = np.linalg.eigvalsh(model_spinchain.build_chain_hamiltonian(p))
        assert np.allclose(w, [-1, -1, 1, 1], atol=1e-9)

    def test_two_spin_field_only(self):
        p = model_spinchain.ChainParams(n_spins=2, j0=1e-12, b_field=1.0)
        w = np.linalg.eigvalsh(model_spinchain.build_chain_hamiltonian(p))
        assert np.allclose(w, [-2, 0, 0, 2], atol=1e-9)

    @pytest.mark.parametrize("n_spins", range(2, 10))
    def test_bytes_match_dense_oracle(self, n_spins):
        for alpha, j0, b_field in ((1.0, 1.0, 1.0), (0.7, 0.37, -0.4),
                                   (2.3, 2.0, 1e-12), (2.0, 1.0, 7.3)):
            p = params(n_spins=n_spins, alpha=alpha, j0=j0, b_field=b_field)
            assert (model_spinchain.build_chain_hamiltonian(p).tobytes()
                    == chain_hamiltonian_dense(p).tobytes())

    @pytest.mark.parametrize("n_spins", range(2, 11))
    def test_rotated_keeps_parities_apart(self, n_spins):
        # spectral() splits the rotated H on popcount parity without looking:
        # it has no nonzero entry between the even- and odd-popcount states,
        # and its rows and eigenpairs are those of the blocks the labelled
        # reference cuts, to the bit
        odd = np.bitwise_count(np.arange(2**n_spins)) & 1
        for alpha, j0, b_field in ((1.0, 1.0, 1.0), (0.7, 0.37, -0.4),
                                   (2.3, 2.0, 1e-12), (2.0, 1.0, 7.3)):
            p = params(n_spins=n_spins, alpha=alpha, j0=j0, b_field=b_field)
            h = model_spinchain.build_chain_hamiltonian(p, rotated=True)
            assert np.count_nonzero(h[odd[:, None] != odd]) == 0
            spec, cut = model_spinchain.spectral(p), labelled_blocks(h, odd)
            w, v = np.linalg.eigh(cut.blocks[0])
            assert spec.rows.tobytes() == cut.sectors.rows[0].tobytes()
            assert spec.w.tobytes() == w.tobytes() and spec.v.tobytes() == v.tobytes()

    def test_parity_commutes(self):
        p = params()
        h = model_spinchain.build_chain_hamiltonian(p)
        par = parity_operator(p.n_spins)
        assert np.max(np.abs(h @ par - par @ h)) <= 1e-12

    def test_long_range_coupling_decays(self):
        # alpha enters through J0/|i-j|^alpha: check the (0, 2) coupling term
        p2 = params(n_spins=3, alpha=2.0, b_field=1e-12)
        h = model_spinchain.build_chain_hamiltonian(p2)
        # <++ +|H|-- +> style element: easier via energy of |xxx> product states
        x_plus = np.array([1, 1]) / np.sqrt(2)
        v = np.array([1.0])
        for _ in range(3):
            v = np.kron(v, x_plus)
        e = (v @ h @ v).real
        # all sx eigenvalues +1: E = -(J01 + J12 + J02) = -(1 + 1 + 1/4)
        assert e == pytest.approx(-2.25, abs=1e-9)


class TestParity:
    @pytest.mark.parametrize("n_spins", range(2, 11))
    def test_matches_dense_parity(self, n_spins):
        # the sign identity thermal_detection checks its state and H with
        rng = np.random.default_rng(n_spins)
        d = 2**n_spins
        par = parity_operator(n_spins)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        s = 1 - 2 * (np.bitwise_count(np.arange(d)) & 1).astype(int)
        assert np.array_equal(np.outer(s, s) * m[::-1, ::-1], par @ m @ par.conj().T)


class TestSpectral:
    def test_definite_parity(self):
        spec = model_spinchain.spectral(params())
        par = parity_operator(5)
        for j in range(len(spec.energies)):
            v = spec.states[:, j]
            resid = par @ v - spec.parities[j] * v
            assert np.max(np.abs(resid)) <= 1e-8

    def test_energies_ascending(self):
        spec = model_spinchain.spectral(params())
        assert np.all(np.diff(spec.energies) >= -1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "the kept convention for a numerically degenerate block puts its "
        "parity -1 states first but keeps the energies sorted: states[:, 0] "
        "is the odd member of the ground doublet, while the even-sector "
        "ground state lies lower (gap 1.6e-9)"))
    def test_ground_state_is_eigenvector_of_ground_energy(self):
        p = model_spinchain.ChainParams(n_spins=7, b_field=0.1)
        spec = model_spinchain.spectral(p)
        h = model_spinchain.build_chain_hamiltonian(p)
        psi0 = spec.states[:, 0]
        assert np.linalg.norm(h @ psi0 - spec.energies[0] * psi0) <= 1e-12

    @pytest.mark.parametrize("n_spins,b_field,points", [
        (2, 0.5, 400), (3, 0.3, 400), (4, 0.001, 400), (5, 0.7, 400), (6, 1.1, 400),
        (6, 20.0, 400), (7, 0.1, 400), (7, 0.12978, 400), (7, 1.014587, 400),
        (8, 0.1, 400), (8, 0.109078, 400), (8, 0.112283, 400), (8, 0.150003, 400),
        (8, 0.200395, 400), (8, 1.014587, 400), (8, 6.862431, 400), (9, 0.5, 100),
        (10, 1.0, 100)])
    def test_matches_dense_oracle(self, n_spins, b_field, points):
        # the popcount sectors against one dense complex eigh with rotated
        # degenerate blocks; (7, 0.1) to (8, 0.200395) are grouped ground
        # doublets, (4, 0.001), (8, 0.1) and (8, 0.109078) refused ones
        p = params(n_spins=n_spins, b_field=b_field)
        spec, ref = model_spinchain.spectral(p), spectral_dense(p)
        scale = max(np.max(np.abs(ref.energies)), 1.0)
        assert np.max(np.abs(spec.energies - ref.energies)) <= 1e-12 * scale
        assert np.array_equal(spec.parities, ref.parities)
        grid = TimeGrid.linear(20.0, points)
        try:
            want = ground_detection_dense(p, grid, ref)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                model_spinchain.ground_state_detection(p, grid, spec)
            return
        assert want.gap > 1e-10
        res = model_spinchain.ground_state_detection(p, grid, spec)
        assert abs(res.series.d_max - np.max(want.d_t)) <= 1e-9
        assert abs(res.negativity - want.negativity) <= 1e-12
        assert abs(res.gap - want.gap) <= 1e-12

    def test_grouped_block_pairs_each_state_with_its_energy(self):
        # at (7, 0.12) the ground doublet is a grouped block, whose parity -1
        # state comes first in `states` though the energies stay sorted: the
        # Gibbs state, the original frame's evolution and the excitation
        # triples each pair a state with its own energy, checked against expm
        p = params(n_spins=7, b_field=0.12, kT=0.05)
        spec = model_spinchain.spectral(p)
        assert not np.array_equal(spec.w.ravel()[spec.order], spec.energies)
        h = model_spinchain.build_chain_hamiltonian(p)
        gibbs = expm(-(h - spec.energies[0] * np.eye(len(h))) / p.kT)
        rho = model_spinchain.gibbs_state(p, spec).rho
        assert np.max(np.abs(rho - gibbs / np.trace(gibbs).real)) <= 1e-13
        rng = np.random.default_rng(12)
        x = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
        x = (x + x.conj().T) / 2
        u = expm(-1j * h * 20.0)
        got = model_spinchain.original_frame_evolution(p, spec).marginal_series(
            [x], p.dims, np.array([20.0]))[0, 0]
        assert np.max(np.abs(got - partial_trace_b(u @ x @ u.conj().T, p.dims))) <= 1e-10
        e = np.array([e for e, _, _ in model_spinchain.excitation_overlaps(p, spec)])
        assert np.max(np.abs(h @ spec.states - spec.states * e)) <= 1e-12

    @pytest.mark.parametrize("n_spins", range(2, 9))
    def test_states_are_orthonormal_eigenvectors(self, n_spins):
        p = params(n_spins=n_spins, b_field=1.3)
        spec = model_spinchain.spectral(p)
        x = spec.states
        h = model_spinchain.build_chain_hamiltonian(p)
        assert np.max(np.abs(x.conj().T @ x - np.eye(2**n_spins))) <= 1e-13
        assert np.max(np.abs(h @ x - x * spec.energies)) <= 1e-12 * n_spins


class TestGroundStateDetection:
    def test_magnetization_identity(self):
        # d(t) is the magnetization form, here against |tr((mc - m0) sigma_y)|/4
        # of the original frame's 2x2 marginals
        p = params(n_spins=6)
        grid = p.default_time_grid()
        res = model_spinchain.ground_state_detection(p, grid)
        want = ground_detection_dense(p, grid, spectral_dense(p))
        assert np.max(np.abs(res.d_mag - want.d_mag)) <= 1e-10
        assert np.max(np.abs(res.series.d_t - want.d_mag)) <= 1e-10

    def test_trace_distance_oracle(self):
        # independent slow-path evaluation of d(t) at a few times
        p = params(n_spins=4)
        spec = model_spinchain.spectral(p)
        res = model_spinchain.ground_state_detection(
            p, TimeGrid.linear(5.0, 6), spec
        )
        h = model_spinchain.build_chain_hamiltonian(p)
        psi0 = spec.states[:, 0]
        rho = np.outer(psi0, psi0.conj())
        sy1 = kron(SY, np.eye(2 ** (p.n_spins - 1)))
        rho_deph = 0.5 * (rho + sy1 @ rho @ sy1)
        for ti, t in enumerate(res.series.times):
            a = partial_trace_b(evolve(rho, h, t), p.dims)
            b = partial_trace_b(evolve(rho_deph, h, t), p.dims)
            assert abs(res.series.d_t[ti] - trace_distance(a, b)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.floats(0.3, 5.0), st.floats(0.5, 3.0),
           st.integers(0, 2**31 - 1))
    def test_cos_sin_phases_give_the_complex_bits(self, n_spins, b_field, alpha, seed):
        # the phases written as cos and sin into one float array give d(t) to
        # the bit of the complex exp form (t = 0 included)
        p = params(n_spins=n_spins, b_field=b_field, alpha=alpha)
        spec = model_spinchain.spectral(p)
        times = np.sort(np.random.default_rng(seed).uniform(0.0, 50.0, 40))
        grid = TimeGrid(np.concatenate([[0.0], times[times > 0]]))
        res = model_spinchain.ground_state_detection(p, grid, spec)
        want = ground_distances_complex_exp(spec, grid.samples)
        assert res.series.d_t.tobytes() == want.tobytes()

    def test_bound_is_negativity_is_disturbance(self):
        for n_spins, b_field in ((3, 0.4), (4, 0.3), (5, 1.2), (6, 20.0),
                                 (7, 2.0), (8, 0.7), (10, 1.0)):
            p = params(n_spins=n_spins, b_field=b_field)
            spec = model_spinchain.spectral(p)
            res = model_spinchain.ground_state_detection(p, spec=spec)
            psi0 = spec.states[:, 0]
            state = BipartiteState(np.outer(psi0, psi0.conj()), p.dims)
            assert res.negativity == pytest.approx(negativity(state), abs=1e-12)
            assert res.negativity == pytest.approx(
                dephasing_disturbance(state), abs=1e-9
            )
            assert res.series.d_max <= res.negativity + 1e-9

    def test_paramagnetic_limit_silent(self):
        # B >> J0: perturbatively small entanglement ~ J0/(2B) and signal
        res = model_spinchain.ground_state_detection(params(n_spins=6, b_field=20.0))
        assert res.negativity <= 0.02
        assert res.series.d_max <= 2e-3

    def test_ferromagnetic_limit_hidden_entanglement(self):
        # small B: entangled ground state but (nearly) no dynamical signal
        res = model_spinchain.ground_state_detection(params(n_spins=4, b_field=0.05))
        assert res.negativity > 0.1
        assert res.series.d_max <= 0.05


class TestExcitations:
    def test_populations_normalized(self):
        out = model_spinchain.excitation_overlaps(params())
        c = np.array([x[1] for x in out])
        assert abs(c.sum() - 1.0) <= 1e-10

    def test_odd_parity_selection(self):
        out = model_spinchain.excitation_overlaps(params())
        odd = sum(c for _, c, par in out if par < 0)
        assert odd <= 1e-12

    def test_small_field_narrow_support(self):
        # B << J0: the dephased ground state occupies only the ground level and
        # the single-flip band (both near-eigenstates), so its spectrum is
        # narrow and carries no energy coherences -- hence no dynamics
        p = params(b_field=0.05)
        out = model_spinchain.excitation_overlaps(p)
        c = np.array(sorted((x[1] for x in out), reverse=True))
        assert c[:3].sum() >= 1 - 1e-3
        auto = autocorrelation(p)
        assert min(x[1] for x in auto) >= 0.99

    def test_critical_field_broad_support(self):
        out = model_spinchain.excitation_overlaps(params(b_field=1.0))
        c = np.array(sorted((x[1] for x in out), reverse=True))
        assert c[:3].sum() < 0.999

    def test_large_field_band_structure(self):
        # B >> J0: populated bands sit near even multiples of 2B
        p = params(b_field=20.0)
        out = model_spinchain.excitation_overlaps(p)
        e0 = out[0][0]
        for e, c, _ in out:
            if c > 1e-6:
                band = (e - e0) / (2 * p.b_field)
                assert abs(band - round(band)) < 0.1
                assert round(band) % 2 == 0


class TestAutocorrelation:
    def test_starts_at_one(self):
        out = autocorrelation(params())
        assert out[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_definition(self):
        p = params(n_spins=4)
        spec = model_spinchain.spectral(p)
        out = autocorrelation(p, TimeGrid.linear(6.0, 7), spec)
        for t, c in out[::2]:
            direct = autocorrelation_direct(p, t, spec)
            assert abs(c - direct) <= 1e-10

    def test_flat_in_extreme_fields(self):
        for b in (1e-3, 50.0):
            out = autocorrelation(params(b_field=b))
            c = np.array([x[1] for x in out])
            assert c.min() >= 0.99

    def test_dips_near_critical(self):
        out = autocorrelation(params(b_field=1.0))
        c = np.array([x[1] for x in out])
        assert c.min() < 0.9


class TestThermal:
    def test_gibbs_sanity(self):
        p = params(kT=0.5)
        spec = model_spinchain.spectral(p)
        g = model_spinchain.gibbs_state(p, spec)
        h = model_spinchain.build_chain_hamiltonian(p)
        assert abs(np.trace(g.rho).real - 1.0) <= 1e-12
        assert np.max(np.abs(g.rho @ h - h @ g.rho)) <= 1e-10

    def test_cold_limit_matches_ground_state(self):
        p = params(n_spins=4, kT=1e-5)
        spec = model_spinchain.spectral(p)
        from discord_probe.measures import minimal_dephasing_disturbance

        g = model_spinchain.gibbs_state(p, spec)
        d_min, _ = minimal_dephasing_disturbance(g)
        psi0 = spec.states[:, 0]
        neg = negativity(BipartiteState(np.outer(psi0, psi0.conj()), p.dims))
        assert abs(d_min - neg) <= 1e-6

    def test_hot_small_field_collapse(self):
        p = params(n_spins=4, b_field=0.2, kT=2.0)
        spec = model_spinchain.spectral(p)
        from discord_probe.measures import minimal_dephasing_disturbance

        g = model_spinchain.gibbs_state(p, spec)
        d_min, _ = minimal_dephasing_disturbance(g)
        cold = model_spinchain.ChainParams(
            n_spins=4, alpha=1.0, j0=1.0, b_field=0.2, kT=1e-5
        )
        cold_val, _ = minimal_dephasing_disturbance(
            model_spinchain.gibbs_state(cold, model_spinchain.spectral(cold))
        )
        assert d_min <= 0.15 * cold_val  # collapsed by the thermal mixing

    def test_detection_sound(self):
        p = params(n_spins=4, kT=0.3)
        series, bound = model_spinchain.thermal_detection(
            p, TimeGrid.linear(10.0, 40)
        )
        assert np.all(series.d_t <= bound + 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.floats(-3.0, 3.0), st.floats(0.02, 5.0))
    def test_mirrored_search_matches_unmirrored(self, n_spins, b_field, kT):
        p = params(n_spins=n_spins, b_field=b_field, kT=kT)
        spec = model_spinchain.spectral(p)
        grid, bases = TimeGrid.linear(10.0, 30), BasisGrid(20, 40)
        series, bound = model_spinchain.thermal_detection(p, grid, bases, spec)
        ref = run_minimized_detection(model_spinchain.gibbs_state(p, spec),
                                      model_spinchain.original_frame_evolution(p, spec),
                                      grid, bases)
        assert abs(bound - ref.bound_ref) <= 1e-15
        assert np.max(np.abs(series.d_t - ref.d_t)) <= 1e-15

    def test_refuses_broken_parity(self, monkeypatch):
        # the mirror is declared only for a rho and an H that equal their
        # (x) sigma_y conjugates to the bit
        p = params(n_spins=4, kT=0.3)
        spec = model_spinchain.spectral(p)
        grid = TimeGrid.linear(5.0, 10)
        g = model_spinchain.gibbs_state(p, spec)
        corner = np.zeros_like(g.rho)
        corner[0, 0] = 1.0
        tilted = BipartiteState((1 - 1e-9) * g.rho + 1e-9 * corner, p.dims)
        with monkeypatch.context() as mp:
            mp.setattr(model_spinchain, "gibbs_state", lambda p, spec=None: tilted)
            with pytest.raises(ValueError, match="not parity symmetric"):
                model_spinchain.thermal_detection(p, grid, spec=spec)
        h = model_spinchain.build_chain_hamiltonian(p)
        h[0, 0] += 1e-9
        with monkeypatch.context() as mp:
            mp.setattr(model_spinchain, "build_chain_hamiltonian", lambda p: h)
            with pytest.raises(ValueError, match="not parity symmetric"):
                model_spinchain.thermal_detection(p, grid, spec=spec)
        model_spinchain.thermal_detection(p, grid, spec=spec)  # the chain's own pass

    def test_requires_positive_temperature(self):
        with pytest.raises(ValueError):
            model_spinchain.gibbs_state(params(kT=0.0))

    def test_gibbs_state_takes_weights_as_spectrum(self, monkeypatch):
        # the Boltzmann weights are the spectrum: no eigvalsh, same bits
        p = params(n_spins=6, kT=0.3)
        spec = model_spinchain.spectral(p)
        w = np.exp(-(spec.energies - spec.energies[0]) / p.kT)
        rho = (spec.states * (w / w.sum())) @ spec.states.conj().T
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *r, **k: calls.append(a) or eigvalsh(a, *r, **k))
        g = model_spinchain.gibbs_state(p, spec)
        assert calls == []
        assert g.rho.tobytes() == rho.tobytes()
