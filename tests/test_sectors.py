"""States and generators built on their sector blocks (cut from a dense
matrix by the labelled reference): the checks on the blocks against the same
calls on the dense matrix (one sector), and the pinching and D against their
dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_hermitian
from oracles import (dephase_kron, dephasing_disturbance_dense, haar_unitary,
                     labelled_blocks)
from discord_probe.measures import dephasing_disturbance
from discord_probe.protocol import EvolutionSpec, TimeGrid, run_local_detection
from discord_probe.states import (
    STATE_TOL,
    BipartiteState,
    ProjectiveBasis,
    computational_basis,
    dephase,
    dephasing_delta,
)
from discord_probe.tensor import BipartitionDims


def sectored(seed: int, d_a: int, d_b: int, floor: float = 0.0):
    """A random state and generator, each a direct sum of blocks of sizes 1-4
    over a permuted basis: the first block is 1x1 and the last is exactly
    zero in both. One eigenvalue of the state, in a random block, is `floor`.
    Returns rho, H, a sector label per basis state, the sectors' index sets
    and the rng."""
    rng = np.random.default_rng(seed)
    d = d_a * d_b
    sizes = [1]
    while sum(sizes) < d:  # the second block leaves room for a third
        sizes.append(min(int(rng.integers(1, 5)), d - sum(sizes) - (len(sizes) == 1)))
    live = d - sizes[-1]  # positions outside the zero block, at least 2
    w = np.zeros(d)
    w[:live] = rng.dirichlet(np.ones(live))
    j = rng.integers(live)
    w[j] = 0.0
    w *= (1.0 - floor) / w.sum()
    w[j] = floor
    perm, names = rng.permutation(d), 3 * rng.permutation(len(sizes)) - 5
    rho = np.zeros((d, d), dtype=complex)
    h = np.zeros((d, d), dtype=complex)
    labels, sectors, lo = np.empty(d, dtype=int), [], 0
    for s, m in enumerate(sizes):
        idx = perm[lo : lo + m]
        u = haar_unitary(m, seed + s)
        rho[np.ix_(idx, idx)] = (u * w[lo : lo + m]) @ u.conj().T
        h[np.ix_(idx, idx)] = random_hermitian(m, rng) * (s < len(sizes) - 1)
        labels[idx] = names[s]
        sectors.append(idx)
        lo += m
    return rho, h, labels, sectors, rng


def outcome(make):
    """The constructed object, or the ValueError that refused it."""
    try:
        return make()
    except ValueError as err:
        return err


DEFECTS = [None, "residue", "nan", "inf"]


def spoil(m: np.ndarray, sector: np.ndarray, defect, rng) -> np.ndarray:
    """m with `defect` on an entry inside `sector`'s block."""
    m = m.copy()
    x, y = rng.choice(sector, 2)
    if defect == "residue":  # |m - m^dag| = 2e-10 on the diagonal
        m[x, x] += 1e-10j
    elif defect is not None:
        m[x, y] = m[y, x] = np.nan if defect == "nan" else np.inf
    return m


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 3), st.integers(2, 6),
       st.sampled_from([-1e-3, -1e-9, 0.0, 1e-3]), st.sampled_from([0.0, 2e-10]),
       st.sampled_from(DEFECTS))
def test_checks_match_dense_path(seed, d_a, d_b, floor, trace_off, defect):
    # inside the blocks the two paths accept and refuse the same states and
    # generators, and see the same least eigenvalue
    rho, h, labels, sectors, rng = sectored(seed, d_a, d_b, floor)
    dims = BipartitionDims(d_a, d_b)
    block = sectors[int(rng.integers(len(sectors)))]
    rho = spoil(rho, block, defect, rng)
    rho[block[0], block[0]] += trace_off
    dense = outcome(lambda: BipartiteState(rho, dims))
    labelled = outcome(lambda: BipartiteState(labelled_blocks(rho, labels), dims))
    assert type(dense) is type(labelled)
    refused = defect is not None or floor < -STATE_TOL or trace_off > STATE_TOL
    assert isinstance(labelled, ValueError) == refused
    if not refused:
        assert abs(labelled.spectrum.min() - np.linalg.eigvalsh(rho).min()) <= 1e-12
        assert abs(labelled.spectrum.min() - dense.spectrum.min()) <= 1e-12
    h = spoil(h, block, defect, rng)
    dense = outcome(lambda: EvolutionSpec(h))
    labelled = outcome(lambda: EvolutionSpec(labelled_blocks(h, labels)))
    assert type(dense) is type(labelled)
    assert isinstance(labelled, ValueError) == (defect is not None)


def monomial_basis(d: int, rng) -> ProjectiveBasis:
    """A permutation of the computational basis with random phases: every
    vector has one nonzero entry."""
    return ProjectiveBasis(np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 3), st.integers(2, 6))
def test_pinching_matches_dense_path(seed, d_a, d_b):
    # a basis whose vectors each have one nonzero entry keeps the sectors,
    # any other leaves one sector; on the sector blocks or dense, rho, Delta
    # and D agree with the kron-product pinching and the dense D
    rho, _, labels, _, rng = sectored(seed, d_a, d_b)
    dims = BipartitionDims(d_a, d_b)
    one = BipartiteState(rho, dims)
    labelled = BipartiteState(labelled_blocks(rho, labels), dims)
    bases = [(computational_basis(d_a), True), (monomial_basis(d_a, rng), True),
             (ProjectiveBasis(haar_unitary(d_a, seed)), False)]
    for basis, keeps in bases:
        want = dephase_kron(one, basis)
        dense = dephasing_disturbance_dense(one, basis)
        for state in (one, labelled):
            pinched = dephase(state, basis)
            kept = labels if keeps and state is labelled else np.zeros(len(rho))
            assert np.array_equal(pinched.blocks.sectors.labels, kept)
            assert np.max(np.abs(pinched.rho - want)) <= 1e-12
            assert np.max(np.abs(dephasing_delta(state, basis).dense - (rho - want))) <= 1e-12
            for d in dense:
                assert abs(dephasing_disturbance(state, basis) - d) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 3), st.integers(2, 6))
def test_local_detection_matches_dense_path(seed, d_a, d_b):
    # Delta evolved and bounded on its sector blocks: d(t) as the dense
    # call's and D as the dense oracle's when the state is built on the
    # generator's sector value; a state on equal labels but its own sector
    # value keeps them through the pinching and gives the same bits, and a
    # dense state (one sector) on this generator is refused
    rho, h, labels, _, rng = sectored(seed, d_a, d_b)
    dims = BipartitionDims(d_a, d_b)
    evo, one = EvolutionSpec(labelled_blocks(h, labels)), BipartiteState(rho, dims)
    shared = BipartiteState(labelled_blocks(rho, evo.blocks.sectors), dims)
    own = BipartiteState(labelled_blocks(rho, labels), dims)
    grid = TimeGrid(np.concatenate([[0.0], np.sort(rng.uniform(0.1, 5.0, 6))]))
    for basis in (computational_basis(d_a), monomial_basis(d_a, rng)):
        dense = run_local_detection(one, EvolutionSpec(h), grid, basis)
        a = run_local_detection(shared, evo, grid, basis)
        assert np.max(np.abs(a.d_t - dense.d_t)) <= 1e-12
        for d in dephasing_disturbance_dense(one, basis):
            assert abs(a.bound_ref - d) <= 1e-12
        b = run_local_detection(own, evo, grid, basis)
        assert a.d_t.tobytes() == b.d_t.tobytes() and a.bound_ref == b.bound_ref
        with pytest.raises(ValueError, match="BlockDiagonal on the generator's sectors"):
            run_local_detection(one, evo, grid, basis)


@pytest.mark.parametrize("kind", [list, tuple])
def test_labels_as_a_sequence(kind):
    # a sector value made from a list or tuple of labels acts as one made
    # from the same labels in an array: the state keeps them, and its
    # pinching and D read them
    rho, _, labels, _, _ = sectored(23, 2, 3)
    dims, basis = BipartitionDims(2, 3), computational_basis(2)
    given = BipartiteState(labelled_blocks(rho, kind(labels.tolist())), dims)
    array = BipartiteState(labelled_blocks(rho, labels), dims)
    assert np.array_equal(given.blocks.sectors.labels, labels)
    a, b = dephase(given, basis), dephase(array, basis)
    assert np.array_equal(a.blocks.sectors.labels, labels)
    assert a.rho.tobytes() == b.rho.tobytes()
    assert dephasing_disturbance(given, basis) == dephasing_disturbance(array, basis)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 3), st.integers(1, 6), st.booleans())
def test_no_labels_is_one_sector(seed, d_a, d_b, real):
    # a dense generator or state gives the same bits as its blocks on labels
    # all zeros, in every call that reads its sectors
    rng = np.random.default_rng(seed)
    dims = BipartitionDims(d_a, d_b)
    d, zeros = dims.total, np.zeros(dims.total)
    h = random_hermitian(d, rng)
    h = h.real if real else h
    pair = EvolutionSpec(h), EvolutionSpec(labelled_blocks(h, zeros))
    (spectrum,), (labelled,) = (evo.spectrum for evo in pair)
    for a, b in zip(spectrum, labelled):
        assert a.tobytes() == b.tobytes()
    times = np.concatenate([[0.0], rng.uniform(-3.0, 3.0, 3)])
    mats = [random_density(d, rng), rng.standard_normal((d, d)) + 0j]
    a, b = (evo.marginal_series(mats, dims, times) for evo in pair)
    assert a.tobytes() == b.tobytes()
    rho = random_density(d, rng)
    one = BipartiteState(rho, dims)
    zero = BipartiteState(labelled_blocks(rho, zeros), dims)
    assert one.spectrum.tobytes() == zero.spectrum.tobytes()
    for basis in (computational_basis(d_a), ProjectiveBasis(haar_unitary(d_a, seed))):
        a, b = dephase(one, basis), dephase(zero, basis)
        assert a.rho.tobytes() == b.rho.tobytes()
        assert a.spectrum.tobytes() == b.spectrum.tobytes()
        assert dephasing_disturbance(one, basis) == dephasing_disturbance(zero, basis)


class TestRefusals:
    """A state or generator on sector blocks is refused for each defect inside
    a block, however small; an entry between two sectors is refused by the
    labelled reference, and a dense operator by a generator of more than one
    sector."""

    @staticmethod
    def _between(m, labels, value):
        x, y = np.argwhere(labels[:, None] != labels)[0]
        m = m.copy()
        m[x, y] = m[y, x] = value
        return m

    @pytest.mark.parametrize("value,match", [
        (1e-300, "couples two declared sectors"), (np.nan, "couples two declared sectors"),
        (np.inf, "couples two declared sectors")])
    def test_between_sectors(self, value, match):
        # the reference cuts no matrix with such an entry, and the generator
        # on the sectors refuses the dense operator, whose entry the dense
        # generator evolves
        rho, h, labels, _, _ = sectored(3, 2, 4)
        dims, times = BipartitionDims(2, 4), np.array([0.0, 0.5])
        evo = EvolutionSpec(labelled_blocks(h, labels))
        evo.marginal_series([labelled_blocks(rho, evo.blocks.sectors)], dims, times)
        spoilt = self._between(rho, labels, value)
        for m in (spoilt, self._between(h, labels, value)):
            with pytest.raises(ValueError, match=match):
                labelled_blocks(m, labels)
        with pytest.raises(ValueError, match="BlockDiagonal on the generator's sectors"):
            evo.marginal_series([spoilt], dims, times)
        if np.isfinite(value):
            EvolutionSpec(h).marginal_series([spoilt], dims, times)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    @pytest.mark.parametrize("at", [[(0, 0)], [(0, 3)], [(0, 3), (3, 0)]])
    def test_unlabelled_nan_or_inf(self, value, at):
        # a dense matrix is one sector that spans the space: the Hermitian
        # check of its one block refuses the entry
        rng = np.random.default_rng(19)
        rho, h = random_density(4, rng), random_hermitian(4, rng)
        h_real = h.real.copy()  # a real generator is checked as float64
        for m, v in ((rho, value), (h, value), (h_real, abs(value))):
            m[tuple(zip(*at))] = v
        with pytest.raises(ValueError, match="not Hermitian"):
            BipartiteState(rho, BipartitionDims(2, 2))
        for gen in (h, h_real):
            with pytest.raises(ValueError, match="not Hermitian"):
                EvolutionSpec(gen)

    @pytest.mark.parametrize("defect,match", [
        ("residue", "not Hermitian"), ("nan", "not Hermitian"), ("inf", "not Hermitian")])
    def test_inside_a_block(self, defect, match):
        rho, h, labels, sectors, rng = sectored(5, 3, 3)
        big = max(sectors, key=len)
        with pytest.raises(ValueError, match=match):
            BipartiteState(labelled_blocks(spoil(rho, big, defect, rng), labels),
                           BipartitionDims(3, 3))
        with pytest.raises(ValueError, match=match):
            EvolutionSpec(labelled_blocks(spoil(h, big, defect, rng), labels))

    def test_negative_block_eigenvalue(self):
        rho, _, labels, _, _ = sectored(11, 2, 5, floor=-2 * STATE_TOL)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            BipartiteState(labelled_blocks(rho, labels), BipartitionDims(2, 5))

    def test_trace_off(self):
        rho, _, labels, sectors, _ = sectored(13, 2, 5)
        rho[sectors[0][0], sectors[0][0]] += 2e-10
        with pytest.raises(ValueError, match="trace"):
            BipartiteState(labelled_blocks(rho, labels), BipartitionDims(2, 5))

    def test_labels_must_cover_the_basis(self):
        # blocks on labels for fewer or more basis states than the split has
        # are refused, as a state or as the generator of an operator on it
        rho, h, labels, _, _ = sectored(17, 2, 3)
        dims = BipartitionDims(2, 3)
        for k in (5, 4):
            small = labelled_blocks(rho[:k, :k], labels[:k])
            with pytest.raises(ValueError, match="does not match split"):
                BipartiteState(small, dims)
            with pytest.raises(ValueError, match="does not match split"):
                EvolutionSpec(labelled_blocks(h[:k, :k], labels[:k])).marginal_series(
                    [rho], dims, np.array([0.0]))
        big = np.zeros((7, 7), complex)
        big[:6, :6] = rho
        with pytest.raises(ValueError, match="does not match split"):
            BipartiteState(labelled_blocks(big, np.r_[labels, 99]), dims)
