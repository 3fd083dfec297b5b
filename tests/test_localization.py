import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fracmom.errors import DomainError, NumericalError
from fracmom.localization import (
    EigenPairSet,
    EigenWindow,
    correlator_from_pairs,
    count_in_window,
    eigenfunction_decay_rate,
    eigensolve_window,
    ids_counts,
    localization_center,
    spectrum_count_below,
)
from fracmom.model import (
    BackgroundFields,
    ConstantVector,
    DiscreteHamiltonian,
    GridSpec,
    LandauGauge,
    ModelConfig,
    SingleSiteProfile,
    assemble_h0,
    assemble_hamiltonian,
    disorder_law,
    grid_points,
    realize_potential,
    restrict_dirichlet,
    sample_couplings,
)
from fracmom.resolvent import indicator_set


def free_chain(n, h=1.0, a_field=None):
    g = GridSpec(d=1, box=(h * (n + 1),), h=h)
    return g, assemble_h0(g, BackgroundFields(A=a_field))


def closed_form(n, h):
    k = np.arange(1, n + 1)
    return (2.0 / h ** 2) * (1.0 - np.cos(k * np.pi / (n + 1)))


def chain_config(box, lam, h=0.5, u0=1.0):
    g = GridSpec(d=1, box=(box,), h=h)
    return ModelConfig(grid=g, background=BackgroundFields(),
                       profile=SingleSiteProfile(r=1.0, u0=u0),
                       law=disorder_law(lam, g))


def disordered_chain(npts, lam, seed, h=0.5):
    cfg = chain_config(h * (npts + 1), lam, h=h)
    return cfg.grid, cfg.hamiltonian_for_seed(seed)


# ---------------------------------------------------------------------------
# windows and counting

def test_window_validation_and_membership():
    w = EigenWindow(1.0, 3.0)
    assert w.contains(np.array([0.5, 1.0, 2.0, 3.0])).tolist() == \
        [False, False, True, False]
    with pytest.raises(DomainError):
        EigenWindow(3.0, 3.0)
    with pytest.raises(DomainError):
        EigenWindow(np.inf, 3.0)


@pytest.mark.parametrize("E", [0.5, 1.0, 2.0, 3.9, 5.0])
def test_sturm_count_matches_closed_form(E):
    n, h = 12, 1.0
    _, H = free_chain(n, h)
    assert spectrum_count_below(H, E) == int(np.sum(closed_form(n, h) < E))


def test_sturm_count_complex_tridiagonal():
    # constant vector potential is gauge trivial, counts must agree
    n = 15
    _, Hr = free_chain(n)
    _, Hc = free_chain(n, a_field=ConstantVector((0.8,)))
    for E in (0.5, 1.5, 3.0):
        assert spectrum_count_below(Hc, E) == spectrum_count_below(Hr, E)


def test_inertia_count_2d_matches_dense():
    g = GridSpec(d=2, box=(4.0, 4.0), h=0.5)
    H0 = assemble_h0(g, BackgroundFields())
    law = disorder_law(3.0, g)
    v = realize_potential(sample_couplings(law, 1), SingleSiteProfile(), law, g)
    H = assemble_hamiltonian(H0, v, 3.0)
    ev = np.linalg.eigvalsh(H.dense())
    for E in (5.0, 10.0, 20.0):
        assert spectrum_count_below(H, E) == int(np.sum(ev < E))


def one_column_of_a_landau_plane():
    # a disordered Landau box restricted to one grid column: complex hops
    # along axis 0, bandwidth 1 in the restriction's own numbering
    g = GridSpec(d=2, box=(12.0, 6.0), h=0.5)  # 23 x 11 points
    H0 = assemble_h0(g, BackgroundFields(A=LandauGauge(0.3)))
    law = disorder_law(2.0, g)
    v = realize_potential(sample_couplings(law, 5), SingleSiteProfile(), law, g)
    H = assemble_hamiltonian(H0, v, 2.0)
    return restrict_dirichlet(H, np.arange(g.npoints).reshape(g.shape)[:, 4])


TRIDIAGONAL_PATTERNS = {
    "chain": lambda: disordered_chain(40, lam=2.0, seed=3)[1],
    "one-point": lambda: DiscreteHamiltonian(
        grid=GridSpec(d=1, box=(4.0,), h=1.0),
        entries=scipy.sparse.csr_matrix(np.array([[1.5]])), mask=np.array([0])),
    "one-column-plane": one_column_of_a_landau_plane,
}


@pytest.mark.parametrize("name", list(TRIDIAGONAL_PATTERNS))
def test_tridiagonal_pattern_takes_the_banded_path(monkeypatch, name):
    # counts and pairs from the bands alone: neither a rebuilt sparse
    # tridiagonal nor the dense matrix
    H = TRIDIAGONAL_PATTERNS[name]()
    ev, vecs = np.linalg.eigh(H.dense())

    def off_the_banded_path(*args, **kwargs):
        raise AssertionError("left the banded path")

    monkeypatch.setattr(scipy.sparse, "diags", off_the_banded_path)
    monkeypatch.setattr(DiscreteHamiltonian, "dense", off_the_banded_path)
    cuts = np.concatenate(([ev[0] - 1.0], (ev[1:] + ev[:-1]) / 2.0,
                           [ev[-1] + 1.0]))
    assert [spectrum_count_below(H, E) for E in cuts] == list(range(H.n + 1))
    keep = (H.n + 1) // 2
    pairs = eigensolve_window(H, EigenWindow(cuts[0], cuts[keep]))
    assert len(pairs) == keep
    assert np.allclose(pairs.eigenvalues, ev[:keep], rtol=0, atol=1e-10)
    overlaps = np.abs(np.sum(vecs[:, :keep].conj() * pairs.vectors, axis=0))
    assert np.allclose(overlaps, 1.0, rtol=0, atol=1e-8)


@settings(max_examples=80, deadline=None)
@given(parts=st.integers(1, 7).flatmap(
           lambda n: arrays(np.int64, (2, n, n), elements=st.integers(-3, 3))),
       zero_diagonal=st.booleans(), E=st.integers(-12, 12))
def test_spectrum_count_matches_eigvalsh_on_random_hermitian(
        parts, zero_diagonal, E):
    # a zero diagonal forces Bunch-Kaufman's 2 x 2 pivots; a pattern that
    # happens to be tridiagonal takes the Sturm recurrence
    re, im = parts
    upper = np.triu(re + 1j * im, 1)
    A = upper + upper.conj().T
    if not zero_diagonal:
        A += np.diag(np.diag(re))
    E = E + 0.5
    ev = np.linalg.eigvalsh(A)
    assume(np.abs(ev - E).min() > 1e-9)
    H = DiscreteHamiltonian(grid=GridSpec(d=1, box=(8.0,), h=1.0),
                            entries=scipy.sparse.csr_matrix(A),
                            mask=np.arange(A.shape[0]))
    assert spectrum_count_below(H, E) == np.count_nonzero(ev < E)


def test_counting_refuses_large_non_tridiagonal():
    g = GridSpec(d=2, box=(20.5, 20.5), h=0.5)
    H = assemble_h0(g, BackgroundFields())
    assert H.n > 1500
    with pytest.raises(DomainError):
        spectrum_count_below(H, 1.0)


# ---------------------------------------------------------------------------
# windowed eigensolve

def test_eigensolve_below_spectrum_is_empty():
    _, H = free_chain(10)
    pairs = eigensolve_window(H, EigenWindow(-2.0, -1.0))
    assert len(pairs) == 0
    assert pairs.vectors.shape == (10, 0)


def test_eigensolve_full_window_is_complete():
    _, H = free_chain(9)
    pairs = eigensolve_window(H, EigenWindow(-1.0, 10.0))
    assert len(pairs) == 9


def test_eigensolve_matches_closed_form():
    n, h = 20, 0.5
    _, H = free_chain(n, h)
    pairs = eigensolve_window(H, EigenWindow(0.0, 4.0 / h ** 2))
    assert len(pairs) == n
    assert np.allclose(pairs.eigenvalues, closed_form(n, h), atol=1e-8)


def test_eigensolve_full_window_of_a_long_chain():
    n = 700  # every pair, at any chain length
    _, H = free_chain(n)
    pairs = eigensolve_window(H, EigenWindow(-1.0, 5.0))
    assert len(pairs) == n
    assert np.allclose(pairs.eigenvalues, closed_form(n, 1.0), atol=1e-8)


def test_eigensolve_landau_box_wide_window():
    g = GridSpec(d=2, box=(26.0, 26.0), h=1.0)  # 25 x 25 = 625 points
    H = assemble_h0(g, BackgroundFields(A=LandauGauge(0.3)))
    w = EigenWindow(1.0, 3.0)
    pairs = eigensolve_window(H, w)
    ev = np.linalg.eigvalsh(H.dense())
    assert len(pairs) == 135
    assert np.allclose(pairs.eigenvalues, ev[w.contains(ev)], atol=1e-10)


def test_eigensolve_constant_gauge_chain_matches_dense():
    # complex off-diagonal: the vectors carry the gauge phases
    _, H = free_chain(40, a_field=ConstantVector((0.8,)))
    w = EigenWindow(0.5, 3.0)
    pairs = eigensolve_window(H, w)
    ev, vecs = np.linalg.eigh(H.dense())
    keep = w.contains(ev)
    assert len(pairs) == keep.sum() > 0
    assert np.allclose(pairs.eigenvalues, ev[keep], atol=1e-10)
    assert np.allclose(np.abs(pairs.vectors), np.abs(vecs[:, keep]),
                       atol=1e-10)


def test_eigensolve_chain_with_a_hole_keeps_degenerate_pairs():
    # two identical 10-point halves: every eigenvalue is doubly degenerate
    _, H0 = free_chain(21)
    H = restrict_dirichlet(H0, np.delete(np.arange(21), 10))
    pairs = eigensolve_window(H, EigenWindow(-1.0, 5.0))
    assert len(pairs) == 20
    assert np.allclose(pairs.eigenvalues[::2], closed_form(10, 1.0),
                       atol=1e-10)
    assert np.allclose(pairs.eigenvalues[1::2], closed_form(10, 1.0),
                       atol=1e-10)


def test_eigensolve_refuses_large_non_tridiagonal_before_densifying(
        monkeypatch):
    g = GridSpec(d=2, box=(40.0, 40.0), h=1.0)  # 1521 points
    H = assemble_h0(g, BackgroundFields())

    def no_dense(self):
        raise AssertionError("operator made dense")

    monkeypatch.setattr(DiscreteHamiltonian, "dense", no_dense)
    with pytest.raises(DomainError, match="no spectrum-counting path"):
        eigensolve_window(H, EigenWindow(1.0, 3.0))


@pytest.mark.parametrize("d, solver", [(1, "eigh_tridiagonal"), (2, "eigh")])
def test_eigensolve_lapack_failure_is_numerical(monkeypatch, d, solver):
    g = GridSpec(d=d, box=(5.0,) * d, h=1.0)
    H = assemble_h0(g, BackgroundFields())

    def failed(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(scipy.linalg, solver, failed)
    with pytest.raises(NumericalError, match="window eigensolve failed"):
        eigensolve_window(H, EigenWindow(1.0, 2.5))


def test_pair_set_validation():
    w = EigenWindow(0.0, 10.0)
    v = np.eye(3)
    EigenPairSet(window=w, eigenvalues=np.array([1.0, 2.0, 3.0]), vectors=v)
    with pytest.raises(DomainError):
        EigenPairSet(window=w, eigenvalues=np.array([2.0, 1.0, 3.0]), vectors=v)
    with pytest.raises(DomainError):
        EigenPairSet(window=w, eigenvalues=np.array([1.0, 2.0]), vectors=v)
    skew = np.array([[1.0, 0.9], [0.0, 0.1]])
    with pytest.raises(NumericalError):
        EigenPairSet(window=w, eigenvalues=np.array([1.0, 2.0]), vectors=skew)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16), lo=st.floats(0.5, 4.0),
       width=st.floats(0.5, 4.0))
def test_eigensolve_count_agrees_with_pivots(seed, lo, width):
    _, H = disordered_chain(25, lam=2.0, seed=seed)
    w = EigenWindow(lo, lo + width)
    pairs = eigensolve_window(H, w)
    assert len(pairs) == count_in_window(H, w)


# ---------------------------------------------------------------------------
# correlator

def test_correlator_empty_window_is_zero():
    g, H = disordered_chain(20, lam=1.0, seed=0)
    X = indicator_set(g, (3.0,), 1.0)
    pairs = eigensolve_window(H, EigenWindow(-3.0, -1.0))
    assert correlator_from_pairs(pairs, H, X, X) == 0.0


def test_correlator_full_domain_counts_states():
    g, H = disordered_chain(14, lam=1.0, seed=3)
    full = np.arange(H.n)
    w = EigenWindow(-1.0, 100.0)
    val = correlator_from_pairs(eigensolve_window(H, w), H, full, full)
    assert val == pytest.approx(H.n, abs=1e-10)


def test_correlator_matches_dense_oracle():
    g, H = disordered_chain(30, lam=2.0, seed=7)
    X = indicator_set(g, (4.0,), 1.0)
    Y = indicator_set(g, (11.0,), 1.0)
    w = EigenWindow(0.5, 4.0)
    pairs = eigensolve_window(H, w)
    got = correlator_from_pairs(pairs, H, X, Y)
    ev, vecs = np.linalg.eigh(H.dense())
    keep = (ev > w.a) & (ev < w.b)
    want = sum(np.linalg.norm(vecs[X.indices, i]) * np.linalg.norm(vecs[Y.indices, i])
               for i in np.flatnonzero(keep))
    assert got == pytest.approx(want, abs=1e-10)
    assert got == correlator_from_pairs(pairs, H, Y, X)  # symmetry
    assert got <= len(pairs) + 1e-12


def test_correlator_decays_at_strong_disorder():
    cfg = chain_config(32.0, lam=50.0, u0=8.0)
    w = EigenWindow(80.0, 160.0)  # mid-bulk: states present each draw
    dists = [2.0, 4.0, 6.0, 8.0]
    x0 = np.array([8.0])
    X = indicator_set(cfg.grid, x0, 1.0)
    vals = []
    acc = np.zeros(len(dists))
    for seed in range(10):
        H = cfg.hamiltonian_for_seed(seed)
        pairs = eigensolve_window(H, w)
        for j, t in enumerate(dists):
            Y = indicator_set(cfg.grid, x0 + t, 1.0)
            acc[j] += correlator_from_pairs(pairs, H, X, Y)
    acc /= 10
    from fracmom.criterion import fit_exponential_decay
    fit = fit_exponential_decay(list(zip(dists, acc)))
    assert fit.mu > 0.0


# ---------------------------------------------------------------------------
# decay rates

def test_localization_center_is_a_position_with_ties_to_lowest_index():
    g = GridSpec(d=1, box=(2.5,), h=0.5)  # interior points 0.5 .. 2.0
    pts = grid_points(g)
    c = localization_center(np.array([0.1, 0.9, 0.9, 0.2]), g)
    assert np.array_equal(c, pts[1])
    c = localization_center(np.array([-3.0, 2.0, 0.0, 0.0]), g)
    assert np.array_equal(c, pts[0])
    with pytest.raises(DomainError):
        localization_center(np.array([]), g)
    with pytest.raises(DomainError):
        localization_center(np.ones(3), g)  # size mismatch


def test_localization_center_respects_mask():
    g = GridSpec(d=1, box=(10.0,), h=1.0)
    mask = np.array([2, 4, 6])
    pts = grid_points(g)
    c = localization_center(np.array([0.1, 5.0, 0.3]), g, mask=mask)
    assert np.array_equal(c, pts[4])


def test_decay_rate_exact_exponential():
    g = GridSpec(d=1, box=(40.0,), h=0.5)
    q = grid_points(g).ravel()
    psi = np.exp(-0.5 * np.abs(q - 20.0))
    est = eigenfunction_decay_rate(psi, (20.0,), g)
    assert est.mu == pytest.approx(0.5, rel=0.02)
    assert est.r2 > 0.999


def test_decay_rate_constant_vector():
    g = GridSpec(d=1, box=(20.0,), h=0.5)
    psi = np.ones(g.npoints)
    est = eigenfunction_decay_rate(psi, (10.0,), g)
    assert est.mu == pytest.approx(0.0, abs=1e-12)
    assert est.r2 == 0.0


def test_decay_rate_needs_three_shells():
    g = GridSpec(d=1, box=(4.0,), h=0.5)
    psi = np.ones(g.npoints)
    with pytest.raises(DomainError):
        eigenfunction_decay_rate(psi, (2.0,), g, shell_width=5.0)
    with pytest.raises(DomainError):
        eigenfunction_decay_rate(np.ones(3), (2.0,), g)  # size mismatch


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf])
def test_decay_rate_refuses_a_shell_width_that_never_reaches_the_edge(width):
    g = GridSpec(d=1, box=(20.0,), h=0.5)  # 39 points
    q = grid_points(g).ravel()
    psi = np.exp(-0.5 * np.abs(q - 10.0))
    with pytest.raises(DomainError, match="shell_width"):
        eigenfunction_decay_rate(psi, (10.0,), g, shell_width=width)


@pytest.mark.parametrize("center", [(10.0,), (3.0,), (10.0, 10.0, 10.0)])
def test_decay_rate_refuses_a_center_of_the_wrong_dimension(center):
    # a 1-coordinate center used to broadcast over both axes and return
    # mu = 0.5 for (10.0,) as if it were (10, 10)
    g = GridSpec(d=2, box=(40.0, 40.0), h=1.0)  # 39 x 39
    psi = np.exp(-0.5 * np.linalg.norm(grid_points(g) - 10.0, axis=1))
    assert eigenfunction_decay_rate(psi, (10.0, 10.0), g).mu == \
        pytest.approx(0.5, rel=0.02)
    with pytest.raises(DomainError, match=r"center has shape .*expected \(2,\)"):
        eigenfunction_decay_rate(psi, center, g)


def test_decay_rate_on_masked_domain():
    g = GridSpec(d=1, box=(40.0,), h=0.5)
    mask = np.arange(10, 60)
    q = grid_points(g).ravel()[mask]
    psi = np.exp(-0.7 * np.abs(q - 17.0))
    est = eigenfunction_decay_rate(psi, (17.0,), g, mask=mask)
    assert est.mu == pytest.approx(0.7, rel=0.02)


def test_window_eigenfunctions_localized_at_strong_disorder():
    cfg = chain_config(32.0, lam=50.0, u0=8.0)
    H = cfg.hamiltonian_for_seed(4)
    pairs = eigensolve_window(H, EigenWindow(80.0, 160.0))
    assert len(pairs) >= 3
    for i in range(len(pairs)):
        psi = pairs.vectors[:, i]
        c = localization_center(psi, cfg.grid)
        est = eigenfunction_decay_rate(psi, c, cfg.grid)
        assert est.mu > 0.0


# ---------------------------------------------------------------------------
# integrated density of states

def test_ids_zero_below_spectrum():
    cfg = chain_config(20.0, lam=1.0)
    counts = ids_counts(cfg, [-1.0], N=3, master_seed=0)
    assert counts.mean() / cfg.grid.volume == 0.0


def test_ids_saturates_above_spectrum():
    cfg = chain_config(20.0, lam=1.0)
    top = 4.0 / cfg.grid.h ** 2 + cfg.law.lam * 2.0 + 1.0
    counts = ids_counts(cfg, [top], N=3, master_seed=0)
    assert counts.mean() / cfg.grid.volume == cfg.grid.npoints / cfg.grid.volume


def test_ids_closed_form_at_zero_coupling():
    cfg = chain_config(11.0, lam=0.0, h=1.0)
    want = int(np.sum(closed_form(10, 1.0) < 2.0)) / 11.0
    counts = ids_counts(cfg, [2.0], N=4, master_seed=1)
    assert counts.mean() / cfg.grid.volume == pytest.approx(want)


def test_ids_monotone_and_box_consistent():
    def ids(box, E):
        cfg = chain_config(box, lam=1.0)
        counts = ids_counts(cfg, [E], N=30, master_seed=5)
        return counts.mean() / cfg.grid.volume

    a = ids(30.0, 2.0)
    b = ids(30.0, 4.0)
    assert a <= b
    big = ids(60.0, 2.0)
    assert abs(big - a) <= 0.1 * max(big, a)


def test_ids_counts_many_energies_match_one_at_a_time():
    cfg = chain_config(30.0, lam=2.0)
    energies = [1.0, 3.0, 5.0]
    counts = ids_counts(cfg, energies, N=6, master_seed=9)
    assert counts.shape == (6, 3)
    for j, E in enumerate(energies):
        assert np.array_equal(counts[:, j],
                              ids_counts(cfg, [E], N=6, master_seed=9)[:, 0])


def test_ids_refuses_a_large_plane_before_any_draw(draws):
    g = GridSpec(d=2, box=(40.0, 40.0), h=1.0)  # 1521 points
    cfg = ModelConfig(grid=g, background=BackgroundFields(),
                      profile=SingleSiteProfile(r=1.0, u0=1.0),
                      law=disorder_law(1.0, g))
    with pytest.raises(DomainError, match="1521 > 1500 points"):
        ids_counts(cfg, [1.0], N=2, master_seed=0)
    assert draws == []


def test_ids_worker_determinism():
    cfg = chain_config(30.0, lam=2.0)
    serial = ids_counts(cfg, [3.0], N=6, master_seed=9)
    pooled = ids_counts(cfg, [3.0], N=6, master_seed=9, workers=2)
    assert np.array_equal(serial, pooled)
