import pickle
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from fracmom import _blas
from fracmom._blas import openblas_thread_controls, single_blas_thread
from fracmom.errors import (
    ConstructionError,
    CoveringError,
    DensityError,
    NonConvergenceError,
)
from fracmom import model
from fracmom.model import (
    DENSE_EIG_CAP,
    BackgroundFields,
    ConstantScalar,
    ConstantVector,
    DiscreteHamiltonian,
    DisorderRealization,
    GridSpec,
    LandauGauge,
    ModelConfig,
    OneSiteModel,
    SingleSiteProfile,
    assemble_h0,
    assemble_hamiltonian,
    check_covering,
    disorder_law,
    grid_points,
    ground_energy,
    lattice_sites,
    profile_values,
    realize_potential,
    restrict_dirichlet,
    sample_couplings,
)
from fracmom.resolvent import ShiftedSolver, SpectralShift

import scipy.sparse
import scipy.sparse.linalg


def free_chain(n, h=1.0):
    grid = GridSpec(d=1, box=(h * (n + 1),), h=h)
    return grid, assemble_h0(grid, BackgroundFields())


def tridiag_spectrum(n, h):
    # closed form for the Dirichlet second-difference matrix
    k = np.arange(1, n + 1)
    return (2.0 / h ** 2) * (1.0 - np.cos(k * np.pi / (n + 1)))


def hermiticity_defect(H):
    diff = H.entries - H.entries.getH()
    return 0.0 if diff.nnz == 0 else np.abs(diff.data).max()


# ---------------------------------------------------------------------------
# grids

def test_grid_shape_and_points():
    g = GridSpec(d=2, box=(2.0, 3.0), h=0.5)
    assert g.shape == (3, 5)
    pts = grid_points(g)
    assert pts.shape == (15, 2)
    assert pts.min() == 0.5
    assert pts[:, 0].max() == 1.5 and pts[:, 1].max() == 2.5


def test_grid_rejects_bad_specs():
    with pytest.raises(ConstructionError):
        GridSpec(d=1, box=(1.7,), h=0.5)  # not commensurate
    with pytest.raises(ConstructionError):
        GridSpec(d=1, box=(1.5,), h=0.5)  # only 2 interior points
    with pytest.raises(ConstructionError):
        GridSpec(d=2, box=(4.0,), h=0.5)  # box/dimension mismatch
    with pytest.raises(ConstructionError):
        GridSpec(d=1, box=(4.0,), h=-0.25)


def test_grid_point_count_is_exact_beyond_int64():
    g = GridSpec(d=3, box=(2.2e6,) * 3, h=1.0)
    assert g.npoints == 2_199_999 ** 3 > np.iinfo(np.int64).max


@pytest.mark.parametrize("extent", [float("inf"), float("nan")])
def test_grid_rejects_a_non_finite_extent(extent):
    with pytest.raises(ConstructionError, match="not finite"):
        GridSpec(d=2, box=(4.0, extent), h=0.5)


def test_lattice_includes_box_boundary_integers():
    g = GridSpec(d=1, box=(4.0,), h=0.5)
    assert lattice_sites(g).ravel().tolist() == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# deterministic part

@pytest.mark.parametrize("n,h", [(3, 1.0), (8, 0.5), (20, 0.25)])
def test_free_chain_matches_closed_form(n, h):
    _, H = free_chain(n, h)
    ev = np.linalg.eigvalsh(H.dense())
    assert np.allclose(ev, tridiag_spectrum(n, h), rtol=0, atol=1e-10)
    assert ev.min() >= 0.0 and ev.max() <= 4.0 / h ** 2


def test_constant_scalar_shifts_spectrum():
    g, H = free_chain(7, 0.5)
    Hc = assemble_h0(g, BackgroundFields(V0=ConstantScalar(3.25)))
    assert np.allclose(np.linalg.eigvalsh(Hc.dense()),
                       np.linalg.eigvalsh(H.dense()) + 3.25, atol=1e-10)


def test_zero_vector_potential_gives_real_entries():
    _, H = free_chain(6)
    assert H.entries.dtype == np.float64
    g = GridSpec(d=1, box=(7.0,), h=1.0)
    Hz = assemble_h0(g, BackgroundFields(A=ConstantVector((0.0,))))
    assert Hz.entries.dtype == np.float64


def test_constant_vector_potential_is_gauge_trivial():
    # a constant A is removed by the phase e^{-i a q}, which respects the
    # Dirichlet walls, so the spectrum must match the free chain exactly
    g = GridSpec(d=1, box=(6.0,), h=0.5)
    HA = assemble_h0(g, BackgroundFields(A=ConstantVector((0.7,))))
    H0 = assemble_h0(g, BackgroundFields())
    assert HA.entries.dtype == np.complex128
    assert hermiticity_defect(HA) == 0.0
    assert np.allclose(np.linalg.eigvalsh(HA.dense()),
                       np.linalg.eigvalsh(H0.dense()), atol=1e-10)


def test_operator_entries_that_overflow_are_refused():
    # 1 / h^2 overflows at h = 1e-161
    with pytest.raises(ConstructionError, match="entries overflow at h = 1e-161"):
        assemble_h0(GridSpec(d=1, box=(1e-159,), h=1e-161), BackgroundFields())
    g = GridSpec(d=1, box=(5.0,), h=1.0)
    H0 = assemble_h0(g, BackgroundFields(V0=ConstantScalar(1e308)))
    with pytest.raises(ConstructionError, match="not finite at lam = 2.0"):
        assemble_hamiltonian(H0, np.full(g.npoints, 1e308), 2.0)


def test_nonfinite_background_is_named():
    g = GridSpec(d=1, box=(5.0,), h=1.0)
    spike = lambda q: np.where(q[:, 0] == 3.0, np.inf, 0.0)
    with pytest.raises(ConstructionError, match=r"V0 is not finite at point \(3\.0,\)"):
        assemble_h0(g, BackgroundFields(V0=spike))
    bad_a = lambda q: np.where(q > 2.0, np.nan, 0.0)
    with pytest.raises(ConstructionError, match=r"A is not finite at point \(2\.5,\)"):
        assemble_h0(g, BackgroundFields(A=bad_a))
    with pytest.raises(ConstructionError, match=r"V0\(\(1\.0,\)\) = -1\.0 below declared"):
        assemble_h0(g, BackgroundFields(V0=ConstantScalar(-1.0), V0_min=0.0))


def test_per_point_background_is_rejected_by_shape():
    # a callable written for one point returns a scalar or a length-d
    # vector; neither may be broadcast over the grid
    g = GridSpec(d=2, box=(4.0, 4.0), h=1.0)
    with pytest.raises(ConstructionError, match=r"V0 returned shape \(\)"):
        assemble_h0(g, BackgroundFields(V0=lambda q: 1.0))
    with pytest.raises(ConstructionError, match=r"A returned shape \(2,\)"):
        assemble_h0(g, BackgroundFields(A=lambda q: np.array([0.1, 0.0])))
    with pytest.raises(ConstructionError, match=r"A returned shape \(6, 3\)"):
        assemble_h0(g, BackgroundFields(A=ConstantVector((0.1, 0.0, 0.2))))


def _per_point_h0(grid, bg):
    # per-point reference: V0 called at each grid point and A at each edge
    # midpoint, one (1, d) array at a time
    pts = grid_points(grid)
    n = len(pts)
    h = grid.h
    v0 = np.zeros(n)
    if bg.V0 is not None:
        for k, q in enumerate(pts):
            v0[k] = float(bg.V0(q[None, :])[0])
    idx = np.arange(n).reshape(grid.shape)
    rows, cols, vals = [], [], []
    any_phase = False
    for axis in range(grid.d):
        sl_lo = [slice(None)] * grid.d
        sl_hi = [slice(None)] * grid.d
        sl_lo[axis] = slice(0, -1)
        sl_hi[axis] = slice(1, None)
        left = idx[tuple(sl_lo)].ravel()
        right = idx[tuple(sl_hi)].ravel()
        theta = np.zeros(len(left))
        if bg.A is not None:
            for k, m in enumerate((pts[left] + pts[right]) / 2.0):
                theta[k] = h * np.asarray(bg.A(m[None, :]), dtype=float)[0, axis]
        any_phase = any_phase or bool(np.any(theta != 0.0))
        hop = -np.exp(-1j * theta) / h ** 2
        rows += [right, left]
        cols += [left, right]
        vals += [hop, np.conj(hop)]
    vals = np.concatenate(vals)
    if not any_phase:
        vals = vals.real
    off = scipy.sparse.coo_matrix(
        (vals, (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return (off + scipy.sparse.diags(2 * grid.d / h ** 2 + v0)).tocsr()


def _swirl(q):
    # nonuniform field in any dimension: A_i depends on the next coordinate
    return 0.3 * np.roll(q, -1, axis=1) ** 2 - 0.05 * q


H0_CASES = [
    (GridSpec(d=1, box=(6.0,), h=0.5), BackgroundFields()),
    (GridSpec(d=1, box=(6.0,), h=0.5),
     BackgroundFields(A=ConstantVector((0.7,)), V0=ConstantScalar(1.25))),
    (GridSpec(d=1, box=(7.0,), h=1.0), BackgroundFields(A=ConstantVector((0.0,)))),
    (GridSpec(d=2, box=(5.0, 4.0), h=0.5), BackgroundFields(A=LandauGauge(0.2))),
    (GridSpec(d=2, box=(5.0, 4.0), h=0.5),
     BackgroundFields(A=LandauGauge(0.2), V0=ConstantScalar(-3.0), V0_min=-3.0)),
    (GridSpec(d=2, box=(3.0, 4.5), h=0.5),
     BackgroundFields(A=ConstantVector((0.4, -0.9)))),
    (GridSpec(d=2, box=(4.0, 4.0), h=0.5),
     BackgroundFields(A=_swirl, V0=lambda q: q[:, 0] * (q[:, 1] - 2.2),
                      V0_min=-8.0)),
    (GridSpec(d=3, box=(2.0, 2.5, 3.0), h=0.5),
     BackgroundFields(A=_swirl, V0=ConstantScalar(0.5))),
    (GridSpec(d=3, box=(2.0, 2.0, 2.0), h=0.5),
     BackgroundFields(A=ConstantVector((0.1, 0.2, 0.3)))),
]


@pytest.mark.parametrize("grid, bg", H0_CASES)
def test_assemble_h0_matches_per_point_assembly(grid, bg):
    got = assemble_h0(grid, bg).entries
    want = _per_point_h0(grid, bg)
    assert got.dtype == want.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


# ---------------------------------------------------------------------------
# profiles, covering, disorder

def test_profile_support_and_range():
    for shape in ("indicator", "cosine-bump"):
        p = SingleSiteProfile(r=1.5, shape=shape, u0=2.0)
        d = np.array([0.0, 0.5, 1.49, 1.5, 2.0])
        u = profile_values(p, d)
        assert u[0] == 2.0 if shape == "indicator" else abs(u[0] - 2.0) < 1e-15
        assert np.all(u[d >= 1.5] == 0.0)
        assert np.all((0.0 <= u) & (u <= 2.0))


def test_covering_enumeration_half_spacing():
    # r=1 indicator bumps on the integer lattice, h=0.5: integer grid points
    # see exactly one bump, half-integer points see two
    g = GridSpec(d=1, box=(2.0,), h=0.5)
    law = disorder_law(1.0, g)
    assert check_covering(SingleSiteProfile(r=1.0, u0=1.0), law, g) == (1.0, 2.0)


def test_covering_violation_for_small_radius():
    g = GridSpec(d=1, box=(2.0,), h=0.5)
    law = disorder_law(1.0, g)
    with pytest.raises(CoveringError):
        check_covering(SingleSiteProfile(r=0.4, u0=1.0), law, g)


def test_covering_scales_linearly_in_amplitude():
    g = GridSpec(d=1, box=(3.0,), h=0.25)
    law = disorder_law(1.0, g)
    lo1, hi1 = check_covering(SingleSiteProfile(r=1.0, u0=1.0), law, g)
    lo3, hi3 = check_covering(SingleSiteProfile(r=1.0, u0=3.0), law, g)
    assert lo3 == pytest.approx(3 * lo1, rel=1e-12)
    assert hi3 == pytest.approx(3 * hi1, rel=1e-12)


def test_sampling_is_deterministic_and_seed_sensitive():
    g = GridSpec(d=1, box=(8.0,), h=0.5)
    law = disorder_law(1.0, g)
    a = sample_couplings(law, 123)
    b = sample_couplings(law, 123)
    c = sample_couplings(law, 124)
    assert np.array_equal(a.eta, b.eta)
    assert not np.array_equal(a.eta, c.eta)
    assert np.all((0.0 <= a.eta) & (a.eta <= 1.0))


def test_sampling_keyed_by_site_not_enumeration():
    # enlarging the lattice must not change the draw at shared sites
    small = disorder_law(1.0, GridSpec(d=1, box=(4.0,), h=0.5))
    large = disorder_law(1.0, GridSpec(d=1, box=(8.0,), h=0.5))
    ra = sample_couplings(small, 7)
    rb = sample_couplings(large, 7)
    assert np.array_equal(ra.eta, rb.eta[: len(ra.eta)])


def test_single_site_draw_in_unit_interval():
    law = disorder_law(1.0, sites=np.array([[3]]))
    rz = sample_couplings(law, 5)
    assert rz.eta.shape == (1,) and 0.0 <= rz.eta[0] <= 1.0


def test_pooled_mean_within_three_sigma():
    # uniform couplings: pooled mean of ~1e5 draws within 3 sigma of 1/2
    g = GridSpec(d=1, box=(999.0,), h=111.0)
    law = disorder_law(1.0, g)  # 1000 sites
    pool = np.concatenate([sample_couplings(law, s).eta for s in range(100)])
    sigma = np.sqrt(1.0 / 12.0 / pool.size)
    assert abs(pool.mean() - 0.5) < 3 * sigma


def test_custom_density_sampling_and_validation():
    g = GridSpec(d=1, box=(999.0,), h=111.0)
    law = disorder_law(1.0, g, density=lambda x: 2.0 * x)
    pool = np.concatenate([sample_couplings(law, s).eta for s in range(50)])
    # mean of 2x density is 2/3, variance 1/18
    sigma = np.sqrt(1.0 / 18.0 / pool.size)
    assert abs(pool.mean() - 2.0 / 3.0) < 4 * sigma
    with pytest.raises(DensityError):
        disorder_law(1.0, g, density=lambda x: x)  # integrates to 1/2
    with pytest.raises(DensityError):
        disorder_law(1.0, g, density=lambda x: 2.0 - 4.0 * x)  # negative part


def _per_site_uniforms(seed, sites):
    # the per-site stream the coupling draw must reproduce bit for bit
    return np.array([
        np.random.Generator(np.random.Philox(np.random.SeedSequence(
            entropy=seed, spawn_key=tuple(int(c) for c in site)))).random()
        for site in sites])


def test_couplings_match_per_site_seed_sequence_draw():
    rng = np.random.default_rng(20261018)
    seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
             2 ** 128 + 3, 2 ** 160 + 2 ** 140 + 7]
    pairs = 0
    for d in (1, 2, 3):
        # fresh seeds of 1, 2 and 5 words
        drawn = [int(rng.integers(1, 2 ** 32)) << (32 * (words - 1)) | 1
                 for words in (1, 2, 5)]
        for seed in seeds + drawn:
            sites = rng.integers(0, 2 ** 32, size=(450, d), dtype=np.int64)
            sites[:50] = rng.integers(0, 40, size=(50, d))
            sites[0] = 0
            sites[1] = 2 ** 32 - 1
            law = disorder_law(1.0, sites=sites)
            got = sample_couplings(law, seed).eta
            want = _per_site_uniforms(seed, sites)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            pairs += len(sites)
    assert pairs >= 10_000


def test_custom_density_draw_maps_the_per_site_uniforms():
    g = GridSpec(d=2, box=(6.0, 4.0), h=0.5)
    law = disorder_law(1.0, g, density=lambda x: 2.0 * x)
    cdf, xs = law._inv_cdf
    for seed in (0, 9, 2 ** 70 + 1):
        want = np.interp(_per_site_uniforms(seed, law.sites), cdf, xs)
        got = sample_couplings(law, seed).eta
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_site_coordinates_beyond_one_spawn_word_rejected():
    disorder_law(1.0, sites=np.array([[2 ** 32 - 1, 0]]))
    with pytest.raises(ConstructionError):
        disorder_law(1.0, sites=np.array([[2 ** 32, 0]]))
    with pytest.raises(ConstructionError):
        disorder_law(1.0, sites=np.array([[0], [2 ** 40]]))


# ---------------------------------------------------------------------------
# potentials

def test_potential_zero_and_full_couplings():
    g = GridSpec(d=1, box=(4.0,), h=0.5)
    law = disorder_law(1.0, g)
    p = SingleSiteProfile(r=1.0, u0=1.0)
    rz = sample_couplings(law, 0)
    rz.eta = np.zeros_like(rz.eta)
    assert np.all(realize_potential(rz, p, law, g) == 0.0)
    rz.eta = np.ones_like(rz.eta)
    v = realize_potential(rz, p, law, g)
    b_minus, b_plus = check_covering(p, law, g)
    assert np.all((v >= b_minus - 1e-12) & (v <= b_plus + 1e-12))


def test_potential_single_site_pointwise():
    g = GridSpec(d=1, box=(4.0,), h=0.5)
    law = disorder_law(1.0, g, sites=np.array([[2]]))
    p = SingleSiteProfile(r=1.0, u0=3.0)
    rz = sample_couplings(law, 11)
    v = realize_potential(rz, p, law, g)
    q = grid_points(g).ravel()
    expected = np.where(np.abs(q - 2.0) < 1.0, rz.eta[0] * 3.0, 0.0)
    assert np.allclose(v, expected, atol=1e-15)


def _bump_field(grid, sites, weights, profile):
    # per-site reference: each bump added to its clipped grid block in turn
    axes = tuple(grid.h * np.arange(1, n + 1) for n in grid.shape)
    out = np.zeros(grid.shape)
    r = profile.r
    for site, w in zip(sites, weights):
        lohi = []
        for i in range(grid.d):
            lo = int(np.searchsorted(axes[i], site[i] - r, side="left"))
            hi = int(np.searchsorted(axes[i], site[i] + r, side="right"))
            lohi.append((lo, hi))
        if any(lo >= hi for lo, hi in lohi):
            continue
        dist2 = 0.0
        for i, (lo, hi) in enumerate(lohi):
            delta = axes[i][lo:hi] - site[i]
            sh = [1] * grid.d
            sh[i] = hi - lo
            dist2 = dist2 + (delta ** 2).reshape(sh)
        block = tuple(slice(lo, hi) for lo, hi in lohi)
        out[block] += w * profile_values(profile, np.sqrt(dist2))
    return out.ravel()


BUMP_CASES = [
    # grid, radius: r off the h lattice, lattice sites on the walls clipped
    (GridSpec(d=1, box=(12.0,), h=0.25), 1.0),
    (GridSpec(d=1, box=(6.0,), h=0.3), 1.37),
    (GridSpec(d=2, box=(6.0, 4.0), h=0.25), 1.1),
    (GridSpec(d=2, box=(5.0, 5.0), h=0.5), 2.3),
    (GridSpec(d=3, box=(3.0, 4.0, 3.0), h=0.5), 0.9),
    (GridSpec(d=3, box=(2.0, 2.0, 3.0), h=0.25), 1.45),
    (GridSpec(d=3, box=(2.0, 1.6, 1.4), h=0.2), 1.3),   # inexact dist^2 sums
    (GridSpec(d=2, box=(4.0, 4.0), h=0.2), 1.0),   # pairs within 1e-12 of r
]


@pytest.mark.parametrize("shape", ["indicator", "cosine-bump"])
@pytest.mark.parametrize("grid, r", BUMP_CASES)
def test_potential_and_covering_match_per_site_bumps(grid, r, shape):
    p = SingleSiteProfile(r=r, shape=shape, u0=2.5)
    law = disorder_law(1.0, grid)
    for seed in (0, 3, 2 ** 64 + 5):
        rz = sample_couplings(law, seed)
        want = _bump_field(grid, law.sites, rz.eta, p)
        got = realize_potential(rz, p, law, grid)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    cover = _bump_field(grid, law.sites, np.ones(len(law.sites)), p)
    assert check_covering(p, law, grid) == (cover.min(), cover.max())


def test_potential_from_off_lattice_sites_matches_per_site_bumps():
    # explicit sites: repeated, unordered, one past a wall, one off the grid
    g = GridSpec(d=2, box=(4.0, 3.0), h=0.5)
    sites = np.array([[3, 1], [0, 0], [3, 1], [5, 2], [40, 1], [2, 3]])
    law = disorder_law(1.0, g, sites=sites)
    p = SingleSiteProfile(r=1.2, shape="cosine-bump", u0=1.0)
    rz = sample_couplings(law, 17)
    want = _bump_field(g, sites, rz.eta, p)
    assert np.array_equal(realize_potential(rz, p, law, g), want)


def test_potential_lattice_mismatch():
    g = GridSpec(d=1, box=(4.0,), h=0.5)
    law_a = disorder_law(1.0, g, sites=np.array([[1]]))
    law_b = disorder_law(1.0, g, sites=np.array([[2]]))
    rz = sample_couplings(law_a, 0)
    with pytest.raises(ConstructionError):
        realize_potential(rz, SingleSiteProfile(), law_b, g)


# ---------------------------------------------------------------------------
# assembly and restriction

def test_assemble_zero_coupling_returns_h0():
    g, H = free_chain(6, 0.5)
    v = np.ones(g.npoints)
    assert assemble_hamiltonian(H, v, 0.0) is H


def test_assemble_diagonal_difference_exact():
    g, H = free_chain(6, 0.5)
    rng = np.random.default_rng(3)
    v = rng.random(g.npoints)
    Hw = assemble_hamiltonian(H, v, 2.5)
    assert np.allclose(Hw.entries.diagonal() - H.entries.diagonal(), 2.5 * v,
                       rtol=0, atol=1e-12)


def test_assemble_lifts_ground_energy():
    g, H = free_chain(10, 0.5)
    rng = np.random.default_rng(4)
    v = rng.random(g.npoints)
    Hw = assemble_hamiltonian(H, v, 3.0)
    assert ground_energy(Hw) >= ground_energy(H) - 1e-12


def test_restrict_full_mask_is_identity():
    _, H = free_chain(7)
    R = restrict_dirichlet(H, H.mask)
    assert (R.entries != H.entries).nnz == 0


def test_restrict_interlaces_ground_energy():
    g, H = free_chain(12, 0.5)
    rng = np.random.default_rng(5)
    Hw = assemble_hamiltonian(H, rng.random(g.npoints), 4.0)
    sub = restrict_dirichlet(Hw, np.arange(3, 9))
    assert ground_energy(sub) >= ground_energy(Hw) - 1e-12


def test_restrict_half_chain_matches_smaller_box():
    n, h = 10, 0.5
    _, H = free_chain(n, h)
    half = restrict_dirichlet(H, np.arange(5))
    _, H5 = free_chain(5, h)
    assert (half.entries != H5.entries).nnz == 0


def test_restrict_errors():
    _, H = free_chain(5)
    with pytest.raises(ConstructionError):
        restrict_dirichlet(H, np.array([], dtype=int))
    sub = restrict_dirichlet(H, np.arange(2))
    with pytest.raises(ConstructionError):
        restrict_dirichlet(sub, np.array([4]))


@pytest.mark.parametrize("grid, bg, center, L", [
    (GridSpec(d=2, box=(12.0, 12.0), h=0.5), BackgroundFields(A=LandauGauge(0.2)),
     (6.0, 6.0), 5.0),
    (GridSpec(d=1, box=(40.0,), h=1.0), BackgroundFields(), (20.0,), 13.0),
], ids=["landau-2d", "chain"])
def test_domain_model_equals_per_sample_restriction(grid, bg, center, L):
    cfg = ModelConfig(grid=grid, background=bg,
                      profile=SingleSiteProfile(r=1.0, shape="cosine-bump", u0=2.0),
                      law=disorder_law(3.0, grid))
    ball = np.flatnonzero(np.linalg.norm(grid_points(grid) - center, axis=1) < L)
    # a domain model built from scratch, and one restricted from the
    # parent's cached H0
    for on_ball in (replace(cfg, domain=ball), cfg.on_domain(ball)):
        assert on_ball.h0().n == ball.size
        for seed in range(5):
            got = on_ball.hamiltonian_for_seed(seed)
            want = restrict_dirichlet(cfg.hamiltonian_for_seed(seed), ball)
            assert np.array_equal(got.mask, want.mask)
            assert got.entries.dtype == want.entries.dtype
            assert np.array_equal(got.entries.indptr, want.entries.indptr)
            assert np.array_equal(got.entries.indices, want.entries.indices)
            assert got.entries.data.tobytes() == want.entries.data.tobytes()
        # the domain survives pickling, as pool workers receive it
        clone = pickle.loads(pickle.dumps(on_ball))
        assert clone.h0().n == ball.size
    # a subdomain must lie inside the model's own domain
    with pytest.raises(ConstructionError):
        cfg.on_domain(ball).on_domain(np.setdiff1d(np.arange(grid.npoints), ball))


# ---------------------------------------------------------------------------
# fixed-pattern operators: realizations and shifts update stored entries

def _sparse_add_realization(h0, potential, lam):
    # the sparse-add assembly, kept as the oracle for the slot update
    return (h0.entries + scipy.sparse.diags(lam * potential[h0.mask])).tocsr()


def _sparse_shift(H, z):
    # the sparse-add shift H - conj z, kept as the oracle for the in-place
    # shift: SuperLU's CSC and the CSR the residuals are formed from
    AH = H.entries - np.conj(z) * scipy.sparse.identity(H.n, format="csr")
    AH = AH.tocsc().astype(np.complex128)
    return AH, AH.tocsr()


def _assert_same_csr(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def _realizations(grid, bg):
    """A realization on the box and on a subdomain with holes, and its oracle."""
    law = disorder_law(1.5, grid)
    profile = SingleSiteProfile(r=1.0, shape="cosine-bump", u0=2.0)
    v = realize_potential(sample_couplings(law, 7), profile, law, grid)
    h0 = assemble_h0(grid, bg)
    sub = restrict_dirichlet(h0, np.flatnonzero(np.arange(grid.npoints) % 5 != 2))
    for base in (h0, sub):
        yield assemble_hamiltonian(base, v, 1.5), _sparse_add_realization(base, v, 1.5)


@pytest.mark.parametrize("grid, bg", H0_CASES)
def test_realization_matches_sparse_add(grid, bg):
    for H, want in _realizations(grid, bg):
        _assert_same_csr(H.entries, want)


@pytest.mark.parametrize("grid, bg", H0_CASES)
def test_shift_matches_sparse_shift(grid, bg, monkeypatch):
    factored = []
    splu = scipy.sparse.linalg.splu

    def recording_splu(A):
        factored.append(A)
        return splu(A)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    for H, _ in _realizations(grid, bg):
        for z in (SpectralShift(E=2.0, eps=1e-3).z, -0.5 - 0.25j):
            solver = ShiftedSolver(H, z)
            csc, csr = _sparse_shift(H, z)
            assert factored[-1].format == "csc"
            _assert_same_csr(factored[-1], csc)
            _assert_same_csr(solver._AH, csr)


@pytest.mark.parametrize("grid, A", [
    (GridSpec(d=1, box=(5.0,), h=0.5), None),
    (GridSpec(d=2, box=(3.0, 2.5), h=0.5), LandauGauge(0.2)),
], ids=["chain", "landau-2d"])
def test_zero_diagonal_keeps_its_slot(grid, A):
    # V0 = -2d/h^2 cancels the kinetic diagonal exactly: the sparse add
    # drops those entries, the stored pattern keeps them as zeros
    bg = BackgroundFields(A=A, V0=ConstantScalar(-2 * grid.d / grid.h ** 2),
                          V0_min=-2 * grid.d / grid.h ** 2)
    H0 = assemble_h0(grid, bg)
    n = grid.npoints
    assert np.array_equal(H0.entries.indices[H0.diagonal], np.arange(n))
    assert np.all(H0.entries.data[H0.diagonal] == 0.0)
    assert np.array_equal(H0.dense(), _per_point_h0(grid, bg).toarray())
    # a realization that leaves some sums at zero keeps those slots too
    v = np.where(np.arange(n) % 2 == 0, 0.0, 1.0)
    H = assemble_hamiltonian(H0, v, 2.0)
    assert H.entries.nnz == H0.entries.nnz
    assert np.array_equal(H.entries.diagonal(), 2.0 * v)
    u = ShiftedSolver(H, 1.0 + 0.5j).solve_adjoint(np.ones(n))
    assert np.allclose(u, np.linalg.solve(H.dense() - (1.0 - 0.5j) * np.eye(n),
                                          np.ones(n)), rtol=0, atol=1e-12)


def test_one_site_model_stores_its_slot(monkeypatch):
    # a coupling of exactly 0.0 still gets a stored 1 x 1 entry
    def zero_coupling(law, seed):
        return DisorderRealization(seed=seed, sites=law.sites, eta=np.zeros(1))
    monkeypatch.setattr(model, "sample_couplings", zero_coupling)
    H = OneSiteModel().hamiltonian_for_seed(3)
    assert H.entries.nnz == 1
    assert np.array_equal(H.diagonal, [0])
    z = 0.5 + 1e-6j
    u = ShiftedSolver(H, z).solve_adjoint(np.array([1.0]))
    assert u[0] == pytest.approx(1.0 / (0.0 - z.conjugate()), rel=1e-14)


def test_hand_built_operator_gets_its_diagonal_slots_at_construction():
    g = GridSpec(d=1, box=(4.0,), h=1.0)
    M = np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 0.0]])
    H = DiscreteHamiltonian(grid=g, entries=scipy.sparse.csr_matrix(M),
                            mask=np.arange(3))
    assert H.entries.nnz == 7
    assert H.entries.has_canonical_format
    assert np.array_equal(H.entries.indices[H.diagonal], np.arange(3))
    assert np.array_equal(H.dense(), M)
    z = 0.3 + 0.2j
    u = ShiftedSolver(H, z).solve_adjoint(np.arange(1.0, 4.0))
    assert np.allclose(u, np.linalg.solve(M - z.conjugate() * np.eye(3),
                                          np.arange(1.0, 4.0)),
                       rtol=0, atol=1e-14)
    # an explicit zero stored on one side only leaves the pattern
    # unsymmetric, which no Hermitian operator has
    lop = scipy.sparse.csr_matrix((np.array([1.0, 0.0, 1.0]), np.array([0, 1, 1]),
                                   np.array([0, 2, 3])), shape=(2, 2))
    with pytest.raises(ConstructionError, match="not symmetric"):
        DiscreteHamiltonian(grid=g, entries=lop, mask=np.arange(2))


# ---------------------------------------------------------------------------
# ground energy

def test_ground_energy_closed_form():
    _, H = free_chain(3, 1.0)
    assert ground_energy(H) == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-10)


def test_ground_energy_shift():
    g, H = free_chain(9, 0.5)
    Hc = assemble_h0(g, BackgroundFields(V0=ConstantScalar(1.75)))
    assert ground_energy(Hc) == pytest.approx(ground_energy(H) + 1.75, abs=1e-9)


def test_ground_energy_one_by_one():
    g = GridSpec(d=1, box=(4.0,), h=1.0)
    ent = scipy.sparse.csr_matrix(np.array([[-2.5]]))
    H = DiscreteHamiltonian(grid=g, entries=ent, mask=np.array([0]))
    assert ground_energy(H) == -2.5


def landau_box(side, bg=None):
    g = GridSpec(d=2, box=(side, side), h=0.25)
    return assemble_h0(g, bg or BackgroundFields(A=LandauGauge(0.2)))


def landau_box_with_hole():
    # a Dirichlet hole of radius 1.5 at the centre of the 841-point box
    H = landau_box(7.5)
    q = grid_points(H.grid)[H.mask]
    return restrict_dirichlet(H, H.mask[np.linalg.norm(q - 3.75, axis=1) > 1.5])


@pytest.mark.parametrize("build", [
    lambda: landau_box(7.5),
    # a negative V0 puts the Gershgorin lower bound below zero
    lambda: landau_box(7.5, BackgroundFields(A=LandauGauge(0.2),
                                             V0=ConstantScalar(-3.0),
                                             V0_min=-3.0)),
    lambda: landau_box(7.5, BackgroundFields()),
    landau_box_with_hole,
    # 9 x 9 x 9 = 729 points, a real operator
    lambda: assemble_h0(GridSpec(d=3, box=(5.0, 5.0, 5.0), h=0.5),
                        BackgroundFields()),
], ids=["landau", "landau-negative-v0", "no-field", "landau-hole", "3d"])
def test_ground_energy_sparse_branch_matches_dense(build):
    H = build()
    assert H.n > DENSE_EIG_CAP
    e0 = ground_energy(H)
    ref = scipy.linalg.eigvalsh(H.dense(), subset_by_index=[0, 0])[0]
    assert e0 == pytest.approx(ref, rel=1e-10)
    H.e0 = None
    assert ground_energy(H) == e0


def test_ground_energy_of_a_long_chain_matches_its_closed_form():
    _, H = free_chain(700, 0.5)
    assert H.n > DENSE_EIG_CAP
    assert ground_energy(H) == pytest.approx(tridiag_spectrum(700, 0.5)[0],
                                             rel=1e-10)


def test_ground_energy_factors_once_by_minimum_degree(monkeypatch):
    factors, operators = [], []
    splu, eigsh = scipy.sparse.linalg.splu, scipy.sparse.linalg.eigsh

    def spy_splu(*args, **kwargs):
        factors.append((kwargs, splu(*args, **kwargs)))
        return factors[-1][1]

    def spy_eigsh(*args, **kwargs):
        operators.append(kwargs.get("OPinv"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy_splu)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy_eigsh)
    ground_energy(landau_box(7.5))
    [(kwargs, lu)] = factors
    assert kwargs == {"permc_spec": "MMD_AT_PLUS_A"}
    [inverse] = operators
    b = np.random.default_rng(0).standard_normal(lu.shape[0]) + 0j
    assert np.array_equal(inverse.matvec(b), lu.solve(b))


def blas_threads():
    return [get() for get, _ in openblas_thread_controls()]


def set_blas_threads(n):
    for _, put in openblas_thread_controls():
        put(n)


@pytest.fixture
def two_blas_threads():
    before = blas_threads()
    assert before, "no OpenBLAS with thread controls is loaded"
    set_blas_threads(2)
    yield
    for (_, put), n in zip(openblas_thread_controls(), before):
        put(n)


def test_ground_energy_is_one_float_on_one_and_two_blas_threads(
        two_blas_threads):
    # 47 x 47 = 2,209 points; on the 841-point box the last bits of E0 do
    # not depend on the thread count, on this one they did
    values = []
    for threads in (1, 2):
        set_blas_threads(threads)
        H = landau_box(12.0)
        assert H.n == 2209
        values.append(ground_energy(H))
        assert set(blas_threads()) == {threads}
    assert values[0].hex() == values[1].hex()


@pytest.mark.parametrize("size, module, name", [
    (5.0, scipy.linalg, "eigvalsh"),         # 361 points
    (7.5, scipy.sparse.linalg, "eigsh"),     # 841 points
], ids=["dense", "sparse"])
def test_ground_energy_solves_on_one_blas_thread_and_restores_the_count(
        two_blas_threads, monkeypatch, size, module, name):
    seen = []
    solve = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(set(blas_threads()))
        return solve(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    ground_energy(landau_box(size))
    assert seen == [{1}]
    assert set(blas_threads()) == {2}


def test_ground_energy_nonconvergence_is_a_numerical_error(
        two_blas_threads, monkeypatch):
    def stalled(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("stalled", [], [])
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    with pytest.raises(NonConvergenceError):
        ground_energy(landau_box(7.5))
    # the caller's thread count comes back when the solve raises
    assert set(blas_threads()) == {2}


def test_openblas_is_scanned_once_per_process(monkeypatch):
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)
    monkeypatch.setattr(_blas, "open", spy, raising=False)
    openblas_thread_controls.cache_clear()
    for n in (6.0, 7.0):   # two uncached ground energies, dense branch
        H = assemble_h0(GridSpec(d=1, box=(n,), h=1.0), BackgroundFields())
        assert H.e0 is None
        ground_energy(H)
    with single_blas_thread():
        pass
    assert opened == ["/proc/self/maps"]
    assert openblas_thread_controls(), "no OpenBLAS thread controls found"


# ---------------------------------------------------------------------------
# property tests

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lam=st.floats(0.0, 10.0),
       nx=st.integers(3, 7), ny=st.integers(3, 7))
def test_assembled_operators_hermitian_with_bounded_potential(seed, lam, nx, ny):
    g = GridSpec(d=2, box=(0.5 * (nx + 1), 0.5 * (ny + 1)), h=0.5)
    law = disorder_law(lam, g)
    p = SingleSiteProfile(r=1.0, u0=1.0)
    H0 = assemble_h0(g, BackgroundFields(A=LandauGaugeLike(0.3)))
    rz = sample_couplings(law, seed)
    v = realize_potential(rz, p, law, g)
    b_minus, b_plus = check_covering(p, law, g)
    assert np.all((0.0 <= v) & (v <= b_plus + 1e-12))
    Hw = assemble_hamiltonian(H0, v, lam)
    assert hermiticity_defect(Hw) == 0.0
    assert np.array_equal(Hw.mask, H0.mask)


class LandauGaugeLike:
    # picklable stand-in with a nonuniform field, to exercise complex phases
    def __init__(self, b):
        self.b = b

    def __call__(self, q):
        return np.stack([-self.b * q[:, 1], 0.1 * q[:, 0]], axis=1)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(4, 12))
def test_restriction_monotone_for_random_masks(seed, n):
    g, H = free_chain(n, 0.5)
    rng = np.random.default_rng(seed)
    Hw = assemble_hamiltonian(H, rng.random(g.npoints), 2.0)
    keep = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
    assert ground_energy(restrict_dirichlet(Hw, keep)) >= ground_energy(Hw) - 1e-12
