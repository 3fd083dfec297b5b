import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from fracmom.errors import (
    ConstructionError,
    CoveringError,
    DensityError,
    NonConvergenceError,
)
from fracmom.model import (
    DENSE_EIG_CAP,
    BackgroundFields,
    ConstantScalar,
    ConstantVector,
    DiscreteHamiltonian,
    GridSpec,
    LandauGauge,
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


def test_nonfinite_background_is_named():
    g = GridSpec(d=1, box=(5.0,), h=1.0)
    with pytest.raises(ConstructionError, match="V0"):
        assemble_h0(g, BackgroundFields(V0=lambda q: np.inf))
    with pytest.raises(ConstructionError, match="below declared"):
        assemble_h0(g, BackgroundFields(V0=ConstantScalar(-1.0), V0_min=0.0))


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


@pytest.mark.parametrize("bg", [
    BackgroundFields(A=LandauGauge(0.2)),
    # a negative V0 puts the Gershgorin lower bound below zero
    BackgroundFields(A=LandauGauge(0.2), V0=ConstantScalar(-3.0), V0_min=-3.0),
    BackgroundFields(),
], ids=["landau", "landau-negative-v0", "no-field"])
def test_ground_energy_sparse_branch_matches_dense(bg):
    g = GridSpec(d=2, box=(7.5, 7.5), h=0.25)
    H = assemble_h0(g, bg)
    assert H.n == 841 > DENSE_EIG_CAP
    e0 = ground_energy(H)
    ref = scipy.linalg.eigvalsh(H.dense(), subset_by_index=[0, 0])[0]
    assert e0 == pytest.approx(ref, rel=1e-10)
    H.e0 = None
    assert ground_energy(H) == e0


def test_ground_energy_nonconvergence_is_a_numerical_error(monkeypatch):
    def stalled(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("stalled", [], [])
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    g = GridSpec(d=2, box=(7.5, 7.5), h=0.25)
    with pytest.raises(NonConvergenceError):
        ground_energy(assemble_h0(g, BackgroundFields(A=LandauGauge(0.2))))


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
        return np.array([-self.b * q[1], 0.1 * q[0]])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(4, 12))
def test_restriction_monotone_for_random_masks(seed, n):
    g, H = free_chain(n, 0.5)
    rng = np.random.default_rng(seed)
    Hw = assemble_hamiltonian(H, rng.random(g.npoints), 2.0)
    keep = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
    assert ground_energy(restrict_dirichlet(Hw, keep)) >= ground_energy(Hw) - 1e-12
