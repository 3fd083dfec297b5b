import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

from fracmom import resolvent
from fracmom.errors import DomainError, NumericalError, SolveError
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
    set_rows,
)
from fracmom.moments import sample_seed, scan_pair_norms
from fracmom.resolvent import (
    ShiftedSolver,
    SpectralShift,
    boundary_layer_indices,
    indicator_set,
)
from fracmom.validation import block_norm_oracle


def scalar_h(a):
    g = GridSpec(d=1, box=(4.0,), h=1.0)
    ent = scipy.sparse.csr_matrix(np.array([[a]], dtype=np.complex128 if
                                           np.iscomplexobj(a) else np.float64))
    return DiscreteHamiltonian(grid=g, entries=ent, mask=np.array([0]))


def disordered_chain(npts, lam, seed, h=0.5, a_field=None):
    g = GridSpec(d=1, box=(h * (npts + 1),), h=h)
    bg = BackgroundFields(A=a_field)
    H0 = assemble_h0(g, bg)
    law = disorder_law(lam, g)
    p = SingleSiteProfile(r=1.0, u0=1.0)
    v = realize_potential(sample_couplings(law, seed), p, law, g)
    return g, assemble_hamiltonian(H0, v, lam)


def mask_rows(H, idx):
    # reference rows: positions in H.mask of the given global indices
    return np.flatnonzero(np.isin(H.mask, idx))


def dense_block_norm(H, z, rows, cols):
    R = np.linalg.inv(H.dense() - z * np.eye(H.n))
    return scipy.linalg.svdvals(R[np.ix_(rows, cols)])[0]


# ---------------------------------------------------------------------------
# shifts

def test_shift_validation():
    s = SpectralShift(E=2.0, eps=1e-4)
    assert s.z == 2.0 + 1e-4j
    assert s.conjugate() == 2.0 - 1e-4j
    with pytest.raises(DomainError):
        SpectralShift(E=1.0, eps=0.0)
    with pytest.raises(DomainError):
        SpectralShift(E=1.0, eps=-1e-3)
    with pytest.raises(DomainError):
        SpectralShift(E=np.nan, eps=1e-3)


# ---------------------------------------------------------------------------
# indicator sets

def test_indicator_membership_is_strict():
    g = GridSpec(d=1, box=(4.0,), h=0.5)
    q = grid_points(g).ravel()
    s = indicator_set(g, (2.0,), 1.0)
    assert q[s.indices].tolist() == [1.5, 2.0, 2.5]  # |q-2| = 1 excluded
    ann = indicator_set(g, (2.0,), 1.0, inner_radius=0.4)
    assert q[ann.indices].tolist() == [1.5, 2.5]  # center excluded


def test_indicator_refusals():
    g = GridSpec(d=1, box=(4.0,), h=0.5)
    s = indicator_set(g, (2.0,), 1.0)
    with pytest.raises(DomainError, match=r"^indicator around \(2\.2,\) with"):
        indicator_set(g, (2.2,), 0.2)  # dist to nearest point is exactly 0.2
    assert [type(c) for c in s.center] == [float]
    with pytest.raises(DomainError):
        indicator_set(g, (2.0, 2.0), 1.0)  # center dimension mismatch
    with pytest.raises(DomainError):
        indicator_set(g, (2.0,), 1.0, inner_radius=1.0)


def test_boundary_layer_open_interval_1d():
    g = GridSpec(d=1, box=(32.0,), h=0.5)
    q = grid_points(g).ravel()
    layer = boundary_layer_indices((0.0,), L=30.0, r=1.0, grid=g)
    picked = np.zeros(q.size, dtype=bool)
    picked[layer.indices] = True
    expected = (np.abs(q) > 7.0) & (np.abs(q) < 29.0)
    assert np.array_equal(picked, expected)


def test_boundary_layer_validity_edge():
    g = GridSpec(d=1, box=(32.0,), h=0.5)
    thin = boundary_layer_indices((0.0,), L=24.0 + 0.5, r=1.0, grid=g)
    assert len(thin) > 0
    with pytest.raises(DomainError):
        boundary_layer_indices((0.0,), L=24.0, r=1.0, grid=g)
    with pytest.raises(DomainError):
        boundary_layer_indices((0.0,), L=30.0, r=1.0, grid=g, depth=0.5)


def test_boundary_layer_pointwise_2d():
    g = GridSpec(d=2, box=(52.0, 52.0), h=1.0)
    center = np.array([26.0, 26.0])
    layer = boundary_layer_indices(tuple(center), L=26.0, r=1.0, grid=g)
    dist = np.linalg.norm(grid_points(g) - center, axis=1)
    assert len(layer) > 0
    assert np.all((dist[layer.indices] > 3.0) & (dist[layer.indices] < 25.0))
    outside = np.setdiff1d(np.arange(g.npoints), layer.indices)
    assert np.all((dist[outside] <= 3.0) | (dist[outside] >= 25.0))


def test_boundary_layer_custom_depth():
    g = GridSpec(d=1, box=(24.0,), h=0.5)
    layer = boundary_layer_indices((12.0,), L=10.0, r=1.0, grid=g, depth=5.0)
    q = grid_points(g).ravel()
    d = np.abs(q[layer.indices] - 12.0)
    assert np.all((d > 5.0) & (d < 9.0))


# ---------------------------------------------------------------------------
# solves

def test_scalar_solve_closed_form():
    H = scalar_h(3.0)
    z = SpectralShift(E=1.0, eps=0.5)
    u = ShiftedSolver(H, z).solve_adjoint(np.array([1.0]))
    assert abs(u[0] - 1.0 / (3.0 - z.conjugate())) < 1e-14


def test_identity_solve_closed_form():
    g = GridSpec(d=1, box=(6.0,), h=1.0)
    H = DiscreteHamiltonian(grid=g, entries=scipy.sparse.identity(5, format="csr"),
                            mask=np.arange(5))
    rhs = np.arange(1.0, 6.0)
    u = ShiftedSolver(H, 1j).solve_adjoint(rhs)
    assert np.allclose(u, rhs / (1.0 + 1j), atol=1e-14)


def test_solve_matches_dense_oracle():
    _, H = disordered_chain(50, lam=3.0, seed=17)
    z = SpectralShift(E=2.0, eps=1e-3)
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(50)
    u = ShiftedSolver(H, z).solve_adjoint(rhs)
    ref = np.linalg.solve(H.dense() - z.conjugate() * np.eye(50), rhs)
    assert np.linalg.norm(u - ref) <= 1e-8 * np.linalg.norm(ref)


def test_matrix_rhs_matches_columns():
    _, H = disordered_chain(30, lam=2.0, seed=3)
    z = SpectralShift(E=1.0, eps=1e-2)
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal((30, 4))
    sol = ShiftedSolver(H, z)
    U = sol.solve_adjoint(rhs)
    for j in range(4):
        assert np.allclose(U[:, j], sol.solve_adjoint(rhs[:, j]), atol=1e-12)


def test_adjoint_solve_residual_and_conjugation():
    _, H = disordered_chain(40, lam=4.0, seed=9)
    z = SpectralShift(E=2.5, eps=1e-3)
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    sol = ShiftedSolver(H, z)
    u = sol.solve_adjoint(rhs)
    A = H.dense() - z.conjugate() * np.eye(40)
    assert np.linalg.norm(A @ u - rhs) <= 1e-9 * np.linalg.norm(rhs)
    # real H: the adjoint solve at z is the conjugate of the one at conj z
    # (a raw complex shift with Im < 0) on conj(rhs)
    mirror = ShiftedSolver(H, z.conjugate()).solve_adjoint(np.conj(rhs))
    assert np.allclose(u, np.conj(mirror), atol=1e-10)


def landau_plane(seed):
    # a 121-point disordered Landau-gauge box: H is complex with H^T != H,
    # so a solve with the wrong conjugation of H or of z shows
    g = GridSpec(d=2, box=(6.0, 6.0), h=0.5)
    cfg = ModelConfig(grid=g, background=BackgroundFields(A=LandauGauge(0.5)),
                      profile=SingleSiteProfile(r=1.0, shape="cosine-bump", u0=4.0),
                      law=disorder_law(5.0, g))
    H = cfg.hamiltonian_for_seed(seed)
    assert not np.allclose(H.dense(), H.dense().T)
    return H


# the LU is the one solve path; "direct" keeps each case's id
@pytest.mark.parametrize("path", ["direct"])
def test_solves_match_dense_inverses_on_a_complex_operator(path):
    """The solver solves with H - conj z, not with its transpose or H - z."""
    H = landau_plane(sample_seed(3, 0))
    z = SpectralShift(E=4.0, eps=1e-2)
    sol = ShiftedSolver(H, z)
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal((H.n, 3)) + 1j * rng.standard_normal((H.n, 3))
    got = sol.solve_adjoint(rhs)
    want = np.linalg.solve(H.dense() - z.conjugate() * np.eye(H.n), rhs)
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


@pytest.mark.parametrize("path", ["direct"])
def test_block_norm_solves_with_the_factors_untransposed(path):
    """The factors are of H - conj z: no solve transposes them.

    SuperLU solves with transposed factors one column at a time, so the
    adjoint solve behind every block norm must be their plain solve.
    """
    H = landau_plane(sample_seed(3, 1))
    z = SpectralShift(E=4.0, eps=1e-2)
    solver = ShiftedSolver(H, z)
    fac, calls = solver._fac, []

    class RecordingFactors:
        def solve(self, rhs, trans="N"):
            calls.append(trans)
            return fac.solve(rhs, trans=trans)
    solver._fac = RecordingFactors()
    X = indicator_set(H.grid, (2.0, 3.0), 1.0)
    Y = indicator_set(H.grid, (4.0, 3.0), 1.0)
    got = solver.block_norm(X, Y)
    assert calls and set(calls) == {"N"}
    want = dense_block_norm(H, z.z, mask_rows(H, X.indices),
                            mask_rows(H, Y.indices))
    assert abs(got - want) <= 1e-10 * want


def test_solver_refuses_an_operator_above_its_point_cap(monkeypatch):
    H = landau_plane(sample_seed(3, 2))
    z = SpectralShift(E=4.0, eps=1e-2)
    monkeypatch.setitem(resolvent.SOLVE_POINT_CAP, 2, H.n)
    ShiftedSolver(H, z)
    monkeypatch.setitem(resolvent.SOLVE_POINT_CAP, 2, H.n - 1)
    with pytest.raises(DomainError, match=f"2d operator of {H.n} points"):
        ShiftedSolver(H, z)


def test_dense_block_solves_refuse_blocks_above_the_entry_cap(monkeypatch):
    # n x |X| for the adjoint solve, n x |Y| for the oracle's, counted
    # before either block is allocated
    g, H = disordered_chain(40, 1.0, seed=2)
    z = SpectralShift(E=1.0, eps=0.1)
    X, Y = np.arange(4), np.arange(30, 33)
    monkeypatch.setattr(resolvent, "BLOCK_ENTRY_CAP", 40 * 4)
    ShiftedSolver(H, z).block_norm(X, Y)
    monkeypatch.setattr(resolvent, "BLOCK_ENTRY_CAP", 40 * 3)
    block_norm_oracle(H, z, X, Y)
    with pytest.raises(DomainError, match="4 columns of an operator of 40"):
        ShiftedSolver(H, z).block_norm(X, Y)
    monkeypatch.setattr(resolvent, "BLOCK_ENTRY_CAP", 40 * 3 - 1)
    with pytest.raises(DomainError, match="3 columns of an operator of 40"):
        block_norm_oracle(H, z, X, Y)


def test_chain_above_the_plane_cap_is_solved_by_the_lu():
    # 1d's point cap is above the plane's: its LU is tridiagonal
    n = resolvent.SOLVE_POINT_CAP[2] + 10_000
    assert n <= resolvent.SOLVE_POINT_CAP[1]
    _, H = disordered_chain(n, lam=2.0, seed=4, h=1.0)
    z = SpectralShift(E=1.0, eps=1e-3)
    rhs = np.zeros(n)
    rhs[[0, n // 2, n - 1]] = 1.0
    u = ShiftedSolver(H, z).solve_adjoint(rhs)
    A = H.entries - z.conjugate() * scipy.sparse.identity(n)
    assert np.linalg.norm(A @ u - rhs) <= resolvent.SOLVE_TOL * np.linalg.norm(rhs)


def _sparse_shift_csc(H, w):
    # the sparse-add shift H - w, kept as the oracle for the factored
    # matrix, which is H - conj z
    A = (H.entries - w * scipy.sparse.identity(H.n, format="csr")).tocsc()
    return A.astype(np.complex128)


def plane_gauge_box(seed):
    # the plane-gauge benchmark box: 9,025 points in a Landau gauge
    g = GridSpec(d=2, box=(24.0, 24.0), h=0.25)
    cfg = ModelConfig(grid=g, background=BackgroundFields(A=LandauGauge(0.2)),
                      profile=SingleSiteProfile(r=1.0, shape="cosine-bump", u0=8.0),
                      law=disorder_law(50.0, g))
    return cfg.hamiltonian_for_seed(seed)


@pytest.mark.parametrize("make_h, z", [
    (lambda: disordered_chain(255, lam=50.0, seed=4, h=0.25)[1],
     SpectralShift(E=6.0, eps=1e-3)),
    (lambda: plane_gauge_box(sample_seed(1, 0)), SpectralShift(E=8.0, eps=0.01)),
], ids=["chain", "plane-gauge"])
def test_factors_match_sparse_shift_factors(make_h, z):
    H = make_h()
    got = ShiftedSolver(H, z)._fac
    want = scipy.sparse.linalg.splu(_sparse_shift_csc(H, z.conjugate()))
    for name in ("L", "U"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert a.data.tobytes() == b.data.tobytes()
    assert np.array_equal(got.perm_r, want.perm_r)
    assert np.array_equal(got.perm_c, want.perm_c)


def test_near_resonance_solves_meet_the_tolerance():
    """Criterion 3's eps = 1.5e-6 scan point: every solve meets SOLVE_TOL.

    On the 256-point chain at E = 32 some realizations put an eigenvalue
    within a few eps of E.  A residual formed as H @ u - z * u cancels
    there and stays above 1e-10 through refinement; the shift stored in
    the matrix entries does not.  Each adjoint solve, on X's and on Y's
    basis vectors, is checked by the solver and once more against dense
    H - conj z.
    """
    g = GridSpec(d=1, box=(64.25,), h=0.25)
    cfg = ModelConfig(grid=g, background=BackgroundFields(),
                      profile=SingleSiteProfile(r=1.0, u0=1.0),
                      law=disorder_law(2.0, g))
    assert g.npoints == 256
    X = indicator_set(g, (24.0,), 1.0).indices
    Y = indicator_set(g, (40.0,), 1.0).indices
    z = SpectralShift(E=32.0, eps=1.5e-6)
    eye = np.eye(g.npoints)
    for i in range(200):
        H = cfg.hamiltonian_for_seed(sample_seed(2024, i))
        solver = ShiftedSolver(H, z)
        for rhs in (eye[:, Y], eye[:, X]):
            u = solver.solve_adjoint(rhs)
            resid = (H.dense() - z.conjugate() * eye) @ u - rhs
            assert np.linalg.norm(resid, axis=0).max() <= resolvent.SOLVE_TOL


def test_singular_shift_raises():
    H = scalar_h(2.0)
    with pytest.raises(SolveError):
        ShiftedSolver(H, 2.0 + 0.0j).solve_adjoint(np.array([1.0]))


def test_rhs_shape_mismatch():
    _, H = disordered_chain(10, lam=1.0, seed=0)
    with pytest.raises(DomainError):
        ShiftedSolver(H, SpectralShift(1.0, 1e-2)).solve_adjoint(np.ones(11))


# ---------------------------------------------------------------------------
# block norms

def test_block_norm_scalar_closed_form():
    H = scalar_h(3.0)
    z = SpectralShift(E=1.0, eps=0.5)
    got = ShiftedSolver(H, z).block_norm(np.array([0]), np.array([0]))
    assert abs(got - 1.0 / abs(3.0 - z.z)) < 1e-12


def test_block_norm_matches_dense_svd():
    _, H = disordered_chain(80, lam=2.0, seed=11)
    z = SpectralShift(E=1.5, eps=1e-2)
    X = np.arange(5, 13)
    Y = np.arange(60, 71)
    got = ShiftedSolver(H, z).block_norm(X, Y)
    want = dense_block_norm(H, z.z, X, Y)
    assert abs(got - want) <= 1e-8 * want


def test_block_norm_accepts_indicator_sets():
    g, H = disordered_chain(40, lam=1.0, seed=2)
    z = SpectralShift(E=2.0, eps=1e-2)
    X = indicator_set(g, (5.0,), 1.0)
    Y = indicator_set(g, (15.0,), 1.0)
    got = ShiftedSolver(H, z).block_norm(X, Y)
    want = dense_block_norm(H, z.z, X.indices, Y.indices)
    assert abs(got - want) <= 1e-8 * want


def test_block_norm_swap_real_h():
    _, H = disordered_chain(35, lam=2.0, seed=8)
    z = SpectralShift(E=1.0, eps=5e-3)
    X, Y = np.arange(2, 7), np.arange(20, 30)
    a = ShiftedSolver(H, z).block_norm(X, Y)
    b = ShiftedSolver(H, z).block_norm(Y, X)
    assert abs(a - b) <= 1e-8 * a


def test_block_norm_adjoint_symmetry_complex_h():
    _, H = disordered_chain(35, lam=2.0, seed=8, a_field=ConstantVector((0.6,)))
    z = SpectralShift(E=1.0, eps=5e-3)
    X, Y = np.arange(2, 7), np.arange(20, 30)
    a = ShiftedSolver(H, z).block_norm(X, Y)
    b = ShiftedSolver(H, z.conjugate()).block_norm(Y, X)
    assert abs(a - b) <= 1e-8 * a


def test_set_rows_match_isin_reference():
    g = GridSpec(d=2, box=(6.0, 6.0), h=0.5)
    H = restrict_dirichlet(assemble_h0(g, BackgroundFields()),
                           indicator_set(g, (3.0, 3.0), 2.0).indices)
    rng = np.random.default_rng(4)

    def rows(sel, name="Y"):
        return set_rows(sel, H.mask, g.npoints, name)
    sets = [indicator_set(g, (3.0, 3.0), 1.0),          # inside the ball
            indicator_set(g, (1.5, 3.0), 1.5),          # straddles its edge
            indicator_set(g, (3.0, 3.0), 2.5, inner_radius=1.5)]
    for sel in sets:
        assert np.array_equal(rows(sel, "X"), mask_rows(H, sel.indices))
    for _ in range(20):
        raw = rng.integers(0, g.npoints, size=39)
        raw = np.concatenate([raw, raw[:9], H.mask[:4]])    # duplicates
        rng.shuffle(raw)
        assert np.array_equal(rows(raw.reshape(4, -1)), mask_rows(H, raw))
    assert np.array_equal(rows([H.mask[-1], g.npoints - 1]), [H.n - 1])
    with pytest.raises(DomainError, match="^Y has no point inside"):
        rows([0, 1, g.npoints - 1])
    with pytest.raises(DomainError, match="^Y is empty"):
        rows([])
    for bad in (-1, g.npoints):
        with pytest.raises(DomainError, match=(
                rf"^Y has an index outside \[0, {g.npoints}\)")):
            rows([H.mask[0], bad])


def test_block_norm_empty_outside_domain():
    _, H = disordered_chain(20, lam=1.0, seed=0)
    sub = restrict_dirichlet(H, np.arange(10))
    z = SpectralShift(E=1.0, eps=1e-2)
    with pytest.raises(DomainError):
        ShiftedSolver(sub, z).block_norm(np.arange(12, 15), np.arange(3))
    with pytest.raises(DomainError):
        ShiftedSolver(H, z).block_norm(np.array([], dtype=int), np.arange(3))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16), lam=st.floats(0.0, 8.0),
       eps=st.floats(1e-4, 1.0))
def test_block_norm_resolvent_bound(seed, lam, eps):
    _, H = disordered_chain(25, lam=lam, seed=seed)
    z = SpectralShift(E=2.0, eps=eps)
    got = ShiftedSolver(H, z).block_norm(np.arange(3, 9), np.arange(12, 20))
    assert got <= (1.0 + 1e-9) / eps


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_block_norm_monotone_in_sets(seed):
    _, H = disordered_chain(30, lam=3.0, seed=seed)
    z = SpectralShift(E=2.0, eps=1e-2)
    small = ShiftedSolver(H, z).block_norm(np.arange(4, 8), np.arange(18, 24))
    grown = ShiftedSolver(H, z).block_norm(np.arange(2, 10), np.arange(16, 28))
    assert grown >= small * (1.0 - 1e-8)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16), lam=st.floats(0.5, 6.0),
       n=st.integers(12, 40))
def test_block_norm_oracle_equivalence(seed, lam, n):
    _, H = disordered_chain(n, lam=lam, seed=seed)
    z = SpectralShift(E=2.0, eps=1e-2)
    rng = np.random.default_rng(seed)
    X = np.sort(rng.choice(n, size=rng.integers(1, n // 2), replace=False))
    Y = np.sort(rng.choice(n, size=rng.integers(1, n // 2), replace=False))
    got = ShiftedSolver(H, z).block_norm(X, Y)
    want = dense_block_norm(H, z.z, mask_rows(H, X), mask_rows(H, Y))
    assert abs(got - want) <= 1e-12 * max(want, 1e-30)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), data=st.data(),
       xs=st.lists(st.integers(0, 9), min_size=1, max_size=6),
       ys=st.lists(st.integers(0, 9), min_size=1, max_size=6),
       bad=st.sampled_from([-1, 10, 10 ** 6]))
def test_every_block_norm_path_reads_a_set_as_its_rows(seed, data, xs, ys,
                                                       bad):
    # a full-box chain, where grid indices are rows: duplicates and order
    # change no block, and no path drops an index off the grid
    _, H = disordered_chain(10, lam=2.0, seed=seed, h=1.0)
    z = SpectralShift(E=1.0, eps=0.1)
    X = data.draw(st.permutations(xs + xs[:1]))
    Y = data.draw(st.permutations(ys + ys))
    paths = [ShiftedSolver(H, z).block_norm,
             lambda X, Y: block_norm_oracle(H, z, X, Y),
             lambda X, Y: block_norm_oracle(H.dense(), z, X, Y)]
    want = dense_block_norm(H, z.z, np.unique(xs), np.unique(ys))
    for norm in paths:
        assert norm(X, Y) == pytest.approx(want, rel=1e-8, abs=0.0)
        with pytest.raises(DomainError, match=r"^X has an index outside"):
            norm(X + [bad], Y)
        with pytest.raises(DomainError, match=r"^Y has an index outside"):
            norm(X, [bad] + Y)


def test_singular_value_failure_is_a_solve_error(monkeypatch):
    def diverged(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(scipy.linalg, "svdvals", diverged)
    _, H = disordered_chain(20, lam=1.0, seed=0)
    solver = ShiftedSolver(H, SpectralShift(1.0, 1e-2))
    with pytest.raises(SolveError, match="did not converge"):
        solver.block_norm(np.arange(3), np.arange(5, 9))


def far_chain():
    # 1,599 points of strong disorder: at E = 8 the block norm falls by
    # ~5 decades per unit length and leaves the normal range near 64
    g = GridSpec(d=1, box=(400.0,), h=0.25)
    return ModelConfig(grid=g, background=BackgroundFields(),
                       profile=SingleSiteProfile(r=1.0, u0=8.0),
                       law=disorder_law(50.0, g)).hamiltonian_for_seed(1)


@pytest.mark.parametrize("distance", [64.0, 70.0], ids=["subnormal", "zero"])
def test_underflowed_block_norm_is_a_numerical_error(distance):
    H = far_chain()
    z = SpectralShift(E=8.0, eps=0.01)
    X = indicator_set(H.grid, (20.0,), 1.0)
    near = indicator_set(H.grid, (83.0,), 1.0)   # distance 63: 3.3e-306
    assert ShiftedSolver(H, z).block_norm(X, near) == pytest.approx(
        block_norm_oracle(H, z, X, near), rel=1e-8)
    Y = indicator_set(H.grid, (20.0 + distance,), 1.0)
    for norm in (lambda: ShiftedSolver(H, z).block_norm(X, Y),
                 lambda: block_norm_oracle(H, z, X, Y)):
        with pytest.raises(NumericalError, match=(
                r"between X = the ball of radius 1 at \(20\.0,\) and "
                rf"Y = the ball of radius 1 at \({20.0 + distance},\) at "
                r"z = 8\+0\.01j is below the smallest normal float")):
            norm()


def test_block_norm_across_a_dirichlet_wall_is_an_exact_zero():
    # X and Y in different components of the operator's graph: the
    # resolvent is block diagonal, so 0.0 is the exact block norm
    g, H = disordered_chain(60, 2.0, 3)
    H = restrict_dirichlet(H, np.setdiff1d(np.arange(H.n), [30, 31]))
    z = SpectralShift(E=1.0, eps=0.01)
    X, Y = np.arange(10, 14), np.arange(40, 44)
    assert ShiftedSolver(H, z).block_norm(X, Y) == 0.0
    assert block_norm_oracle(H, z, X, Y) == 0.0
    assert dense_block_norm(H, z.z, mask_rows(H, X),
                            mask_rows(H, Y)) == 0.0
    # a positive norm inside one component is unchanged
    assert ShiftedSolver(H, z).block_norm(X, X + 10) > 0.0


# ---------------------------------------------------------------------------
# ladders sharing X

def test_ladder_shares_one_adjoint_solve_per_realization_and_shift(monkeypatch):
    g = GridSpec(d=2, box=(8.0, 8.0), h=0.25)     # 31 x 31 points
    cfg = ModelConfig(grid=g, background=BackgroundFields(A=LandauGauge(b=0.2)),
                      profile=SingleSiteProfile(r=1.0, shape="cosine-bump",
                                                u0=4.0),
                      law=disorder_law(10.0, g))
    X = indicator_set(g, (2.0, 4.0), 1.0)
    Ys = [indicator_set(g, (2.0 + t, 4.0), 1.0) for t in (1.0, 2.0, 3.0, 4.0)]
    shifts = [SpectralShift(E=4.0, eps=1e-2), SpectralShift(E=4.0, eps=1e-3)]
    solves = []
    solve_adjoint = ShiftedSolver.solve_adjoint

    def counting(self, rhs):
        solves.append(rhs.shape[1])
        return solve_adjoint(self, rhs)
    monkeypatch.setattr(ShiftedSolver, "solve_adjoint", counting)

    N = 2
    norms = scan_pair_norms(cfg, shifts, [(X, Y) for Y in Ys], N,
                            master_seed=5)
    assert solves == [len(X)] * (N * len(shifts))
    worst = 0.0
    for i in range(N):
        H = cfg.hamiltonian_for_seed(sample_seed(5, i))
        rows = mask_rows(H, X.indices)
        for k, z in enumerate(shifts):
            for j, Y in enumerate(Ys):
                want = dense_block_norm(H, z.z, rows, mask_rows(H, Y.indices))
                worst = max(worst, abs(norms[i, k, j] - want) / want)
    assert worst <= 1e-12

    # a new X is solved afresh, and the old X again after it
    solves.clear()
    solver = ShiftedSolver(H, shifts[0])
    got = [solver.block_norm(A, B) for A, B in [(X, Ys[0]), (Ys[0], X),
                                                  (X, Ys[0])]]
    assert solves == [len(X), len(Ys[0]), len(X)]
    want = dense_block_norm(H, shifts[0].z, rows, mask_rows(H, Ys[0].indices))
    assert got[0] == got[2]
    assert abs(got[0] - want) <= 1e-12 * want
    want = dense_block_norm(H, shifts[0].z, mask_rows(H, Ys[0].indices), rows)
    assert abs(got[1] - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# boundary green norms: ||chi_center (H - z)^{-1} chi_layer|| on a Dirichlet
# ball, chi_center the bump-sized ball of radius r around the center

def test_boundary_green_norm_resolvent_bound():
    g = GridSpec(d=1, box=(60.0,), h=0.5)
    H = assemble_h0(g, BackgroundFields())
    ball = indicator_set(g, (30.0,), 30.0).indices
    Hball = restrict_dirichlet(H, ball)
    z = SpectralShift(E=1.0, eps=1e3)
    X = indicator_set(g, (30.0,), 1.0)
    Y = boundary_layer_indices((30.0,), 30.0, 1.0, g)
    assert ShiftedSolver(Hball, z).block_norm(X, Y) <= (1 + 1e-9) / 1e3


def test_boundary_green_norm_deterministic_at_zero_coupling():
    g = GridSpec(d=1, box=(60.0,), h=0.5)
    H0 = assemble_h0(g, BackgroundFields())
    law = disorder_law(0.0, g)
    p = SingleSiteProfile()
    ball = indicator_set(g, (30.0,), 30.0).indices
    X = indicator_set(g, (30.0,), 1.0)
    Y = boundary_layer_indices((30.0,), 30.0, 1.0, g)
    vals = []
    for seed in (0, 1):
        v = realize_potential(sample_couplings(law, seed), p, law, g)
        H = assemble_hamiltonian(H0, v, 0.0)
        Hball = restrict_dirichlet(H, ball)
        z = SpectralShift(E=2.0, eps=1e-2)
        vals.append(ShiftedSolver(Hball, z).block_norm(X, Y))
    assert vals[0] == vals[1]


def test_boundary_green_norm_matches_dense_oracle():
    g = GridSpec(d=1, box=(60.0,), h=0.5)
    H0 = assemble_h0(g, BackgroundFields())
    law = disorder_law(10.0, g)
    p = SingleSiteProfile(r=1.0, u0=1.0)
    v = realize_potential(sample_couplings(law, 21), p, law, g)
    H = assemble_hamiltonian(H0, v, 10.0)
    Hball = restrict_dirichlet(H, indicator_set(g, (30.0,), 30.0).indices)
    z = SpectralShift(E=2.0, eps=1e-3)
    center = indicator_set(g, (30.0,), 1.0)
    layer = boundary_layer_indices((30.0,), 30.0, 1.0, g)
    got = ShiftedSolver(Hball, z).block_norm(center, layer)
    X = mask_rows(Hball, center.indices)
    Y = mask_rows(Hball, layer.indices)
    want = dense_block_norm(Hball, z.z, X, Y)
    assert abs(got - want) <= 1e-8 * want
