import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

from fracmom import resolvent
from fracmom.errors import DomainError, SolveError
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
from fracmom.moments import sample_seed, scan_pair_norms
from fracmom.resolvent import (
    IndicatorSet,
    ShiftedSolver,
    _local_positions,
    SpectralShift,
    block_operator_norm,
    boundary_layer_indices,
    indicator_set,
)


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


def test_indicator_mask_and_empty():
    g = GridSpec(d=1, box=(4.0,), h=0.5)
    s = indicator_set(g, (2.0,), 1.0, mask=np.array([0, 1, 2]))
    assert s.indices.tolist() == [2]
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
    u = ShiftedSolver(H, z).solve(np.array([1.0]))
    assert abs(u[0] - 1.0 / (3.0 - z.z)) < 1e-14


def test_identity_solve_closed_form():
    g = GridSpec(d=1, box=(6.0,), h=1.0)
    H = DiscreteHamiltonian(grid=g, entries=scipy.sparse.identity(5, format="csr"),
                            mask=np.arange(5))
    rhs = np.arange(1.0, 6.0)
    u = ShiftedSolver(H, 1j).solve(rhs)
    assert np.allclose(u, rhs / (1.0 - 1j), atol=1e-14)


def test_solve_matches_dense_oracle():
    _, H = disordered_chain(50, lam=3.0, seed=17)
    z = SpectralShift(E=2.0, eps=1e-3)
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(50)
    u = ShiftedSolver(H, z).solve(rhs)
    ref = np.linalg.solve(H.dense() - z.z * np.eye(50), rhs)
    assert np.linalg.norm(u - ref) <= 1e-8 * np.linalg.norm(ref)


def test_matrix_rhs_matches_columns():
    _, H = disordered_chain(30, lam=2.0, seed=3)
    z = SpectralShift(E=1.0, eps=1e-2)
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal((30, 4))
    sol = ShiftedSolver(H, z)
    U = sol.solve(rhs)
    for j in range(4):
        assert np.allclose(U[:, j], sol.solve(rhs[:, j]), atol=1e-12)


def test_iterative_path_meets_same_contract(monkeypatch):
    g = GridSpec(d=2, box=(8.0, 8.0), h=0.5)
    H0 = assemble_h0(g, BackgroundFields())
    law = disorder_law(2.0, g)
    v = realize_potential(sample_couplings(law, 5), SingleSiteProfile(), law, g)
    H = assemble_hamiltonian(H0, v, 2.0)
    z = SpectralShift(E=3.0, eps=1e-2)
    rng = np.random.default_rng(4)
    rhs = rng.standard_normal(H.n)
    assert ShiftedSolver(H, z).method == "direct"
    ud = ShiftedSolver(H, z).solve(rhs)
    # the path follows the operator size, read when a solver is built
    monkeypatch.setattr(resolvent, "DIRECT_SOLVE_CAP", 0)
    assert ShiftedSolver(H, z).method == "iterative"
    ui = ShiftedSolver(H, z).solve(rhs)
    assert np.linalg.norm(ud - ui) <= 1e-8 * np.linalg.norm(ud)


def test_adjoint_solve_residual_and_conjugation():
    _, H = disordered_chain(40, lam=4.0, seed=9)
    z = SpectralShift(E=2.5, eps=1e-3)
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    sol = ShiftedSolver(H, z)
    u = sol.solve_adjoint(rhs)
    A = H.dense() - z.conjugate() * np.eye(40)
    assert np.linalg.norm(A @ u - rhs) <= 1e-9 * np.linalg.norm(rhs)
    # real H: adjoint solve is the conjugated forward solve of conj(rhs)
    assert np.allclose(u, np.conj(sol.solve(np.conj(rhs))), atol=1e-10)


def test_singular_shift_raises():
    H = scalar_h(2.0)
    with pytest.raises(SolveError):
        ShiftedSolver(H, 2.0 + 0.0j).solve(np.array([1.0]))


def test_rhs_shape_mismatch():
    _, H = disordered_chain(10, lam=1.0, seed=0)
    with pytest.raises(DomainError):
        ShiftedSolver(H, SpectralShift(1.0, 1e-2)).solve(np.ones(11))


# ---------------------------------------------------------------------------
# block norms

def test_block_norm_scalar_closed_form():
    H = scalar_h(3.0)
    z = SpectralShift(E=1.0, eps=0.5)
    got = block_operator_norm(H, z, np.array([0]), np.array([0]))
    assert abs(got - 1.0 / abs(3.0 - z.z)) < 1e-12


def test_block_norm_matches_dense_svd():
    _, H = disordered_chain(80, lam=2.0, seed=11)
    z = SpectralShift(E=1.5, eps=1e-2)
    X = np.arange(5, 13)
    Y = np.arange(60, 71)
    got = block_operator_norm(H, z, X, Y)
    want = dense_block_norm(H, z.z, X, Y)
    assert abs(got - want) <= 1e-8 * want


def test_block_norm_accepts_indicator_sets():
    g, H = disordered_chain(40, lam=1.0, seed=2)
    z = SpectralShift(E=2.0, eps=1e-2)
    X = indicator_set(g, (5.0,), 1.0)
    Y = indicator_set(g, (15.0,), 1.0)
    got = block_operator_norm(H, z, X, Y)
    want = dense_block_norm(H, z.z, X.indices, Y.indices)
    assert abs(got - want) <= 1e-8 * want


def test_block_norm_swap_real_h():
    _, H = disordered_chain(35, lam=2.0, seed=8)
    z = SpectralShift(E=1.0, eps=5e-3)
    X, Y = np.arange(2, 7), np.arange(20, 30)
    a = block_operator_norm(H, z, X, Y)
    b = block_operator_norm(H, z, Y, X)
    assert abs(a - b) <= 1e-8 * a


def test_block_norm_adjoint_symmetry_complex_h():
    _, H = disordered_chain(35, lam=2.0, seed=8, a_field=ConstantVector((0.6,)))
    z = SpectralShift(E=1.0, eps=5e-3)
    X, Y = np.arange(2, 7), np.arange(20, 30)
    a = block_operator_norm(H, z, X, Y)
    b = block_operator_norm(H, z.conjugate(), Y, X)
    assert abs(a - b) <= 1e-8 * a


def _intersect_positions(H, idx):
    # reference set lookup: intersect with the mask, then locate
    return H.local_indices(np.intersect1d(np.asarray(idx, dtype=np.int64), H.mask))


def test_local_positions_match_intersect_path():
    g = GridSpec(d=2, box=(6.0, 6.0), h=0.5)
    H = restrict_dirichlet(assemble_h0(g, BackgroundFields()),
                           indicator_set(g, (3.0, 3.0), 2.0).indices)
    rng = np.random.default_rng(4)
    sets = [indicator_set(g, (3.0, 3.0), 1.0),          # inside the ball
            indicator_set(g, (1.5, 3.0), 1.5),          # straddles its edge
            indicator_set(g, (3.0, 3.0), 2.5, inner_radius=1.5)]
    for sel in sets:
        got = _local_positions(H, sel, "X")
        assert np.array_equal(got, _intersect_positions(H, sel.indices))
    for _ in range(20):
        raw = rng.integers(0, g.npoints, size=39)
        raw = np.concatenate([raw, raw[:9], H.mask[:4]])    # duplicates
        rng.shuffle(raw)
        got = _local_positions(H, raw.reshape(4, -1), "Y")
        assert np.array_equal(got, _intersect_positions(H, raw))
    assert np.array_equal(_local_positions(H, [H.mask[-1], g.npoints - 1], "Y"),
                          [H.n - 1])
    with pytest.raises(DomainError, match="no point inside"):
        _local_positions(H, [0, 1, g.npoints - 1], "Y")
    with pytest.raises(DomainError, match="empty"):
        _local_positions(H, [], "Y")


def test_block_norm_empty_outside_domain():
    _, H = disordered_chain(20, lam=1.0, seed=0)
    sub = restrict_dirichlet(H, np.arange(10))
    z = SpectralShift(E=1.0, eps=1e-2)
    with pytest.raises(DomainError):
        block_operator_norm(sub, z, np.arange(12, 15), np.arange(3))
    with pytest.raises(DomainError):
        block_operator_norm(H, z, np.array([], dtype=int), np.arange(3))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16), lam=st.floats(0.0, 8.0),
       eps=st.floats(1e-4, 1.0))
def test_block_norm_resolvent_bound(seed, lam, eps):
    _, H = disordered_chain(25, lam=lam, seed=seed)
    z = SpectralShift(E=2.0, eps=eps)
    got = block_operator_norm(H, z, np.arange(3, 9), np.arange(12, 20))
    assert got <= (1.0 + 1e-9) / eps


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_block_norm_monotone_in_sets(seed):
    _, H = disordered_chain(30, lam=3.0, seed=seed)
    z = SpectralShift(E=2.0, eps=1e-2)
    small = block_operator_norm(H, z, np.arange(4, 8), np.arange(18, 24))
    grown = block_operator_norm(H, z, np.arange(2, 10), np.arange(16, 28))
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
    got = block_operator_norm(H, z, X, Y)
    want = dense_block_norm(H, z.z, H.local_indices(X), H.local_indices(Y))
    assert abs(got - want) <= 1e-12 * max(want, 1e-30)


def test_singular_value_failure_is_a_solve_error(monkeypatch):
    def diverged(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(scipy.linalg, "svdvals", diverged)
    _, H = disordered_chain(20, lam=1.0, seed=0)
    with pytest.raises(SolveError, match="did not converge"):
        block_operator_norm(H, SpectralShift(1.0, 1e-2), np.arange(3),
                            np.arange(5, 9))


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
    verified = ShiftedSolver._verified

    def counting(self, rhs, trans):
        solves.append((trans, rhs.shape[1]))
        return verified(self, rhs, trans)
    monkeypatch.setattr(ShiftedSolver, "_verified", counting)

    N = 2
    norms = scan_pair_norms(cfg, shifts, [(X, Y) for Y in Ys], N,
                            master_seed=5)
    assert solves == [("H", len(X))] * (N * len(shifts))
    worst = 0.0
    for i in range(N):
        H = cfg.hamiltonian_for_seed(sample_seed(5, i))
        rows = H.local_indices(X.indices)
        for k, z in enumerate(shifts):
            for j, Y in enumerate(Ys):
                want = dense_block_norm(H, z.z, rows, H.local_indices(Y.indices))
                worst = max(worst, abs(norms[i, k, j] - want) / want)
    assert worst <= 1e-12

    # a new X is solved afresh, and the old X again after it
    solves.clear()
    solver = ShiftedSolver(H, shifts[0])
    got = [solver.block_norm(A, B) for A, B in [(X, Ys[0]), (Ys[0], X),
                                                  (X, Ys[0])]]
    assert solves == [("H", len(X)), ("H", len(Ys[0])), ("H", len(X))]
    want = dense_block_norm(H, shifts[0].z, rows, H.local_indices(Ys[0].indices))
    assert got[0] == got[2]
    assert abs(got[0] - want) <= 1e-12 * want
    want = dense_block_norm(H, shifts[0].z, H.local_indices(Ys[0].indices), rows)
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
    X = indicator_set(g, (30.0,), 1.0, mask=ball)
    Y = boundary_layer_indices((30.0,), 30.0, 1.0, g)
    assert ShiftedSolver(Hball, z).block_norm(X, Y) <= (1 + 1e-9) / 1e3


def test_boundary_green_norm_deterministic_at_zero_coupling():
    g = GridSpec(d=1, box=(60.0,), h=0.5)
    H0 = assemble_h0(g, BackgroundFields())
    law = disorder_law(0.0, g)
    p = SingleSiteProfile()
    ball = indicator_set(g, (30.0,), 30.0).indices
    X = indicator_set(g, (30.0,), 1.0, mask=ball)
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
    center = indicator_set(g, (30.0,), 1.0, mask=Hball.mask)
    layer = boundary_layer_indices((30.0,), 30.0, 1.0, g)
    got = ShiftedSolver(Hball, z).block_norm(center, layer)
    X = Hball.local_indices(center.indices)
    Y = Hball.local_indices(np.intersect1d(layer.indices, Hball.mask))
    want = dense_block_norm(Hball, z.z, X, Y)
    assert abs(got - want) <= 1e-8 * want
