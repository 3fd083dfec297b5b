"""Tests for the block-norm oracle and the level-set bench."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from fracmom import resolvent, validation
from fracmom.errors import DomainError, NumericalError, SolveError
from fracmom.model import (
    BackgroundFields,
    ConstantVector,
    DiscreteHamiltonian,
    GridSpec,
    LandauGauge,
    ModelConfig,
    SingleSiteProfile,
    disorder_law,
    restrict_dirichlet,
)
from fracmom.resolvent import ShiftedSolver, SpectralShift, indicator_set
from fracmom.validation import (
    DissipativeOperator,
    HSOperator,
    OracleComparison,
    _sandwich_polynomials,
    block_norm_oracle,
    oracle_bandwidths,
    oracle_compare,
    weak_l1_levelset_measure,
)


def random_dissipative(rng, n, y_scale=1.0):
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = (B + B.conj().T) / 2.0
    C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Y = y_scale * (C @ C.conj().T) / n
    return DissipativeOperator(X=X, Y=Y)


def riemann_measures(A_eff, T, t_grid, lo, hi, points):
    """Direct-solve midpoint sums of the level sets over `points` cells.

    Returns the sums, the number of times each level is crossed between
    neighbouring midpoints, and the step.  A level set of k intervals, each
    wide enough to hold a midpoint, is counted to within k steps, so then
    (crossings + 1) * step bounds the error.
    """
    step = (hi - lo) / points
    etas = lo + (np.arange(points) + 0.5) * step
    eye = np.eye(len(T))
    norms = np.concatenate([
        np.linalg.norm(T @ np.linalg.solve(chunk[:, None, None] * eye + A_eff,
                                           T), axis=(1, 2))
        for chunk in np.array_split(etas, -(-points // 8192))])
    sums, crossings = [], []
    for t in t_grid:
        above = norms > t
        sums.append(np.count_nonzero(above) * step)
        crossings.append(np.count_nonzero(above[1:] != above[:-1]))
    return np.array(sums), np.array(crossings), step


def chain_config(lam=1.0, box=20.0, h=1.0, u0=1.0, r=1.0):
    grid = GridSpec(d=1, box=(box,), h=h)
    return ModelConfig(grid=grid, background=BackgroundFields(),
                       profile=SingleSiteProfile(r=r, u0=u0),
                       law=disorder_law(lam, grid))


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

class TestDissipativeOperator:
    def test_valid_operator(self):
        op = DissipativeOperator(X=np.diag([1.0, -2.0]), Y=np.diag([0.5, 3.0]))
        assert op.n == 2
        assert not op.has_kernel
        assert np.allclose(op.A, np.diag([1.0 + 0.5j, -2.0 + 3.0j]))

    def test_rejects_non_hermitian_x(self):
        with pytest.raises(DomainError, match="Hermitian"):
            DissipativeOperator(X=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                Y=np.eye(2))

    def test_rejects_indefinite_y(self):
        with pytest.raises(DomainError, match="semidefinite"):
            DissipativeOperator(X=np.eye(2), Y=np.diag([1.0, -1e-6]))

    def test_tolerates_tiny_negative_eigenvalue(self):
        op = DissipativeOperator(X=np.eye(2), Y=np.diag([1.0, -1e-13]))
        assert op.has_kernel

    def test_kernel_detection(self):
        assert DissipativeOperator(X=np.eye(2), Y=np.diag([1.0, 0.0])).has_kernel
        assert not DissipativeOperator(X=np.eye(2), Y=np.eye(2)).has_kernel

    def test_shape_mismatch(self):
        with pytest.raises(DomainError, match="shape"):
            DissipativeOperator(X=np.eye(2), Y=np.eye(3))


class TestHSOperator:
    def test_norm_matches_frobenius(self):
        rng = np.random.default_rng(5)
        T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = HSOperator(T=T)
        assert op.hs_norm == pytest.approx(np.sqrt((np.abs(T) ** 2).sum()),
                                           rel=1e-14)

    def test_zero(self):
        assert HSOperator(T=np.zeros((3, 3))).hs_norm == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(DomainError, match="square"):
            HSOperator(T=np.ones((2, 3)))


# ---------------------------------------------------------------------------
# block-norm oracle
# ---------------------------------------------------------------------------

def random_hermitian(seed, n, complex_entries=False):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    if complex_entries:
        B = B + 1j * rng.standard_normal((n, n))
    return (B + B.conj().T) / 2.0


class TestDenseResolventOracle:
    def test_scalar(self):
        got = block_norm_oracle(np.array([[3.0]]), 1.0 + 0.5j, [0], [0])
        assert got == pytest.approx(1.0 / abs(2.0 - 0.5j), rel=1e-14)

    def test_diagonal_matrix_elementwise(self):
        d = np.array([1.0, 4.0, -2.0])
        shift = SpectralShift(E=0.5, eps=1e-2)
        for i in range(3):
            got = block_norm_oracle(np.diag(d), shift, [i], [i])
            assert got == pytest.approx(1.0 / abs(d[i] - shift.z), rel=1e-12)
            for j in set(range(3)) - {i}:
                assert block_norm_oracle(np.diag(d), shift, [i], [j]) < 1e-14

    def test_residual_bound_holds(self, monkeypatch):
        # with X = every row the SVD sees all of C, so its residual is checked
        H = random_hermitian(11, 100)
        z = 0.3 + 1e-4j
        seen = []
        svdvals = scipy.linalg.svdvals

        def spy(B):
            seen.append(B.copy())
            return svdvals(B)
        monkeypatch.setattr(scipy.linalg, "svdvals", spy)
        Y = [3, 40, 41, 97]
        got = block_norm_oracle(H, z, np.arange(100), Y)
        (C,) = seen
        assert C.shape == (100, 4)
        defect = (H - z * np.eye(100)) @ C - np.eye(100)[:, Y]
        assert np.abs(defect).max() <= 1e-10
        assert got == svdvals(C)[0]

    def test_refinement_repairs_a_perturbed_solve(self, monkeypatch):
        H = random_hermitian(13, 40)
        z = -0.4 + 1e-3j
        ref = scipy.linalg.svdvals(
            np.linalg.inv(H - z * np.eye(40))[np.ix_([0, 1, 2], [30, 31])])[0]
        calls = []
        gbtrs = scipy.linalg.lapack.zgbtrs

        def perturbed_first(lu, kl, ku, b, piv):
            calls.append(b.shape)
            x, info = gbtrs(lu, kl, ku, b, piv)
            return x + (1e-6 if len(calls) == 1 else 0.0), info
        monkeypatch.setattr(scipy.linalg.lapack, "zgbtrs", perturbed_first)
        got = block_norm_oracle(H, z, [0, 1, 2], [30, 31])
        assert calls == [(40, 2), (40, 2)]  # one solve, one refinement
        assert got == pytest.approx(ref, rel=1e-9)

    def test_solve_error_after_refinement(self, monkeypatch):
        monkeypatch.setattr(validation, "_ORACLE_RESID", 0.0)
        with pytest.raises(SolveError, match="after refinement") as exc:
            block_norm_oracle(random_hermitian(14, 30), 0.2 + 1e-3j,
                              [0, 1], [20, 21])
        assert exc.value.achieved > 0.0

    def test_adjoint_symmetry(self):
        # R(z)^H = R(conj z) for Hermitian H, so block (X, Y) at z and
        # block (Y, X) at conj z share their singular values
        H = random_hermitian(12, 60, complex_entries=True)
        z = -0.7 + 2e-3j
        X, Y = np.arange(0, 10), np.arange(30, 45)
        got = block_norm_oracle(H, z, X, Y)
        assert got == pytest.approx(
            block_norm_oracle(H, np.conj(z), Y, X), rel=1e-12)

    def test_accepts_hamiltonian(self):
        config = chain_config(lam=0.0, box=12.0)
        H = config.hamiltonian_for_seed(0)
        X = indicator_set(H.grid, center=(2.0,), radius=1.5)
        Y = indicator_set(H.grid, center=(8.0,), radius=2.5)
        got = block_norm_oracle(H, -1.0 + 0.0j, X, Y)
        R = np.linalg.inv(H.dense() + np.eye(H.n))
        rows, cols = X.indices, Y.indices       # the full box: rows are indices
        want = scipy.linalg.svdvals(R[np.ix_(rows, cols)])[0]
        assert got == pytest.approx(want, rel=1e-10)
        # global index arrays select the same block as IndicatorSets
        assert block_norm_oracle(H, -1.0 + 0.0j, X.indices,
                                 Y.indices) == got

    def test_cap_enforced(self, monkeypatch):
        # the cap counts LAPACK band storage, (2 kl + ku + 1) n entries
        A = np.diag(np.arange(1.0, 6.0)) + np.diag([1.0] * 4, 1) \
            + np.diag([1.0] * 4, -1) + np.diag([1.0] * 3, -2)   # kl 2, ku 1
        assert oracle_bandwidths(scipy.sparse.csr_matrix(A)) == (2, 1)
        monkeypatch.setattr(validation, "ORACLE_BAND_CAP", 30)
        block_norm_oracle(A, 1j, [0], [4])
        monkeypatch.setattr(validation, "ORACLE_BAND_CAP", 29)
        with pytest.raises(DomainError, match="above the cap of 29"):
            block_norm_oracle(A, 1j, [0], [4])
        # an operator above the cap is refused before anything is built;
        # at the cap it matches the sparse path
        monkeypatch.setattr(DiscreteHamiltonian, "dense", never_dense)
        grid = GridSpec(d=2, box=(24.0, 24.0), h=1.0)   # 23 x 23 = 529
        H = ModelConfig(grid=grid, background=BackgroundFields(),
                        profile=SingleSiteProfile(r=1.0, u0=1.0),
                        law=disorder_law(1.0, grid)).hamiltonian_for_seed(0)
        monkeypatch.setattr(validation, "ORACLE_BAND_CAP", 70 * 529 - 1)
        with pytest.raises(DomainError, match=(
                r"37030 entries \(n = 529, kl = 23, ku = 23\)")):
            block_norm_oracle(H, 1j, [0], [1])
        monkeypatch.setattr(validation, "ORACLE_BAND_CAP", 70 * 529)
        z = SpectralShift(E=1.0, eps=1e-2)
        X, Y = np.arange(240, 250), np.arange(255, 262)
        assert block_norm_oracle(H, z, X, Y) == pytest.approx(
            ShiftedSolver(H, z).block_norm(X, Y), rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("X, Y", [([], [1]), ([1], [])], ids=["X", "Y"])
    def test_empty_set_of_a_matrix_is_a_domain_error(self, X, Y):
        # a raw matrix refuses an empty set through model.set_rows, as the
        # operator path does
        name = "X" if len(X) == 0 else "Y"
        with pytest.raises(DomainError, match=f"{name} is empty"):
            block_norm_oracle(np.eye(3), 1j, X, Y)

    @pytest.mark.parametrize("X, Y", [([-1], [0]), ([5], [0]), ([0], [-1]),
                                      ([0], [7]), ([0, 3], [1])],
                             ids=["X<0", "X>=n", "Y<0", "Y>=n", "X=n"])
    def test_index_outside_a_matrix_is_a_domain_error(self, X, Y):
        # a negative index must not wrap to the last row, nor a large one
        # surface as a bare IndexError
        name = "X" if min(X) < 0 or max(X) >= 3 else "Y"
        with pytest.raises(DomainError,
                           match=rf"{name} has an index outside \[0, 3\)"):
            block_norm_oracle(np.eye(3), 1j, X, Y)

    def test_rejects_non_square(self):
        with pytest.raises(DomainError, match="square"):
            block_norm_oracle(np.ones((2, 3)), 1j, [0], [0])


def never_dense(self):
    raise AssertionError("the operator was made dense")


def gauge_box(gauge, box=8.0, h=0.5):
    # 15 x 15 box points in a uniform field: complex entries, bandwidth 15
    grid = GridSpec(d=2, box=(box, box), h=h)
    return ModelConfig(grid=grid, background=BackgroundFields(A=gauge),
                       profile=SingleSiteProfile(r=1.0, u0=1.0),
                       law=disorder_law(2.0, grid))


def gauge_chain(box=40.0, h=0.5, lam=2.0, a=0.7):
    grid = GridSpec(d=1, box=(box,), h=h)
    return ModelConfig(grid=grid,
                       background=BackgroundFields(A=ConstantVector((a,))),
                       profile=SingleSiteProfile(r=1.0, u0=1.0),
                       law=disorder_law(lam, grid))


def oracle_cases():
    """(H, X, Y) of every kind of operator the banded oracle takes.

    X and Y are global grid indices of an operator, or rows of a raw
    matrix.
    """
    def chain_sets(H):
        return (H, indicator_set(H.grid, (10.0,), 2.0).indices,
                indicator_set(H.grid, (24.0,), 3.0).indices)
    cases = {f"chain-{seed}": chain_sets(
        chain_config(lam=lam, box=40.0, h=0.5).hamiltonian_for_seed(seed))
        for seed, lam in ((1, 1.0), (2, 2.5), (3, 4.0))}
    cases["gauge-chain"] = chain_sets(gauge_chain().hamiltonian_for_seed(4))
    H = chain_config(lam=2.0, box=40.0, h=0.5).hamiltonian_for_seed(5)
    # a Dirichlet hole just past Y: a gap the bands carry as zeros
    cases["restricted"] = chain_sets(restrict_dirichlet(
        H, np.setdiff1d(np.arange(H.n), np.arange(56, 60))))
    # the smallest grid has 3 points, so a Dirichlet restriction makes less
    H = chain_config(lam=2.0, box=4.0).hamiltonian_for_seed(6)
    for n in (1, 2):
        cases[f"{n}-point"] = (restrict_dirichlet(H, np.arange(n)), [0],
                               [n - 1])
    cases["full-band-raw"] = (random_hermitian(15, 30, complex_entries=True),
                              [0, 1, 2], [20, 27])
    # a 2d Landau box with a Dirichlet hole between X and Y
    H = gauge_box(LandauGauge(0.2)).hamiltonian_for_seed(5)
    wall = indicator_set(H.grid, (4.0, 4.0), 1.2).indices
    H = restrict_dirichlet(H, np.setdiff1d(np.arange(H.n), wall))
    cases["landau-hole"] = (
        H, indicator_set(H.grid, (2.5, 2.5), 1.5).indices,
        indicator_set(H.grid, (5.5, 5.0), 1.5).indices)
    return cases


CASES = oracle_cases()
SHIFTS = {
    "inside-1e-6": SpectralShift(E=1.0, eps=1e-6),
    "inside-1e-3": SpectralShift(E=3.0, eps=1e-3),
    "inside-1": SpectralShift(E=1.0, eps=1.0),
    "below": SpectralShift(E=-2.0, eps=1e-2),
    "above": SpectralShift(E=40.0, eps=1e-4),
    "real": -1.0 + 0.0j,
}


def plane_gauge_box():
    # the 95 x 95 Landau box of the plane-gauge benchmark: kl = ku = 95
    grid = GridSpec(d=2, box=(24.0, 24.0), h=0.25)
    return ModelConfig(grid=grid,
                       background=BackgroundFields(A=LandauGauge(0.2)),
                       profile=SingleSiteProfile(r=1.0, u0=8.0,
                                                 shape="cosine-bump"),
                       law=disorder_law(50.0, grid))


class TestBandedOracle:
    @pytest.mark.parametrize("shift", list(SHIFTS))
    @pytest.mark.parametrize("op", list(CASES))
    def test_matches_dense_path(self, op, shift):
        # against the X x Y block of a dense inverse, no oracle code shared
        (H, X, Y), z = CASES[op], SHIFTS[shift]
        got = block_norm_oracle(H, z, X, Y)
        if isinstance(H, DiscreteHamiltonian):
            # rows by np.isin, not by the set_rows rule under test
            A = H.dense()
            rows = np.flatnonzero(np.isin(H.mask, X))
            cols = np.flatnonzero(np.isin(H.mask, Y))
        else:
            A, rows, cols = H, X, Y
        z = z.z if isinstance(z, SpectralShift) else z
        R = np.linalg.inv(A - z * np.eye(len(A)))
        want = scipy.linalg.svdvals(R[np.ix_(rows, cols)])[0]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_never_made_dense(self, monkeypatch):
        monkeypatch.setattr(DiscreteHamiltonian, "dense", never_dense)
        for H in [H for H, _, _ in CASES.values()
                  if isinstance(H, DiscreteHamiltonian)] + [
                gauge_chain(box=600.0, h=1.0).hamiltonian_for_seed(0)]:
            block_norm_oracle(H, SpectralShift(E=1.0, eps=1e-3),
                              H.mask[:3], H.mask[-3:])

    def test_unconjugated_subdiagonal_fails_the_residual(self, monkeypatch):
        # the defect comes from H's stored entries, so factors of a wrong
        # band storage (its sub-diagonal left unconjugated) cannot refine
        # to the residual bound
        H = CASES["gauge-chain"][0]
        X = indicator_set(H.grid, center=(10.0,), radius=1.5)
        Y = indicator_set(H.grid, center=(30.0,), radius=1.5)
        z = SpectralShift(E=1.0, eps=1e-2)
        block_norm_oracle(H, z, X, Y)
        assert oracle_bandwidths(H.entries) == (1, 1)
        gbtrf = scipy.linalg.lapack.zgbtrf

        def corrupted(ab, kl, ku, **kw):
            ab[kl + ku + 1] = np.conj(ab[kl + ku + 1])
            return gbtrf(ab, kl, ku, **kw)
        monkeypatch.setattr(scipy.linalg.lapack, "zgbtrf", corrupted)
        with pytest.raises(SolveError, match="after refinement"):
            block_norm_oracle(H, z, X, Y)

    def test_exactly_singular_shift_is_a_solve_error(self):
        # the free 3-point chain has the eigenvalue 2 = 2 - 2 cos(pi / 2)
        H = chain_config(lam=0.0, box=4.0).hamiltonian_for_seed(0)
        with pytest.raises(SolveError, match="singular"):
            block_norm_oracle(H, 2.0 + 0.0j, [0], [2])

    def test_plane_gauge_box_matches_the_sparse_path(self):
        # 9,025 points with kl = ku = 95: 2.6M band entries
        H = plane_gauge_box().hamiltonian_for_seed(1)
        assert H.n == 9025 and oracle_bandwidths(H.entries) == (95, 95)
        X = indicator_set(H.grid, (6.0, 12.0), 1.0)
        Y = indicator_set(H.grid, (16.0, 12.0), 1.0)
        for eps in (0.1, 0.01):
            z = SpectralShift(E=8.0, eps=eps)
            got = block_norm_oracle(H, z, X, Y)
            assert 0.0 < got < 1e-30
            assert got == pytest.approx(ShiftedSolver(H, z).block_norm(X, Y),
                                        rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# weak level-set bench
# ---------------------------------------------------------------------------

class TestWeakL1:
    def test_zero_operator_degenerate(self):
        A = DissipativeOperator(X=np.eye(3), Y=np.eye(3))
        rep = weak_l1_levelset_measure(A, HSOperator(T=np.zeros((3, 3))),
                                       t_grid=[0.1, 1.0, 10.0])
        assert all(m == 0.0 for m in rep.measures)
        assert rep.degenerate
        assert rep.slope is None
        assert rep.c_fit is None

    def test_scalar_closed_form(self):
        # ||T (eta + A)^{-1} T||_HS = t0^2 / |eta + x + iy|, so the level
        # set {.. > t} is an interval of length 2 sqrt((t0^2/t)^2 - y^2)
        x, y, t0 = 0.7, 0.3, 1.3
        A = DissipativeOperator(X=np.array([[x]]), Y=np.array([[y]]))
        T = HSOperator(T=np.array([[t0]]))
        ts = np.array([0.5, 1.0, 2.0, 4.0, 5.0, 7.0])
        rep = weak_l1_levelset_measure(A, T, t_grid=ts, eta_range=(-40, 40))
        for t, m in zip(ts, rep.measures):
            exact = 2.0 * np.sqrt(max(0.0, (t0 ** 2 / t) ** 2 - y ** 2))
            assert abs(m - exact) <= 1e-12 * 80.0
        assert rep.delta_used == 0.0
        assert rep.delta_sensitivity == 0.0

    def test_measures_nonincreasing(self):
        rng = np.random.default_rng(31)
        A = random_dissipative(rng, 5, y_scale=0.1)
        T = HSOperator(T=rng.standard_normal((5, 5)))
        rep = weak_l1_levelset_measure(A, T,
                                       t_grid=np.geomspace(1e-2, 1e3, 40))
        m = np.asarray(rep.measures)
        assert np.all(np.diff(m) <= 0.0)

    def test_single_constant_bounds_all_levels(self):
        # measure(t) * t <= c_fit * ||T||_HS^2 with one constant per sweep
        rng = np.random.default_rng(32)
        A = random_dissipative(rng, 5, y_scale=0.1)
        T = HSOperator(T=rng.standard_normal((5, 5)))
        ts = np.geomspace(1e-2, 1e3, 40)
        rep = weak_l1_levelset_measure(A, T, t_grid=ts)
        m = np.asarray(rep.measures)
        assert rep.c_fit is not None and np.isfinite(rep.c_fit)
        assert np.all(m * ts <= rep.c_fit * rep.hs_norm ** 2 + 1e-12)

    def test_random_slope_near_reciprocal(self):
        # with a self-adjoint A the sandwich has real poles, and the measure
        # tail falls off like 1/t; strictly positive Y caps the function and
        # steepens the top decade, so the kernel case is the honest bench
        rng = np.random.default_rng(33)
        B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        A = DissipativeOperator(X=(B + B.conj().T) / 2.0, Y=np.zeros((5, 5)))
        T = HSOperator(T=rng.standard_normal((5, 5)))
        rep = weak_l1_levelset_measure(A, T, t_grid=np.geomspace(1.0, 1e3, 40))
        assert not rep.degenerate
        assert rep.delta_used == 1e-8
        assert -1.2 <= rep.slope <= -0.8

    def test_kernel_triggers_regularization(self):
        A = DissipativeOperator(X=np.diag([0.0, 1.0]), Y=np.diag([1.0, 0.0]))
        T = HSOperator(T=np.eye(2))
        rep = weak_l1_levelset_measure(A, T, t_grid=np.geomspace(0.1, 50, 25),
                                       eta_range=(-10, 10))
        assert rep.delta_used == 1e-8
        assert np.isfinite(rep.delta_sensitivity)
        assert all(np.isfinite(m) for m in rep.measures)

    def test_all_levels_saturated_is_degenerate(self):
        # a huge T over a tiny eta window keeps every level set full
        A = DissipativeOperator(X=np.array([[0.0]]), Y=np.array([[1e-3]]))
        T = HSOperator(T=np.array([[100.0]]))
        rep = weak_l1_levelset_measure(A, T, t_grid=[1e-6, 1e-5],
                                       eta_range=(-0.5, 0.5))
        assert rep.degenerate
        assert rep.slope is None
        assert all(m > 0.0 for m in rep.measures)

    def test_input_validation(self):
        A = DissipativeOperator(X=np.eye(2), Y=np.eye(2))
        T = HSOperator(T=np.eye(2))
        with pytest.raises(DomainError, match="DissipativeOperator"):
            weak_l1_levelset_measure(np.eye(2), T, t_grid=[1.0])
        with pytest.raises(DomainError, match="HSOperator"):
            weak_l1_levelset_measure(A, np.eye(2), t_grid=[1.0])
        with pytest.raises(DomainError, match="positive"):
            weak_l1_levelset_measure(A, T, t_grid=[0.0, 1.0])
        with pytest.raises(DomainError, match="interval"):
            weak_l1_levelset_measure(A, T, t_grid=[1.0], eta_range=(2.0, 2.0))
        with pytest.raises(DomainError, match="dimension"):
            weak_l1_levelset_measure(A, HSOperator(T=np.eye(3)), t_grid=[1.0])
        with pytest.raises(DomainError, match="too small"):
            weak_l1_levelset_measure(A, T, t_grid=[1e-200, 1.0])


def _validate_bench(master_seed, index):
    # bench `index` of the 20 that the validate subcommand draws
    rng = np.random.default_rng(master_seed)
    for _ in range(index + 1):
        B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        A = DissipativeOperator(X=(B + B.conj().T) / 2.0, Y=np.zeros((5, 5)))
        T = HSOperator(T=rng.standard_normal((5, 5)))
    return A, T


@pytest.mark.parametrize("seed", [31, 32])
def test_non_normal_measures_match_direct_riemann_sums(seed):
    # an eigenvector path that summed its Gram matrix in transposed order
    # was off by percent here (seed 31, eta = 0.3: ||M||^2 399.29 against
    # 367.07 by direct solve); N / |det|^2 must equal the direct value
    rng = np.random.default_rng(seed)
    A = random_dissipative(rng, 5, y_scale=0.1)
    T = HSOperator(T=rng.standard_normal((5, 5)))
    N, det = _sandwich_polynomials(A.A, T.T)
    direct = np.linalg.norm(T.T @ np.linalg.solve(0.3 * np.eye(5) + A.A, T.T))
    assert np.sqrt(np.polyval(N, 0.3)) / abs(np.polyval(det, 0.3)) \
        == pytest.approx(direct, rel=1e-12)
    ts = np.geomspace(1e-2, 1e3, 40)
    rep = weak_l1_levelset_measure(A, T, t_grid=ts)
    assert rep.delta_used == 0.0
    ref, crossings, step = riemann_measures(A.A, T.T, ts, *rep.eta_range,
                                            200_000)
    assert np.all(np.abs(np.asarray(rep.measures) - ref)
                  <= (crossings + 1) * step)


@pytest.mark.parametrize("master_seed, index",
                         [(4, 18), (5, 7), (5, 13), (7, 8), (8, 14)])
def test_riemann_oracle_converges_to_exact_measure(master_seed, index):
    # validate benches whose eigenvector basis is ill-conditioned enough
    # that an eigensystem path drifts from direct solves
    A, T = _validate_bench(master_seed, index)
    ts = np.geomspace(1.0, 1e3, 40)
    rep = weak_l1_levelset_measure(A, T, t_grid=ts)
    exact = np.asarray(rep.measures)
    A_eff = A.A + 1j * rep.delta_used * np.eye(A.n)
    for points in (10_000, 100_000, 1_000_000):
        ref, crossings, step = riemann_measures(A_eff, T.T, ts,
                                                *rep.eta_range, points)
        assert np.all(np.abs(exact - ref) <= (crossings + 1) * step), points


@pytest.mark.parametrize("X", [np.diag([1.0, 1.0, 1.0, 2.0]),
                               np.diag([1.0, 1.0, 2.0, 3.0]),
                               np.zeros((3, 3))],
                         ids=["triple", "double", "zero"])
def test_repeated_eigenvalues_stay_exact(X):
    # a repeated eigenvalue gives N and det a common factor; its cluster
    # of polynomial roots must not move the level-set endpoints
    n = len(X)
    A = DissipativeOperator(X=X, Y=np.zeros((n, n)))
    T = HSOperator(T=np.ones((n, n)) + np.eye(n))
    ts = np.geomspace(1e-2, 1e3, 30)
    rep = weak_l1_levelset_measure(A, T, t_grid=ts, eta_range=(-5.0, 5.0))
    A_eff = A.A + 1j * rep.delta_used * np.eye(n)
    ref, crossings, step = riemann_measures(A_eff, T.T, ts, -5.0, 5.0,
                                            200_000)
    assert np.all(np.abs(np.asarray(rep.measures) - ref)
                  <= (crossings + 1) * step)


def _half_integer_matrix(draw, n):
    entries = draw(st.lists(st.integers(-4, 4), min_size=n * n,
                            max_size=n * n))
    return 0.5 * np.array(entries, dtype=float).reshape(n, n)


@st.composite
def sandwich_pairs(draw):
    # half-integer entries make singular, repeated and zero cases common
    n = draw(st.integers(1, 4))
    B = _half_integer_matrix(draw, n) + 1j * _half_integer_matrix(draw, n)
    C = _half_integer_matrix(draw, n)
    y_scale = draw(st.sampled_from([0.0, 0.1, 1.0]))
    A = DissipativeOperator(X=(B + B.conj().T) / 2.0, Y=y_scale * C @ C.T)
    T = _half_integer_matrix(draw, n) + 1j * _half_integer_matrix(draw, n)
    return A, HSOperator(T=T)


@settings(max_examples=60, deadline=None)
@given(pair=sandwich_pairs())
def test_exact_measures_are_monotone_and_weak_l1(pair):
    A, T = pair
    ts = np.geomspace(1e-2, 1e3, 16)
    rep = weak_l1_levelset_measure(A, T, t_grid=ts)   # never raises
    m = np.asarray(rep.measures)
    lo, hi = rep.eta_range
    assert np.all(np.diff(m) <= 0.0)
    assert np.all(m >= 0.0) and np.all(m <= (hi - lo) * (1.0 + 1e-12))
    if rep.c_fit is not None:
        assert np.all(m * ts <= rep.c_fit * rep.hs_norm ** 2 * (1.0 + 1e-12))


def test_corrupted_numerator_raises(monkeypatch):
    # the polynomials are checked against direct solves, never trusted
    exact = validation._sandwich_polynomials

    def corrupted(A_eff, T):
        N, det = exact(A_eff, T)
        return N * (1.0 + 1e-4), det
    monkeypatch.setattr(validation, "_sandwich_polynomials", corrupted)
    A, T = _validate_bench(4, 0)
    with pytest.raises(NumericalError, match=r"N / \|det\|\^2"):
        weak_l1_levelset_measure(A, T, t_grid=np.geomspace(1.0, 1e3, 40))


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------

class TestOracleCompare:
    def test_free_chain_passes(self):
        config = chain_config(lam=0.0, box=24.0)
        H = config.hamiltonian_for_seed(0)
        X = indicator_set(H.grid, center=(6.0,), radius=2.0)
        Y = indicator_set(H.grid, center=(18.0,), radius=2.0)
        rep = oracle_compare(H, SpectralShift(E=2.0, eps=1e-2), X, Y)
        assert isinstance(rep, OracleComparison)
        assert rep.passed, rep.payload()
        assert rep.rel_diff <= 1e-8

    def test_disordered_chain_passes_from_factory(self):
        config = chain_config(lam=3.0, box=30.0)
        grid = config.grid
        X = indicator_set(grid, center=(7.0,), radius=2.0)
        Y = indicator_set(grid, center=(23.0,), radius=2.0)
        rep = oracle_compare(config, SpectralShift(E=1.5, eps=1e-3), X, Y,
                             seed=44)
        assert rep.passed, rep.payload()

    @pytest.mark.parametrize("seed, gauge", [
        (9, None), (3, None), (17, None), (5, LandauGauge(0.2)),
    ], ids=["chain-9", "chain-3", "chain-17", "landau-2d"])
    def test_matches_dense_block_oracle(self, seed, gauge):
        if gauge is None:
            config = chain_config(lam=2.0, box=16.0)
            cx, cy = (4.0,), (12.0,)
        else:
            config = gauge_box(gauge)
            cx, cy = (2.5, 2.5), (5.5, 5.0)
        H = config.hamiltonian_for_seed(seed)
        assert np.iscomplexobj(H.entries.data) == (gauge is not None)
        X = indicator_set(H.grid, center=cx, radius=1.5)
        Y = indicator_set(H.grid, center=cy, radius=1.5)
        z = SpectralShift(E=0.8, eps=1e-2)
        dense = block_norm_oracle(H, z, X, Y)
        R = np.linalg.inv(H.dense() - z.z * np.eye(H.n))
        rows = [int(np.flatnonzero(H.mask == i)[0]) for i in X.indices]
        cols = [int(np.flatnonzero(H.mask == i)[0]) for i in Y.indices]
        ref = scipy.linalg.svdvals(R[np.ix_(rows, cols)])[0]
        assert dense == pytest.approx(ref, rel=1e-9)

    def test_negative_control_flags_loose_solver(self, monkeypatch):
        # a deliberately sloppy solve must be caught, not hidden: the LU is
        # of A + 1e-4 I, so refinement stalls inside a loosened 1e-3 check
        # and the block norm it reports is wrong by about 5e-4
        grid = GridSpec(d=2, box=(20.0, 20.0), h=1.0)
        config = ModelConfig(grid=grid, background=BackgroundFields(),
                             profile=SingleSiteProfile(r=1.0, u0=1.0),
                             law=disorder_law(3.0, grid))
        H = config.hamiltonian_for_seed(7)
        X = indicator_set(grid, center=(5.0, 5.0), radius=2.0)
        Y = indicator_set(grid, center=(15.0, 15.0), radius=2.0)
        z = SpectralShift(E=1.5, eps=1e-3)
        assert oracle_compare(H, z, X, Y).passed
        splu = scipy.sparse.linalg.splu

        def perturbed(A):
            return splu(A + 1e-4 * scipy.sparse.identity(A.shape[0], format="csc"))
        monkeypatch.setattr(scipy.sparse.linalg, "splu", perturbed)
        monkeypatch.setattr(resolvent, "SOLVE_TOL", 1e-3)
        rep = oracle_compare(H, z, X, Y)
        assert not rep.passed
        assert rep.rel_diff > 1e-4

    def test_integer_index_sets(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((12, 12))
        H = (B + B.T) / 2.0
        R = np.linalg.inv(H - 0.2j * np.eye(12))
        got = block_norm_oracle(H, 0.2j, [0, 1, 2], [9, 10, 11])
        ref = scipy.linalg.svdvals(R[np.ix_([0, 1, 2], [9, 10, 11])])[0]
        assert got == pytest.approx(ref, rel=1e-10)
