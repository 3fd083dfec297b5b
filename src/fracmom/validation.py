"""Independent oracles and the weak level-set bound bench.

Everything here deliberately avoids the sparse solver: the block-norm
oracle solves with LAPACK's banded LU for every operator, refines its
columns to an explicit residual checked against the operator's stored
entries, and takes block norms from full SVDs.  Agreement between this
path and the production one is what the oracle sweeps certify.  The
level-set measures are exact: the squared sandwich norm is a ratio of
two polynomials, and each level set is cut out by the real roots of one
polynomial per level.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DomainError, NumericalError, SolveError
from .model import DiscreteHamiltonian, bandwidths, set_rows
from .resolvent import (
    ShiftedSolver,
    as_z,
    check_block_size,
    normal_block_norm,
)

# LAPACK band storage of the oracle's LU, (2 kl + ku + 1) n complex
# entries, 128 MiB: a 95 x 95 plane needs 2.6M, a 19**3 cube 7.4M, and a
# long plane numbered (C order) along its long side far more
ORACLE_BAND_CAP = 2 ** 23

_HERM_TOL = 1e-10
_PSD_TOL = 1e-12
_KERNEL_TOL = 1e-12
_DELTA = 1e-8             # i delta added to A when A has a kernel
_ORACLE_RESID = 1e-10     # max-entry residual of the refined column solve
_ORACLE_AGREEMENT = 1e-8  # sparse vs oracle block norm, relative
_EXACT_RTOL = 1e-6    # level-set polynomials vs direct solves, relative
_POLISH_TOL = 1e-10   # |log ||M||^2 - log t^2| at a polished endpoint
_POLISH_STEPS = 60    # bracketed Newton steps per endpoint, at most


# ---------------------------------------------------------------------------
# operator containers
# ---------------------------------------------------------------------------

def _require_hermitian(M, name):
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"{name} must be a square matrix")
    scale = max(np.abs(M).max(), 1.0)
    if np.abs(M - M.conj().T).max() > _HERM_TOL * scale:
        raise DomainError(f"{name} is not Hermitian")
    return M


@dataclass(frozen=True, eq=False)
class DissipativeOperator:
    """A = X + iY with X Hermitian and Y positive semidefinite."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = _require_hermitian(self.X, "X")
        Y = _require_hermitian(self.Y, "Y")
        if X.shape != Y.shape:
            raise DomainError("X and Y must share a shape")
        eigs = np.linalg.eigvalsh(Y)
        if eigs[0] < -_PSD_TOL:
            raise DomainError(
                f"Y has eigenvalue {eigs[0]:.3e}; not positive semidefinite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "_y_min", float(eigs[0]))

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def A(self):
        return self.X + 1j * self.Y

    @property
    def has_kernel(self):
        # dissipative part not strictly positive: the boundary value needs
        # an explicit regularization
        return self._y_min <= _KERNEL_TOL

    def norm(self):
        return float(np.linalg.norm(self.A, 2))


@dataclass(frozen=True, eq=False)
class HSOperator:
    """Matrix with its Hilbert-Schmidt (Frobenius) norm attached."""

    T: np.ndarray
    hs_norm: float = field(init=False)

    def __post_init__(self):
        T = np.asarray(self.T, dtype=np.complex128)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise DomainError("T must be a square matrix")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "hs_norm", float(np.linalg.norm(T, "fro")))

    @property
    def n(self):
        return self.T.shape[0]


# ---------------------------------------------------------------------------
# block-norm oracle
# ---------------------------------------------------------------------------

def oracle_bandwidths(entries):
    """(kl, ku) of a CSR pattern, refused above ORACLE_BAND_CAP entries."""
    n = entries.shape[0]
    kl, ku = bandwidths(entries)
    size = (2 * kl + ku + 1) * n
    if size > ORACLE_BAND_CAP:
        raise DomainError(f"oracle band storage of {size} entries (n = {n}, "
                          f"kl = {kl}, ku = {ku}) is above the cap of "
                          f"{ORACLE_BAND_CAP}")
    return kl, ku


def block_norm_oracle(H, shift, X, Y):
    """Largest singular value of the X x Y resolvent block, LAPACK path.

    Solves (H - z) C = chi_Y on the |Y| columns, then refines C
    (C <- C + (H - z)^{-1} D with D = chi_Y - (H - z) C) until the
    max-entry residual of D is below _ORACLE_RESID, and returns the top
    singular value of C's X rows.  H - z, a raw matrix through its CSR
    form included, is factored once by LAPACK's banded LU (zgbtrf) on
    the bandwidths of its stored pattern, and the factors serve every
    solve (zgbtrs).  D is formed from the stored entries of H, not from
    the band storage, so a wrong band fill fails the residual check.
    The solve is LAPACK, a code path the sparse SuperLU solver it
    certifies does not share.  X and Y become rows by model.set_rows (a
    raw matrix's domain is all its rows), and a norm below the smallest
    normal float is refused, as in ShiftedSolver.block_norm.
    """
    z = as_z(shift)
    if isinstance(H, DiscreteHamiltonian):
        A, n, mask, npoints = H.entries, H.n, H.mask, H.grid.npoints
    else:
        H = np.asarray(H)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise DomainError("H must be a square matrix")
        A, n = scipy.sparse.csr_matrix(H), H.shape[0]
        mask, npoints = np.arange(n), n
    rows = set_rows(X, mask, npoints, "X")
    cols = set_rows(Y, mask, npoints, "Y")
    check_block_size(n, cols.size)
    kl, ku = oracle_bandwidths(A)
    # (i, j) at row kl + ku + i - j of column j; zgbtrf fills the top kl rows
    ab = np.zeros((2 * kl + ku + 1, n), dtype=np.complex128, order="F")
    ab[kl + ku + np.repeat(np.arange(n), np.diff(A.indptr)) - A.indices,
       A.indices] = A.data
    ab[kl + ku] -= z
    lu, piv, info = scipy.linalg.lapack.zgbtrf(ab, kl, ku, overwrite_ab=1)
    if info:
        raise SolveError(f"oracle: H - z is singular (zero pivot {info})")

    def solve(B):
        return scipy.linalg.lapack.zgbtrs(lu, kl, ku, B, piv)[0]
    rhs = np.zeros((n, cols.size), dtype=np.complex128)
    rhs[cols, np.arange(cols.size)] = 1.0
    C = solve(rhs)
    for _ in range(4):
        defect = rhs - (A @ C - z * C)
        worst = np.abs(defect).max()
        if worst <= _ORACLE_RESID:
            norm = float(scipy.linalg.svdvals(C[rows])[0])
            return normal_block_norm(norm, A, rows, cols, X, Y, z)
        C = C + solve(defect)
    raise SolveError(f"oracle residual {worst:.3e} above {_ORACLE_RESID:.1e} "
                     "after refinement", achieved=float(worst))


# ---------------------------------------------------------------------------
# weak level-set bench
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakL1Report:
    """Level-set measures of eta -> ||T (eta + A + i delta)^{-1} T||_HS."""

    t_grid: tuple
    measures: tuple
    hs_norm: float
    slope: float | None
    degenerate: bool
    c_fit: float | None
    delta_used: float
    delta_sensitivity: float
    eta_range: tuple

    def payload(self):
        return {
            "t_grid": list(self.t_grid), "measures": list(self.measures),
            "hs_norm": self.hs_norm, "slope": self.slope,
            "degenerate": self.degenerate, "c_fit": self.c_fit,
            "delta_used": self.delta_used,
            "delta_sensitivity": self.delta_sensitivity,
            "eta_range": list(self.eta_range),
        }


def _sandwich_polynomials(A_eff, T):
    """N, det with ||T (eta + A_eff)^{-1} T||_HS^2 = N(eta) / |det(eta)|^2.

    det(eta + A_eff) comes from the eigenvalues and the adjugate from
    Cayley-Hamilton, adj(eta + A_eff) = sum_m eta^(n-1-m) E_m with E_0 = I
    and E_m = det_m I - A_eff E_(m-1): no eigenvector basis enters.
    """
    n = A_eff.shape[0]
    det = np.poly(-A_eff)   # highest degree first, as N
    E = [np.eye(n)]
    for m in range(1, n):
        E.append(det[m] * np.eye(n) - A_eff @ E[-1])
    Q = (T @ np.array(E) @ T).reshape(n, n * n)
    G = Q @ Q.conj().T      # N's degree-k coefficient sums G over a + b = k
    N = np.array([np.trace(G[::-1], k) for k in range(1 - n, n)]).real
    return N, det


def _sandwich_sq(A_eff, T, etas, slope=False):
    """||T (eta + A_eff)^{-1} T||_HS^2 by dense solves, and its eta-slope."""
    P = etas[:, None, None] * np.eye(A_eff.shape[0]) + A_eff
    K = np.linalg.solve(P, T)
    M = T @ K
    sq = np.einsum("eij,eij->e", M.conj(), M).real
    if not slope:
        return sq
    dM = -T @ np.linalg.solve(P, K)   # d/deta (eta + A)^{-1} = -(eta + A)^{-2}
    return sq, 2.0 * np.einsum("eij,eij->e", M.conj(), dM).real


def _require_close(got, want, size, what):
    if not np.all(np.abs(got - want) <= _EXACT_RTOL * size):
        worst = float(np.nanmax(np.abs(got - want) / size))
        raise NumericalError(f"{what}: relative mismatch {worst:.3e} above "
                             f"{_EXACT_RTOL:.0e}")


def _polish(A_eff, T, t2, x, a, b, a_inside):
    """Newton on log(||M||^2 / t^2) from each endpoint x within [a, b].

    The bracket holds one crossing, with a inside the level set iff
    a_inside; a step that would leave it bisects it instead.
    """
    for _ in range(_POLISH_STEPS):
        sq, dsq = _sandwich_sq(A_eff, T, x, slope=True)
        h = np.log(sq / t2)
        live = ~(np.abs(h) <= _POLISH_TOL)
        if not live.any():
            break
        left = live & ((h > 0.0) == a_inside)
        a, b = np.where(left, x, a), np.where(live & ~left, x, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - h * sq / dsq
        step = np.where((step > a) & (step < b), step, 0.5 * (a + b))
        x = np.where(live, step, x)
    return x


def _level_set_measures(A_eff, T, t_grid, lo, hi):
    """|{eta in [lo, hi] : ||T (eta + A_eff)^{-1} T||_HS > t}| for every t."""
    n = A_eff.shape[0]
    N, det = _sandwich_polynomials(A_eff, T)
    # an even count keeps a node off the middle of the range: for the
    # default symmetric range that is eta = 0, a pole when X is singular
    # and Y = 0, where neither evaluation is good to _EXACT_RTOL
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(
        np.pi * (np.arange(2 * n + 2) + 0.5) / (2 * n + 2))
    direct = np.sqrt(_sandwich_sq(A_eff, T, nodes))
    poly = np.sqrt(np.maximum(np.polyval(N, nodes), 0.0)) \
        / np.abs(np.polyval(det, nodes))
    size = np.linalg.norm(T) ** 2 / (abs(nodes) + np.linalg.norm(A_eff, 2))
    _require_close(poly, direct, np.maximum(direct, size),
                   "N / |det|^2 against direct solves")
    # (N - t^2 |det|^2) / -t^2 is monic of degree 2n, one companion per t.
    # Its real roots cut [lo, hi] into pieces wholly in or out of the
    # level set; a complex root only adds a cut inside a piece.
    D = np.convolve(det, det.conj()).real
    C = np.eye(2 * n, k=-1) + np.zeros((t_grid.size, 1, 1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        C[:, 0] = np.pad(N, (1, 0)) / t_grid[:, None] ** 2 - D[1:]
    if not np.all(np.isfinite(C)):
        raise DomainError("t_grid reaches a level too small for the "
                          "level-set polynomial in double precision")
    cuts = np.sort(np.clip(np.linalg.eigvals(C).real, lo, hi), axis=1)
    cuts = np.pad(cuts, ((0, 0), (1, 1)), constant_values=(lo, hi))
    mids = 0.5 * (cuts[:, 1:] + cuts[:, :-1])
    inside = (_sandwich_sq(A_eff, T, mids.ravel()).reshape(mids.shape)
              > t_grid[:, None] ** 2)
    # a repeated eigenvalue gives N and det a common factor whose cluster
    # of roots blurs the real roots nearby, so every endpoint is polished
    ti, ci = np.nonzero(inside[:, 1:] != inside[:, :-1])
    ends = _polish(A_eff, T, t_grid[ti] ** 2, cuts[ti, ci + 1],
                   mids[ti, ci], mids[ti, ci + 1], inside[ti, ci])
    _require_close(np.sqrt(_sandwich_sq(A_eff, T, ends)), t_grid[ti],
                   t_grid[ti], "||M|| at a level-set endpoint against t")
    cuts[ti, ci + 1] = ends
    edge = np.diff(np.pad(inside, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    return (np.where(edge < 0, cuts, 0.0)
            - np.where(edge > 0, cuts, 0.0)).sum(axis=1)


def weak_l1_levelset_measure(A, T, t_grid, eta_range=None):
    """Exact level-set measures of the dissipative-sandwich map.

    For each t, the Lebesgue measure of {eta in eta_range :
    ||T (eta + A + i delta)^{-1} T||_HS > t}, cut out by the real roots of
    N - t^2 |det|^2.  It raises NumericalError, never falls back, when
    N / |det|^2 strays from direct solves at 2n + 2 Chebyshev nodes or the
    map from t at an endpoint by more than _EXACT_RTOL.  delta = _DELTA is
    applied only when the dissipative part has a kernel; its effect is
    reported by recomputing at delta/10.  The log-log slope is fitted over
    the top decade of t values whose measures are nonzero and below the
    range saturation.
    """
    if not isinstance(A, DissipativeOperator):
        raise DomainError("A must be a DissipativeOperator")
    if not isinstance(T, HSOperator):
        raise DomainError("T must be an HSOperator")
    if A.n != T.n:
        raise DomainError("A and T must share a dimension")
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid.size == 0 or t_grid[0] <= 0.0:
        raise DomainError("t_grid must be positive")
    if eta_range is None:
        w = 20.0 * max(A.norm(), 1e-6)
        eta_range = (-w, w)
    lo, hi = float(eta_range[0]), float(eta_range[1])
    if not lo < hi:
        raise DomainError("eta_range must be a nonempty interval")

    delta_used = _DELTA if A.has_kernel else 0.0
    span = hi - lo
    eye = np.eye(A.n)

    def sweep(d):
        return _level_set_measures(A.A + 1j * d * eye, T.T, t_grid, lo, hi)

    measures = sweep(delta_used)
    if delta_used > 0.0:
        finer = sweep(delta_used / 10.0)
        active = measures > 0.0
        if np.any(active):
            sens = float(np.max(np.abs(finer[active] - measures[active])
                                / measures[active]))
        else:
            sens = float(np.abs(finer).max())
    else:
        sens = 0.0

    usable = (measures > 0.0) & (measures < span)
    slope = None
    c_fit = None
    if np.any(measures > 0.0):
        c_fit = float(np.max(measures * t_grid) / T.hs_norm ** 2) \
            if T.hs_norm > 0.0 else None
    degenerate = not np.any(usable)
    if not degenerate:
        t_hi = t_grid[usable].max()
        decade = usable & (t_grid >= t_hi / 10.0) & (t_grid <= t_hi)
        if np.count_nonzero(decade) >= 2:
            slope = float(np.polyfit(np.log10(t_grid[decade]),
                                     np.log10(measures[decade]), 1)[0])
        else:
            degenerate = True
    return WeakL1Report(
        t_grid=tuple(t_grid), measures=tuple(measures), hs_norm=T.hs_norm,
        slope=slope, degenerate=degenerate, c_fit=c_fit,
        delta_used=delta_used, delta_sensitivity=sens,
        eta_range=(lo, hi))


# ---------------------------------------------------------------------------
# sparse-vs-oracle comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleComparison:
    # dense_norm is block_norm_oracle's value (a banded LAPACK LU)
    sparse_norm: float
    dense_norm: float
    rel_diff: float
    tol: float

    @property
    def passed(self):
        return self.rel_diff <= self.tol

    def payload(self):
        return {"sparse_norm": self.sparse_norm, "dense_norm": self.dense_norm,
                "rel_diff": self.rel_diff, "tol": self.tol,
                "passed": self.passed}


def oracle_compare(model, shift, X, Y, seed=0):
    """Sparse-path block norm against block_norm_oracle's LAPACK twin.

    `model` is either an assembled Hamiltonian or a factory with
    hamiltonian_for_seed.  The two norms must agree to _ORACLE_AGREEMENT
    relatively.  A loosened solve contract (resolvent.SOLVE_TOL with a
    perturbed factorization) is the intended negative control: the
    report then flags the mismatch instead of raising.
    """
    if isinstance(model, DiscreteHamiltonian):
        H = model
    else:
        H = model.hamiltonian_for_seed(seed)
    sparse = ShiftedSolver(H, shift).block_norm(X, Y)
    oracle = block_norm_oracle(H, shift, X, Y)
    rel = abs(sparse - oracle) / max(oracle, 1e-300)
    return OracleComparison(sparse_norm=float(sparse), dense_norm=float(oracle),
                            rel_diff=float(rel), tol=_ORACLE_AGREEMENT)
