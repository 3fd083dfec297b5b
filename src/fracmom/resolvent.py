"""Shifted sparse solves and smeared Green-function block norms.

Everything downstream (moment estimates, boundary criteria, correlators)
reduces to norms of blocks chi_X (H - z)^{-1} chi_Y with Im z > 0.  The
solver keeps one factorization per (H, z) and reuses it for every block
and for adjoint solves, so scans over many (X, Y) pairs pay for the
factorization once, and pairs that share X (a decay ladder) share one
adjoint solve as well.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import DomainError, SolveError
from .model import DiscreteHamiltonian, GridSpec, grid_points

# the solve contract: direct LU up to this many points, ILU + LGMRES
# above, and every solve verified to this relative residual per column
DIRECT_SOLVE_CAP = 50_000
SOLVE_TOL = 1e-10


# ---------------------------------------------------------------------------
# spectral shifts and indicator sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralShift:
    """Complex energy z = E + i*eps with eps > 0 strictly.

    The eps = 0 limit is never evaluated directly; it is approached
    through decreasing schedules (see the moments module).
    """

    E: float
    eps: float

    def __post_init__(self):
        if not np.isfinite(self.E):
            raise DomainError("shift energy must be finite")
        if not (self.eps > 0.0 and np.isfinite(self.eps)):
            raise DomainError(f"eps must be > 0, got {self.eps!r}")

    @property
    def z(self):
        return complex(self.E, self.eps)

    def conjugate(self):
        # leaves the SpectralShift domain on purpose: returns a raw complex
        return complex(self.E, -self.eps)


def _as_z(shift):
    # raw complex values are accepted for diagnostics (adjoint symmetry
    # checks need Im z < 0); production paths pass SpectralShift
    if isinstance(shift, SpectralShift):
        return shift.z
    return complex(shift)


@dataclass(frozen=True, eq=False)
class IndicatorSet:
    """Grid points within an open ball (or open annulus) around a center.

    `indices` are flat indices into grid_points(grid), sorted ascending.
    inner_radius = 0 means a plain ball.
    """

    center: tuple
    radius: float
    indices: np.ndarray
    inner_radius: float = 0.0

    def __len__(self):
        return int(self.indices.size)


def indicator_set(grid, center, radius, inner_radius=0.0, mask=None):
    """Open-ball (annulus if inner_radius > 0) indicator on the grid.

    Membership uses strict inequalities on the Euclidean distance.  If
    `mask` is given the result is intersected with it.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (grid.d,):
        raise DomainError(f"center has shape {center.shape}, expected ({grid.d},)")
    if not radius > 0.0:
        raise DomainError("radius must be positive")
    if inner_radius < 0.0 or inner_radius >= radius:
        raise DomainError("need 0 <= inner_radius < radius")
    dist = np.linalg.norm(grid_points(grid) - center, axis=1)
    sel = dist < radius
    if inner_radius > 0.0:
        sel &= dist > inner_radius
    idx = np.flatnonzero(sel).astype(np.int64)
    if mask is not None:
        idx = np.intersect1d(idx, np.asarray(mask, dtype=np.int64))
    center = tuple(center.tolist())
    if idx.size == 0:
        raise DomainError(
            f"indicator around {center} with radius {radius} catches no grid point")
    return IndicatorSet(center=center, radius=float(radius),
                        indices=idx, inner_radius=float(inner_radius))


def boundary_layer_indices(center, L, r, grid, depth=None):
    """Layer of points whose distance to the ball complement is in (r, depth).

    For the ball of radius L around `center` this is the open annulus
    L - depth < |q - center| < L - r.  The depth defaults to 23*r; the
    ball must satisfy L > depth + r or the layer degenerates.

    Hand check: 1d box [0, 30] with h = 1, center 15, L = 15, r = 1,
    depth = 13 selects 2 < |q - 15| < 14, i.e. the grid points
    {2..12} and {18..28} (flat indices {1..11} and {17..27}).
    """
    if depth is None:
        depth = 23.0 * r
    if not (r > 0.0 and depth > r):
        raise DomainError("need 0 < r < depth")
    if not L > depth + r:
        raise DomainError(
            f"ball radius {L} too small for layer depth {depth} with bump radius {r}")
    return indicator_set(grid, center, radius=L - r, inner_radius=L - depth)


def _local_positions(H, sel, name):
    """Sorted positions in H.mask of the set's points inside the domain."""
    if isinstance(sel, IndicatorSet):
        idx = np.asarray(sel.indices, dtype=np.int64)   # sorted and unique
    else:
        idx = np.unique(np.asarray(sel, dtype=np.int64))
    if idx.size == 0:
        raise DomainError(f"{name} is empty")
    pos = np.searchsorted(H.mask, idx)
    pos = pos[H.mask[np.minimum(pos, H.n - 1)] == idx]
    if pos.size == 0:
        raise DomainError(f"{name} has no point inside the operator domain")
    return pos


# ---------------------------------------------------------------------------
# shifted solver
# ---------------------------------------------------------------------------

class ShiftedSolver:
    """Residual-verified solver for (H - z) u = rhs at a fixed shift.

    The factorization is computed once and is immutable afterwards.
    Adjoint solves reuse the same factors (H is Hermitian, so
    (H - z)^H = H - conj z).  DIRECT_SOLVE_CAP and SOLVE_TOL are read
    when the solver is built.  block_norm keeps the adjoint solve on the
    last X it saw, so a solver is not safe to share across threads.
    """

    def __init__(self, H, shift):
        if not isinstance(H, DiscreteHamiltonian):
            raise DomainError("expected a DiscreteHamiltonian")
        self.H = H
        self.z = _as_z(shift)
        self.tol = SOLVE_TOL
        n = H.n
        A = (H.entries - self.z * scipy.sparse.identity(n, format="csr")).tocsc()
        A = A.astype(np.complex128)
        self.method = "direct" if n <= DIRECT_SOLVE_CAP else "iterative"
        self._A = A.tocsr()
        try:
            if self.method == "direct":
                self._fac = scipy.sparse.linalg.splu(A)
            else:
                # factorization quality follows the tolerance so a loose
                # solve is genuinely loose; the residual check below is
                # what actually enforces accuracy
                drop = max(1e-5, self.tol)
                self._fac = scipy.sparse.linalg.spilu(A, drop_tol=drop,
                                                      fill_factor=20)
        except RuntimeError as exc:
            raise SolveError(f"factorization of (H - z) failed: {exc}") from exc
        self._X_rows = None     # positions of the last X and its solve
        self._X_solved = None

    @property
    def n(self):
        return self.H.n

    # -- core solves --------------------------------------------------------

    def _apply(self, u, trans):
        return self._A @ u if trans == "N" else self._A.conj().T @ u

    def _raw_solve(self, rhs, trans):
        if self.method == "direct":
            return self._fac.solve(rhs, trans=trans)
        out = np.empty(rhs.shape, dtype=np.complex128, order="F")
        A = self._A if trans == "N" else self._A.conj().T.tocsr()
        M = scipy.sparse.linalg.LinearOperator(
            A.shape, matvec=lambda v: self._fac.solve(v, trans=trans))
        cols = rhs.reshape(rhs.shape[0], -1)
        res = out.reshape(rhs.shape[0], -1)
        for j in range(cols.shape[1]):
            x, info = scipy.sparse.linalg.lgmres(
                A, cols[:, j], M=M, rtol=0.1 * self.tol, atol=0.0, maxiter=500)
            if info != 0:
                ach = np.linalg.norm(A @ x - cols[:, j])
                raise SolveError("iterative solve did not converge",
                                 achieved=float(ach))
            res[:, j] = x
        return out

    def _verified(self, rhs, trans):
        rhs = np.asarray(rhs, dtype=np.complex128)
        if rhs.shape[0] != self.n:
            raise DomainError(
                f"rhs has leading dimension {rhs.shape[0]}, operator has {self.n}")
        u = self._raw_solve(rhs, trans)
        scale = np.linalg.norm(rhs, axis=0)
        for _ in range(2):
            resid = rhs - self._apply(u, trans)
            # negated <= so nan residuals count as failures
            bad = ~(np.linalg.norm(resid, axis=0) <= self.tol * scale)
            if not np.any(bad):
                return u
            if u.ndim == 1:
                u = u + self._raw_solve(resid, trans)
            else:
                u[:, bad] += self._raw_solve(np.ascontiguousarray(resid[:, bad]),
                                             trans)
        resid = np.linalg.norm(rhs - self._apply(u, trans), axis=0)
        worst = float(np.max(np.divide(resid, scale, out=np.zeros_like(resid),
                                       where=scale > 0)))
        raise SolveError(
            f"residual {worst:.3e} above tolerance {self.tol:.1e} after refinement",
            achieved=worst)

    def solve(self, rhs):
        """u with ||(H - z) u - rhs|| <= tol * ||rhs|| (per column)."""
        return self._verified(rhs, "N")

    def solve_adjoint(self, rhs):
        """u with ||(H - conj z) u - rhs|| <= tol * ||rhs|| (per column)."""
        return self._verified(rhs, "H")

    # -- block norms ---------------------------------------------------------

    def block_norm(self, X, Y):
        """Largest singular value of the X x Y block of (H - z)^{-1}.

        One adjoint solve on X's basis vectors gives the columns of
        (H - conj z)^{-1} chi_X; its Y rows are the conjugate transpose of
        the block, which has the same singular values.  The solve is kept
        for the last X, so pairs sharing X cost one solve.  The top
        singular value is exact dense LAPACK (scipy.linalg.svdvals).
        """
        rows = _local_positions(self.H, X, "X")
        if not np.array_equal(rows, self._X_rows):
            rhs = np.zeros((self.n, rows.size), dtype=np.complex128)
            rhs[rows, np.arange(rows.size)] = 1.0
            self._X_solved = self.solve_adjoint(rhs)
            self._X_rows = rows
        B = self._X_solved[_local_positions(self.H, Y, "Y"), :]
        try:
            return float(scipy.linalg.svdvals(B)[0])
        except np.linalg.LinAlgError as exc:
            raise SolveError(
                f"singular values of the {B.shape[1]} x {B.shape[0]} block "
                f"did not converge: {exc}") from exc


def block_operator_norm(H, shift, X, Y):
    """||chi_X (H - z)^{-1} chi_Y|| for index sets or IndicatorSets X, Y."""
    return ShiftedSolver(H, shift).block_norm(X, Y)
