"""Shifted sparse solves and smeared Green-function block norms.

Everything downstream (moment estimates, boundary criteria, correlators)
reduces to norms of blocks chi_X (H - z)^{-1} chi_Y with Im z > 0.  A
block norm is one adjoint solve, with H - conj z, on X's basis vectors,
so that is the only system the solver factors and solves.  It keeps one
factorization per (H, z) and reuses it for every block, so scans over
many (X, Y) pairs pay for the factorization once, and pairs that share
X (a decay ladder) share one adjoint solve as well.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import DomainError, NumericalError, SolveError
from .model import DiscreteHamiltonian, grid_points

# the solve contract: one sparse LU of H - conj z, every solve verified to
# this relative residual per column, and operators up to a per-dimension
# point cap.  The 2d and 3d caps give LU factors of about 5.5M entries; a
# 1d operator is tridiagonal, its LU O(n), and its cap bounds the grid and
# bump matrix that parsing a document allocates.
SOLVE_POINT_CAP = {1: 2 ** 18, 2: 50_000, 3: 10_000}
SOLVE_TOL = 1e-10
_TINY = np.finfo(float).tiny


def check_solve_size(d, npoints):
    """Refuse a d-dimensional operator of npoints above its LU point cap."""
    cap = SOLVE_POINT_CAP.get(d)
    if cap is not None and npoints > cap:
        raise DomainError(
            f"a {d}d operator of {npoints} points is above the sparse LU "
            f"cap of {cap} points")


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


def _set_name(sel):
    if isinstance(sel, IndicatorSet):
        ring = (f", inner radius {sel.inner_radius:g}" if sel.inner_radius
                else "")
        return f"the ball of radius {sel.radius:g}{ring} at {sel.center}"
    idx = np.asarray(sel).ravel()
    return f"the {idx.size} indices {idx.min()}..{idx.max()}"


def _normal_block_norm(norm, entries, rows, cols, X, Y, z):
    """norm, refused with NumericalError below the smallest normal float.

    A norm under np.finfo(float).tiny is subnormal or has underflowed to
    zero: it carries fewer than 53 bits, or none, of a true value that is
    positive whenever X and Y are joined in the graph of the stored
    entries.  The one exact zero is a block between different connected
    components of that graph (say, two sides of a Dirichlet wall), where
    the resolvent is block diagonal; it is returned as 0.0.  The graph is
    only built on this rare branch.
    """
    if norm >= _TINY:
        return norm
    # imported on this branch only: csgraph adds ~1 MiB to every process
    import scipy.sparse.csgraph
    _, labels = scipy.sparse.csgraph.connected_components(entries,
                                                          directed=False)
    if np.intersect1d(labels[rows], labels[cols]).size == 0:
        return 0.0
    raise NumericalError(
        f"block norm {norm:.3e} between X = {_set_name(X)} and "
        f"Y = {_set_name(Y)} at z = {z:g} is below the smallest normal "
        f"float {_TINY:.3e}: the decay has left double precision")


# ---------------------------------------------------------------------------
# shifted solver
# ---------------------------------------------------------------------------

class ShiftedSolver:
    """Residual-verified solver for (H - conj z) u = rhs at a fixed shift.

    A block norm of (H - z)^{-1} is read off one adjoint solve, so
    H - conj z is the one system the solver solves.  One factorization
    of it is computed and is immutable afterwards; SuperLU's plain solve
    with it takes all columns of a block at once.  SOLVE_POINT_CAP and
    SOLVE_TOL are read when the solver is built.  block_norm keeps the
    adjoint solve on the last X it saw, so a solver is not safe to share
    across threads.

    H - conj z is built once, in place on H's stored pattern: H's entries
    cast to complex, with conj z subtracted at the diagonal slots.  The
    factored CSC arrays are H's conjugated entries minus conj z on the
    same index arrays, since the CSC arrays of a matrix are the CSR
    arrays of its transpose and (H - conj z)^T = conj(H) - conj z.  The
    shift stays inside the matrix entries, and every residual is formed
    from them: H @ u - conj z * u cancels near a resonance and misses
    SOLVE_TOL where the stored entries meet it.
    """

    def __init__(self, H, shift):
        if not isinstance(H, DiscreteHamiltonian):
            raise DomainError("expected a DiscreteHamiltonian")
        check_solve_size(H.grid.d, H.n)
        self.H = H
        self.z = _as_z(shift)
        self.tol = SOLVE_TOL
        ent = H.entries
        csr_data = ent.data.astype(np.complex128)
        csc_data = csr_data.copy()
        # conj(H) as 0 - Im rather than -Im: H's +0.0 imaginary parts stay
        # +0.0, so the factored entries are bitwise those of H - conj z
        csc_data.imag = 0.0 - csc_data.imag
        for data in (csr_data, csc_data):
            data[H.diagonal] -= self.z.conjugate()
        self._AH = scipy.sparse.csr_matrix((csr_data, ent.indices, ent.indptr),
                                           shape=ent.shape)
        A = scipy.sparse.csc_matrix((csc_data, ent.indices, ent.indptr),
                                    shape=ent.shape)
        try:
            self._fac = scipy.sparse.linalg.splu(A)
        except RuntimeError as exc:
            raise SolveError(
                f"factorization of (H - conj z) failed: {exc}") from exc
        self._X_rows = None     # positions of the last X and its solve
        self._X_solved = None

    @property
    def n(self):
        return self.H.n

    # -- the adjoint solve ---------------------------------------------------

    def solve_adjoint(self, rhs):
        """u with ||(H - conj z) u - rhs|| <= tol * ||rhs|| (per column)."""
        rhs = np.asarray(rhs, dtype=np.complex128)
        if rhs.shape[0] != self.n:
            raise DomainError(
                f"rhs has leading dimension {rhs.shape[0]}, operator has {self.n}")
        u = self._fac.solve(rhs)
        scale = np.linalg.norm(rhs, axis=0)
        for _ in range(2):
            resid = rhs - self._AH @ u
            # negated <= so nan residuals count as failures
            bad = ~(np.linalg.norm(resid, axis=0) <= self.tol * scale)
            if not np.any(bad):
                return u
            if u.ndim == 1:
                u = u + self._fac.solve(resid)
            else:
                u[:, bad] += self._fac.solve(np.ascontiguousarray(resid[:, bad]))
        resid = np.linalg.norm(rhs - self._AH @ u, axis=0)
        worst = float(np.max(np.divide(resid, scale, out=np.zeros_like(resid),
                                       where=scale > 0)))
        raise SolveError(
            f"residual {worst:.3e} above tolerance {self.tol:.1e} after refinement",
            achieved=worst)

    # -- block norms ---------------------------------------------------------

    def block_norm(self, X, Y):
        """Largest singular value of the X x Y block of (H - z)^{-1}.

        One adjoint solve on X's basis vectors gives the columns of
        (H - conj z)^{-1} chi_X; its Y rows are the conjugate transpose of
        the block, which has the same singular values.  The solve is kept
        for the last X, so pairs sharing X cost one solve.  The top
        singular value is exact dense LAPACK (scipy.linalg.svdvals).  A
        norm below the smallest normal float raises NumericalError, unless
        X and Y lie in different components of H's graph, where it is an
        exact 0.0 (_normal_block_norm).
        """
        rows = _local_positions(self.H, X, "X")
        if not np.array_equal(rows, self._X_rows):
            rhs = np.zeros((self.n, rows.size), dtype=np.complex128)
            rhs[rows, np.arange(rows.size)] = 1.0
            self._X_solved = self.solve_adjoint(rhs)
            self._X_rows = rows
        cols = _local_positions(self.H, Y, "Y")
        B = self._X_solved[cols, :]
        try:
            norm = float(scipy.linalg.svdvals(B)[0])
        except np.linalg.LinAlgError as exc:
            raise SolveError(
                f"singular values of the {B.shape[1]} x {B.shape[0]} block "
                f"did not converge: {exc}") from exc
        return _normal_block_norm(norm, self.H.entries, rows, cols, X, Y,
                                  self.z)

