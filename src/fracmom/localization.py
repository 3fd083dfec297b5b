"""Direct spectral diagnostics on finite volumes.

Windowed eigensolves are verified for completeness against an
independent inertia count (Sturm recurrence for every operator whose
stored pattern is tridiagonal, every 1d model among them; Bunch-Kaufman
otherwise), so a correlator never silently misses states.
The eigenfunction correlator is the rank-one trace-norm sum, which is
the computable upper bound for the dynamical quantity; the exact sup
over Borel functions is not evaluated.
"""

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .criterion import fit_exponential_decay
from .errors import DomainError, IncompleteWindowError, NumericalError
from .model import bandwidths, grid_points, set_rows
from .moments import map_samples

logger = logging.getLogger(__name__)

INERTIA_DENSE_CAP = 1500

_ORTHO_TOL = 1e-10
_RESID_TOL = 1e-8
_EXCLUDE_OUTER = 0.1  # outer fraction of shell radii left out of decay fits


# ---------------------------------------------------------------------------
# windows and spectrum counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenWindow:
    """Open bounded energy interval (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise DomainError(f"window ({self.a}, {self.b}) needs finite a < b")

    def contains(self, values):
        values = np.asarray(values)
        return (self.a < values) & (values < self.b)


def check_countable(H):
    """(diagonal, superdiagonal) of a tridiagonal H, None for a dense one.

    The one structure rule: an operator whose stored pattern reaches no
    further than the first off-diagonal (every 1d model) is counted by
    the Sturm pivot recurrence and eigensolved on its bands at any size;
    any other is made dense, and refused above INERTIA_DENSE_CAP points.
    Every realization shares H0's stored pattern and size, so H0 decides
    for all of them before any draw.
    """
    if max(bandwidths(H.entries)) <= 1:
        return H.entries.diagonal(0).real, H.entries.diagonal(1)
    if H.n > INERTIA_DENSE_CAP:
        raise DomainError(
            f"no spectrum-counting path for non-tridiagonal operators with "
            f"{H.n} > {INERTIA_DENSE_CAP} points")
    return None


def spectrum_count_below(H, E):
    """#{eigenvalues of H < E} without an eigendecomposition.

    Sturm pivots or a dense inertia, as check_countable admits H.
    """
    bands = check_countable(H)
    if bands is not None:
        d, u = bands
        return _sturm_count(d, np.abs(u) ** 2, E)
    A = H.dense() - E * np.eye(H.n)
    _, D, _ = scipy.linalg.ldl(A, hermitian=True)
    return _inertia_negative(D)


def _sturm_count(diag, offdiag_sq, E):
    count = 0
    pivot = 1.0
    tiny = 1e-300
    for i in range(diag.size):
        coupling = offdiag_sq[i - 1] / pivot if i else 0.0
        pivot = (diag[i] - E) - coupling
        if pivot == 0.0:
            pivot = tiny  # standard safeguard: counts the pair consistently
        if pivot < 0.0:
            count += 1
    return count


def _inertia_negative(D):
    # D is block diagonal with 1x1 and 2x2 Hermitian blocks, so it is a
    # Hermitian tridiagonal matrix, similar to the real one with |D[i+1, i]|
    vals = scipy.linalg.eigvalsh_tridiagonal(D.diagonal().real,
                                             np.abs(D.diagonal(-1)))
    return int(np.count_nonzero(vals < 0.0))


def count_in_window(H, window):
    """#{eigenvalues in the open window} by two boundary counts."""
    return spectrum_count_below(H, window.b) - spectrum_count_below(H, window.a)


# ---------------------------------------------------------------------------
# windowed eigensolve
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EigenPairSet:
    """Eigenvalues in a window (ascending) with orthonormal vectors."""

    window: EigenWindow
    eigenvalues: np.ndarray
    vectors: np.ndarray  # columns, one per eigenvalue

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", vals)
        if self.vectors.shape[1] != vals.size:
            raise DomainError("one vector column per eigenvalue required")
        if vals.size and np.any(np.diff(vals) < 0.0):
            raise DomainError("eigenvalues must be ascending")
        if vals.size:
            gram = self.vectors.conj().T @ self.vectors
            defect = np.abs(gram - np.eye(vals.size)).max()
            if defect > _ORTHO_TOL:
                raise NumericalError(
                    f"eigenvector orthonormality defect {defect:.2e}")

    def __len__(self):
        return int(self.eigenvalues.size)


def eigensolve_window(H, window):
    """All eigenpairs of H with eigenvalue in the open window.

    Every operator whose stored pattern is tridiagonal (every 1d model)
    takes LAPACK bisection and inverse iteration on the bands of
    D^H H D, real for the unit diagonal D that makes the off-diagonal
    |u|; D maps the vectors back.  Anything else takes one dense subset
    eigensolve.  The pivot count comes first, so an operator it refuses
    is never made dense, and the pairs must match it: a mismatch aborts
    rather than returning a silently incomplete set.
    """
    if not isinstance(window, EigenWindow):
        raise DomainError("expected an EigenWindow")
    expected = count_in_window(H, window)
    bands = check_countable(H)
    try:
        if bands is None:
            vals, vecs = scipy.linalg.eigh(
                H.dense(), subset_by_value=(window.a, window.b))
        else:
            d, u = bands
            vals, vecs = scipy.linalg.eigh_tridiagonal(
                d, np.abs(u), select="v", select_range=(window.a, window.b))
            unit = np.divide(np.conj(u), np.abs(u), out=np.ones_like(u),
                             where=u != 0)
            vecs = vecs * np.concatenate(([1], np.cumprod(unit)))[:, None]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"window eigensolve failed: {exc}") from exc
    inside = window.contains(vals)  # LAPACK's value range is half-open
    vals, vecs = vals[inside], vecs[:, inside]
    if vals.size != expected:
        raise IncompleteWindowError(
            f"window {window} returned {vals.size} pairs, pivot count "
            f"says {expected}")
    _check_residuals(H, vals, vecs)
    return EigenPairSet(window=window, eigenvalues=vals, vectors=vecs)


def _check_residuals(H, vals, vecs):
    if vals.size == 0:
        return
    scale = scipy.sparse.linalg.norm(H.entries, np.inf)  # >= spectral norm
    resid = H.entries @ vecs - vecs * vals
    worst = np.linalg.norm(resid, axis=0).max()
    if worst > _RESID_TOL * scale:
        raise NumericalError(
            f"eigenpair residual {worst:.2e} above {_RESID_TOL:.0e} * ||H||")


# ---------------------------------------------------------------------------
# correlator
# ---------------------------------------------------------------------------

def correlator_from_pairs(pairs, H, X, Y):
    """Sum over window eigenpairs of ||chi_X psi|| * ||chi_Y psi||.

    `pairs` is eigensolve_window(H, window).  The rank-one sum
    upper-bounds the trace norm of chi_X g(H) P_window chi_Y over
    |g| <= 1; disorder averaging belongs to the caller's sampling loop.
    """
    if len(pairs) == 0:
        return 0.0
    lx = set_rows(X, H.mask, H.grid.npoints, "X")
    ly = set_rows(Y, H.mask, H.grid.npoints, "Y")
    nx = np.linalg.norm(pairs.vectors[lx, :], axis=0)
    ny = np.linalg.norm(pairs.vectors[ly, :], axis=0)
    return float(np.sum(nx * ny))


# ---------------------------------------------------------------------------
# eigenfunction decay
# ---------------------------------------------------------------------------

def _domain_points(psi, grid, mask):
    # grid points of the domain (the masked ones), one per entry of psi
    pts = grid_points(grid)
    if mask is not None:
        pts = pts[np.asarray(mask, dtype=np.int64)]
    if pts.shape[0] != psi.size:
        raise DomainError(
            f"psi has {psi.size} entries but the domain has {pts.shape[0]} points")
    return pts


def localization_center(psi, grid, mask=None):
    """Position of max |psi|; ties resolved to the lowest grid index.

    Returns a point in the box, not an index, so the result feeds
    straight into eigenfunction_decay_rate as the shell center.
    """
    psi = np.asarray(psi)
    if psi.size == 0:
        raise DomainError("empty vector")
    return _domain_points(psi, grid, mask)[int(np.argmax(np.abs(psi)))]


def eigenfunction_decay_rate(psi, center, grid, mask=None, shell_width=1.0):
    """DecayFit of ln|psi| in shells around the center; mu is the rate.

    Shells of one positive width step out from the center; each
    contributes its max |psi| at the radius where that max sits, as one
    (radius, |psi|) point.  The outer _EXCLUDE_OUTER fraction of radii is
    excluded as boundary-contaminated, and empty or zero shells are
    dropped.  Needs three usable shells.
    """
    if not (np.isfinite(shell_width) and shell_width > 0.0):
        raise DomainError(
            f"shell_width must be positive and finite, got {shell_width}")
    psi = np.asarray(psi)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (grid.d,):
        raise DomainError(f"center has shape {center.shape}, expected ({grid.d},)")
    pts = _domain_points(psi, grid, mask)
    dist = np.linalg.norm(pts - center, axis=1)
    rmax = dist.max() * (1.0 - _EXCLUDE_OUTER)
    mod = np.abs(psi)
    points = []
    edge = 0.0
    while edge < rmax:
        sel = (dist >= edge) & (dist < edge + shell_width)
        edge += shell_width
        if not np.any(sel):
            continue
        k = np.argmax(mod[sel])
        if mod[sel][k] <= 0.0 or dist[sel][k] > rmax:
            continue
        points.append((float(dist[sel][k]), float(mod[sel][k])))
    if len(points) < 3:
        raise DomainError(
            f"only {len(points)} usable shells; need at least 3")
    return fit_exponential_decay(points)


# ---------------------------------------------------------------------------
# integrated density of states
# ---------------------------------------------------------------------------

def _counts_below(energies, H):
    return [spectrum_count_below(H, E) for E in energies]


def ids_counts(config, energies, N, master_seed, workers=None):
    """(N, len(energies)) eigenvalue counts below each energy.

    Rows are in sample order, and every energy is counted on the same
    realizations.  The counts are strictly below E: ties at exactly E
    have probability zero under continuous coupling densities, so they
    stand in for the closed count #{eigenvalues <= E}.  The IDS per unit
    continuum volume is counts.mean(axis=0) / config.grid.volume.
    H0 is checked against the counting cap before the first draw.
    """
    check_countable(config.h0())
    return np.array(map_samples(config, partial(_counts_below, energies),
                                N, master_seed, workers), dtype=np.int64)
