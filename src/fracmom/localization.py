"""Direct spectral diagnostics on finite volumes.

Windowed eigensolves are verified for completeness against an
independent inertia count (Sturm recurrence for tridiagonal operators,
Bunch-Kaufman otherwise), so a correlator never silently misses states.
The eigenfunction correlator is the rank-one trace-norm sum, which is
the computable upper bound for the dynamical quantity; the exact sup
over Borel functions is not evaluated.
"""

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .criterion import fit_exponential_decay
from .errors import DomainError, IncompleteWindowError, NumericalError
from .model import DENSE_EIG_CAP, grid_points
from .moments import map_samples
from .resolvent import _local_positions

logger = logging.getLogger(__name__)

INERTIA_DENSE_CAP = 1500

_ORTHO_TOL = 1e-10
_RESID_TOL = 1e-8


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
            raise DomainError(f"need finite a < b, got ({self.a}, {self.b})")

    @property
    def center(self):
        return 0.5 * (self.a + self.b)

    @property
    def halfwidth(self):
        return 0.5 * (self.b - self.a)

    def contains(self, values):
        values = np.asarray(values)
        return (self.a < values) & (values < self.b)


def _tridiagonal_bands(H):
    # local band extraction; valid iff nothing lives beyond the first
    # off-diagonal (true for 1d stencils, holes only zero entries out)
    d = H.entries.diagonal(0)
    if H.n == 1:
        return d.real, np.zeros(0)
    u = H.entries.diagonal(1)
    tri = (scipy.sparse.diags([np.conj(u), d, u], [-1, 0, 1], format="csr")
           - H.entries)
    tri.eliminate_zeros()
    if tri.nnz:
        return None
    return d.real, u


def spectrum_count_below(H, E):
    """#{eigenvalues of H < E} without an eigendecomposition.

    Tridiagonal Hermitian operators (every 1d model) use the Sturm pivot
    recurrence at any size; anything else goes through a dense
    Bunch-Kaufman inertia up to INERTIA_DENSE_CAP points.
    """
    bands = _tridiagonal_bands(H) if H.grid.d == 1 else None
    if bands is not None:
        d, u = bands
        return _sturm_count(d, np.abs(u) ** 2, E)
    if H.n > INERTIA_DENSE_CAP:
        raise NumericalError(
            f"no spectrum-counting path for non-tridiagonal operators with "
            f"{H.n} > {INERTIA_DENSE_CAP} points")
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
    n = D.shape[0]
    count = 0
    i = 0
    while i < n:
        if i + 1 < n and D[i + 1, i] != 0.0:
            block = D[i:i + 2, i:i + 2]
            count += int(np.sum(np.linalg.eigvalsh(block) < 0.0))
            i += 2
        else:
            if D[i, i].real < 0.0:
                count += 1
            i += 1
    return count


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

    Dense path below DENSE_EIG_CAP, shift-invert around the window
    center above it.  The count is always cross-checked against the
    pivot-based spectrum count; a mismatch aborts rather than returning
    a silently incomplete set.
    """
    if not isinstance(window, EigenWindow):
        raise DomainError("expected an EigenWindow")
    n = H.n
    if n <= DENSE_EIG_CAP:
        vals, vecs = np.linalg.eigh(H.dense())
    else:
        vals, vecs = _shift_invert_window(H, window)
    inside = window.contains(vals)
    vals, vecs = vals[inside], vecs[:, inside]
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    expected = count_in_window(H, window)
    if vals.size != expected:
        raise IncompleteWindowError(
            f"window {window} returned {vals.size} pairs, pivot count "
            f"says {expected}")
    _check_residuals(H, vals, vecs)
    return EigenPairSet(window=window, eigenvalues=vals, vectors=vecs)


def _shift_invert_window(H, window):
    n = H.n
    sigma = window.center
    v0 = np.linspace(0.5, 1.5, n)  # fixed start: repeat runs bit-identical
    k = min(n - 1, 32)
    while True:
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                H.entries, k=k, sigma=sigma, which="LM", v0=v0, tol=0)
        except scipy.sparse.linalg.ArpackError as exc:
            raise NumericalError(f"shift-invert eigensolve failed: {exc}") from exc
        covered = np.max(np.abs(vals - sigma)) > window.halfwidth
        if covered or k == n - 1:
            return vals, vecs
        k = min(n - 1, 2 * k)


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
    lx = _local_positions(H, X, "X")
    ly = _local_positions(H, Y, "Y")
    nx = np.linalg.norm(pairs.vectors[lx, :], axis=0)
    ny = np.linalg.norm(pairs.vectors[ly, :], axis=0)
    return float(np.sum(nx * ny))


# ---------------------------------------------------------------------------
# eigenfunction decay
# ---------------------------------------------------------------------------

def localization_center(psi, grid, mask=None):
    """Position of max |psi|; ties resolved to the lowest grid index.

    Returns a point in the box, not an index, so the result feeds
    straight into eigenfunction_decay_rate as the shell center.
    """
    psi = np.asarray(psi)
    if psi.size == 0:
        raise DomainError("empty vector")
    pts = grid_points(grid)
    if mask is not None:
        pts = pts[np.asarray(mask, dtype=np.int64)]
    if pts.shape[0] != psi.size:
        raise DomainError(
            f"psi has {psi.size} entries but the domain has {pts.shape[0]} points")
    return pts[int(np.argmax(np.abs(psi)))]


@dataclass(frozen=True)
class DecayRateEstimate:
    nu: float
    r2: float
    radii: tuple
    shell_values: tuple

    def payload(self):
        return {"nu": self.nu, "r2": self.r2, "radii": list(self.radii),
                "shell_values": list(self.shell_values)}


def eigenfunction_decay_rate(psi, center, grid, mask=None, shell_width=1.0,
                             exclude_outer=0.1):
    """Fitted rate nu of ln|psi| decay in shells around the center.

    Shells of one width step out from the center; each contributes its
    max |psi| at the radius where that max sits.  The outer fraction of
    radii is excluded as boundary-contaminated, and empty or zero shells
    are dropped.  Needs three usable shells.
    """
    psi = np.asarray(psi)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    pts = grid_points(grid)
    if mask is not None:
        pts = pts[np.asarray(mask, dtype=np.int64)]
    if pts.shape[0] != psi.size:
        raise DomainError(
            f"psi has {psi.size} entries but the domain has {pts.shape[0]} points")
    if not 0.0 <= exclude_outer < 1.0:
        raise DomainError("exclude_outer must be in [0, 1)")
    dist = np.linalg.norm(pts - center, axis=1)
    rmax = dist.max() * (1.0 - exclude_outer)
    mod = np.abs(psi)
    radii, values = [], []
    edge = 0.0
    while edge < rmax:
        sel = (dist >= edge) & (dist < edge + shell_width)
        edge += shell_width
        if not np.any(sel):
            continue
        k = np.argmax(mod[sel])
        if mod[sel][k] <= 0.0 or dist[sel][k] > rmax:
            continue
        radii.append(float(dist[sel][k]))
        values.append(float(mod[sel][k]))
    if len(radii) < 3:
        raise DomainError(
            f"only {len(radii)} usable shells; need at least 3")
    fit = fit_exponential_decay(list(zip(radii, values)))
    return DecayRateEstimate(nu=fit.mu, r2=fit.r2, radii=tuple(radii),
                             shell_values=tuple(values))


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
    """
    return np.array(map_samples(config, partial(_counts_below, energies),
                                N, master_seed, workers), dtype=np.int64)
