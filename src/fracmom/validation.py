"""Independent oracles and the weak level-set bound bench.

Everything here deliberately avoids the sparse solver: dense column
solves are refined to an explicit residual, block norms come from full
SVDs, and the level-set measures are Riemann sums over an explicit eta
grid.  Agreement between these paths and the production ones is what
the oracle sweeps certify.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DomainError, SolveError
from .model import DiscreteHamiltonian
from .resolvent import (
    IndicatorSet,
    ShiftedSolver,
    SpectralShift,
    _as_z,
    _local_positions,
)

logger = logging.getLogger(__name__)

DENSE_ORACLE_CAP = 500

_HERM_TOL = 1e-10
_PSD_TOL = 1e-12
_KERNEL_TOL = 1e-12
_ORACLE_RESID = 1e-10     # max-entry residual of the refined column solve
_ORACLE_AGREEMENT = 1e-8  # sparse vs dense block norm, relative
_SOLVE_CHUNK = 8192   # etas per batched solve; bounds the stacked systems


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
# dense block-norm oracle
# ---------------------------------------------------------------------------

def dense_block_norm_oracle(H, shift, X, Y):
    """Largest singular value of the X x Y resolvent block, dense path.

    Solves (H - z) C = chi_Y on the |Y| columns with dense LAPACK, then
    refines C (C <- C + (H - z)^{-1} D with D = chi_Y - (H - z) C) until
    the max-entry residual of D is below _ORACLE_RESID, and returns the
    top singular value of C's X rows.
    """
    if isinstance(H, DiscreteHamiltonian):
        n = H.n
        rows = _local_positions(H, X, "X")
        cols = _local_positions(H, Y, "Y")
    else:
        H = np.asarray(H)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise DomainError("H must be a square matrix")
        n = H.shape[0]
        rows = np.asarray(X, dtype=np.int64).ravel()
        cols = np.asarray(Y, dtype=np.int64).ravel()
        for name, idx in (("X", rows), ("Y", cols)):
            if idx.size == 0:
                raise DomainError(f"{name} is empty")
            if idx.min() < 0 or idx.max() >= n:
                raise DomainError(f"{name} has an index outside [0, {n})")
    if n > DENSE_ORACLE_CAP:
        raise DomainError(
            f"dense oracle capped at {DENSE_ORACLE_CAP} points, got {n}")
    A = H.dense() if isinstance(H, DiscreteHamiltonian) else H
    M = A - _as_z(shift) * np.eye(n)
    rhs = np.zeros((n, cols.size), dtype=M.dtype)
    rhs[cols, np.arange(cols.size)] = 1.0
    C = np.linalg.solve(M, rhs)
    for _ in range(4):
        defect = rhs - M @ C
        worst = np.abs(defect).max()
        if worst <= _ORACLE_RESID:
            return float(scipy.linalg.svdvals(C[rows])[0])
        C = C + np.linalg.solve(M, defect)
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
    eta_resolution: int

    def payload(self):
        return {
            "t_grid": list(self.t_grid), "measures": list(self.measures),
            "hs_norm": self.hs_norm, "slope": self.slope,
            "degenerate": self.degenerate, "c_fit": self.c_fit,
            "delta_used": self.delta_used,
            "delta_sensitivity": self.delta_sensitivity,
            "eta_range": list(self.eta_range),
            "eta_resolution": self.eta_resolution,
        }


def _hs_norms_over_grid(A_eff, T, etas):
    """||T (eta + A_eff)^{-1} T||_HS for every eta, via one eigensystem.

    Falls back to direct solves, batched over chunks of _SOLVE_CHUNK etas,
    when the eigenvector basis of A_eff is too ill-conditioned to trust, or
    when the eigensystem values at three spot etas drift from direct
    inversion.
    """
    n = A_eff.shape[0]
    eye = np.eye(n)

    def direct(eta):
        return np.linalg.norm(T @ np.linalg.solve(eta * eye + A_eff, T), "fro")

    lam, V = np.linalg.eig(A_eff)
    if np.linalg.cond(V) < 1e8:
        W = np.linalg.solve(V, T)   # rows b_k
        U = T @ V                   # columns a_k
        G = (U.conj().T @ U) * (W @ W.conj().T).T
        # ||M(eta)||^2 = sum_kl G[k,l] / ((eta+lam_k) conj(eta+lam_l))
        D = 1.0 / (etas[:, None] + lam[None, :])
        vals = np.sqrt(np.maximum(np.einsum(
            "ek,kl,el->e", D, G, D.conj()).real, 0.0))
        for j in (0, etas.size // 2, etas.size - 1):
            spot = direct(etas[j])
            if abs(vals[j] - spot) > 1e-8 * max(spot, 1e-30):
                logger.debug("eigensystem path drifted at eta=%g; "
                             "using solves", etas[j])
                break
        else:
            return vals
    vals = np.empty(etas.size)
    for lo in range(0, etas.size, _SOLVE_CHUNK):
        chunk = etas[lo:lo + _SOLVE_CHUNK, None, None]
        M = T @ np.linalg.solve(chunk * eye + A_eff, T)
        vals[lo:lo + _SOLVE_CHUNK] = np.linalg.norm(M, "fro", axis=(1, 2))
    return vals


def _measures(vals, t_grid, step):
    return np.array([float(np.count_nonzero(vals > t) * step) for t in t_grid])


def weak_l1_levelset_measure(A, T, t_grid, eta_range=None,
                             eta_resolution=100_000, delta=1e-8):
    """Empirical level-set measures of the dissipative-sandwich map.

    For each t, the Lebesgue measure (Riemann sum over the eta grid) of
    {eta : ||T (eta + A + i delta)^{-1} T||_HS > t}.  delta is applied
    only when the dissipative part has a kernel; its effect is reported
    by recomputing at delta/10.  The log-log slope is fitted over the
    top decade of t values whose measures are nonzero and below the
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
    if eta_resolution < 2:
        raise DomainError("eta_resolution must be at least 2")
    if eta_range is None:
        w = 20.0 * max(A.norm(), 1e-6)
        eta_range = (-w, w)
    lo, hi = float(eta_range[0]), float(eta_range[1])
    if not lo < hi:
        raise DomainError("eta_range must be a nonempty interval")
    etas = np.linspace(lo, hi, eta_resolution)
    step = (hi - lo) / (eta_resolution - 1)

    delta_used = delta if A.has_kernel else 0.0
    span = hi - lo
    eye = np.eye(A.n)

    def sweep(d):
        return _measures(
            _hs_norms_over_grid(A.A + 1j * d * eye, T.T, etas), t_grid, step)

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
        eta_range=(lo, hi), eta_resolution=int(eta_resolution))


# ---------------------------------------------------------------------------
# sparse-vs-dense comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleComparison:
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
    """Sparse-path block norm against the dense SVD twin.

    `model` is either an assembled Hamiltonian or a factory with
    hamiltonian_for_seed.  The two norms must agree to _ORACLE_AGREEMENT
    relatively.  A loosened solve contract (resolvent.SOLVE_TOL on the
    iterative path) is the intended negative control: the report then
    flags the mismatch instead of raising.
    """
    if isinstance(model, DiscreteHamiltonian):
        H = model
    else:
        H = model.hamiltonian_for_seed(seed)
    sparse = ShiftedSolver(H, shift).block_norm(X, Y)
    dense = dense_block_norm_oracle(H, shift, X, Y)
    rel = abs(sparse - dense) / max(dense, 1e-300)
    return OracleComparison(sparse_norm=float(sparse), dense_norm=float(dense),
                            rel_diff=float(rel), tol=_ORACLE_AGREEMENT)
