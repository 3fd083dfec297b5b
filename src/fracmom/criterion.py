"""Finite-volume localization criterion and exponential decay fits.

The chain of custody here: a boundary-layer moment estimated on a
Dirichlet ball (raw_moment) is multiplied by the explicit coupling and
energy prefactors into a dimensionless factor.  Factor < 1 buys
exponential decay of fractional moments at rate gamma / (2L) in the
modified distance, which the consistency check then measures directly.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import grid_points
from .moments import epsilon_scan, ladder_moments
from .resolvent import (
    SpectralShift,
    boundary_layer_indices,
    indicator_set,
)

_GRID_SNAP = 1e-9
_CONSISTENCY_R2 = 0.8  # fit quality a consistent decay must reach


# ---------------------------------------------------------------------------
# modified distance
# ---------------------------------------------------------------------------

class ModifiedDistance:
    """dist(x,y) = min{|x-y|, d(x, comp) + d(y, comp)} on a masked domain.

    The complement is the unmasked grid points together with the box
    exterior, so points near a wall or near a hole are metrically close
    to each other regardless of their straight-line separation.  Without
    holes any point of the open box is valid; with them, a grid point of
    the mask.
    """

    def __init__(self, grid, mask=None):
        self.grid = grid
        self._holes = None
        if mask is not None:
            comp = np.setdiff1d(np.arange(grid.npoints, dtype=np.int64), mask)
            if comp.size:
                self._holes = grid_points(grid)[comp]

    def _require_inside(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.grid.d,):
            raise DomainError(f"point has shape {x.shape}, expected ({self.grid.d},)")
        if np.any(x <= 0.0) or np.any(x >= np.asarray(self.grid.box)):
            raise DomainError(f"{tuple(x.tolist())} lies outside the box interior")
        if self._holes is None:
            return x
        multi = np.round(x / self.grid.h).astype(np.int64) - 1
        if (np.any(np.abs(x - (multi + 1) * self.grid.h) > _GRID_SNAP)
                or np.any(multi < 0) or np.any(multi >= self.grid.shape)):
            raise DomainError(f"{tuple(x.tolist())} is not a grid point")
        # grid points other than x itself are at least h away
        if np.min(np.linalg.norm(self._holes - x, axis=1)) < 0.5 * self.grid.h:
            raise DomainError(f"{tuple(x.tolist())} is outside the domain mask")
        return x

    def to_complement(self, x):
        """Distance from x to unmasked grid points and the box exterior."""
        return self._to_complement(self._require_inside(x))

    def _to_complement(self, x):
        # x already passed _require_inside
        face = float(np.min(np.minimum(x, np.asarray(self.grid.box) - x)))
        if self._holes is None:
            return face
        hole = float(np.min(np.linalg.norm(self._holes - x, axis=1)))
        return min(face, hole)

    def distance(self, x, y):
        """dist(x, y) for grid points x, y inside the mask.

        Hand checks on the 1d box [0, 10] with h = 1 (points 1..9):
          full mask, x=3, y=5: direct 2 beats the wall detour 3+5, so 2.
          full mask, x=2, y=8: wall detour 2+2 beats direct 6, so 4.
          point 5 removed, x=4, y=9: hole 1 + wall 1 beats direct 5, so 2.
        """
        x = self._require_inside(x)
        y = self._require_inside(y)
        direct = float(np.linalg.norm(x - y))
        return min(direct, self._to_complement(x) + self._to_complement(y))


# ---------------------------------------------------------------------------
# bound envelopes
# ---------------------------------------------------------------------------

def moment_bound(s, lam, E, E0, d, C_const=1.0):
    """Envelope for the uniform-in-eps fractional moment bound.

    C_const * (1+lam)^{s(d+2)} / (1-s) * (1+1/lam)^s * (1+|E-E0|)^{s(d+2)}.
    The overall constant is not pinned down by the method; the caller
    supplies a convention through C_const.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must be in (0,1), got {s}")
    if not lam > 0.0:
        raise DomainError("lam must be positive")
    p = s * (d + 2)
    return (C_const * (1.0 + lam) ** p / (1.0 - s)
            * (1.0 + 1.0 / lam) ** s * (1.0 + abs(E - E0)) ** p)


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the finite-volume criterion at one (s, E, L).

    factor < 1 is the localization trigger; gamma = -ln(factor) and the
    predicted decay rate gamma / (2L) are only defined in that case.
    raw_moment = 0 degenerates to factor 0 with an infinite-rate sentinel.
    """

    s: float
    lam: float
    E: float
    E0: float
    L: float
    d: int
    raw_moment: float
    M_const: float
    factor: float
    gamma: float | None
    predicted_rate: float | None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0 / 3.0:
            raise DomainError(f"s must be in (0, 1/3), got {self.s}")
        if self.factor < 0.0:
            raise DomainError("factor must be nonnegative")
        if (self.factor < 1.0) != (self.gamma is not None):
            raise DomainError("gamma is present exactly when factor < 1")

    @property
    def triggered(self):
        return self.factor < 1.0

    def payload(self):
        return {
            "s": self.s, "lam": self.lam, "E": self.E, "E0": self.E0,
            "L": self.L, "d": self.d, "raw_moment": self.raw_moment,
            "M_const": self.M_const, "factor": self.factor,
            "gamma": self.gamma, "predicted_rate": self.predicted_rate,
        }


def criterion_factor(s, lam, E, E0, L, d, raw_moment, M_const=1.0, r=None):
    """Fold a raw boundary moment into the criterion factor e^{-gamma}.

    factor = M_const * (1+lam)^{5s(d+4)} / (1-3s) * (1+1/lam)^{2s}
             * (1+|E-E0|)^{5s(d+2)} * (1+L)^{2(d-1)} * raw_moment.

    If the bump radius r is supplied, the regime gate L > 24 r is
    enforced; without it the caller vouches for the regime.

    Hand checks:
      s=1/4, lam=1, E=3, E0=1, L=25, d=1, raw=1e-8, M_const=2 gives
      2 * 2^6.25 / (1/4) * 2^0.5 * 3^3.75 * 26^0 * 1e-8 (triggered);
      s=1/5, lam=4, E=E0, L=30, d=2, raw=1 gives
      5^6 / (2/5) * 1.25^0.4 * 31^2 (not triggered).
    """
    if not 0.0 < s < 1.0 / 3.0:
        raise DomainError(f"exponent regime is s in (0, 1/3), got {s}")
    if not lam > 0.0:
        raise DomainError("lam must be positive")
    if raw_moment < 0.0:
        raise DomainError("raw_moment must be nonnegative")
    if r is not None and not L > 24.0 * r:
        raise DomainError(f"need L > 24 r, got L={L}, r={r}")
    prefactor = (M_const * (1.0 + lam) ** (5.0 * s * (d + 4)) / (1.0 - 3.0 * s)
                 * (1.0 + 1.0 / lam) ** (2.0 * s)
                 * (1.0 + abs(E - E0)) ** (5.0 * s * (d + 2))
                 * (1.0 + L) ** (2.0 * (d - 1)))
    factor = prefactor * raw_moment
    if factor == 0.0:
        gamma = math.inf  # unbounded-rate sentinel for degenerate input
    elif factor < 1.0:
        gamma = -math.log(factor)
    else:
        gamma = None
    rate = gamma / (2.0 * L) if gamma is not None else None
    return CriterionReport(s=s, lam=lam, E=E, E0=E0, L=L, d=d,
                           raw_moment=float(raw_moment), M_const=M_const,
                           factor=float(factor), gamma=gamma,
                           predicted_rate=rate)


# ---------------------------------------------------------------------------
# raw boundary moment
# ---------------------------------------------------------------------------

def default_center(grid):
    """The criterion's default center: the box center, rounded, as floats."""
    return tuple(float(c) for c in np.round(np.asarray(grid.box) / 2.0))


def _ball_fits_box(grid, alpha, L):
    alpha = np.asarray(alpha, dtype=float)
    return bool(np.all(alpha - L >= 0.0) and
                np.all(alpha + L <= np.asarray(grid.box)))


def estimate_raw_boundary_moment(config, s_values, energies, L, schedule, N,
                                 master_seed, alphas=None, depth=None,
                                 workers=None):
    """Max over centers of the stabilized boundary-layer moment.

    For each center alpha every realization is assembled on the Dirichlet
    ball of radius L, and the moment of ||chi_alpha R chi_layer|| is
    scanned down the eps schedule with common seeds.  The supremum over
    all centers is approximated by the max over the supplied sample of
    centers (default: the rounded box center), relying on the translation
    covariance of the ensemble.

    Returns a (len(s_values), len(energies)) array.  Each center is one
    epsilon_scan over every energy's schedule, and every center is
    checked against the box before any draw.
    """
    grid = config.grid
    r = config.profile.r
    if alphas is None:
        alphas = [default_center(grid)]
    for alpha in alphas:
        if not _ball_fits_box(grid, alpha, L):
            raise DomainError(
                f"ball of radius {L} around {tuple(alpha)} exceeds the box {grid.box}")
    best = np.full((len(s_values), len(energies)), -math.inf)
    for alpha in alphas:
        ball = indicator_set(grid, alpha, L).indices
        X = indicator_set(grid, alpha, r, mask=ball)
        Y = boundary_layer_indices(alpha, L, r, grid, depth=depth)
        table = epsilon_scan(config.on_domain(ball), s_values, energies,
                             schedule, X, Y, N, master_seed, workers=workers)
        for k, s in enumerate(s_values):
            for j, E in enumerate(energies):
                scan = table[k][j]
                means = scan.means
                if not scan.stable:
                    warnings.warn(
                        f"eps scan at alpha={tuple(alpha)}, E={E}, s={s} did "
                        f"not stabilize (last means {means[-2]:.3e}, "
                        f"{means[-1]:.3e}); using the last value",
                        RuntimeWarning, stacklevel=2)
                best[k, j] = max(best[k, j], means[-1])
    return best


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit moment ~ A exp(-mu * dist)."""

    A: float
    mu: float
    r2: float
    points: tuple

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise DomainError("mu must be finite")
        if not 0.0 <= self.r2 <= 1.0:
            raise DomainError("r2 must lie in [0, 1]")

    def payload(self):
        return {"A": self.A, "mu": self.mu, "r2": self.r2,
                "points": [list(p) for p in self.points]}


def fit_exponential_decay(points, stderrs=None):
    """Least squares of ln(moment) against distance.

    With stderrs given, residuals are weighted by mean/stderr (the delta
    method scale of ln(moment)); infinite weights from zero stderr are
    capped at the largest finite one.
    """
    pts = [(float(d), float(m)) for d, m in points]
    if len(pts) < 3:
        raise DomainError("need at least three points")
    dist = np.array([p[0] for p in pts])
    mom = np.array([p[1] for p in pts])
    if np.unique(dist).size < 2:
        raise DomainError("need at least two distinct distances")
    if np.any(mom <= 0.0):
        raise DomainError("all moments must be positive to take logs")
    logm = np.log(mom)
    if stderrs is not None:
        w = np.asarray(mom, dtype=float) / np.asarray(stderrs, dtype=float)
        finite = np.isfinite(w)
        if not np.any(finite):
            w = np.ones_like(mom)
        else:
            w[~finite] = w[finite].max()
    else:
        w = np.ones_like(mom)
    slope, intercept = np.polyfit(dist, logm, 1, w=w)
    fitted = intercept + slope * dist
    wmean = np.average(logm, weights=w ** 2)
    ss_res = float(np.sum((w * (logm - fitted)) ** 2))
    ss_tot = float(np.sum((w * (logm - wmean)) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    # steep weighted fits can push exp(intercept) past float range
    amplitude = float(np.exp(min(float(intercept), 709.0)))
    return DecayFit(A=amplitude, mu=float(-slope),
                    r2=float(min(max(r2, 0.0), 1.0)), points=tuple(pts))


# ---------------------------------------------------------------------------
# distance ladder and consistency check
# ---------------------------------------------------------------------------

def _ball(grid, center, radius, what, mask=None):
    """The open ball of the given radius, refused unless it fits the open box."""
    if not all(x - radius > 0.0 and x + radius < b
               for x, b in zip(center, grid.box)):
        raise DomainError(
            f"{what}: ball of radius {radius} at {tuple(center)} does not fit "
            f"inside the box {grid.box}")
    return indicator_set(grid, center, radius, mask=mask)


def _point_or_default(grid, point, fraction):
    # the point, or fraction * box when it is None
    return tuple(fraction * b for b in grid.box) if point is None else point


def moment_sets(grid, x0, y0, radius):
    """Balls X at x0 (default 0.25 * box) and Y at y0 (0.75 * box)."""
    return (_ball(grid, _point_or_default(grid, x0, 0.25), radius, "x0"),
            _ball(grid, _point_or_default(grid, y0, 0.75), radius, "y0"))


def _check_rungs_connected(config, X, rungs, ladder):
    # a rung outside every component of H0's graph that X touches has an
    # exact zero block norm in every realization, which no fit can take.
    # Imported here: loading csgraph adds about 1.3 MiB to every run's
    # peak RSS, and only a ladder on a domain needs it
    from scipy.sparse.csgraph import connected_components
    H = config.h0()
    _, labels = connected_components(H.entries, directed=False)
    reach = np.unique(labels[H.local_indices(X.indices)])
    for t, Y in zip(ladder, rungs):
        if not np.isin(labels[H.local_indices(Y.indices)], reach).any():
            raise DomainError(
                f"ladder point {t}: its ball has no point in the component "
                f"of the domain that X lies in")


def distance_ladder(config, x0, ladder, axis, radius):
    """(X, rung balls, modified distances) along x0 + dist * e_axis.

    x0 defaults to 0.25 * box.  Every ball must fit inside the open box
    and is restricted to the model's domain, whose modified distance
    (config.domain, or the whole box when None) gives each abscissa.  On
    a domain, every rung ball must reach X's connected component.
    """
    grid, domain = config.grid, config.domain
    x0 = tuple(_point_or_default(grid, x0, 0.25))
    if len(ladder) < 3 or not all(b > a for a, b in zip(ladder, ladder[1:])):
        raise DomainError("ladder must be at least three increasing distances")
    centers = [tuple(x + t if i == axis else x for i, x in enumerate(x0))
               for t in ladder]
    X = _ball(grid, x0, radius, "x0", domain)
    rungs = [_ball(grid, y, radius, f"ladder point {t}", domain)
             for t, y in zip(ladder, centers)]
    if domain is not None:
        _check_rungs_connected(config, X, rungs, ladder)
    metric = ModifiedDistance(grid, domain)
    return X, rungs, [metric.distance(x0, y) for y in centers]


def measure_decay(config, s_values, shifts, x0, ladder, axis, radius, N,
                  master_seed, workers=None):
    """(DecayFit, rung estimates) per [s][shift] along a distance_ladder.

    One ladder_moments sweep; each ladder's means are fitted against the
    modified distances, weighted by their standard errors.
    """
    X, rungs, dists = distance_ladder(config, x0, ladder, axis, radius)
    table = ladder_moments(config, s_values, shifts, X, rungs, N, master_seed,
                           workers=workers)
    return [[(fit_exponential_decay([(d, e.mean) for d, e in zip(dists, ests)],
                                    stderrs=[e.stderr for e in ests]), ests)
             for ests in row] for row in table]


@dataclass(frozen=True)
class ConsistencyReport:
    """Decay measured in the large box against a triggered criterion."""

    criterion: CriterionReport
    fit: DecayFit
    rate_ratio: float  # fitted mu over predicted gamma/(2L); recorded only
    r2_threshold: float
    distances: tuple
    means: tuple
    stderrs: tuple

    @property
    def consistent(self):
        return self.fit.mu > 0.0 and self.fit.r2 >= self.r2_threshold

    def payload(self):
        return {
            "criterion": self.criterion.payload(),
            "fit": self.fit.payload(),
            "rate_ratio": self.rate_ratio,
            "r2_threshold": self.r2_threshold,
            "consistent": self.consistent,
            "distances": list(self.distances),
            "means": list(self.means),
            "stderrs": list(self.stderrs),
        }


def verify_criterion_consistency(config, report, ladder, eps, N, master_seed,
                                 x0=None, axis=0, workers=None):
    """Measure moment decay along a distance ladder in the full box.

    Requires a triggered criterion (factor < 1).  The decay is measured
    by measure_decay with balls of the bump radius, and the verdict is
    qualitative: fitted mu > 0 with r2 of at least _CONSISTENCY_R2.  The
    ratio against the predicted rate gamma/(2L) is recorded, not
    asserted; the constants feeding gamma are conventions.
    """
    if not isinstance(report, CriterionReport):
        raise DomainError("expected a CriterionReport")
    if not report.triggered:
        raise DomainError(
            f"criterion factor {report.factor:.3g} is not < 1; "
            "nothing to verify")
    [[(fit, ests)]] = measure_decay(
        config, [report.s], [SpectralShift(E=report.E, eps=eps)], x0, ladder,
        axis, config.profile.r, N, master_seed, workers=workers)
    return ConsistencyReport(
        criterion=report, fit=fit,
        rate_ratio=float(fit.mu / report.predicted_rate),
        r2_threshold=_CONSISTENCY_R2,
        distances=tuple(d for d, _ in fit.points),
        means=tuple(e.mean for e in ests),
        stderrs=tuple(e.stderr for e in ests))
