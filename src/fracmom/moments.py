"""Monte Carlo fractional moments of Green-function block norms.

The estimator is the plain empirical mean of m_i^s over independent
disorder realizations; the fractional power s < 1 is what tames the
variance near the spectrum, and that is exactly the effect the epsilon
scans below are built to exhibit.  Scans over several shifts reuse one
set of realizations (common random numbers), so differences between
shifts are not drowned in resampling noise.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._blas import openblas_thread_controls, single_blas_thread
from .errors import DomainError, SolveError
from .model import IndicatorSet
from .resolvent import ShiftedSolver, SpectralShift

STABILIZATION_TOL = 0.05  # relative gap of the last two means of a stable scan


def sample_seed(master_seed, index):
    """Derived 64-bit seed for one sample; stable across worker counts."""
    if index < 0:
        raise DomainError("sample index must be >= 0")
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def _center_of(sel):
    return tuple(sel.center) if isinstance(sel, IndicatorSet) else None


def _check_sample_count(N):
    # the one rule for every estimate: a standard error needs two samples
    if N < 2:
        raise DomainError(f"need N >= 2 for a standard error, got {N}")


def _check_exponent(s, diagnostic):
    if not (0.0 < s < 1.0 or (s == 1.0 and diagnostic)):
        raise DomainError(
            f"s must be in (0, {'1]' if diagnostic else '1)'}, got {s}")


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentEstimate:
    """Empirical mean of ||chi_x (H - z)^{-1} chi_y||^s over realizations.

    s = 1.0 is allowed only as a diagnostic (the moment itself is not
    integrable there); estimators refuse it unless explicitly asked.
    """

    s: float
    shift: SpectralShift
    x: tuple | None
    y: tuple | None
    N: int
    mean: float
    stderr: float
    sample_min: float
    sample_max: float
    seed: int
    diagnostic: bool = False

    def __post_init__(self):
        _check_exponent(self.s, self.diagnostic)
        _check_sample_count(self.N)
        if not (self.mean >= 0.0 and self.stderr >= 0.0):
            raise DomainError("mean and stderr must be nonnegative")

    @property
    def E(self):
        return self.shift.E

    @property
    def eps(self):
        return self.shift.eps

    def payload(self):
        """Flat record for the JSON-lines emitter."""
        return {
            "s": self.s, "E": self.E, "eps": self.eps,
            "x": list(self.x) if self.x is not None else None,
            "y": list(self.y) if self.y is not None else None,
            "N": self.N, "mean": self.mean, "stderr": self.stderr,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class EpsilonSchedule:
    """Strictly decreasing positive eps values, at least two."""

    eps: tuple

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps)
        object.__setattr__(self, "eps", eps)
        if len(eps) < 2:
            raise DomainError("schedule needs at least two eps values")
        if not all(e > 0.0 for e in eps):
            raise DomainError("all eps must be positive")
        if not all(a > b for a, b in zip(eps, eps[1:])):
            raise DomainError("eps values must be strictly decreasing")

    def shifts(self, E):
        return [SpectralShift(E=E, eps=e) for e in self.eps]


@dataclass(frozen=True)
class EpsilonScanResult:
    estimates: tuple
    verdict: str

    @property
    def means(self):
        return np.array([e.mean for e in self.estimates])

    @property
    def stable(self):
        return self.verdict == "stable"


# ---------------------------------------------------------------------------
# scan core
# ---------------------------------------------------------------------------

def _run_sample(factory, job, master_seed, index):
    seed = sample_seed(master_seed, index)
    H = factory.hamiltonian_for_seed(seed)
    try:
        return job(H)
    except SolveError as exc:
        raise SolveError(f"sample {index} (seed {seed}): {exc}",
                         achieved=exc.achieved) from exc


def _single_thread_blas():
    """Pool initializer: one OpenBLAS thread in every worker.

    Without it each worker keeps OpenBLAS's default of one thread per core,
    and a pool of workers oversubscribes the machine.  A forked worker
    already has the one thread map_samples sets in the parent while it
    forks, and skips the call: after a fork, setting the count restarts
    OpenBLAS's thread pool, whose new threads spin for a while.
    """
    for get, put in openblas_thread_controls():
        if get() != 1:
            put(1)


def map_samples(factory, job, N, master_seed, workers=None):
    """[job(H_i) for i < N], H_i the realization drawn for sample i.

    H_i = factory.hamiltonian_for_seed(sample_seed(master_seed, i)).
    With workers > 1 the samples run in a pool of min(workers, N)
    single-threaded BLAS processes, so factory and job must pickle; this
    process keeps its own BLAS thread count.  Results come back in sample
    order either way, so they are identical for every worker count.
    A SolveError names the sample index and seed that raised it.
    """
    if N < 1:
        raise DomainError("need at least one sample")
    task = partial(_run_sample, factory, job, master_seed)
    if workers is not None and workers > 1:
        # a pool starts all its processes at once, so none beyond N
        procs = min(workers, N)
        with single_blas_thread(), ProcessPoolExecutor(
                max_workers=procs, initializer=_single_thread_blas) as pool:
            # one chunk per worker: the task, factory included, is
            # unpickled once per chunk, and the factory caches its
            # operator and bump matrix for every later sample
            return list(pool.map(task, range(N), chunksize=-(-N // procs)))
    return [task(index) for index in range(N)]


def _norm_grid(shifts, pairs, H):
    # one factorization per shift, shared by every (X, Y) pair
    out = np.empty((len(shifts), len(pairs)))
    for k, shift in enumerate(shifts):
        try:
            solver = ShiftedSolver(H, shift)
            for j, (X, Y) in enumerate(pairs):
                out[k, j] = solver.block_norm(X, Y)
        except SolveError as exc:
            raise SolveError(f"solve at z={shift.z} failed: {exc}",
                             achieved=exc.achieved) from exc
    return out


def _scan(factory, shifts, pairs, N, master_seed, workers):
    """(N, len(shifts), len(pairs)) block norms, realizations shared."""
    shifts, pairs = list(shifts), list(pairs)
    if not shifts or not all(isinstance(sh, SpectralShift) for sh in shifts):
        raise DomainError("need a non-empty list of SpectralShift instances")
    if not pairs:
        raise DomainError("need at least one (X, Y) pair")
    job = partial(_norm_grid, shifts, pairs)
    return np.array(map_samples(factory, job, N, master_seed, workers))


def scan_norms(factory, shifts, X, Y, N, master_seed, workers=None):
    """(N, len(shifts)) block norms; row i uses the seed for sample i.

    All shifts share realizations.  Worker processes only change the
    evaluation schedule: rows are placed by sample index before any
    aggregation, so results are identical for every worker count.
    """
    return _scan(factory, shifts, [(X, Y)], N, master_seed, workers)[:, :, 0]


def scan_pair_norms(factory, shifts, pairs, N, master_seed, workers=None):
    """(N, len(shifts), len(pairs)) block norms, one draw per realization.

    Every (shift, pair) cell sees the same realizations, and all pairs at
    one shift share the factorization of (H - z), so decay ladders at
    several energies come out of one sweep with common random numbers;
    consecutive pairs with the same X share one adjoint solve per
    realization and shift.
    """
    return _scan(factory, shifts, pairs, N, master_seed, workers)


def estimates_from_norms(norms, s, shifts, X=None, Y=None, seed=0,
                         diagnostic=False):
    """Fold a norm scan into per-shift MomentEstimates at exponent s.

    The bits depend on the block's width: numpy's axis-0 mean and std sum
    an (N, 1) array pairwise but the columns of a wider one row by row.
    So fold each record from a block of the shape it has on its own:
    (N, 1) per moment, (N, |eps|) per eps scan, (N, |ladder|) per ladder.
    """
    norms = np.asarray(norms, dtype=float)
    if norms.ndim != 2 or norms.shape[1] != len(shifts):
        raise DomainError("norms must be (N, len(shifts))")
    N = norms.shape[0]
    _check_sample_count(N)
    powers = norms ** s
    means = powers.mean(axis=0)
    stderrs = powers.std(axis=0, ddof=1) / np.sqrt(N)
    return [
        MomentEstimate(
            s=float(s), shift=shift, x=_center_of(X), y=_center_of(Y),
            N=N, mean=float(means[k]), stderr=float(stderrs[k]),
            sample_min=float(powers[:, k].min()),
            sample_max=float(powers[:, k].max()),
            seed=int(seed), diagnostic=diagnostic)
        for k, shift in enumerate(shifts)
    ]


def stability_verdict(means):
    """'stable' if the last two means agree to STABILIZATION_TOL relatively."""
    means = np.asarray(means, dtype=float)
    if means.size < 2:
        raise DomainError("verdict needs at least two means")
    a, b = means[-2], means[-1]
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return "stable"
    return "stable" if abs(a - b) < STABILIZATION_TOL * scale else "unstable"


# ---------------------------------------------------------------------------
# public estimators
# ---------------------------------------------------------------------------

def _check_estimates(s_values, N, diagnostic=False):
    _check_sample_count(N)    # before any draw, not after the scan
    for s in s_values:
        _check_exponent(s, diagnostic)


def estimate_fractional_moment(factory, s_values, shifts, X, Y, N, master_seed,
                               workers=None, diagnostic=False):
    """Moments of ||chi_X (H - z)^{-1} chi_Y||^s, indexed [s][shift].

    One scan over all shifts; each estimate is folded from its own (N, 1)
    column (see estimates_from_norms).  diagnostic=True permits s = 1.0,
    and exactly the s = 1.0 estimates are marked diagnostic.
    """
    _check_estimates(s_values, N, diagnostic)
    norms = scan_norms(factory, shifts, X, Y, N, master_seed, workers)
    return [[estimates_from_norms(norms[:, k:k + 1], s, [shift], X=X, Y=Y,
                                  seed=master_seed, diagnostic=(s == 1.0))[0]
             for k, shift in enumerate(shifts)] for s in s_values]


def epsilon_scan(factory, s_values, energies, schedule, X, Y, N, master_seed,
                 workers=None, diagnostic=False):
    """EpsilonScanResults down the eps schedule, indexed [s][E].

    One scan over every energy's schedule; each (s, E) is folded from its
    own (N, |eps|) block (see estimates_from_norms).  The verdict compares
    the last two means: the scan "stabilized" when they differ by less
    than STABILIZATION_TOL relatively.  diagnostic=True permits
    s = 1.0, as in estimate_fractional_moment.
    """
    if not isinstance(schedule, EpsilonSchedule):
        raise DomainError("expected an EpsilonSchedule")
    _check_estimates(s_values, N, diagnostic)
    n = len(schedule.eps)
    shifts = [sh for E in energies for sh in schedule.shifts(E)]
    norms = scan_norms(factory, shifts, X, Y, N, master_seed, workers)

    def fold(s, j):
        ests = estimates_from_norms(norms[:, j:j + n], s, shifts[j:j + n],
                                    X=X, Y=Y, seed=master_seed,
                                    diagnostic=(s == 1.0))
        verdict = stability_verdict([e.mean for e in ests])
        return EpsilonScanResult(estimates=tuple(ests), verdict=verdict)
    return [[fold(s, j) for j in range(0, len(shifts), n)] for s in s_values]


def ladder_moments(factory, s_values, shifts, X, Ys, N, master_seed,
                   workers=None):
    """Rung estimates of X against each Y in Ys, indexed [s][shift].

    One scan over all shifts and rungs; each (s, shift) ladder is a list
    in Ys order, folded from its own (N, |Ys|) block (see
    estimates_from_norms).
    """
    _check_estimates(s_values, N)
    norms = scan_pair_norms(factory, shifts, [(X, Y) for Y in Ys], N,
                            master_seed, workers)
    return [[estimates_from_norms(norms[:, k, :], s, [shift] * len(Ys),
                                  seed=master_seed)
             for k, shift in enumerate(shifts)] for s in s_values]


def holder_modulus(factory, s, z1, z2, X, Y, N, master_seed, workers=None):
    """|m(z1) - m(z2)| / |z1 - z2|^s with common-seed moment estimates m."""
    if not (isinstance(z1, SpectralShift) and isinstance(z2, SpectralShift)):
        raise DomainError("z1 and z2 must be SpectralShift instances")
    if z1.z == z2.z:
        raise DomainError("z1 = z2 leaves the modulus undefined")
    _check_estimates([s], N)
    norms = scan_norms(factory, [z1, z2], X, Y, N, master_seed, workers)
    m1, m2 = (norms ** s).mean(axis=0)
    return float(abs(m1 - m2) / abs(z1.z - z2.z) ** s)
