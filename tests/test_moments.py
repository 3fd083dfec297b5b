import ctypes
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings, strategies as st

from fracmom import model, moments
from fracmom.errors import DomainError, SolveError
from fracmom.model import (
    BackgroundFields,
    DiscreteHamiltonian,
    GridSpec,
    LandauGauge,
    ModelConfig,
    SingleSiteProfile,
    disorder_law,
)
from fracmom.moments import (
    EpsilonSchedule,
    MomentEstimate,
    epsilon_scan,
    estimate_fractional_moment,
    estimates_from_norms,
    holder_modulus,
    ladder_moments,
    map_samples,
    sample_seed,
    scan_norms,
    stability_verdict,
)
from fracmom.resolvent import ShiftedSolver, SpectralShift, indicator_set
from one_site import OneSiteModel


def chain_config(npts=30, lam=2.0, h=0.5):
    g = GridSpec(d=1, box=(h * (npts + 1),), h=h)
    return ModelConfig(grid=g, background=BackgroundFields(),
                       profile=SingleSiteProfile(r=1.0, u0=1.0),
                       law=disorder_law(lam, g))


class ConstantScalarModel:
    # deterministic 1x1 H = [a]; moments then have scalar closed forms
    def __init__(self, a):
        self.a = a

    def hamiltonian_for_seed(self, seed):
        g = GridSpec(d=1, box=(4.0,), h=1.0)
        ent = scipy.sparse.csr_matrix(np.array([[self.a]]))
        return DiscreteHamiltonian(grid=g, entries=ent, mask=np.array([0]))


class BrokenModel:
    # non-finite entry defeats the residual check, whatever the solver does
    def hamiltonian_for_seed(self, seed):
        g = GridSpec(d=1, box=(4.0,), h=1.0)
        ent = scipy.sparse.csr_matrix(np.array([[np.inf]]))
        return DiscreteHamiltonian(grid=g, entries=ent, mask=np.array([0]))


SITE = np.array([0])


# ---------------------------------------------------------------------------
# seeds and containers

def test_sample_seed_deterministic_and_distinct():
    assert sample_seed(42, 0) == sample_seed(42, 0)
    seeds = {sample_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert sample_seed(43, 0) != sample_seed(42, 0)
    with pytest.raises(DomainError):
        sample_seed(42, -1)


def test_estimate_container_validation():
    z = SpectralShift(1.0, 1e-3)
    ok = MomentEstimate(s=0.5, shift=z, x=None, y=None, N=3, mean=1.0,
                        stderr=0.1, sample_min=0.5, sample_max=2.0, seed=0)
    assert ok.E == 1.0 and ok.eps == 1e-3
    MomentEstimate(s=1.0, shift=z, x=None, y=None, N=3, mean=1.0, stderr=0.1,
                   sample_min=0.5, sample_max=2.0, seed=0, diagnostic=True)
    for bad in (dict(s=1.0), dict(s=0.0), dict(s=1.2), dict(N=0), dict(N=1),
                dict(mean=-1.0), dict(stderr=-0.1)):
        kw = dict(s=0.5, shift=z, x=None, y=None, N=3, mean=1.0, stderr=0.1,
                  sample_min=0.5, sample_max=2.0, seed=0)
        kw.update(bad)
        with pytest.raises(DomainError):
            MomentEstimate(**kw)


def test_schedule_validation():
    s = EpsilonSchedule(eps=(1e-1, 1e-2, 1e-3))
    assert [sh.eps for sh in s.shifts(2.0)] == [1e-1, 1e-2, 1e-3]
    assert all(sh.E == 2.0 for sh in s.shifts(2.0))
    for bad in [(1e-3, 1e-2), (1e-2,), (1e-2, 0.0), (1e-2, 1e-2)]:
        with pytest.raises(DomainError):
            EpsilonSchedule(eps=bad)


def test_stability_verdict():
    assert stability_verdict([5.0, 1.0, 1.01]) == "stable"
    assert stability_verdict([1.0, 2.0]) == "unstable"
    assert stability_verdict([0.0, 0.0]) == "stable"
    assert stability_verdict([1.0, 1.04]) == "stable"
    assert stability_verdict([1.0, 1.06]) == "unstable"
    with pytest.raises(DomainError):
        stability_verdict([1.0])


@pytest.mark.parametrize("rows", [0, 1])
def test_fold_refuses_fewer_than_two_rows(rows):
    # one N >= 2 rule for the fold, the container and the estimators: one
    # row has no standard error, and 0.0 would read as an exact mean
    with pytest.raises(DomainError, match="need N >= 2"):
        estimates_from_norms(np.full((rows, 1), 0.5), 0.5,
                             [SpectralShift(1.0, 1e-2)])


def test_monotone_in_s_on_constant_samples():
    z = [SpectralShift(1.0, 1e-2)]
    small = np.full((8, 1), 0.5)
    large = np.full((8, 1), 2.0)
    ms = [estimates_from_norms(small, s, z)[0].mean for s in (0.2, 0.5, 0.8)]
    ml = [estimates_from_norms(large, s, z)[0].mean for s in (0.2, 0.5, 0.8)]
    assert ms[0] >= ms[1] >= ms[2]
    assert ml[0] <= ml[1] <= ml[2]


# For nonnegative samples x_1..x_N (N >= 2) the sample relative error obeys
#   (stderr/mean)^2 = (N sum(x^2) / sum(x)^2 - 1) / (N - 1) <= 1,
# with equality only when a single sample carries all the mass, so a
# diagnostic threshold "stderr/mean > 1" can never be met.
@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1e12)),
                   min_size=2, max_size=64))
@example(xs=[0.0, 0.0, 3.0])
@example(xs=[1e12] + [0.0] * 199)
def test_relative_stderr_never_exceeds_one(xs):
    norms = np.array(xs)[:, None]
    est = estimates_from_norms(norms, 1.0, [SpectralShift(1.0, 1e-2)],
                               diagnostic=True)[0]
    assert est.stderr <= est.mean * (1.0 + 1e-12)
    if np.count_nonzero(norms) == 1:
        assert est.stderr == pytest.approx(est.mean, rel=1e-12)


# ---------------------------------------------------------------------------
# estimator

def test_zero_coupling_gives_exact_constant():
    cfg = chain_config(npts=20, lam=0.0)
    z = SpectralShift(E=2.0, eps=1e-2)
    X = indicator_set(cfg.grid, (3.0,), 1.0)
    Y = indicator_set(cfg.grid, (8.0,), 1.0)
    [[est]] = estimate_fractional_moment(cfg, [0.5], [z], X, Y, N=8,
                                         master_seed=0)
    m = ShiftedSolver(cfg.hamiltonian_for_seed(0), z).block_norm(X, Y)
    assert est.mean == m ** 0.5
    assert est.stderr == 0.0
    assert est.sample_min == est.sample_max == est.mean
    assert est.x == (3.0,) and est.y == (8.0,)


def test_one_site_closed_form():
    # E|eta - e|^{-s} = (e^{1-s} + (1-e)^{1-s}) / (1-s) = 2 sqrt 2 at s=e=1/2
    z = SpectralShift(E=0.5, eps=1e-6)
    [[est]] = estimate_fractional_moment(OneSiteModel(), [0.5], [z], SITE,
                                         SITE, N=1500, master_seed=7)
    assert est.x is None and est.y is None
    assert abs(est.mean - 2.0 * np.sqrt(2.0)) < 3.0 * est.stderr


def test_estimator_input_gates(draws):
    cfg = chain_config(npts=10, lam=1.0)
    z = SpectralShift(E=2.0, eps=1e-2)
    X = indicator_set(cfg.grid, (2.0,), 1.0)
    with pytest.raises(DomainError):
        estimate_fractional_moment(cfg, [0.5, 1.0], [z], X, X, N=4,
                                   master_seed=0)
    with pytest.raises(DomainError):
        estimate_fractional_moment(cfg, [0.5], [z], X, X, N=1, master_seed=0)
    assert draws == []
    # diagnostic=True permits s = 1.0 and marks exactly those estimates
    [[est3], [est1]] = estimate_fractional_moment(
        cfg, [0.3, 1.0], [z], X, X, N=4, master_seed=0, diagnostic=True)
    assert not est3.diagnostic
    assert est1.diagnostic and est1.s == 1.0


def test_payload_record_shape():
    z = SpectralShift(E=0.5, eps=1e-3)
    [[est]] = estimate_fractional_moment(OneSiteModel(), [0.5], [z], SITE,
                                         SITE, N=4, master_seed=1)
    p = est.payload()
    assert sorted(p) == ["E", "N", "eps", "mean", "s", "seed", "stderr",
                         "x", "y"]
    assert p["x"] is None and p["seed"] == 1 and p["N"] == 4


def test_failure_reports_sample_seed():
    z = SpectralShift(E=0.5, eps=1e-3)
    with pytest.raises(SolveError, match="seed"):
        estimate_fractional_moment(BrokenModel(), [0.5], [z], SITE, SITE,
                                   N=4, master_seed=3)


# ---------------------------------------------------------------------------
# scans

def test_scan_common_random_numbers_bitwise():
    cfg = chain_config(npts=24, lam=2.0)
    X = indicator_set(cfg.grid, (3.0,), 1.0)
    Y = indicator_set(cfg.grid, (9.0,), 1.0)
    sch = EpsilonSchedule(eps=(1e-1, 1e-2))
    [[a]] = epsilon_scan(cfg, [0.3], [2.0], sch, X, Y, N=5, master_seed=11)
    [[b]] = epsilon_scan(cfg, [0.3], [2.0], sch, X, Y, N=5, master_seed=11)
    assert repr(a) == repr(b)
    assert a.means.tolist() == b.means.tolist()


def test_worker_count_does_not_change_numerics():
    cfg = chain_config(npts=16, lam=2.0)
    X = indicator_set(cfg.grid, (2.0,), 1.0)
    Y = indicator_set(cfg.grid, (6.0,), 1.0)
    z = [SpectralShift(E=2.0, eps=1e-2)]
    serial = scan_norms(cfg, z, X, Y, N=6, master_seed=5)
    pooled = scan_norms(cfg, z, X, Y, N=6, master_seed=5, workers=2)
    assert np.array_equal(serial, pooled)


def blas_threads():
    """Thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower()})
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts.append(getter())
                break
    return counts


def worker_threads(H):
    """(OpenBLAS thread counts, OS threads) of this process; a sample job."""
    return blas_threads(), len(os.listdir("/proc/self/task"))


def test_pool_workers_run_single_threaded_blas():
    parent = blas_threads()
    assert parent, "no OpenBLAS with a thread getter is loaded"
    per_sample = map_samples(chain_config(npts=8), worker_threads, N=4,
                             master_seed=1, workers=2)
    assert [counts for counts, _ in per_sample] == [[1] * len(parent)] * 4
    if multiprocessing.get_start_method() == "fork":
        # a forked worker restarts no OpenBLAS thread pool, whose new
        # threads would spin on the cores the workers need
        assert [n for _, n in per_sample] == [1] * 4
    assert blas_threads() == parent


def test_spawned_pool_workers_run_single_threaded_blas(monkeypatch):
    # a worker that starts a fresh interpreter inherits no thread count
    # from this process, so the pool initializer has to set it
    spawn = partial(ProcessPoolExecutor,
                    mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr(moments, "ProcessPoolExecutor", spawn)
    parent = blas_threads()
    per_sample = map_samples(chain_config(npts=8), worker_threads, N=2,
                             master_seed=1, workers=2)
    assert [counts for counts, _ in per_sample] == [[1] * len(parent)] * 2
    assert blas_threads() == parent


def bump_matrix_builds(H):
    """(pid, bump-matrix cache misses) of this process; a sample job."""
    time.sleep(0.05)    # every worker is up before a chunk is done
    return os.getpid(), model._bump_matrix.cache_info().misses


def test_pool_workers_unpickle_the_factory_once():
    # each worker unpickles one chunk of tasks, factory included, so its
    # bump matrix is built once and the cache serves every later sample
    model._bump_matrix.cache_clear()
    per_sample = map_samples(chain_config(npts=8), bump_matrix_builds, N=6,
                             master_seed=1, workers=2)
    assert [misses for _, misses in per_sample] != [0] * 6
    assert all(misses <= 1 for _, misses in per_sample)


def test_pooled_2d_norms_equal_serial_bitwise():
    g = GridSpec(d=2, box=(8.0, 8.0), h=0.25)
    cfg = ModelConfig(grid=g, background=BackgroundFields(A=LandauGauge(b=0.2)),
                      profile=SingleSiteProfile(r=1.0, shape="cosine-bump",
                                                u0=4.0),
                      law=disorder_law(10.0, g))
    X = indicator_set(g, (2.0, 4.0), 1.0)
    Y = indicator_set(g, (6.0, 4.0), 1.0)
    z = [SpectralShift(E=4.0, eps=1e-2), SpectralShift(E=4.0, eps=1e-3)]
    serial = scan_norms(cfg, z, X, Y, N=4, master_seed=3)
    pooled = scan_norms(cfg, z, X, Y, N=4, master_seed=3, workers=2)
    assert np.array_equal(serial, pooled)


def test_scan_below_spectrum_is_stable_and_increasing():
    # spectrum is nonnegative, so E = -5 keeps a fixed distance and the
    # eps dependence is tiny; means must creep up as eps decreases
    cfg = chain_config(npts=20, lam=1.0)
    X = indicator_set(cfg.grid, (3.0,), 1.0)
    Y = indicator_set(cfg.grid, (7.0,), 1.0)
    sch = EpsilonSchedule(eps=(1e-1, 1e-2, 1e-3, 1e-4))
    [[res]] = epsilon_scan(cfg, [0.5], [-5.0], sch, X, Y, N=3, master_seed=2)
    assert res.stable
    assert np.all(np.diff(res.means) >= -1e-9 * res.means[0])


def test_huge_eps_scaling():
    cfg = chain_config(npts=20, lam=0.0)
    X = indicator_set(cfg.grid, (3.0,), 1.0)
    s = 0.5
    [[e1, e2]] = estimate_fractional_moment(
        cfg, [s], [SpectralShift(2.0, 1e3), SpectralShift(2.0, 2e3)], X, X,
        N=2, master_seed=0)
    m1, m2 = e1.mean, e2.mean
    assert m2 < m1
    assert m1 / m2 == pytest.approx(2.0 ** s, rel=0.05)


def test_mid_spectrum_scan_runs_with_diagnostic_exponent(draws):
    cfg = chain_config(npts=24, lam=2.0)
    X = indicator_set(cfg.grid, (4.0,), 1.0)
    sch = EpsilonSchedule(eps=(1e-1, 3e-2, 1e-2))
    [[res], [diag]] = epsilon_scan(cfg, [0.3, 1.0], [4.0], sch, X, X, N=10,
                                   master_seed=9, diagnostic=True)
    assert res.verdict in ("stable", "unstable")
    assert not any(e.diagnostic for e in res.estimates)
    assert all(e.s == 1.0 and e.diagnostic for e in diag.estimates)
    assert len(draws) == 10
    with pytest.raises(DomainError):
        epsilon_scan(cfg, [0.3, 1.0], [4.0], sch, X, X, N=10, master_seed=9)
    assert len(draws) == 10


@pytest.mark.parametrize("estimator", ["moment", "epsilon-scan", "ladder"])
def test_list_call_equals_one_element_calls_on_one_draw(draws, estimator):
    # every [s][E] cell of a 2 x 2 call is the one-element call's estimate,
    # and the 2 x 2 call draws each of its N realizations once
    cfg = chain_config(npts=24, lam=2.0)
    X = indicator_set(cfg.grid, (3.0,), 1.0)
    Ys = [indicator_set(cfg.grid, (3.0 + d,), 1.0) for d in (2.0, 4.0, 6.0)]
    sch = EpsilonSchedule(eps=(1e-1, 1e-2))

    def shifts(energies):
        return [SpectralShift(E=E, eps=1e-2) for E in energies]
    call = {
        "moment": lambda s, E: estimate_fractional_moment(
            cfg, s, shifts(E), X, Ys[0], N=5, master_seed=11),
        "epsilon-scan": lambda s, E: epsilon_scan(
            cfg, s, E, sch, X, Ys[0], N=5, master_seed=11),
        "ladder": lambda s, E: ladder_moments(
            cfg, s, shifts(E), X, Ys, N=5, master_seed=11),
    }[estimator]
    s_values, energies = [0.3, 0.5], [1.0, 2.0]
    table = call(s_values, energies)
    assert len(draws) == len(set(draws)) == 5
    for row, s in zip(table, s_values):
        for cell, E in zip(row, energies):
            [[single]] = call([s], [E])
            assert repr(cell) == repr(single)


# ---------------------------------------------------------------------------
# holder modulus

def test_holder_rejects_equal_shifts():
    z = SpectralShift(E=1.0, eps=1e-3)
    with pytest.raises(DomainError):
        holder_modulus(OneSiteModel(), 0.5, z, z, SITE, SITE, N=2,
                       master_seed=0)


def test_holder_scalar_closed_form():
    a, s = 2.0, 0.5
    z1 = SpectralShift(E=1.0, eps=1e-2)
    z2 = SpectralShift(E=1.3, eps=2e-2)
    got = holder_modulus(ConstantScalarModel(a), s, z1, z2, SITE, SITE,
                         N=2, master_seed=0)
    want = abs(abs(a - z1.z) ** -s - abs(a - z2.z) ** -s) / abs(z1.z - z2.z) ** s
    assert got == pytest.approx(want, rel=1e-10)


def test_holder_moduli_bounded_under_shrinking_distance():
    a, s = 2.0, 0.5
    base = SpectralShift(E=1.0, eps=1e-2)
    mods = []
    for k in range(5):
        dz = 0.2 / 4 ** k
        other = SpectralShift(E=1.0 + dz, eps=1e-2)
        mods.append(holder_modulus(ConstantScalarModel(a), s, base, other,
                                   SITE, SITE, N=2, master_seed=0))
    assert np.all(np.isfinite(mods))
    assert max(mods) == mods[0]  # smooth scalar resolvent: modulus shrinks
