"""Top-level acceptance checks, one verdict per criterion.

Each test covers one numbered acceptance criterion at its stated
tolerance and prints one line with the measured quantities; `pytest -v`
then shows exactly one pass/fail verdict per criterion.  Criterion 3 is
split in two: the small-s stability clause, and the s = 1 diagnostic
clause.  The latter asserts that the s = 1 mean grows tenfold, does not
stabilize, and is carried by one realization at the smallest eps (a
share above 1/2), while the same norms at s = 0.3 stabilize with no
such sample.  It does not test stderr/mean > 1: for nonnegative samples
stderr/mean <= 1 for every N, so that threshold cannot be met.

Everything here is frozen: model parameters, seeds, schedules and set
geometry are pinned so the suite is deterministic run to run.
"""

import json
import math
import time

import numpy as np
import pytest

from fracmom import cli, moments
from fracmom.criterion import (
    ModifiedDistance,
    criterion_factor,
    estimate_raw_boundary_moment,
    fit_exponential_decay,
    verify_criterion_consistency,
)
from fracmom.localization import (
    EigenWindow,
    correlator_from_pairs,
    eigenfunction_decay_rate,
    eigensolve_window,
    localization_center,
)
from fracmom.model import (
    BackgroundFields,
    GridSpec,
    LandauGauge,
    ModelConfig,
    SingleSiteProfile,
    disorder_law,
    ground_energy,
)
from fracmom.moments import (
    EpsilonSchedule,
    epsilon_scan,
    estimate_fractional_moment,
    holder_modulus,
    ladder_moments,
    sample_seed,
    scan_norms,
)
from fracmom.records import read_records
from fracmom.resolvent import (
    SpectralShift,
    boundary_layer_indices,
    indicator_set,
)
from fracmom.validation import (
    DissipativeOperator,
    HSOperator,
    oracle_compare,
    weak_l1_levelset_measure,
)
from one_site import OneSiteModel


def chain(box, h, lam, u0, r=1.0):
    g = GridSpec(d=1, box=(box,), h=h)
    return ModelConfig(grid=g, background=BackgroundFields(),
                       profile=SingleSiteProfile(r=r, u0=u0),
                       law=disorder_law(lam, g))


# the strongly localized chain shared by criteria 4, 5 and 7
LOCALIZED = dict(box=64.0, h=0.25, lam=50.0, u0=8.0)


# ---------------------------------------------------------------------------
# 1: sparse block norms against the dense oracle
# ---------------------------------------------------------------------------

def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    E_cycle = (0.5, 1.5, 3.0)
    eps_cycle = (1e-1, 1e-2, 1e-3)

    cfg1 = chain(30.0, 0.5, lam=3.0, u0=1.0)
    g1 = cfg1.grid
    cfg2 = ModelConfig(
        grid=GridSpec(d=2, box=(20.0, 20.0), h=1.0),
        background=BackgroundFields(A=LandauGauge(b=0.2)),
        profile=SingleSiteProfile(r=1.5, u0=1.0),
        law=disorder_law(3.0, GridSpec(d=2, box=(20.0, 20.0), h=1.0)))
    g2 = cfg2.grid
    assert g1.npoints <= 500 and g2.npoints <= 500

    worst = 0.0
    for i in range(25):
        shift = SpectralShift(E=E_cycle[i % 3], eps=eps_cycle[i % 3])
        rep = oracle_compare(cfg1, shift, indicator_set(g1, (8.0,), 1.0),
                             indicator_set(g1, (22.0,), 1.0), seed=i)
        assert rep.passed, f"1d config {i}: rel diff {rep.rel_diff:.3e}"
        worst = max(worst, rep.rel_diff)
    for i in range(25):
        shift = SpectralShift(E=E_cycle[i % 3], eps=eps_cycle[i % 3])
        rep = oracle_compare(cfg2, shift,
                             indicator_set(g2, (6.0, 6.0), 1.5),
                             indicator_set(g2, (14.0, 14.0), 1.5),
                             seed=100 + i)
        assert rep.passed, f"2d config {i}: rel diff {rep.rel_diff:.3e}"
        worst = max(worst, rep.rel_diff)

    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 300.0
    print(f"criterion 01 oracle equivalence: PASS "
          f"(50 configs, worst rel diff {worst:.3e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2: one-site closed form
# ---------------------------------------------------------------------------

def test_criterion_02_one_site_closed_form():
    t0 = time.perf_counter()
    site = np.array([0])
    [[est]] = estimate_fractional_moment(
        OneSiteModel(), [0.5], [SpectralShift(E=0.5, eps=1e-6)], site, site,
        N=10_000, master_seed=2024)
    exact = 2.0 * math.sqrt(2.0)  # (e^{1-s} + (1-e)^{1-s})/(1-s) at s=e=1/2
    elapsed = time.perf_counter() - t0
    assert abs(est.mean - exact) < 3.0 * est.stderr
    assert elapsed < 60.0
    print(f"criterion 02 one-site closed form: PASS "
          f"(mean {est.mean:.5f} vs {exact:.5f}, "
          f"{abs(est.mean - exact) / est.stderr:.2f} stderr, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3: eps-stability at small s; diagnostic blow-up at s = 1
# ---------------------------------------------------------------------------

_SCAN_MODEL = dict(box=64.25, h=0.25, lam=2.0, u0=1.0)  # exactly 256 points
_SCAN_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1.5e-6, 1e-6)
_SCAN_E = 32.0  # mid-spectrum: kinetic max 4/h^2 = 64


def _scan_sets(cfg):
    return (indicator_set(cfg.grid, (24.0,), 1.0),
            indicator_set(cfg.grid, (40.0,), 1.0))


def test_criterion_03_eps_stability_at_small_s():
    t0 = time.perf_counter()
    cfg = chain(**_SCAN_MODEL)
    assert cfg.grid.npoints == 256
    X, Y = _scan_sets(cfg)
    [[scan]] = epsilon_scan(cfg, [0.3], [_SCAN_E],
                            EpsilonSchedule(_SCAN_SCHEDULE), X, Y, N=200,
                            master_seed=2024)
    means = scan.means
    change = abs(means[-1] - means[-2]) / abs(means[-1])
    last = scan.estimates[-1]
    ratio = last.stderr / last.mean
    elapsed = time.perf_counter() - t0
    assert scan.stable
    assert change < 0.05
    assert ratio < 0.2
    assert elapsed < 600.0
    print(f"criterion 03 eps-stability at s=0.3: PASS "
          f"(last-two change {100 * change:.2f}%, stderr/mean {ratio:.3f}, "
          f"{elapsed:.1f}s)")


def _largest_sample_share(est):
    # fraction of the empirical mean carried by the single largest sample
    return est.sample_max / (est.N * est.mean)


def test_criterion_03_diagnostic_blowup_at_s_one():
    """s = 1 diagnostic on the identical scan: the mean blows up.

    At s = 1 the moment is not integrable, so on the scan that
    stabilizes at s = 0.3 the s = 1 mean must grow without settling
    as eps shrinks, and at the smallest eps it must be carried by a
    handful of near-resonant realizations.  Asserted at s = 1:

    - the mean grows more than tenfold over the schedule;
    - the scan does not stabilize (the last two means differ by more
      than the schedule tolerance);
    - one realization carries more than half of the mean at the
      smallest eps.

    The relative standard error is no measure of this: for nonnegative
    samples

        (stderr/mean)^2 = (N * sum(x^2) / sum(x)^2 - 1) / (N - 1) <= 1,

    since sum(x^2) <= sum(x)^2, with equality only when one sample
    carries all the mass; a threshold stderr/mean > 1 cannot be met
    for any N >= 2.  As a negative control, the same norms folded at
    s = 0.3 must fail both of the last two conditions: the verdict is
    stable and no sample carries a majority of the mean.
    """
    cfg = chain(**_SCAN_MODEL)
    X, Y = _scan_sets(cfg)
    # identical realizations at both exponents: one scan, folded twice
    [[control], [diag]] = epsilon_scan(
        cfg, [0.3, 1.0], [_SCAN_E], EpsilonSchedule(_SCAN_SCHEDULE), X, Y,
        N=200, master_seed=2024, diagnostic=True)
    means = diag.means
    assert means[-1] > 10.0 * means[0], "s=1 mean failed to blow up"
    verdict = diag.verdict
    share = _largest_sample_share(diag.estimates[-1])

    control_verdict = control.verdict
    control_share = _largest_sample_share(control.estimates[-1])
    print(f"criterion 03 s=1.0 diagnostic: mean grew {means[0]:.3g} -> "
          f"{means[-1]:.3g}, verdict {verdict}, largest-sample share "
          f"{share:.3f}; s=0.3 control: verdict {control_verdict}, "
          f"share {control_share:.3f}")
    assert verdict == "unstable", "s=1 scan stabilized"
    assert share > 0.5, "s=1 mean not carried by one realization"
    assert control_verdict == "stable"
    assert control_share <= 0.5


# ---------------------------------------------------------------------------
# 4: large-disorder exponential decay
# ---------------------------------------------------------------------------

def test_criterion_04_large_disorder_decay():
    t0 = time.perf_counter()
    cfg = chain(**LOCALIZED)
    ladder = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
    X = indicator_set(cfg.grid, (16.0,), 1.0)
    targets = [indicator_set(cfg.grid, (16.0 + d,), 1.0) for d in ladder]
    [[ests]] = ladder_moments(cfg, [0.3], [SpectralShift(E=8.0, eps=1e-3)],
                              X, targets, N=200, master_seed=11)
    fit = fit_exponential_decay([(d, e.mean) for d, e in zip(ladder, ests)],
                                stderrs=[e.stderr for e in ests])
    elapsed = time.perf_counter() - t0
    assert len(ladder) >= 6
    assert fit.mu > 0.0
    assert fit.r2 >= 0.9
    assert elapsed < 900.0
    print(f"criterion 04 large-disorder decay: PASS "
          f"(mu {fit.mu:.4f}, r2 {fit.r2:.4f}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5: finite-volume criterion triggers and matches measured decay
# ---------------------------------------------------------------------------

def test_criterion_05_criterion_decay_consistency():
    t0 = time.perf_counter()
    schedule = EpsilonSchedule((1e-2, 1e-3))
    reports = []
    for L in (26.0, 30.0, 40.0):
        cfg = chain(2.0 * L, LOCALIZED["h"], LOCALIZED["lam"],
                    LOCALIZED["u0"])
        raw, = estimate_raw_boundary_moment(
            cfg, [0.3], [8.0], L, schedule, N=200, master_seed=2024,
            alphas=[(L,)])[0]
        E0 = ground_energy(cfg.h0())
        reports.append(criterion_factor(0.3, LOCALIZED["lam"], 8.0, E0, L,
                                        1, raw, M_const=1.0))
    triggered = [rep for rep in reports if rep.triggered]
    assert triggered, ("no factor < 1 in the scanned set: "
                       + ", ".join(f"L={r.L}: {r.factor:.3g}"
                                   for r in reports))

    big = chain(**LOCALIZED)
    check = verify_criterion_consistency(
        big, triggered[0], ladder=(2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0),
        eps=1e-3, N=100, master_seed=2024, x0=(20.0,))
    elapsed = time.perf_counter() - t0
    assert check.fit.mu > 0.0
    assert check.fit.r2 >= 0.8
    assert check.consistent
    assert check.rate_ratio is not None  # recorded, not asserted
    print(f"criterion 05 criterion-decay consistency: PASS "
          f"(factors {[f'{r.factor:.3g}' for r in reports]}, "
          f"predicted rate {triggered[0].predicted_rate:.4f}, "
          f"measured mu {check.fit.mu:.4f}, r2 {check.fit.r2:.4f}, "
          f"ratio {check.rate_ratio:.2f}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6: weak 1-1 level-set scaling
# ---------------------------------------------------------------------------

def test_criterion_06_weak_l1_scaling():
    t0 = time.perf_counter()
    t_grid = np.geomspace(1.0, 1e3, 40)
    slopes = []
    for i in range(20):
        rng = np.random.default_rng(3000 + i)
        B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        A = DissipativeOperator(X=(B + B.conj().T) / 2.0,
                                Y=np.zeros((5, 5)))
        T = HSOperator(T=rng.standard_normal((5, 5)))
        rep = weak_l1_levelset_measure(A, T, t_grid=t_grid)
        assert not rep.degenerate
        assert np.all(np.diff(rep.measures) <= 0.0)
        assert -1.2 <= rep.slope <= -0.8, f"pair {i}: slope {rep.slope:.3f}"
        slopes.append(rep.slope)

    # scalar analytic case: level sets of t0^2/|eta + x + iy| have length
    # 2 sqrt((t0^2/t)^2 - y^2), reproduced to rounding
    x, y, t0_ = 0.7, 0.3, 1.3
    rep = weak_l1_levelset_measure(
        DissipativeOperator(X=np.array([[x]]), Y=np.array([[y]])),
        HSOperator(T=np.array([[t0_]])),
        t_grid=np.array([0.5, 1.0, 2.0, 4.0, 5.0, 7.0]),
        eta_range=(-40.0, 40.0))
    tol = 1e-12 * 80.0
    for t, m in zip([0.5, 1.0, 2.0, 4.0, 5.0, 7.0], rep.measures):
        exact = 2.0 * math.sqrt(max(0.0, (t0_ ** 2 / t) ** 2 - y ** 2))
        assert abs(m - exact) <= tol

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 06 weak 1-1 scaling: PASS "
          f"(20 slopes in [{min(slopes):.3f}, {max(slopes):.3f}], "
          f"scalar case within {tol:.0e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 7: eigenfunction correlator cross-check
# ---------------------------------------------------------------------------

def test_criterion_07_correlator_cross_check():
    t0 = time.perf_counter()
    cfg = chain(**LOCALIZED)
    window = EigenWindow(80.0, 160.0)
    ladder = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
    X = indicator_set(cfg.grid, (16.0,), 1.0)
    targets = [indicator_set(cfg.grid, (16.0 + d,), 1.0) for d in ladder]

    acc = np.zeros(len(ladder))
    nus = []
    N = 12
    for i in range(N):
        H = cfg.hamiltonian_for_seed(sample_seed(2024, i))
        pairs = eigensolve_window(H, window)
        for j, Y in enumerate(targets):
            acc[j] += correlator_from_pairs(pairs, H, X, Y)
        for k in range(len(pairs)):
            psi = pairs.vectors[:, k]
            center = localization_center(psi, cfg.grid)
            nus.append(eigenfunction_decay_rate(psi, center, cfg.grid).mu)
    acc /= N
    fit = fit_exponential_decay(list(zip(ladder, acc)))

    elapsed = time.perf_counter() - t0
    assert fit.mu > 0.0
    assert fit.r2 >= 0.8
    assert nus and min(nus) > 0.0
    assert elapsed < 900.0
    print(f"criterion 07 correlator cross-check: PASS "
          f"(mu {fit.mu:.4f}, r2 {fit.r2:.4f}, {len(nus)} eigenfunctions "
          f"with nu in [{min(nus):.2f}, {max(nus):.2f}], {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 8: Holder modulus stays finite and stable under grid refinement
# ---------------------------------------------------------------------------

def test_criterion_08_holder_openness():
    cfg = chain(32.0, 0.25, lam=50.0, u0=8.0)
    X = indicator_set(cfg.grid, (14.0,), 1.0)
    Y = indicator_set(cfg.grid, (18.0,), 1.0)
    s, N, seed = 0.3, 50, 2024

    def grid_max(d_re, d_im):
        shifts = [SpectralShift(E=8.0 + j * d_re, eps=0.02 + k * d_im)
                  for j in range(-2, 3) for k in range(-2, 3)]
        # one common-seed sweep gives every m(z); the pairwise quotient
        # equals holder_modulus on that pair because the realizations
        # depend on the seed stream only, not on the shift list
        means = (scan_norms(cfg, shifts, X, Y, N, seed) ** s).mean(axis=0)
        best, pair = -1.0, None
        for i in range(len(shifts)):
            for j in range(i + 1, len(shifts)):
                q = (abs(means[i] - means[j])
                     / abs(shifts[i].z - shifts[j].z) ** s)
                if q > best:
                    best, pair = q, (shifts[i], shifts[j])
        return best, pair

    base, argmax_pair = grid_max(0.5, 0.005)
    half, _ = grid_max(0.25, 0.0025)
    assert math.isfinite(base) and base > 0.0
    assert half < 2.0 * base
    assert half > 0.5 * base
    # the sweep shortcut must agree with the op itself, exactly
    direct = holder_modulus(cfg, s, argmax_pair[0], argmax_pair[1], X, Y,
                            N, seed)
    assert direct == base
    print(f"criterion 08 Holder openness: PASS "
          f"(max {base:.3e} -> {half:.3e} under halving, "
          f"ratio {half / base:.3f})")


# ---------------------------------------------------------------------------
# 9: worker count never changes the numbers
# ---------------------------------------------------------------------------

def test_criterion_09_determinism_across_workers(tmp_path, monkeypatch):
    pools = []

    class CountingPool(moments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(moments, "ProcessPoolExecutor", CountingPool)

    doc = {
        "experiment": "determinism",
        "model": {
            "grid": {"d": 1, "box": [24.0], "h": 1.0},
            "profile": {"r": 1.0, "shape": "indicator", "u0": 1.0},
            "law": {"lam": 2.0},
        },
        "run": {"s": [0.5], "E": [1.0], "eps": [0.1, 0.01], "N": 8,
                "master_seed": 3, "ladder": [2.0, 4.0, 6.0, 8.0],
                "x0": [6.0], "window": [1.0, 3.0]},
        "output": {"dir": str(tmp_path / "unused")},
    }
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(doc))
    subcommands = ("decay", "moment", "epsilon-scan", "correlator", "ids")
    compared = 0
    for sub in subcommands:
        assert cli.main([sub, "--config", str(config_path),
                         "--out", str(tmp_path / sub / "serial")]) == 0
        del pools[:]
        assert cli.main([sub, "--config", str(config_path),
                         "--out", str(tmp_path / sub / "pool"),
                         "--workers", "2"]) == 0
        assert len(pools) == 1, f"{sub} started {len(pools)} pools"
        serial = read_records(tmp_path / sub / "serial" / "records.jsonl")
        pool = read_records(tmp_path / sub / "pool" / "records.jsonl")
        assert len(serial) == len(pool) > 0
        for a, b in zip(serial, pool):
            pa = json.dumps(a.payload, sort_keys=True).encode()
            pb = json.dumps(b.payload, sort_keys=True).encode()
            assert pa == pb  # byte-identical numeric payloads
        compared += len(serial)
    print(f"criterion 09 determinism: PASS ({compared} records "
          f"byte-identical across worker counts, {len(subcommands)} "
          f"subcommands, one pool each)")


# ---------------------------------------------------------------------------
# 10: exact identities against the documented hand cases
# ---------------------------------------------------------------------------

def test_criterion_10_exact_identities():
    # modified distance on the 1d box [0, 10], h = 1
    g = GridSpec(d=1, box=(10.0,), h=1.0)
    full = ModifiedDistance(g, np.arange(g.npoints))
    assert full.distance((3.0,), (5.0,)) == 2.0
    assert full.distance((2.0,), (8.0,)) == 4.0  # wall detour
    holed = ModifiedDistance(g, np.delete(np.arange(g.npoints), 4))  # no 5.0
    assert holed.distance((4.0,), (9.0,)) == 2.0  # hole + wall
    g2 = GridSpec(d=2, box=(6.0, 6.0), h=1.0)
    assert ModifiedDistance(g2).distance((2.0, 2.0), (4.0, 4.0)) == math.sqrt(8.0)

    # boundary layer on the 1d box [0, 30], h = 1
    layer = boundary_layer_indices((15.0,), L=15.0, r=1.0,
                                   grid=GridSpec(d=1, box=(30.0,), h=1.0),
                                   depth=13.0)
    expected = np.concatenate([np.arange(1, 12), np.arange(17, 28)])
    assert np.array_equal(np.sort(layer.indices), expected)
    # default depth 23 r on the 1d box [0, 60]
    layer = boundary_layer_indices((30.0,), L=25.0, r=1.0,
                                   grid=GridSpec(d=1, box=(60.0,), h=1.0))
    expected = np.concatenate([np.arange(6, 27), np.arange(32, 53)])
    assert np.array_equal(np.sort(layer.indices), expected)

    # criterion factor arithmetic, both hand cases from its docstring
    rep = criterion_factor(0.25, 1.0, 3.0, 1.0, 25.0, 1, 1e-8,
                           M_const=2.0)
    expected = 2.0 * 2.0 ** 6.25 / 0.25 * 2.0 ** 0.5 * 3.0 ** 3.75 * 1e-8
    assert rep.factor == pytest.approx(expected, rel=1e-13)
    assert rep.triggered
    assert rep.gamma == pytest.approx(-math.log(expected), rel=1e-13)
    assert rep.predicted_rate == pytest.approx(-math.log(expected) / 50.0,
                                               rel=1e-13)
    rep = criterion_factor(0.2, 4.0, 5.0, 5.0, 30.0, 2, 1.0)
    expected = 5.0 ** 6 / 0.4 * 1.25 ** 0.4 * 31.0 ** 2
    assert rep.factor == pytest.approx(expected, rel=1e-13)
    assert not rep.triggered and rep.gamma is None

    print("criterion 10 exact identities: PASS "
          "(modified distance, boundary layer, criterion arithmetic)")
