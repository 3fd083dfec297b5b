import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracmom.criterion import (
    CriterionReport,
    DecayFit,
    ModifiedDistance,
    criterion_factor,
    distance_ladder,
    estimate_raw_boundary_moment,
    fit_exponential_decay,
    measure_decay,
    verify_criterion_consistency,
)
from fracmom import model
from fracmom.config import parse_config
from fracmom.errors import DomainError
from fracmom.model import (
    BackgroundFields,
    GridSpec,
    ModelConfig,
    SingleSiteProfile,
    disorder_law,
    ground_energy,
    set_rows,
)
from fracmom.moments import EpsilonSchedule, epsilon_scan
from fracmom.presets import get_preset
from fracmom.resolvent import SpectralShift, boundary_layer_indices, indicator_set


def chain_config(box, lam, h=0.5, u0=1.0):
    g = GridSpec(d=1, box=(box,), h=h)
    return ModelConfig(grid=g, background=BackgroundFields(),
                       profile=SingleSiteProfile(r=1.0, u0=u0),
                       law=disorder_law(lam, g))


# ---------------------------------------------------------------------------
# modified distance

def test_modified_distance_shortcut_through_walls():
    g = GridSpec(d=1, box=(10.0,), h=1.0)
    mask = np.arange(g.npoints)
    assert ModifiedDistance(g, mask).distance((1.0,), (9.0,)) == 2.0
    assert ModifiedDistance(g, mask).distance((1.0,), (1.0,)) == 0.0


def test_modified_distance_deep_points_are_euclidean():
    g = GridSpec(d=1, box=(40.0,), h=1.0)
    assert ModifiedDistance(g).distance((18.0,), (22.0,)) == 4.0


def test_modified_distance_sees_holes():
    g = GridSpec(d=1, box=(10.0,), h=1.0)
    mask = np.setdiff1d(np.arange(g.npoints), [4])  # remove the point q=5
    m = ModifiedDistance(g, mask)
    assert m.to_complement((4.0,)) == 1.0  # hole closer than the wall
    # x exits through the hole (1), y through the wall (2); direct is 4
    assert m.distance((4.0,), (8.0,)) == 3.0
    assert ModifiedDistance(g).distance((4.0,), (8.0,)) == 4.0
    # hole 1 + wall 1 beats direct 5, whatever order the mask is given in
    assert ModifiedDistance(g, mask).distance((4.0,), (9.0,)) == 2.0
    assert ModifiedDistance(g, mask[::-1]).distance((4.0,), (9.0,)) == 2.0
    assert ModifiedDistance(g, mask[::-1]).to_complement((4.0,)) == 1.0


def test_modified_distance_domain_errors():
    g = GridSpec(d=1, box=(10.0,), h=1.0)
    m = ModifiedDistance(g, np.setdiff1d(np.arange(g.npoints), [4]))
    with pytest.raises(DomainError, match=r"^\(2\.5,\) is not a grid point$"):
        m.distance((2.5,), (2.0,))  # off the grid
    with pytest.raises(DomainError, match=r"^\(5\.0,\) is outside the domain mask$"):
        m.distance((5.0,), (2.0,))  # masked out
    with pytest.raises(DomainError, match=r"^point \(11\.0,\) is outside the open box"):
        m.distance((11.0,), (2.0,))  # outside the box


def test_modified_distance_without_holes_takes_any_point_of_the_open_box():
    g = GridSpec(d=1, box=(10.0,), h=1.0)
    for m in (ModifiedDistance(g), ModifiedDistance(g, np.arange(g.npoints))):
        assert m.distance((2.5,), (6.0,)) == 3.5  # off the grid
        assert m.distance((0.5,), (9.5,)) == 1.0  # between a wall and q = 1
        with pytest.raises(DomainError, match="outside the open box"):
            m.distance((10.0,), (2.0,))
        with pytest.raises(DomainError, match="has 2 coordinates"):
            m.distance((2.0, 2.0), (3.0,))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_modified_distance_never_exceeds_euclidean(data):
    g = GridSpec(d=2, box=(6.0, 6.0), h=1.0)
    n = g.npoints
    keep = data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n))
    mask = np.array(sorted(keep))
    pts = [tuple(p) for p in np.array(np.unravel_index(mask, g.shape)).T + 1.0]
    x = data.draw(st.sampled_from(pts))
    y = data.draw(st.sampled_from(pts))
    m = ModifiedDistance(g, mask)
    d = m.distance(x, y)
    assert d <= np.linalg.norm(np.subtract(x, y)) + 1e-12
    assert d == pytest.approx(m.distance(y, x), abs=0)


# ---------------------------------------------------------------------------
# criterion factor

def test_criterion_factor_reference_value():
    # choose M so the coupling block collapses to 1; the remaining
    # (1 + 1/lam)^{2s} = 2^{0.4} is the whole prefactor in d=1 at E=E0
    s, lam = 0.2, 1.0
    M = (1.0 - 3 * s) / (1.0 + lam) ** (5 * s * 5)
    rep = criterion_factor(s, lam, E=0.0, E0=0.0, L=30.0, d=1,
                           raw_moment=0.01, M_const=M)
    assert rep.factor == pytest.approx(2 ** 0.4 * 0.01, rel=1e-12)
    assert rep.triggered and rep.gamma == pytest.approx(-np.log(rep.factor))
    assert rep.predicted_rate == pytest.approx(rep.gamma / 60.0)


def test_criterion_factor_dimension_one_has_no_volume_term():
    a = criterion_factor(0.2, 2.0, 1.0, 0.0, L=30.0, d=1, raw_moment=0.1)
    b = criterion_factor(0.2, 2.0, 1.0, 0.0, L=60.0, d=1, raw_moment=0.1)
    assert a.factor == b.factor


def test_criterion_factor_monotonicity():
    kw = dict(s=0.2, lam=2.0, E=1.0, E0=0.0, L=30.0, d=2, raw_moment=0.1)
    base = criterion_factor(**kw).factor
    assert criterion_factor(**{**kw, "raw_moment": 0.2}).factor > base
    assert criterion_factor(**{**kw, "L": 40.0}).factor > base
    assert criterion_factor(**{**kw, "E": 2.0}).factor > base
    assert criterion_factor(**{**kw, "E": -2.0}).factor > base


def test_criterion_factor_diverges_toward_one_third():
    vals = [criterion_factor(s, 1.0, 0.0, 0.0, 30.0, 1, 1.0).factor
            for s in (0.3, 0.33, 0.333)]
    assert vals[0] < vals[1] < vals[2]


def test_criterion_factor_zero_moment_sentinel():
    rep = criterion_factor(0.2, 1.0, 0.0, 0.0, 30.0, 1, raw_moment=0.0)
    assert rep.factor == 0.0
    assert rep.gamma == np.inf and rep.predicted_rate == np.inf


def test_criterion_factor_untriggered_has_no_rate():
    rep = criterion_factor(0.2, 1.0, 0.0, 0.0, 30.0, 1, raw_moment=10.0)
    assert not rep.triggered
    assert rep.gamma is None and rep.predicted_rate is None


def test_criterion_factor_gates():
    with pytest.raises(DomainError):
        criterion_factor(0.4, 1.0, 0.0, 0.0, 30.0, 1, 0.1)
    with pytest.raises(DomainError):
        criterion_factor(0.2, 1.0, 0.0, 0.0, 30.0, 1, -0.1)
    with pytest.raises(DomainError):
        CriterionReport(s=0.2, lam=1.0, E=0.0, E0=0.0, L=30.0, d=1,
                        raw_moment=0.1, M_const=1.0, factor=0.5,
                        gamma=None, predicted_rate=None)


def test_criterion_factor_folds_the_large_disorder_2d_preset():
    # depth 3 and L = 8 < 24 r: the ball's regime is the raw moment's,
    # refused at parse, so the fold takes any ball the document passed
    cfg = parse_config(get_preset("large-disorder-2d")[0])
    assert "r" not in inspect.signature(criterion_factor).parameters
    [s], [E], [L] = cfg.s_values, cfg.E_values, cfg.L_values
    rep = criterion_factor(s, cfg.lam, E, 8.0, L, cfg.grid.d, 1e-3,
                           M_const=cfg.M_const)
    assert isinstance(rep, CriterionReport) and rep.L == 8.0


def test_criterion_report_payload():
    rep = criterion_factor(0.2, 1.0, 0.0, 0.0, 30.0, 1, raw_moment=0.01)
    p = rep.payload()
    assert p["factor"] == rep.factor and p["gamma"] == rep.gamma
    assert sorted(p) == ["E", "E0", "L", "M_const", "d", "factor", "gamma",
                         "lam", "predicted_rate", "raw_moment", "s"]


# ---------------------------------------------------------------------------
# raw boundary moment

def test_raw_boundary_moment_translation_invariant_at_zero_coupling():
    cfg = chain_config(80.0, lam=0.0)
    sch = EpsilonSchedule(eps=(1e-1, 1e-2))
    vals = [estimate_raw_boundary_moment(cfg, [0.2], [-1.0], L=26.0,
                                         schedule=sch, N=2, master_seed=0,
                                         alphas=[a])[0, 0]
            for a in [(30.0,), (40.0,)]]
    assert vals[0] == pytest.approx(vals[1], rel=1e-10)


@pytest.mark.filterwarnings("ignore:eps scan at alpha")
def test_raw_boundary_moment_is_max_over_alphas():
    cfg = chain_config(80.0, lam=2.0)
    sch = EpsilonSchedule(eps=(1e-1, 1e-2))
    kw = dict(s_values=[0.2], energies=[2.0], L=26.0, schedule=sch, N=6,
              master_seed=4)
    both = estimate_raw_boundary_moment(cfg, alphas=[(30.0,), (40.0,)], **kw)
    singles = [estimate_raw_boundary_moment(cfg, alphas=[a], **kw)
               for a in [(30.0,), (40.0,)]]
    assert np.array_equal(both, np.maximum(*singles))


@pytest.mark.filterwarnings("ignore:eps scan at alpha")
def test_raw_boundary_moment_assembles_the_box_once(monkeypatch):
    # every ball restricts the parent's cached H0: on 81 points with
    # 2 L x 2 centers, one full-box assembly (the E0 one) instead of 5
    calls = []
    assemble = model.assemble_h0

    def counting(grid, bg):
        calls.append(grid.npoints)
        return assemble(grid, bg)
    monkeypatch.setattr(model, "assemble_h0", counting)
    cfg = chain_config(82.0, lam=2.0, h=1.0)
    ground_energy(cfg.h0())
    sch = EpsilonSchedule(eps=(1e-1, 1e-2))
    for L in (25.0, 26.0):
        estimate_raw_boundary_moment(cfg, [0.2], [2.0], L=L, schedule=sch,
                                     N=2, master_seed=3,
                                     alphas=[(40.0,), (42.0,)])
    assert calls == [81]


def test_raw_boundary_moment_homogeneous_alphas_agree():
    cfg = chain_config(80.0, lam=2.0)
    sch = EpsilonSchedule(eps=(1e-1, 1e-2))
    stats = []
    for a in [(30.0,), (40.0,)]:
        ball = indicator_set(cfg.grid, a, 26.0).indices
        X = indicator_set(cfg.grid, a, 1.0)
        Y = boundary_layer_indices(a, 26.0, 1.0, cfg.grid)
        [[res]] = epsilon_scan(replace(cfg, domain=ball), [0.2], [2.0], sch,
                               X, Y, N=40, master_seed=4)
        stats.append((res.estimates[-1].mean, res.estimates[-1].stderr))
    gap = abs(stats[0][0] - stats[1][0])
    assert gap <= 3.0 * np.hypot(stats[0][1], stats[1][1])


def test_raw_boundary_moment_default_alpha_is_box_center():
    cfg = chain_config(60.0, lam=0.0)
    sch = EpsilonSchedule(eps=(1e-1, 1e-2))
    kw = dict(s_values=[0.2], energies=[-1.0], L=26.0, schedule=sch, N=2,
              master_seed=0)
    assert np.array_equal(
        estimate_raw_boundary_moment(cfg, **kw),
        estimate_raw_boundary_moment(cfg, alphas=[(30.0,)], **kw))


def test_raw_boundary_moment_ball_must_fit(draws):
    cfg = chain_config(60.0, lam=1.0)
    sch = EpsilonSchedule(eps=(1e-1, 1e-2))
    # every center is checked before the first one is scanned
    for alphas in ([(10.0,)], [(30.0,), (10.0,)]):
        with pytest.raises(DomainError):
            estimate_raw_boundary_moment(cfg, [0.2], [2.0], L=26.0,
                                         schedule=sch, N=2, master_seed=0,
                                         alphas=alphas)
    assert draws == []


@pytest.mark.parametrize("bad", [
    dict(schedule=(1e-1, 1e-2)), dict(N=1), dict(s_values=[0.2, 1.0]),
    dict(s_values=[0.4])],
    ids=["schedule", "N", "s", "s-above-one-third"])
def test_raw_boundary_moment_input_checks_precede_any_draw(draws, bad):
    cfg = chain_config(60.0, lam=1.0)
    kw = dict(s_values=[0.2], energies=[2.0], L=26.0,
              schedule=EpsilonSchedule(eps=(1e-1, 1e-2)), N=2, master_seed=0)
    with pytest.raises(DomainError):
        estimate_raw_boundary_moment(cfg, **{**kw, **bad})
    assert draws == []


def test_raw_boundary_moment_warns_when_unstable():
    cfg = chain_config(60.0, lam=0.0)
    sch = EpsilonSchedule(eps=(1e-1, 1e-3))
    # the default center reads as plain floats, (30.0,)
    with pytest.warns(RuntimeWarning,
                      match=r"alpha=\(30\.0,\), E=2\.0, s=0\.2 did not "
                            r"stabilize"):
        estimate_raw_boundary_moment(cfg, [0.2], [2.0], L=26.0, schedule=sch,
                                     N=2, master_seed=0)


# ---------------------------------------------------------------------------
# decay fits

def test_fit_recovers_exact_exponential():
    d = np.array([1.0, 2.0, 3.0, 5.0])
    fit = fit_exponential_decay(list(zip(d, 5.0 * np.exp(-0.7 * d))))
    assert fit.A == pytest.approx(5.0, rel=1e-12)
    assert fit.mu == pytest.approx(0.7, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_data_convention():
    fit = fit_exponential_decay([(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)])
    assert fit.mu == pytest.approx(0.0, abs=1e-14)
    assert fit.r2 == 0.0


def test_fit_recovers_under_multiplicative_noise():
    rng = np.random.default_rng(8)
    d = np.linspace(1.0, 10.0, 20)
    m = 3.0 * np.exp(-0.9 * d) * (1.0 + 0.05 * rng.standard_normal(20))
    fit = fit_exponential_decay(list(zip(d, m)))
    assert abs(fit.mu - 0.9) <= 0.1 * 0.9


def test_fit_weights_downgrade_noisy_points():
    d = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    m = 2.0 * np.exp(-0.5 * d)
    m[-1] *= 10.0  # corrupted point
    se = np.full(5, 1e-6)
    se[-1] = 1e3  # and it knows it
    plain = fit_exponential_decay(list(zip(d, m)))
    weighted = fit_exponential_decay(list(zip(d, m)), stderrs=se)
    assert abs(weighted.mu - 0.5) < abs(plain.mu - 0.5)
    assert weighted.mu == pytest.approx(0.5, rel=1e-3)


def test_fit_input_gates():
    with pytest.raises(DomainError):
        fit_exponential_decay([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(DomainError):
        fit_exponential_decay([(1.0, 1.0), (1.0, 0.5), (1.0, 0.2)])
    with pytest.raises(DomainError):
        fit_exponential_decay([(1.0, 1.0), (2.0, 0.0), (3.0, 0.5)])
    with pytest.raises(DomainError):
        DecayFit(A=1.0, mu=np.nan, r2=0.5, points=())


# ---------------------------------------------------------------------------
# consistency check

def test_consistency_refuses_untriggered_report():
    cfg = chain_config(32.0, lam=50.0, u0=8.0)
    rep = criterion_factor(0.2, 50.0, 8.0, 0.0, 26.0, 1, raw_moment=10.0)
    with pytest.raises(DomainError, match="not < 1"):
        verify_criterion_consistency(cfg, rep, (2.0, 3.0, 4.0), eps=1e-3,
                                     N=4, master_seed=0)


def test_consistency_positive_path_strong_disorder():
    cfg = chain_config(32.0, lam=50.0, u0=8.0)
    rep = criterion_factor(0.2, 50.0, 8.0, 0.0, 26.0, 1, raw_moment=1e-12)
    out = verify_criterion_consistency(cfg, rep, (2.0, 3.0, 4.0), eps=1e-3,
                                       N=30, master_seed=6)
    assert out.fit.mu > 0.0
    assert out.fit.r2 >= 0.5
    assert np.isfinite(out.rate_ratio) and out.rate_ratio > 0.0
    # deep pairs: euclidean metric
    assert [d for d, _ in out.fit.points] == [2.0, 3.0, 4.0]
    p = out.payload()
    assert p["consistent"] == out.consistent
    assert [pt["dist"] for pt in p["fit"]["points"]] == [2.0, 3.0, 4.0]
    assert all(pt["stderr"] > 0.0 for pt in p["fit"]["points"])


def test_distance_ladder_abscissae_see_a_hole():
    # q = 12 removed from a 39-point chain; balls of radius 1.5 around
    # x0 = 3 and the rungs 7, 9, 11, 13
    cfg = chain_config(40.0, lam=50.0, h=1.0, u0=8.0)
    holed = cfg.on_domain(np.setdiff1d(np.arange(cfg.grid.npoints), [11]))
    ladder = (4.0, 6.0, 8.0, 10.0)
    X, rungs, dists = distance_ladder(cfg, (3.0,), ladder, 0, 1.5)
    assert dists == [4.0, 6.0, 8.0, 10.0]
    X, rungs, dists = distance_ladder(holed, (3.0,), ladder[:3], 0, 1.5)
    # 11 sits next to the hole: 3 (wall) + 1 (hole) beats 8
    assert dists == [4.0, 6.0, 4.0]
    # the balls are geometry; the domain drops 11 where rows are taken
    H = holed.h0()
    assert [Y.indices.tolist() for Y in rungs] == [[5, 6, 7], [7, 8, 9],
                                                   [9, 10, 11]]
    assert [H.mask[set_rows(Y, H.mask, cfg.grid.npoints, "Y")].tolist()
            for Y in rungs] == [[5, 6, 7], [7, 8, 9], [9, 10]]
    assert X.indices.tolist() == [1, 2, 3]
    # so does 13 on the far side, whose ball the hole cuts off from X
    assert ModifiedDistance(cfg.grid, holed.domain).distance(
        (3.0,), (13.0,)) == 4.0
    with pytest.raises(DomainError, match="is not a grid point"):
        distance_ladder(holed, (3.5,), ladder[:3], 0, 1.5)
    [[(fit, ests)]] = measure_decay(holed, [0.3], [SpectralShift(8.0, 1e-3)],
                                    (3.0,), ladder[:3], 0, 1.5, N=4,
                                    master_seed=1)
    assert [d for d, _ in fit.points] == dists
    assert [m for _, m in fit.points] == [e.mean for e in ests]


def test_decay_refuses_a_rung_cut_off_by_a_hole_before_any_draw(draws):
    # q = 12 removed from a 39-point chain: the rung at 13 lies past it,
    # so its block norm is an exact zero in every realization
    cfg = chain_config(40.0, lam=50.0, h=1.0, u0=8.0)
    holed = cfg.on_domain(np.setdiff1d(np.arange(cfg.grid.npoints), [11]))
    with pytest.raises(DomainError, match="ladder point 10.0: .* component"):
        measure_decay(holed, [0.3], [SpectralShift(8.0, 1e-3)], (3.0,),
                      (4.0, 6.0, 8.0, 10.0), 0, 1.5, N=4, master_seed=1)
    # q = 10..12 removed: the rung at 11 lies wholly in the hole
    holed = cfg.on_domain(np.setdiff1d(np.arange(cfg.grid.npoints),
                                       [9, 10, 11]))
    with pytest.raises(DomainError, match=(
            "^ladder point 8.0 has no point inside the operator domain$")):
        measure_decay(holed, [0.3], [SpectralShift(8.0, 1e-3)], (3.0,),
                      (4.0, 6.0, 8.0), 0, 1.5, N=4, master_seed=1)
    assert draws == []


def test_distance_ladder_defaults_x0_and_refuses_a_ball_outside_the_box():
    cfg = chain_config(32.0, lam=50.0, u0=8.0)
    X, rungs, dists = distance_ladder(cfg, None, (2.0, 3.0, 4.0), 0, 1.0)
    assert X.center == (8.0,) and [Y.center for Y in rungs] == [
        (10.0,), (11.0,), (12.0,)]
    rep = criterion_factor(0.2, 50.0, 8.0, 0.0, 26.0, 1, raw_moment=1e-12)
    # x0 = 8 + 23 = 31: the ball of radius r = 1 reaches the wall at 32
    with pytest.raises(DomainError, match="does not fit inside the box"):
        verify_criterion_consistency(cfg, rep, (2.0, 3.0, 23.0), eps=1e-3,
                                     N=4, master_seed=0)


def test_consistency_ladder_validation():
    cfg = chain_config(32.0, lam=50.0, u0=8.0)
    rep = criterion_factor(0.2, 50.0, 8.0, 0.0, 26.0, 1, raw_moment=1e-12)
    with pytest.raises(DomainError):
        verify_criterion_consistency(cfg, rep, (2.0, 2.0, 3.0), eps=1e-3,
                                     N=4, master_seed=0)
    with pytest.raises(DomainError):
        verify_criterion_consistency(cfg, rep, (2.0, 3.0), eps=1e-3,
                                     N=4, master_seed=0)
