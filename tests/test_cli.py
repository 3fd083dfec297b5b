import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from fracmom import cli, moments, resolvent, validation
from fracmom.config import load_config, parse_config
from fracmom.criterion import (
    criterion_factor,
    distance_ladder,
    estimate_raw_boundary_moment,
    fit_exponential_decay,
    moment_sets,
    verify_criterion_consistency,
)
from fracmom.errors import ConfigError, NumericalError
from fracmom.localization import (
    correlator_from_pairs,
    eigensolve_window,
    ids_counts,
)
from fracmom.model import ground_energy
from fracmom.moments import (
    EpsilonSchedule,
    epsilon_scan,
    estimate_fractional_moment,
    estimates_from_norms,
    map_samples,
    mean_and_stderr,
    scan_pair_norms,
)
from fracmom.presets import PRESETS, get_preset, preset_names
from fracmom.records import read_records
from fracmom.resolvent import SpectralShift
from fracmom.validation import OracleComparison


def tiny_doc(out_dir):
    return {
        "experiment": "tiny",
        "model": {
            "grid": {"d": 1, "box": [24.0], "h": 1.0},
            "profile": {"r": 1.0, "shape": "indicator", "u0": 1.0},
            "law": {"lam": 2.0},
        },
        "run": {
            "s": [0.5],
            "E": [1.0],
            "eps": [0.1, 0.01],
            "N": 4,
            "master_seed": 3,
            "ladder": [2.0, 4.0, 6.0, 8.0],
            "x0": [6.0],
            "window": [1.0, 4.0],
            "n_configs": 3,
        },
        "output": {"dir": str(out_dir)},
    }


def write_config(tmp_path, doc=None, name="exp.json"):
    doc = doc or tiny_doc(tmp_path / "results")
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


# ---------------------------------------------------------------------------
# argument surface and exit codes

def test_parser_knows_all_subcommands():
    parser = cli.build_parser()
    actions = {a.dest: a for a in parser._subparsers._actions}
    names = set(actions["subcommand"].choices)
    assert names == set(cli.RUNNERS) | {"preset"}


def test_missing_config_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["moment"])
    assert exc.value.code == 2


def test_unreadable_config_exits_2(tmp_path, capsys):
    code = cli.main(["moment", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_error_inside_runner_exits_2(tmp_path, capsys):
    doc = tiny_doc(tmp_path / "results")
    del doc["run"]["window"]
    code = cli.main(["correlator", "--config", str(write_config(tmp_path, doc))])
    assert code == 2
    assert "run.window" in capsys.readouterr().err


@pytest.mark.parametrize("grid, gauge", [
    ({"d": 1, "box": [24.0], "h": 1.0}, {"kind": "landau", "b": 0.2}),
    ({"d": 3, "box": [4.0, 4.0, 4.0], "h": 1.0}, {"kind": "landau", "b": 0.2}),
    ({"d": 1, "box": [24.0], "h": 1.0}, {"kind": "constant", "value": [0.1, 0.2]}),
], ids=["landau-1d", "landau-3d", "constant-2-in-1d"])
def test_gauge_of_the_wrong_dimension_exits_2(tmp_path, capsys, grid, gauge):
    doc = tiny_doc(tmp_path / "results")
    doc["model"]["grid"] = grid
    doc["model"]["background"] = {"gauge": gauge}
    doc["run"].update(x0=[2.0] * grid["d"], ladder=[0.5, 1.0, 1.5])
    code = cli.main(["ids", "--config", str(write_config(tmp_path, doc))])
    assert code == 2
    assert "model.background.gauge" in capsys.readouterr().err
    assert not (tmp_path / "results" / "records.jsonl").exists()


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(cfg, sink, workers):
        raise NumericalError("stub blew up")
    monkeypatch.setitem(cli.RUNNERS, "moment", boom)
    code = cli.main(["moment", "--config", str(write_config(tmp_path))])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("block, key, value", [
    ("constants", "C_const", 1.0),
    ("law", "density", "uniform"),
    ("output", "formats", ["jsonl", "csv"]),
], ids=["C_const", "density", "formats"])
def test_retired_c_const_key_exits_2(tmp_path, capsys, block, key, value):
    doc = tiny_doc(tmp_path / "results")
    target = doc["model"] if block == "law" else doc
    target.setdefault(block, {})[key] = value
    code = cli.main(["moment", "--config", str(write_config(tmp_path, doc))])
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(tmp_path, capsys, draws, workers):
    code = cli.main(["moment", "--config", str(write_config(tmp_path)),
                     "--workers", workers])
    assert code == 2
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert draws == []


def test_singular_value_failure_exits_3(tmp_path, monkeypatch, capsys):
    def diverged(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(scipy.linalg, "svdvals", diverged)
    code = cli.main(["moment", "--config", str(write_config(tmp_path))])
    assert code == 3
    assert "SVD did not converge" in capsys.readouterr().err


def far_chain_doc(out_dir, **run):
    # a strongly disordered chain of 1,599 points: the block norm falls
    # by ~5 decades per unit length and underflows to 0.0 by distance 80
    doc = tiny_doc(out_dir)
    doc["model"] = {"grid": {"d": 1, "box": [400.0], "h": 0.25},
                    "profile": {"r": 1.0, "shape": "indicator", "u0": 8.0},
                    "law": {"lam": 50.0}}
    doc["run"].update(E=[8.0], eps=[0.01], s=[0.3], N=2, x0=[20.0],
                      radius=1.0, **run)
    return doc


@pytest.mark.parametrize("subcommand, run", [
    ("moment", {"y0": [100.0]}),
    ("decay", {"ladder": [20.0, 100.0, 200.0, 300.0]}),
])
def test_underflowed_block_norm_exits_3(tmp_path, capsys, subcommand, run):
    # a moment of 0.0, or a decay fit refused as a config error, used to
    # hide a norm that left double precision
    doc = far_chain_doc(tmp_path / "results", **run)
    code = cli.main([subcommand, "--config", str(write_config(tmp_path, doc))])
    assert code == 3
    err = capsys.readouterr().err
    assert "below the smallest normal float" in err
    assert "X = the ball of radius 1 at (20.0,)" in err
    assert "at z = 8+0.01j" in err
    records = tmp_path / "results" / "records.jsonl"
    assert not records.exists() or not read_records(records)


# ---------------------------------------------------------------------------
# moment pipeline end to end

def test_moment_run_writes_records_and_csv(tmp_path, capsys):
    out = tmp_path / "results"
    code = cli.main(["moment", "--config", str(write_config(tmp_path))])
    assert code == 0
    records = read_records(out / "records.jsonl")
    assert len(records) == 2  # one per eps
    for rec in records:
        assert rec.kind == "moment"
        assert set(rec.payload) == {"s", "E", "eps", "x", "y", "N", "mean",
                                    "stderr", "seed"}
        assert rec.payload["N"] == 4
    lines = (out / "moment.csv").read_text().strip().splitlines()
    assert lines[0] == "s,E,eps,mean,stderr,N,seed"
    assert len(lines) == 3
    assert "moment s=0.5" in capsys.readouterr().out


def test_out_flag_overrides_config_output_dir(tmp_path):
    elsewhere = tmp_path / "elsewhere"
    code = cli.main(["moment", "--config", str(write_config(tmp_path)),
                     "--out", str(elsewhere)])
    assert code == 0
    assert (elsewhere / "records.jsonl").exists()
    assert not (tmp_path / "results").exists()


def test_worker_count_does_not_change_payloads(tmp_path):
    path = write_config(tmp_path)
    cli.main(["decay", "--config", str(path), "--out", str(tmp_path / "serial")])
    cli.main(["decay", "--config", str(path), "--out", str(tmp_path / "pool"),
              "--workers", "2"])
    serial = read_records(tmp_path / "serial" / "records.jsonl")
    pool = read_records(tmp_path / "pool" / "records.jsonl")
    assert [r.payload for r in serial] == [r.payload for r in pool]


def test_pool_has_no_more_processes_than_samples(tmp_path, monkeypatch):
    sizes = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)
    monkeypatch.setattr(moments, "ProcessPoolExecutor", Recording)
    doc = tiny_doc(tmp_path / "results")
    doc["run"]["N"] = 2
    path = write_config(tmp_path, doc)
    assert cli.main(["decay", "--config", str(path),
                     "--out", str(tmp_path / "serial")]) == 0
    assert cli.main(["decay", "--config", str(path),
                     "--out", str(tmp_path / "pool"), "--workers", "3"]) == 0
    assert sizes == [2]
    serial = read_records(tmp_path / "serial" / "records.jsonl")
    pool = read_records(tmp_path / "pool" / "records.jsonl")
    assert [r.payload for r in serial] == [r.payload for r in pool]


# ---------------------------------------------------------------------------
# one draw per realization and ball, folded at every (s, E)

def criterion_doc(out_dir):
    # the criterion needs s < 1/3 and a ball with L > 24 r in the box
    doc = tiny_doc(out_dir)
    doc["model"]["grid"]["box"] = [60.0]
    doc["run"].update(s=[0.2, 0.3], L=[26.0])
    return doc


@pytest.mark.filterwarnings("ignore:eps scan at alpha")
@pytest.mark.parametrize("sub, energies, balls", [
    ("moment", [1.0, 2.0], 1),
    ("epsilon-scan", [1.0, 2.0], 1),
    ("decay", [1.0, 2.0], 1),
    ("ids", [1.0, 2.0, 3.0], 1),
    ("criterion", [1.0, 2.0], 1),
    ("criterion", [1.0, 2.0], 2),  # L = 26 and 27: one scan per ball
])
def test_subcommand_realization_count(tmp_path, draws, sub, energies, balls):
    doc = (criterion_doc if sub == "criterion" else tiny_doc)(
        tmp_path / "results")
    doc["run"].update(E=energies, eps=[0.1, 0.01])
    if sub == "criterion":
        doc["run"]["L"] = [26.0 + k for k in range(balls)]
    else:
        doc["run"]["s"] = [0.3, 0.5]
    assert cli.main([sub, "--config", str(write_config(tmp_path, doc))]) == 0
    N = doc["run"]["N"]
    assert len(draws) == balls * N
    assert len(set(draws)) == N


def dumps(payload):
    return json.dumps(payload, sort_keys=True).encode()


@pytest.mark.filterwarnings("ignore:eps scan at alpha")
def test_cli_moments_match_standalone_estimates_bytewise(tmp_path):
    # every (s, E) record of a scan over all energies must equal the
    # single-energy library call; see estimates_from_norms on block shapes
    doc = tiny_doc(tmp_path / "results")
    doc["run"].update(s=[0.3, 0.5], E=[1.0, 2.0], eps=[0.1, 0.01], N=25)
    path = write_config(tmp_path, doc)
    cfg = load_config(path)
    X, Y = moment_sets(cfg.grid, cfg.x0, cfg.y0, cfg.radius)

    assert cli.main(["moment", "--config", str(path),
                     "--out", str(tmp_path / "moment")]) == 0
    records = read_records(tmp_path / "moment" / "records.jsonl")
    assert len(records) == 8
    for rec in records:
        p = rec.payload
        [[est]] = estimate_fractional_moment(
            cfg.model, [p["s"]], [SpectralShift(E=p["E"], eps=p["eps"])],
            X, Y, cfg.N, cfg.master_seed)
        assert dumps(p) == dumps(est.payload())

    assert cli.main(["epsilon-scan", "--config", str(path),
                     "--out", str(tmp_path / "scan")]) == 0
    records = read_records(tmp_path / "scan" / "records.jsonl")
    schedule = EpsilonSchedule(cfg.eps_schedule)
    expected = []
    for s in cfg.s_values:
        for E in cfg.E_values:
            [[scan]] = epsilon_scan(cfg.model, [s], [E], schedule, X, Y,
                                    cfg.N, cfg.master_seed)
            expected += [est.payload() for est in scan.estimates]
    assert [dumps(r.payload) for r in records] == [dumps(p) for p in expected]

    assert cli.main(["decay", "--config", str(path),
                     "--out", str(tmp_path / "decay")]) == 0
    records = read_records(tmp_path / "decay" / "records.jsonl")
    assert len(records) == 4
    X, targets, dists = distance_ladder(cfg.model, cfg.x0, cfg.ladder,
                                        cfg.axis, cfg.radius)
    assert dists == list(cfg.ladder)  # deep rungs: modified = nominal
    for rec in records:
        p = rec.payload
        shift = SpectralShift(E=p["E"], eps=p["eps"])
        norms = scan_pair_norms(cfg.model, [shift], [(X, Y) for Y in targets],
                                cfg.N, cfg.master_seed)[:, 0, :]
        ests = estimates_from_norms(norms, p["s"], [shift] * len(targets),
                                    seed=cfg.master_seed)
        fit = fit_exponential_decay(
            [(d, e.mean) for d, e in zip(dists, ests)],
            stderrs=[e.stderr for e in ests])
        fields = {"quantity": "moment-decay", "s": p["s"], "E": p["E"],
                  "eps": p["eps"]}
        assert dumps(p) == dumps({
            **fields, "A": fit.A, "mu": fit.mu, "r2": fit.r2,
            "points": [{"dist": d, "mean": e.mean, "stderr": e.stderr}
                       for d, e in zip(dists, ests)]})
        assert dumps(p) == dumps({**fields, **fit.payload()})

    assert cli.main(["correlator", "--config", str(path),
                     "--out", str(tmp_path / "correlator")]) == 0
    records = read_records(tmp_path / "correlator" / "records.jsonl")
    window = cfg.window

    def rung_values(H):
        pairs = eigensolve_window(H, window)
        return [correlator_from_pairs(pairs, H, X, Y) for Y in targets]
    means, stderrs = mean_and_stderr(np.array(map_samples(
        cfg.model, rung_values, cfg.N, cfg.master_seed)))
    bounds = {"window_lo": window.a, "window_hi": window.b}
    fit = fit_exponential_decay(list(zip(dists, means)), stderrs=stderrs)
    expected = [{"dist": d, "value": float(m), "stderr": float(se), **bounds}
                for d, m, se in zip(dists, means, stderrs)]
    expected.append({"quantity": "correlator-decay", **bounds,
                     **fit.payload()})
    assert [r.kind for r in records] == ["correlator"] * len(dists) + ["fit"]
    assert [dumps(r.payload) for r in records] == [dumps(p) for p in expected]

    assert cli.main(["ids", "--config", str(path),
                     "--out", str(tmp_path / "ids")]) == 0
    records = read_records(tmp_path / "ids" / "records.jsonl")
    counts = ids_counts(cfg.model, cfg.E_values, cfg.N, cfg.master_seed)
    vol = cfg.grid.volume
    expected = []
    for E, column in zip(cfg.E_values, counts.T):
        mean, stderr = mean_and_stderr(column)
        expected.append({"E": E, "ids": float(mean / vol),
                         "stderr": float(stderr / vol), "N": cfg.N})
    assert [dumps(r.payload) for r in records] == [dumps(p) for p in expected]

    doc = criterion_doc(tmp_path / "results")
    doc["run"].update(E=[1.0, 2.0], L=[26.0, 27.0])
    path = write_config(tmp_path, doc, name="criterion.json")
    cfg = load_config(path)
    assert cli.main(["criterion", "--config", str(path),
                     "--out", str(tmp_path / "criterion")]) == 0
    records = read_records(tmp_path / "criterion" / "records.jsonl")
    assert len(records) == 8
    E0 = ground_energy(cfg.model.h0())
    for rec in records:
        p = rec.payload
        raw = estimate_raw_boundary_moment(
            cfg.model, [p["s"]], [p["E"]], p["L"],
            EpsilonSchedule(cfg.eps_schedule), cfg.N, cfg.master_seed)[0, 0]
        report = criterion_factor(p["s"], cfg.lam, p["E"], E0, p["L"], 1, raw)
        assert dumps(p) == dumps(report.payload())


def test_criterion_with_an_infinite_factor_exits_2_and_writes_nothing(
        tmp_path, capsys):
    # M_const = 1e308 overflows the prefactor: json would write the factor
    # as Infinity, which is not JSON and which load_config refuses
    doc = criterion_doc(tmp_path / "results")
    doc["model"]["grid"].update(box=[64.0], h=0.5)
    doc["model"]["law"]["lam"] = 4.0
    doc["run"].update(s=[0.2], E=[0.5], L=[26.0], N=4)
    doc["constants"] = {"M_const": 1e308}
    assert cli.main(["criterion", "--config",
                     str(write_config(tmp_path, doc))]) == 2
    assert "inf is not JSON-representable" in capsys.readouterr().err
    assert not (tmp_path / "results" / "records.jsonl").exists()


def landau_doc(out_dir):
    # 29 x 29 = 841 interior points: above DENSE_EIG_CAP, so E0 comes from
    # the sparse ground-energy branch
    return {
        "experiment": "landau-rerun",
        "model": {
            "grid": {"d": 2, "box": [7.5, 7.5], "h": 0.25},
            "profile": {"r": 1.0, "shape": "cosine-bump", "u0": 8.0},
            "law": {"lam": 50.0},
            "background": {"gauge": {"kind": "landau", "b": 0.2}},
        },
        "run": {"s": [0.3], "E": [8.0], "eps": [0.1, 0.03], "N": 2,
                "master_seed": 5, "L": 3.0, "alphas": [[3.75, 3.75]]},
        "constants": {"depth": 1.5},
        "output": {"dir": str(out_dir)},
    }


def test_criterion_rerun_in_new_process_is_byte_identical(tmp_path):
    path = write_config(tmp_path, landau_doc(tmp_path / "results"))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    payloads = []
    for out in ("a", "b"):
        subprocess.run([sys.executable, "-m", "fracmom.cli", "criterion",
                        "--config", str(path), "--out", str(tmp_path / out)],
                       env=env, check=True, capture_output=True, timeout=300)
        records = read_records(tmp_path / out / "records.jsonl")
        assert records and all(r.kind == "criterion" for r in records)
        payloads.append([json.dumps(r.payload, sort_keys=True)
                         for r in records])
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_criterion_payload_does_not_depend_on_blas_threads(tmp_path, threads):
    # 47 x 47 = 2,209 points: on this box the last bits of E0, and with
    # them the criterion's factor, followed OpenBLAS's thread count
    doc = landau_doc(tmp_path / "results")
    doc["model"]["grid"]["box"] = [12.0, 12.0]
    doc["run"]["alphas"] = [[6.0, 6.0]]
    path = write_config(tmp_path, doc)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    payloads = []
    for out, extra in (("default", {}), ("set", {"OPENBLAS_NUM_THREADS": threads})):
        subprocess.run([sys.executable, "-m", "fracmom.cli", "criterion",
                        "--config", str(path), "--out", str(tmp_path / out)],
                       env=dict(env, **extra), check=True, capture_output=True,
                       timeout=300)
        records = read_records(tmp_path / out / "records.jsonl")
        assert records and all(r.kind == "criterion" for r in records)
        payloads.append([json.dumps(r.payload, sort_keys=True)
                         for r in records])
    assert payloads[0] == payloads[1]


def test_pooled_criterion_matches_serial_bytewise(tmp_path):
    # pool workers receive the ball-restricted model by pickling; a worker
    # that lost the ball would sample the whole box
    doc = landau_doc(tmp_path / "results")
    doc["model"]["grid"] = {"d": 2, "box": [16.0, 16.0], "h": 1.0}
    doc["run"].update(N=6, L=8.0)
    del doc["run"]["alphas"]
    doc["constants"] = {"depth": 3.0}
    path = write_config(tmp_path, doc)
    payloads = []
    for out, extra in (("serial", []), ("pool", ["--workers", "2"])):
        assert cli.main(["criterion", "--config", str(path),
                         "--out", str(tmp_path / out)] + extra) == 0
        records = read_records(tmp_path / out / "records.jsonl")
        assert records and all(r.kind == "criterion" for r in records)
        payloads.append([json.dumps(r.payload, sort_keys=True)
                         for r in records])
    assert payloads[0] == payloads[1]


def test_ground_energy_nonconvergence_exits_3(tmp_path, monkeypatch, capsys):
    def stalled(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("stalled", [], [])
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    path = write_config(tmp_path, landau_doc(tmp_path / "results"))
    assert cli.main(["criterion", "--config", str(path)]) == 3
    assert "ground energy iteration failed" in capsys.readouterr().err


def test_decay_requires_a_ladder(tmp_path):
    doc = tiny_doc(tmp_path / "results")
    del doc["run"]["ladder"]
    assert cli.main(["decay", "--config",
                     str(write_config(tmp_path, doc))]) == 2


def test_ladder_ball_must_fit(tmp_path, capsys):
    doc = tiny_doc(tmp_path / "results")
    doc["run"]["ladder"] = [2.0, 4.0, 20.0]  # x0=6 + 20 = 26 > box 24
    assert cli.main(["decay", "--config",
                     str(write_config(tmp_path, doc))]) == 2
    assert "does not fit" in capsys.readouterr().err


def test_decay_abscissa_is_the_modified_distance(tmp_path):
    # x0 = 6 in a 24 box: the rung at 6 + 15 = 21 is 3 from the wall, so
    # its wall detour 6 + 3 = 9 beats the nominal 15
    doc = tiny_doc(tmp_path / "results")
    doc["run"].update(s=[0.3], ladder=[2.0, 4.0, 6.0, 15.0])
    path = write_config(tmp_path, doc)
    assert cli.main(["decay", "--config", str(path)]) == 0
    [rec] = read_records(tmp_path / "results" / "records.jsonl")
    p = rec.payload
    assert [pt["dist"] for pt in p["points"]] == [2.0, 4.0, 6.0, 9.0]

    cfg = load_config(path)
    report = criterion_factor(0.3, cfg.lam, 1.0, 0.0, 26.0, 1,
                              raw_moment=1e-30)
    check = verify_criterion_consistency(
        cfg.model, report, cfg.ladder, eps=cfg.eps_schedule[-1], N=cfg.N,
        master_seed=cfg.master_seed, x0=cfg.x0)
    # the consistency check's fit is the decay record's body
    body = {k: v for k, v in p.items()
            if k not in ("quantity", "s", "E", "eps")}
    assert dumps(body) == dumps(check.payload()["fit"])
    assert dumps(body) == dumps(check.fit.payload())


def test_decay_runs_from_an_off_grid_x0(tmp_path):
    # a hole-free box takes any point of the open box as x0, on or off grid
    doc = tiny_doc(tmp_path / "results")
    doc["run"]["x0"] = [6.3]
    assert cli.main(["decay", "--config",
                     str(write_config(tmp_path, doc))]) == 0
    [rec] = read_records(tmp_path / "results" / "records.jsonl")
    dists = [pt["dist"] for pt in rec.payload["points"]]
    assert dists == pytest.approx(doc["run"]["ladder"], abs=1e-12)


@pytest.mark.parametrize("sub", ["decay", "correlator"])
def test_two_rung_ladder_exits_2_before_sampling(tmp_path, draws, capsys, sub):
    doc = tiny_doc(tmp_path / "results")
    doc["run"]["ladder"] = [2.0, 4.0]
    assert cli.main([sub, "--config", str(write_config(tmp_path, doc))]) == 2
    assert "too short" in capsys.readouterr().err
    assert draws == []
    assert not (tmp_path / "results" / "records.jsonl").exists()


# 39 x 39 = 1521 points: not tridiagonal, and above the dense counting cap
PLANE_1521 = {"d": 2, "box": [40.0, 40.0], "h": 1.0}


@pytest.mark.parametrize("sub, grid, run, message", [
    ("ids", PLANE_1521, {}, "1521 > 1500 points"),
    ("correlator", PLANE_1521, {"ladder": [2.0, 4.0, 6.0]},
     "1521 > 1500 points"),
    ("epsilon-scan", None, {"eps": [0.1]}, "at least two eps values"),
    ("decay", None, {"s": [0.3, 1.0]}, "s must be in (0, 1), got 1.0"),
], ids=["ids", "correlator", "epsilon-scan", "decay"])
def test_library_refusal_exits_2_before_sampling(
        tmp_path, draws, capsys, sub, grid, run, message):
    # the runner repeats none of these rules: the library call refuses
    doc = tiny_doc(tmp_path / "results")
    if grid is not None:
        doc["model"]["grid"] = grid
        doc["run"]["x0"] = [10.0, 10.0]
    doc["run"].update(run)
    assert cli.main([sub, "--config", str(write_config(tmp_path, doc))]) == 2
    assert message in capsys.readouterr().err
    assert draws == []
    assert not (tmp_path / "results" / "records.jsonl").exists()


@pytest.mark.filterwarnings("ignore:eps scan at alpha")
def test_criterion_with_a_custom_depth_runs_below_24_r(tmp_path):
    # depth + r < L <= 24 r: the parse-time L > depth + r is the only gate
    doc = tiny_doc(tmp_path / "results")
    doc["run"].update(s=[0.3], L=[5.0])
    doc["constants"] = {"depth": 3.0}
    path = write_config(tmp_path, doc)
    assert cli.main(["criterion", "--config", str(path)]) == 0
    [rec] = read_records(tmp_path / "results" / "records.jsonl")
    cfg = load_config(path)
    raw = estimate_raw_boundary_moment(
        cfg.model, cfg.s_values, cfg.E_values, 5.0,
        EpsilonSchedule(cfg.eps_schedule), cfg.N, cfg.master_seed,
        depth=3.0)[0, 0]
    report = criterion_factor(0.3, cfg.lam, 1.0, ground_energy(cfg.model.h0()),
                              5.0, 1, raw)
    assert dumps(rec.payload) == dumps(report.payload())


@pytest.mark.parametrize("box, points", [
    ([262_146.0], 262_145),          # one point over the 1d cap
    ([22.0, 2382.0], 50_001),        # 21 x 2381: one point over the 2d cap
    ([5.0, 42.0, 62.0], 10_004),     # 4 x 41 x 61: no 3d box has 10,001-10,003
], ids=["1d", "2d", "3d"])
def test_grid_over_its_solve_cap_exits_2_before_sampling(
        tmp_path, draws, capsys, box, points):
    doc = tiny_doc(tmp_path / "results")
    doc["model"]["grid"] = {"d": len(box), "box": box, "h": 1.0}
    doc["run"]["x0"] = [2.0] * len(box)
    assert cli.main(["moment", "--config", str(write_config(tmp_path, doc))]) == 2
    assert f"operator of {points} points is above" in capsys.readouterr().err
    assert draws == []
    assert not (tmp_path / "results" / "records.jsonl").exists()


@pytest.mark.parametrize("sub", ["moment", "validate"])
def test_dense_block_over_its_entry_cap_exits_2(
        tmp_path, monkeypatch, capsys, sub):
    # 23 points and |X| = 1 (|Y| = 1 for the oracle): 23 entries a block
    monkeypatch.setattr(resolvent, "BLOCK_ENTRY_CAP", 22)
    doc = tiny_doc(tmp_path / "results")
    doc["run"].update(y0=[18.0], radius=1.0)
    assert cli.main([sub, "--config", str(write_config(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert "1 columns of an operator of 23 points" in err
    assert "Traceback" not in err
    assert not (tmp_path / "results" / "records.jsonl").exists()


@pytest.mark.parametrize("extent", ["1e400", "NaN"])
def test_non_finite_grid_extent_exits_2(tmp_path, capsys, extent):
    doc, _ = get_preset("band-edge")
    doc["model"]["grid"]["box"] = ["EXTENT"]
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc).replace('"EXTENT"', extent))
    assert cli.main(["ids", "--config", str(path), "--out",
                     str(tmp_path / "results")]) == 2
    assert "is not finite" in capsys.readouterr().err


def test_site_lattice_over_the_coordinate_bound_exits_2(tmp_path, capsys):
    # 9 grid points, but 1e15 + 1 lattice sites: refused before numpy is
    # asked for them (numpy itself refuses 7.11 PiB, so nothing allocates)
    doc, _ = get_preset("band-edge")
    doc["model"]["grid"].update(box=[1e15], h=1e14)
    doc["run"]["alphas"] = [[5e14]]
    assert cli.main(["ids", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "results")]) == 2
    assert "below 2**32" in capsys.readouterr().err
    assert not (tmp_path / "results" / "records.jsonl").exists()


def test_site_lattice_over_the_count_bound_exits_2(
        tmp_path, monkeypatch, capsys):
    # 9 grid points, coordinates below 2**32, but 4e9 + 1 lattice sites;
    # arange refuses large requests here, so a lattice asked of numpy
    # before the count is bounded fails the test without allocating
    arange = np.arange

    def small_arange(*args, **kwargs):
        start, stop = (0, args[0]) if len(args) == 1 else args[:2]
        step = args[2] if len(args) > 2 else 1
        assert (stop - start) / step <= 10 ** 7, "lattice allocated"
        return arange(*args, **kwargs)
    monkeypatch.setattr(np, "arange", small_arange)
    doc, _ = get_preset("band-edge")
    doc["model"]["grid"].update(box=[4e9], h=4e8)
    doc["run"]["alphas"] = [[2e9]]
    assert cli.main(["ids", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "results")]) == 2
    err = capsys.readouterr().err
    assert "site lattice of 4000000001 sites is above" in err
    assert not (tmp_path / "results" / "records.jsonl").exists()


def test_uncovered_model_exits_2_before_sampling(tmp_path, draws, capsys):
    # bumps of radius 0.3 around the integers miss the grid point 0.5
    doc = tiny_doc(tmp_path / "results")
    doc["model"]["grid"]["h"] = 0.25
    doc["model"]["profile"]["r"] = 0.3
    assert cli.main(["moment", "--config",
                     str(write_config(tmp_path, doc))]) == 2
    assert "covering violated: grid point (0.5,)" in capsys.readouterr().err
    assert draws == []
    assert not (tmp_path / "results" / "records.jsonl").exists()


def test_validate_runs_oracles_and_benches(tmp_path, capsys):
    out = tmp_path / "results"
    code = cli.main(["validate", "--config", str(write_config(tmp_path))])
    assert code == 0
    records = read_records(out / "records.jsonl")
    assert len(records) == 3 + 20  # n_configs oracles plus the fixed benches
    assert all(r.payload["passed"] for r in records)
    lines = (out / "validation.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 23
    assert "0 failures" in capsys.readouterr().out


def test_validate_caps_grid_size(tmp_path, capsys, draws):
    # 7 x 5999 points, numbered along the long side: its band storage is
    # ~7.6e8 entries, far above the oracle's cap
    doc = tiny_doc(tmp_path / "results")
    doc["model"]["grid"] = {"d": 2, "box": [4.0, 3000.0], "h": 0.5}
    doc["run"].update(x0=[2.0, 10.0], y0=[2.0, 20.0], radius=1.0)
    assert cli.main(["validate", "--config",
                     str(write_config(tmp_path, doc))]) == 2
    assert "is above the cap of 8388608" in capsys.readouterr().err
    assert draws == []


def test_validate_has_no_cap_on_a_chain(tmp_path, draws):
    # a chain's band storage is 4 entries per point: any length runs
    assert_validate_passes(tmp_path, draws, {"d": 1, "box": [600.0], "h": 1.0},
                           x0=[290.0], y0=[310.0])


def test_validate_runs_a_plane_of_961_points(tmp_path, draws):
    # 31 x 31 points, bandwidth 31: a 2d oracle at a working size
    assert_validate_passes(tmp_path, draws,
                           {"d": 2, "box": [16.0, 16.0], "h": 0.5},
                           x0=[5.0, 8.0], y0=[11.0, 8.0])


def assert_validate_passes(tmp_path, draws, grid, **run):
    doc = tiny_doc(tmp_path / "results")
    doc["model"]["grid"] = grid
    doc["run"].update(run)
    assert cli.main(["validate", "--config",
                     str(write_config(tmp_path, doc))]) == 0
    records = read_records(tmp_path / "results" / "records.jsonl")
    oracles = [r.payload for r in records
               if r.payload["name"].startswith("oracle-")]
    assert len(oracles) == 3 and all(p["passed"] for p in oracles)
    assert len(draws) == 3


def test_validate_exits_3_on_corrupted_level_set_polynomials(
        tmp_path, monkeypatch, capsys):
    # a wrong numerator must stop the run, not degrade the measures
    exact = validation._sandwich_polynomials

    def corrupted(A_eff, T):
        N, det = exact(A_eff, T)
        return N * (1.0 + 1e-4), det
    monkeypatch.setattr(validation, "_sandwich_polynomials", corrupted)
    assert cli.main(["validate", "--config", str(write_config(tmp_path))]) == 3
    assert "N / |det|^2 against direct solves" in capsys.readouterr().err


def test_validate_raises_on_recorded_failures(tmp_path, monkeypatch):
    cfg = parse_config(tiny_doc(tmp_path / "results"))
    sink = cli._Sink(cfg, tmp_path / "out")
    monkeypatch.setattr(
        cli, "oracle_compare",
        lambda *a, **k: OracleComparison(sparse_norm=1.0, oracle_norm=2.0,
                                         rel_diff=0.5))
    monkeypatch.setattr(
        cli, "weak_l1_levelset_measure",
        lambda *a, **k: SimpleNamespace(degenerate=False, slope=-1.0,
                                        passed=True))
    with pytest.raises(NumericalError, match="3 failures"):
        cli.run_validate(cfg, sink, None)


# ---------------------------------------------------------------------------
# presets

def test_preset_listing_names_everything(capsys):
    assert cli.main(["preset"]) == 0
    out = capsys.readouterr().out
    for name in preset_names():
        assert name in out
    assert "out of scope" in out


def test_unknown_preset_exits_2(capsys):
    assert cli.main(["preset", "mystery"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_preset_takes_no_config_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["preset", "band-edge", "--config", str(tmp_path / "x.json"),
                  "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_get_preset_returns_fresh_copies():
    a, pipeline_a = get_preset("band-edge")
    a["run"]["N"] = 9999
    b, _ = get_preset("band-edge")
    assert b["run"]["N"] != 9999
    assert isinstance(pipeline_a, tuple)


def test_all_preset_configs_validate():
    for name in preset_names():
        data, pipeline = get_preset(name)
        cfg = parse_config(data)
        assert cfg.experiment == name
        assert all(step in cli.RUNNERS for step in pipeline)
        assert PRESETS[name]["description"]


def test_preset_run_writes_config_and_records(tmp_path):
    code = cli.main(["preset", "large-disorder-2d", "--out", str(tmp_path)])
    assert code == 0
    saved = json.loads((tmp_path / "config.json").read_text())
    assert saved["experiment"] == "large-disorder-2d"
    records = read_records(tmp_path / "records.jsonl")
    assert {r.kind for r in records} == {"criterion"}
    header = (tmp_path / "criterion.csv").read_text().splitlines()[0]
    assert header.startswith("L,s,E,raw_moment,factor")
