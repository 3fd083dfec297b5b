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

from fracmom import cli, moments
from fracmom.config import load_config, parse_config
from fracmom.criterion import (
    criterion_factor,
    estimate_raw_boundary_moment,
    fit_exponential_decay,
)
from fracmom.errors import ConfigError, NumericalError
from fracmom.model import ModelConfig, ground_energy
from fracmom.moments import (
    EpsilonSchedule,
    epsilon_scan,
    estimate_fractional_moment,
    estimates_from_norms,
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


@pytest.fixture
def draws(monkeypatch):
    """The seed of every realization drawn while the test runs."""
    seeds = []
    sample = ModelConfig.sample

    def counting(self, seed):
        seeds.append(seed)
        return sample(self, seed)
    monkeypatch.setattr(ModelConfig, "sample", counting)
    return seeds


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


def test_seed_env_changes_the_run(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    cli.main(["moment", "--config", str(path), "--out", str(tmp_path / "a")])
    monkeypatch.setenv("FRACMOM_SEED", "77")
    cli.main(["moment", "--config", str(path), "--out", str(tmp_path / "b")])
    a = read_records(tmp_path / "a" / "records.jsonl")
    b = read_records(tmp_path / "b" / "records.jsonl")
    assert a[0].payload["seed"] == 3
    assert b[0].payload["seed"] == 77
    assert a[0].payload["mean"] != b[0].payload["mean"]
    # same document, same hash: the seed override is not part of identity
    assert a[0].config_hash == b[0].config_hash


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
    X, Y = cli._moment_sets(cfg)

    assert cli.main(["moment", "--config", str(path),
                     "--out", str(tmp_path / "moment")]) == 0
    records = read_records(tmp_path / "moment" / "records.jsonl")
    assert len(records) == 8
    for rec in records:
        p = rec.payload
        est = estimate_fractional_moment(
            cfg.model, p["s"], SpectralShift(E=p["E"], eps=p["eps"]), X, Y,
            cfg.N, cfg.master_seed)
        assert dumps(p) == dumps(est.payload())

    assert cli.main(["epsilon-scan", "--config", str(path),
                     "--out", str(tmp_path / "scan")]) == 0
    records = read_records(tmp_path / "scan" / "records.jsonl")
    schedule = EpsilonSchedule(cfg.eps_schedule)
    expected = [est.payload() for s in cfg.s_values for E in cfg.E_values
                for est in epsilon_scan(cfg.model, s, E, schedule, X, Y,
                                        cfg.N, cfg.master_seed).estimates]
    assert [dumps(r.payload) for r in records] == [dumps(p) for p in expected]

    assert cli.main(["decay", "--config", str(path),
                     "--out", str(tmp_path / "decay")]) == 0
    records = read_records(tmp_path / "decay" / "records.jsonl")
    assert len(records) == 4
    X, targets = cli._ladder_sets(cfg)
    for rec in records:
        p = rec.payload
        shift = SpectralShift(E=p["E"], eps=p["eps"])
        norms = scan_pair_norms(cfg.model, [shift], [(X, Y) for Y in targets],
                                cfg.N, cfg.master_seed)[:, 0, :]
        ests = estimates_from_norms(norms, p["s"], [shift] * len(targets),
                                    seed=cfg.master_seed)
        fit = fit_exponential_decay(
            [(d, e.mean) for d, e in zip(cfg.ladder, ests)],
            stderrs=[e.stderr for e in ests])
        assert dumps(p) == dumps({
            "quantity": "moment-decay", "s": p["s"], "E": p["E"],
            "eps": p["eps"], "A": fit.A, "mu": fit.mu, "r2": fit.r2,
            "points": [{"dist": d, "mean": e.mean, "stderr": e.stderr}
                       for d, e in zip(cfg.ladder, ests)]})

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
        report = criterion_factor(p["s"], cfg.lam, p["E"], E0, p["L"], 1, raw,
                                  r=cfg.r)
        assert dumps(p) == dumps(report.payload())


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


def test_epsilon_scan_requires_two_eps(tmp_path, capsys):
    doc = tiny_doc(tmp_path / "results")
    doc["run"]["eps"] = [0.1]
    code = cli.main(["epsilon-scan", "--config",
                     str(write_config(tmp_path, doc))])
    assert code == 2
    assert "at least two" in capsys.readouterr().err


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


@pytest.mark.parametrize("sub", ["decay", "correlator"])
def test_two_rung_ladder_exits_2_before_sampling(tmp_path, draws, capsys, sub):
    doc = tiny_doc(tmp_path / "results")
    doc["run"]["ladder"] = [2.0, 4.0]
    assert cli.main([sub, "--config", str(write_config(tmp_path, doc))]) == 2
    assert "too short" in capsys.readouterr().err
    assert draws == []
    assert not (tmp_path / "results" / "records.jsonl").exists()


def test_decay_refuses_s_one_before_sampling(tmp_path, draws, capsys):
    doc = tiny_doc(tmp_path / "results")
    doc["run"]["s"] = [0.3, 1.0]
    assert cli.main(["decay", "--config",
                     str(write_config(tmp_path, doc))]) == 2
    assert "run.s" in capsys.readouterr().err
    assert draws == []
    assert not (tmp_path / "results" / "records.jsonl").exists()


@pytest.mark.parametrize("sub", ["ids", "correlator"])
def test_counting_cap_exits_2_before_sampling(tmp_path, draws, capsys, sub):
    # 39 x 39 = 1521 points: no tridiagonal count, and above the dense cap
    doc = tiny_doc(tmp_path / "results")
    doc["model"]["grid"] = {"d": 2, "box": [40.0, 40.0], "h": 1.0}
    doc["run"].update(x0=[10.0, 10.0], ladder=[2.0, 4.0, 6.0])
    assert cli.main([sub, "--config", str(write_config(tmp_path, doc))]) == 2
    assert "needs <= 1500 grid points, got 1521" in capsys.readouterr().err
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


def test_validate_caps_grid_size(tmp_path, capsys):
    doc = tiny_doc(tmp_path / "results")
    doc["model"]["grid"] = {"d": 2, "box": [40.0, 40.0], "h": 1.0}
    doc["run"]["x0"] = [10.0, 10.0]
    doc["run"]["ladder"] = [2.0, 4.0, 6.0]
    doc["run"]["window"] = [1.0, 4.0]
    assert cli.main(["validate", "--config",
                     str(write_config(tmp_path, doc))]) == 2
    assert "validate needs <= 500 grid points" in capsys.readouterr().err


def test_validate_raises_on_recorded_failures(tmp_path, monkeypatch):
    cfg = parse_config(tiny_doc(tmp_path / "results"))
    sink = cli._Sink(cfg, tmp_path / "out")
    monkeypatch.setattr(
        cli, "oracle_compare",
        lambda *a, **k: OracleComparison(sparse_norm=1.0, dense_norm=2.0,
                                         rel_diff=0.5, tol=1e-8))
    monkeypatch.setattr(
        cli, "weak_l1_levelset_measure",
        lambda *a, **k: SimpleNamespace(degenerate=False, slope=-1.0))
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
