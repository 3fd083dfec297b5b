import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import scipy.sparse.linalg

from fracmom import cli
from fracmom.config import parse_config
from fracmom.errors import ConfigError, NumericalError
from fracmom.presets import PRESETS, get_preset, preset_names
from fracmom.records import read_records
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


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(cfg, sink, workers):
        raise NumericalError("stub blew up")
    monkeypatch.setitem(cli.RUNNERS, "moment", boom)
    code = cli.main(["moment", "--config", str(write_config(tmp_path))])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


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
    doc["run"]["ladder"] = [2.0, 20.0]  # x0=6 + 20 = 26 > box 24
    assert cli.main(["decay", "--config",
                     str(write_config(tmp_path, doc))]) == 2
    assert "does not fit" in capsys.readouterr().err


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


def test_validate_caps_grid_size(tmp_path):
    doc = tiny_doc(tmp_path / "results")
    doc["model"]["grid"] = {"d": 2, "box": [40.0, 40.0], "h": 1.0}
    doc["run"]["x0"] = [10.0, 10.0]
    doc["run"]["ladder"] = [2.0]
    doc["run"]["window"] = [1.0, 4.0]
    assert cli.main(["validate", "--config",
                     str(write_config(tmp_path, doc))]) == 2


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
