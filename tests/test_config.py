import copy
import json
from pathlib import Path

import jsonschema
import pytest

import fracmom

from fracmom import cli
from fracmom.config import (
    canonical_bytes,
    config_hash,
    load_config,
    parse_config,
)
from fracmom.errors import ConfigError


def base_doc():
    return {
        "experiment": "unit",
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
        },
    }


# ---------------------------------------------------------------------------
# schema validation

def test_minimal_document_parses_with_defaults():
    cfg = parse_config(base_doc())
    assert cfg.experiment == "unit"
    assert cfg.grid.d == 1 and cfg.grid.h == 1.0
    assert cfg.lam == 2.0
    assert cfg.s_values == (0.5,)
    assert cfg.eps_schedule == (0.1, 0.01)
    assert cfg.master_seed == 3
    # defaults
    assert cfg.radius == cfg.r == 1.0
    assert cfg.n_configs == 50
    assert cfg.M_const == 1.0
    assert cfg.depth is None
    assert cfg.output_dir == "results"
    assert cfg.L_values is None and cfg.window is None and cfg.ladder is None


SCHEMA_PATH = Path(fracmom.__file__).parent / "schema" / "experiment.schema.json"


def test_shipped_schema_is_valid_against_its_metaschema():
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_schema_errors_read_as_jsonschema_validate_reports_them():
    schema = json.loads(SCHEMA_PATH.read_text())
    bad = []
    for path, value in [(("run", "s"), [1.5]), (("run", "N"), 1),
                        (("model", "grid", "d"), 4), (("typo",), 1),
                        (("run", "eps"), "x")]:
        doc = base_doc()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad.append(doc)
    doc = base_doc()
    del doc["model"]["law"]
    bad.append(doc)
    for doc in bad:
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(doc, schema)
        with pytest.raises(ConfigError) as got:
            parse_config(doc)
        assert str(got.value) == f"{want.value.json_path}: {want.value.message}"


def test_non_object_rejected():
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


def test_missing_required_field_names_its_path():
    doc = base_doc()
    del doc["run"]["s"]
    with pytest.raises(ConfigError, match=r"\$\.run"):
        parse_config(doc)


def test_out_of_range_s_names_its_path():
    doc = base_doc()
    doc["run"]["s"] = [1.5]
    with pytest.raises(ConfigError, match=r"\$\.run\.s\[0\]"):
        parse_config(doc)


def test_unknown_keys_rejected_everywhere():
    doc = base_doc()
    doc["typo"] = 1
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = base_doc()
    doc["run"]["epz"] = [0.1]
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = base_doc()
    doc["model"]["grid"]["n"] = 10
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_grid_dimension_bounds():
    doc = base_doc()
    doc["model"]["grid"]["d"] = 4
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_grid_above_int64_points_is_refused_before_the_lattice(monkeypatch):
    def lattice(*args):
        raise AssertionError("the disorder law was built")
    monkeypatch.setattr(fracmom.config, "disorder_law", lattice)
    doc = base_doc()
    doc["model"]["grid"] = {"d": 3, "box": [2.2e6] * 3, "h": 1.0}
    with pytest.raises(ConfigError, match=f"3d operator of {2_199_999 ** 3} points"):
        parse_config(doc)


def test_chain_above_the_plane_cap_parses():
    doc = base_doc()
    doc["model"]["grid"] = {"d": 1, "box": [60_001.0], "h": 1.0}
    assert parse_config(doc).grid.npoints == 60_000


def test_gauge_blocks_build_backgrounds():
    doc = base_doc()
    doc["model"]["background"] = {"V0": -0.5,
                                  "gauge": {"kind": "constant",
                                            "value": [0.3]}}
    cfg = parse_config(doc)
    assert cfg.model.background.V0.value == -0.5
    doc["model"]["background"] = {"gauge": {"kind": "landau", "b": 0.2}}
    doc["model"]["grid"] = {"d": 2, "box": [8.0, 8.0], "h": 1.0}
    assert parse_config(doc).model.background.A is not None
    doc["model"]["background"] = {"gauge": {"kind": "constant"}}
    with pytest.raises(ConfigError, match="needs value"):
        parse_config(doc)
    doc["model"]["background"] = {"gauge": {"kind": "landau"}}
    with pytest.raises(ConfigError, match="needs b"):
        parse_config(doc)


# ---------------------------------------------------------------------------
# the master seed

def test_seed_comes_from_the_document_alone(tmp_path, monkeypatch):
    # the config hash binds records to the document, so nothing outside
    # it may change the seed: a FRACMOM_SEED in the environment is inert
    p = tmp_path / "exp.json"
    p.write_text(json.dumps(base_doc()))
    monkeypatch.setenv("FRACMOM_SEED", "77")
    cfg = load_config(p)
    assert cfg.master_seed == 3
    assert cfg.config_hash == config_hash(base_doc())


# ---------------------------------------------------------------------------
# hashing

def test_hash_ignores_output_block():
    doc = base_doc()
    other = copy.deepcopy(doc)
    other["output"] = {"dir": "elsewhere"}
    assert config_hash(doc) == config_hash(other)
    assert canonical_bytes(doc) == canonical_bytes(other)


def test_hash_tracks_run_changes():
    doc = base_doc()
    other = copy.deepcopy(doc)
    other["run"]["N"] = 5
    assert config_hash(doc) != config_hash(other)
    assert len(config_hash(doc)) == 64


def test_parsed_config_carries_its_hash():
    doc = base_doc()
    cfg = parse_config(doc)
    assert cfg.config_hash == config_hash(doc)


# ---------------------------------------------------------------------------
# cross-field checks

def test_eps_must_strictly_decrease():
    doc = base_doc()
    doc["run"]["eps"] = [0.01, 0.1]
    with pytest.raises(ConfigError, match="strictly decreasing"):
        parse_config(doc)
    doc["run"]["eps"] = [0.1, 0.1]
    with pytest.raises(ConfigError, match="strictly decreasing"):
        parse_config(doc)


def test_ladder_must_strictly_increase():
    doc = base_doc()
    doc["run"]["ladder"] = [2.0, 4.0, 4.0]
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config(doc)


def test_window_must_be_ordered():
    doc = base_doc()
    doc["run"]["window"] = [4.0, 1.0]
    with pytest.raises(ConfigError, match="a < b"):
        parse_config(doc)


def test_criterion_runs_need_subcritical_s():
    doc = base_doc()
    doc["model"]["grid"]["box"] = [120.0]
    doc["run"]["L"] = 26.0
    doc["run"]["alphas"] = [[60.0]]
    with pytest.raises(ConfigError, match=r"s in \(0, 1/3\)"):
        parse_config(doc)
    doc["run"]["s"] = [0.3]
    cfg = parse_config(doc)
    assert cfg.L_values == (26.0,)  # scalar normalized to a list


def test_criterion_ball_must_exceed_default_depth():
    doc = base_doc()
    doc["model"]["grid"]["box"] = [120.0]
    doc["run"]["s"] = [0.3]
    doc["run"]["L"] = 20.0
    doc["run"]["alphas"] = [[60.0]]
    with pytest.raises(ConfigError, match="too small"):
        parse_config(doc)


def test_custom_depth_lowers_the_floor():
    doc = base_doc()
    doc["run"]["s"] = [0.3]
    doc["run"]["L"] = 8.0
    doc["run"]["alphas"] = [[12.0]]
    doc["constants"] = {"depth": 3.0}
    cfg = parse_config(doc)
    assert cfg.depth == 3.0 and cfg.L_values == (8.0,)


def test_criterion_ball_must_fit_the_box():
    doc = base_doc()
    doc["model"]["grid"]["box"] = [60.0]
    doc["run"]["s"] = [0.3]
    doc["run"]["L"] = 26.0
    doc["run"]["alphas"] = [[10.0]]
    with pytest.raises(ConfigError, match="exceeds the box"):
        parse_config(doc)


def test_criterion_default_alpha_is_the_box_center():
    doc = base_doc()
    doc["model"]["grid"]["box"] = [50.0]
    doc["run"]["s"] = [0.3]
    doc["run"]["L"] = 26.0
    # ball of radius 26 at the center of [0, 50] pokes out on both sides
    with pytest.raises(ConfigError, match="exceeds the box"):
        parse_config(doc)
    # touching the walls exactly is still inside the closed box
    doc["model"]["grid"]["box"] = [52.0]
    assert parse_config(doc).L_values == (26.0,)
    # the center is rounded to whole coordinates, as the run rounds it:
    # 26.0 in [0, 51], where the ball of radius 25.5 pokes out
    doc["model"]["grid"] = {"d": 1, "box": [51.0], "h": 0.5}
    doc["run"]["L"] = 25.5
    with pytest.raises(ConfigError, match=r"around \(26\.0,\) exceeds"):
        parse_config(doc)
    doc["run"]["alphas"] = [[25.5]]
    assert parse_config(doc).alphas == ((25.5,),)


def test_points_must_lie_in_the_open_box():
    doc = base_doc()
    doc["run"]["x0"] = [24.0]
    with pytest.raises(ConfigError, match="outside the open box"):
        parse_config(doc)
    doc["run"]["x0"] = [6.0, 6.0]
    with pytest.raises(ConfigError, match="coordinates"):
        parse_config(doc)


def test_axis_bounded_by_dimension():
    doc = base_doc()
    doc["run"]["axis"] = 1
    with pytest.raises(ConfigError, match="out of range"):
        parse_config(doc)


# ---------------------------------------------------------------------------
# file loading

def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "exp.json"
    p.write_text(json.dumps(base_doc()))
    cfg = load_config(p)
    assert cfg.N == 4


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json")


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(p)


# ---------------------------------------------------------------------------
# the library's rules, refused at parse time

def _criterion_run(box, L, alpha, s=0.3):
    return {"box": [box], "run": {"s": [s], "L": L, "alphas": [[alpha]]}}


@pytest.mark.parametrize("sub, change, message", [
    ("criterion", _criterion_run(120.0, 26.0, 60.0, s=1.0 / 3.0),
     r"s in \(0, 1/3\), got 0\.333"),
    ("criterion", _criterion_run(120.0, 24.0, 60.0),
     "ball radius 24.0 too small for layer depth 23.0"),
    ("criterion", {**_criterion_run(24.0, 4.0, 12.0),
                   "constants": {"depth": 3.0}},
     "ball radius 4.0 too small for layer depth 3.0"),
    ("criterion", _criterion_run(60.0, 26.0, 25.0),
     r"ball of radius 26.0 around \(25.0,\) exceeds the box"),
    ("moment", {"run": {"x0": [24.0]}}, r"run.x0 \(24.0,\) is outside"),
    ("moment", {"run": {"y0": [0.0]}}, r"run.y0 \(0.0,\) is outside"),
    ("moment", {"run": {"x0": [6.0, 6.0]}}, "run.x0 has 2 coordinates"),
    ("correlator", {"run": {"window": [4.0, 4.0]}}, r"window \(4.0, 4.0\) needs finite a < b"),
    ("decay", {"run": {"ladder": [2.0, 4.0, 4.0]}},
     "at least three strictly increasing"),
], ids=["s-one-third", "L-default-depth", "L-custom-depth", "alpha-ball",
        "x0-outside", "y0-outside", "x0-dimension", "window", "ladder"])
def test_library_rules_refuse_a_document_at_parse(
        tmp_path, draws, capsys, sub, change, message):
    doc = base_doc()
    doc["run"].update(x0=[6.0], ladder=[2.0, 4.0, 6.0], window=[1.0, 4.0])
    doc["run"].update(change["run"])
    if "box" in change:
        doc["model"]["grid"]["box"] = change["box"]
    if "constants" in change:
        doc["constants"] = change["constants"]
    doc["output"] = {"dir": str(tmp_path / "results")}
    with pytest.raises(ConfigError, match=message):
        parse_config(doc)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    assert cli.main([sub, "--config", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert draws == []
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_numbers_are_refused_when_a_document_is_loaded(
        tmp_path, capsys, literal):
    doc = base_doc()
    doc["run"]["E"] = ["VALUE"]
    doc["output"] = {"dir": str(tmp_path / "results")}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc).replace('"VALUE"', literal))
    with pytest.raises(ConfigError, match=f"{literal} is not finite"):
        load_config(path)
    assert cli.main(["ids", "--config", str(path)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "results" / "records.jsonl").exists()
