import copy
import json
from pathlib import Path

import jsonschema
import pytest

import fracmom

from fracmom.config import (
    SEED_ENV,
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


def test_gauge_blocks_build_backgrounds():
    doc = base_doc()
    doc["model"]["background"] = {"V0": -0.5,
                                  "gauge": {"kind": "constant",
                                            "value": [0.3]}}
    cfg = parse_config(doc)
    assert cfg.model.background.V0_min == -0.5
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
# seed override

def test_seed_env_overrides_master_seed():
    cfg = parse_config(base_doc(), env={SEED_ENV: "99"})
    assert cfg.master_seed == 99


def test_seed_env_rejects_garbage():
    with pytest.raises(ConfigError, match=SEED_ENV):
        parse_config(base_doc(), env={SEED_ENV: "not-a-seed"})
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_config(base_doc(), env={SEED_ENV: "-1"})


def test_seed_env_read_from_process_environment(monkeypatch):
    monkeypatch.setenv(SEED_ENV, "123")
    assert parse_config(base_doc()).master_seed == 123


def test_seed_override_does_not_change_hash():
    # the hash covers the document, not the effective seed
    plain = parse_config(base_doc())
    overridden = parse_config(base_doc(), env={SEED_ENV: "99"})
    assert plain.config_hash == overridden.config_hash


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
    with pytest.raises(ConfigError, match="lo < hi"):
        parse_config(doc)


def test_criterion_runs_need_subcritical_s():
    doc = base_doc()
    doc["model"]["grid"]["box"] = [120.0]
    doc["run"]["L"] = 26.0
    doc["run"]["alphas"] = [[60.0]]
    with pytest.raises(ConfigError, match="s < 1/3"):
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
