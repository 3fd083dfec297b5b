import json
import logging
import math

import numpy as np
import pytest

from fracmom.errors import ConfigError, DomainError
from fracmom.records import (
    PLOT_COLUMNS,
    RECORD_KINDS,
    ResultRecord,
    append_records,
    emit_plot_data,
    jsonify,
    read_records,
)

HASH = "a" * 64


def rec(kind="moment", **payload):
    payload = payload or {"s": 0.5, "E": 1.0, "eps": 0.1, "mean": 2.0,
                          "stderr": 0.1, "N": 4, "seed": 7}
    return ResultRecord(experiment="unit", config_hash=HASH, kind=kind,
                        payload=payload)


# ---------------------------------------------------------------------------
# payload normalization

def test_jsonify_coerces_numpy_types():
    out = jsonify({"a": np.float64(1.5), "b": np.int32(3),
                   "c": np.bool_(True), "d": np.arange(3),
                   "e": (1, np.float32(2.0)), "f": None, "g": "txt"})
    assert out == {"a": 1.5, "b": 3, "c": True, "d": [0, 1, 2],
                   "e": [1, 2.0], "f": None, "g": "txt"}
    assert isinstance(out["a"], float) and isinstance(out["b"], int)
    assert isinstance(out["c"], bool)


def test_jsonify_rejects_foreign_objects():
    with pytest.raises(DomainError, match="not JSON-representable"):
        jsonify({"bad": object()})


@pytest.mark.parametrize("value", [
    math.inf, -math.inf, math.nan, np.float64(np.inf), np.float32(np.nan),
], ids=["inf", "-inf", "nan", "float64-inf", "float32-nan"])
def test_jsonify_rejects_non_finite_floats(value):
    # json writes them as Infinity and NaN, which no JSON reader accepts
    with pytest.raises(DomainError, match="not JSON-representable"):
        jsonify({"points": [{"mean": value}]})


# ---------------------------------------------------------------------------
# records

def test_record_kinds_are_closed():
    with pytest.raises(DomainError, match="unknown record kind"):
        rec(kind="surprise")
    for kind in RECORD_KINDS:
        assert ResultRecord("e", HASH, kind, {}).kind == kind


def test_created_at_autofilled_as_utc_iso():
    r = rec()
    assert r.created_at.endswith("+00:00")
    assert "T" in r.created_at


def test_json_roundtrip_is_exact():
    r = rec()
    again = ResultRecord.from_json(r.to_json())
    assert again == r
    # payload values survive as native types
    assert isinstance(again.payload["N"], int)


def test_to_json_is_sorted_and_compact():
    line = rec().to_json()
    keys = list(json.loads(line))
    assert keys == sorted(keys)
    assert ": " not in line


def test_from_json_rejects_bad_lines():
    with pytest.raises(ConfigError, match="bad record line"):
        ResultRecord.from_json("{oops")
    with pytest.raises(ConfigError, match="missing field"):
        ResultRecord.from_json(json.dumps({"experiment": "e"}))


# ---------------------------------------------------------------------------
# persistence

def test_append_and_read_roundtrip(tmp_path):
    path = tmp_path / "deep" / "nested" / "records.jsonl"
    first = [rec(), rec(kind="ids", E=1.0, ids=0.5, stderr=0.01, N=4)]
    append_records(path, first)
    assert read_records(path) == first
    more = [rec(kind="validation", name="check", value=1e-12, passed=True)]
    append_records(path, more)
    assert read_records(path) == first + more


def test_read_skips_blank_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    r = rec()
    path.write_text(r.to_json() + "\n\n" + r.to_json() + "\n")
    assert len(read_records(path)) == 2


# ---------------------------------------------------------------------------
# CSV projections

def test_moment_csv_columns_and_values(tmp_path):
    path = tmp_path / "moment.csv"
    n = emit_plot_data([rec()], "moment", path)
    assert n == 1
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,E,eps,mean,stderr,N,seed"
    assert lines[1] == "0.5,1.0,0.1,2.0,0.1,4,7"


def test_decay_csv_expands_fit_points(tmp_path):
    fit = rec(kind="fit", quantity="moment-decay", s=0.3, E=8.0, eps=0.001,
              A=1.0, mu=3.0, r2=0.99,
              points=[{"dist": 2.0, "mean": 1e-3, "stderr": 1e-5},
                      {"dist": 4.0, "mean": 1e-6, "stderr": 1e-8}])
    path = tmp_path / "decay.csv"
    assert emit_plot_data([fit, rec()], "decay", path) == 2
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "dist,mean,stderr,s,E"
    assert lines[1].startswith("2.0,0.001,")


def test_validation_csv_spells_booleans(tmp_path):
    r = rec(kind="validation", name="oracle-0", value=None, passed=True)
    path = tmp_path / "validation.csv"
    emit_plot_data([r], "validation", path)
    assert path.read_text().strip().splitlines()[1] == "oracle-0,,true"


def test_empty_emission_writes_header_only_and_warns(tmp_path, caplog):
    path = tmp_path / "criterion.csv"
    with caplog.at_level(logging.WARNING, logger="fracmom.records"):
        n = emit_plot_data([rec()], "criterion", path)
    assert n == 0
    assert path.read_text().strip() == ",".join(PLOT_COLUMNS["criterion"])
    assert any("header-only" in m for m in caplog.messages)


def test_unknown_plot_kind_rejected(tmp_path):
    with pytest.raises(DomainError, match="no plot table"):
        emit_plot_data([], "heatmap", tmp_path / "x.csv")


def test_float_cells_roundtrip_through_repr(tmp_path):
    # repr keeps full precision so CSVs can be compared numerically
    value = 0.1234567890123456789
    r = rec(kind="ids", E=value, ids=1.0, stderr=0.0, N=2)
    path = tmp_path / "ids.csv"
    emit_plot_data([r], "ids", path)
    cell = path.read_text().strip().splitlines()[1].split(",")[0]
    assert float(cell) == float(value)
