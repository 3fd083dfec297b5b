"""Append-only result records: JSON-lines persistence and CSV emission.

One record = one measurement bound to its configuration by hash.  The
JSON-lines files are the source of truth; CSVs are tidy projections for
plotting.  Payloads are normalized to JSON-native values on
construction so that parse(emit(record)) == record holds exactly.
"""

import csv
import json
import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError

logger = logging.getLogger(__name__)

RECORD_KINDS = ("moment", "criterion", "fit", "correlator", "ids",
                "validation")

# columns of the tidy plot tables, one block per plot kind
PLOT_COLUMNS = {
    "moment": ("s", "E", "eps", "mean", "stderr", "N", "seed"),
    "epsilon-scan": ("s", "E", "eps", "mean", "stderr", "N", "seed"),
    "decay": ("dist", "mean", "stderr", "s", "E"),
    "criterion": ("L", "s", "E", "raw_moment", "factor", "gamma",
                  "predicted_rate"),
    "correlator": ("dist", "value", "stderr", "window_lo", "window_hi"),
    "ids": ("E", "ids", "stderr", "N"),
    "validation": ("name", "value", "passed"),
}


def jsonify(value):
    """Recursively coerce numpy scalars and sequences to JSON-native types.

    inf and nan are refused: json would write them as Infinity and NaN.
    """
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)) and np.isfinite(value):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    raise DomainError(f"payload value {value!r} is not JSON-representable")


@dataclass(frozen=True)
class ResultRecord:
    experiment: str
    config_hash: str
    kind: str
    payload: dict
    created_at: str = ""

    def __post_init__(self):
        if self.kind not in RECORD_KINDS:
            raise DomainError(f"unknown record kind {self.kind!r}")
        object.__setattr__(self, "payload", jsonify(self.payload))
        if not self.created_at:
            object.__setattr__(
                self, "created_at",
                datetime.now(timezone.utc).isoformat(timespec="microseconds"))

    def to_json(self):
        return json.dumps(
            {"experiment": self.experiment, "config_hash": self.config_hash,
             "kind": self.kind, "payload": self.payload,
             "created_at": self.created_at},
            sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line):
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad record line: {exc}") from exc
        try:
            return cls(experiment=data["experiment"],
                       config_hash=data["config_hash"], kind=data["kind"],
                       payload=data["payload"],
                       created_at=data["created_at"])
        except KeyError as exc:
            raise ConfigError(f"record missing field {exc}") from exc


def append_records(path, records):
    """Append records to a JSON-lines file, creating parents as needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")
            fh.flush()
    return path


def read_records(path):
    path = Path(path)
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(ResultRecord.from_json(line))
    return out


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _plot_rows(records, kind):
    if kind in ("moment", "epsilon-scan"):
        return [rec.payload for rec in records if rec.kind == "moment"]
    if kind == "decay":
        rows = []
        for rec in records:
            if rec.kind != "fit" or "points" not in rec.payload:
                continue
            for pt in rec.payload["points"]:
                rows.append({**pt, "s": rec.payload.get("s"),
                             "E": rec.payload.get("E")})
        return rows
    if kind in ("criterion", "correlator", "ids", "validation"):
        return [rec.payload for rec in records if rec.kind == kind]
    raise DomainError(f"no plot table defined for kind {kind!r}")


def emit_plot_data(records, kind, path):
    """Write the tidy CSV for one plot kind; header-only when empty."""
    columns = PLOT_COLUMNS.get(kind)
    if columns is None:
        raise DomainError(f"no plot table defined for kind {kind!r}")
    rows = _plot_rows(records, kind)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])
    if not rows:
        logger.warning("no %s records; wrote header-only CSV %s", kind, path)
    return len(rows)
