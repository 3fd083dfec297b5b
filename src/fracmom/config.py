"""Experiment configuration: schema validation, cross-field checks, hashing.

A configuration is one JSON document per experiment.  The hash covers
everything that can influence a number (model, run, constants) and skips
the output block, so records stay bound to the producing configuration
no matter where they were written.  The master seed is read from the
document alone: no environment variable changes a number.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import jsonschema

from .criterion import check_criterion_regime, check_ladder
from .errors import ConfigError
from .localization import EigenWindow
from .model import (
    BackgroundFields,
    ConstantScalar,
    ConstantVector,
    GridSpec,
    LandauGauge,
    ModelConfig,
    SingleSiteProfile,
    check_covering,
    disorder_law,
)
from .resolvent import check_solve_size

_DEFAULT_CONSTANTS = {"M_const": 1.0}


@lru_cache(maxsize=1)
def _validator():
    # the shipped schema is checked against its metaschema by a test, not
    # on every load
    text = resources.files("fracmom").joinpath(
        "schema/experiment.schema.json").read_text()
    schema = json.loads(text)
    return jsonschema.validators.validator_for(schema)(schema)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment: model factory plus run/constants/output blocks."""

    experiment: str
    model: ModelConfig
    s_values: tuple
    E_values: tuple
    eps_schedule: tuple
    N: int
    master_seed: int
    L_values: tuple | None
    alphas: tuple | None
    ladder: tuple | None
    x0: tuple | None
    y0: tuple | None
    radius: float
    axis: int
    window: EigenWindow | None
    n_configs: int
    M_const: float
    depth: float | None
    output_dir: str
    config_hash: str

    @property
    def grid(self):
        return self.model.grid

    @property
    def r(self):
        return self.model.profile.r

    @property
    def lam(self):
        return self.model.law.lam


def canonical_bytes(data):
    """Hash input: sorted-key compact JSON of everything but `output`."""
    payload = {k: v for k, v in data.items() if k != "output"}
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def config_hash(data):
    return hashlib.sha256(canonical_bytes(data)).hexdigest()


def _build_background(block, d):
    v0 = float(block.get("V0", 0.0))
    gauge = block.get("gauge", {"kind": "none"})
    kind = gauge.get("kind", "none")
    if kind == "none":
        A = None
    elif kind == "constant":
        if "value" not in gauge:
            raise ConfigError("model.background.gauge: constant gauge needs value")
        if len(gauge["value"]) != d:
            raise ConfigError(
                f"model.background.gauge: constant gauge value has "
                f"{len(gauge['value'])} entries, grid is {d}d")
        A = ConstantVector(tuple(float(x) for x in gauge["value"]))
    else:
        if "b" not in gauge:
            raise ConfigError("model.background.gauge: landau gauge needs b")
        if d != 2:
            raise ConfigError(
                f"model.background.gauge: landau gauge needs a 2d grid, got {d}d")
        A = LandauGauge(b=float(gauge["b"]))
    V0 = ConstantScalar(v0) if v0 != 0.0 else None
    return BackgroundFields(A=A, V0=V0)


def _build_model(block):
    g = block["grid"]
    grid = GridSpec(d=int(g["d"]), box=tuple(float(b) for b in g["box"]),
                    h=float(g["h"]))
    # before disorder_law allocates the lattice of an oversized box
    check_solve_size(grid.d, grid.npoints)
    p = block["profile"]
    profile = SingleSiteProfile(r=float(p["r"]),
                                shape=p.get("shape", "indicator"),
                                u0=float(p["u0"]))
    law = disorder_law(float(block["law"]["lam"]), grid)
    check_covering(profile, law, grid)
    background = _build_background(block.get("background", {}), grid.d)
    return ModelConfig(grid=grid, background=background, profile=profile,
                       law=law)


def _cross_checks(cfg: "ExperimentConfig"):
    # a document's eps may hold the one value a moment run needs
    eps = cfg.eps_schedule
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("run.eps must be strictly decreasing")
    if cfg.ladder is not None:
        check_ladder(cfg.ladder)
    if cfg.L_values is not None:
        check_criterion_regime(cfg.grid, cfg.r, cfg.s_values, cfg.L_values,
                               cfg.alphas, cfg.depth)


def parse_config(data, env=None):
    """Validate a config dict and build the runnable ExperimentConfig.

    env is ignored: nothing outside the document reaches a number.  It
    stays in the signature only for callers that still pass an empty
    environment (bench/checks.py).
    """
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    error = jsonschema.exceptions.best_match(_validator().iter_errors(data))
    if error is not None:
        raise ConfigError(f"{error.json_path}: {error.message}")
    model = _build_model(data["model"])
    run = data["run"]

    L = run.get("L")
    if L is not None and not isinstance(L, list):
        L = [L]
    constants = {**_DEFAULT_CONSTANTS, **data.get("constants", {})}
    alphas = run.get("alphas")
    grid = model.grid
    if alphas is not None:
        alphas = tuple(grid.interior_point(a, f"run.alphas[{i}]")
                       for i, a in enumerate(alphas))
    x0, y0 = (grid.interior_point(run[k], f"run.{k}") if k in run else None
              for k in ("x0", "y0"))
    axis = int(run.get("axis", 0))
    if axis >= grid.d:
        raise ConfigError(f"run.axis {axis} out of range for a {grid.d}d grid")

    cfg = ExperimentConfig(
        experiment=data["experiment"],
        model=model,
        s_values=tuple(float(s) for s in run["s"]),
        E_values=tuple(float(e) for e in run["E"]),
        eps_schedule=tuple(float(e) for e in run["eps"]),
        N=int(run["N"]),
        master_seed=int(run["master_seed"]),
        L_values=tuple(float(l) for l in L) if L is not None else None,
        alphas=alphas,
        ladder=tuple(float(x) for x in run["ladder"])
        if run.get("ladder") is not None else None,
        x0=x0,
        y0=y0,
        radius=float(run.get("radius", model.profile.r)),
        axis=axis,
        window=EigenWindow(*(float(w) for w in run["window"]))
        if run.get("window") is not None else None,
        n_configs=int(run.get("n_configs", 50)),
        M_const=float(constants["M_const"]),
        depth=float(constants["depth"]) if "depth" in constants else None,
        output_dir=str(data.get("output", {}).get("dir", "results")),
        config_hash=config_hash(data),
    )
    _cross_checks(cfg)
    return cfg


def load_config(path):
    # Python's json reads NaN, Infinity and overflowing numbers such as
    # 1e400, where the schema's bounds compare False or pass infinities
    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"config {path}: the number {text} is not "
                              "finite in double precision")
        return value
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=finite, parse_constant=finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)
