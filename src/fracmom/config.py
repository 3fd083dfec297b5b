"""Experiment configuration: schema validation, cross-field checks, hashing.

A configuration is one JSON document per experiment.  The hash covers
everything that can influence a number (model, run, constants) and skips
the output block, so records stay bound to the producing configuration
no matter where they were written.  FRACMOM_SEED overrides the master
seed for quick reruns without editing the file.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import jsonschema

from .criterion import _ball_fits_box, default_center
from .errors import ConfigError
from .model import (
    BackgroundFields,
    ConstantScalar,
    ConstantVector,
    GridSpec,
    LandauGauge,
    ModelConfig,
    SingleSiteProfile,
    disorder_law,
)

SEED_ENV = "FRACMOM_SEED"

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
    window: tuple | None
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
    return BackgroundFields(A=A, V0=V0, V0_min=min(0.0, v0))


def _build_model(block):
    g = block["grid"]
    grid = GridSpec(d=int(g["d"]), box=tuple(float(b) for b in g["box"]),
                    h=float(g["h"]))
    p = block["profile"]
    profile = SingleSiteProfile(r=float(p["r"]),
                                shape=p.get("shape", "indicator"),
                                u0=float(p["u0"]))
    law = disorder_law(float(block["law"]["lam"]), grid)
    background = _build_background(block.get("background", {}), grid.d)
    return ModelConfig(grid=grid, background=background, profile=profile,
                       law=law)


def _check_point_in_box(name, point, grid):
    point = tuple(float(x) for x in point)
    if len(point) != grid.d:
        raise ConfigError(f"{name} has {len(point)} coordinates, grid is {grid.d}d")
    for x, b in zip(point, grid.box):
        if not 0.0 < x < b:
            raise ConfigError(f"{name} {point} is outside the open box {grid.box}")
    return point


def _cross_checks(cfg: "ExperimentConfig"):
    eps = cfg.eps_schedule
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("run.eps must be strictly decreasing")
    if cfg.ladder is not None:
        if any(b <= a for a, b in zip(cfg.ladder, cfg.ladder[1:])):
            raise ConfigError("run.ladder must be strictly increasing")
    if cfg.window is not None and not cfg.window[0] < cfg.window[1]:
        raise ConfigError("run.window must satisfy lo < hi")
    if cfg.L_values is not None:
        # the criterion gates: subcritical s, thick enough balls, balls in box
        bad_s = [s for s in cfg.s_values if not s < 1.0 / 3.0]
        if bad_s:
            raise ConfigError(
                f"run.s: criterion runs need s < 1/3, got {bad_s}")
        min_L = (cfg.depth + cfg.r) if cfg.depth is not None else 24.0 * cfg.r
        for L in cfg.L_values:
            if not L > min_L:
                raise ConfigError(
                    f"run.L: ball radius {L} too small; needs L > {min_L}")
            for alpha in cfg.alphas or (default_center(cfg.grid),):
                if not _ball_fits_box(cfg.grid, alpha, L):
                    raise ConfigError(
                        f"run.alphas: ball of radius {L} around {tuple(alpha)} "
                        f"exceeds the box {cfg.grid.box}")


def parse_config(data, env=None):
    """Validate a config dict and build the runnable ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    error = jsonschema.exceptions.best_match(_validator().iter_errors(data))
    if error is not None:
        raise ConfigError(f"{error.json_path}: {error.message}")
    model = _build_model(data["model"])
    run = data["run"]

    env = os.environ if env is None else env
    master_seed = int(run["master_seed"])
    if SEED_ENV in env:
        try:
            master_seed = int(env[SEED_ENV])
        except ValueError as exc:
            raise ConfigError(
                f"{SEED_ENV} must be an integer, got {env[SEED_ENV]!r}") from exc
        if master_seed < 0:
            raise ConfigError(f"{SEED_ENV} must be nonnegative")

    L = run.get("L")
    if L is not None and not isinstance(L, list):
        L = [L]
    constants = {**_DEFAULT_CONSTANTS, **data.get("constants", {})}
    alphas = run.get("alphas")
    x0 = run.get("x0")
    y0 = run.get("y0")
    grid = model.grid
    if alphas is not None:
        alphas = tuple(_check_point_in_box(f"run.alphas[{i}]", a, grid)
                       for i, a in enumerate(alphas))
    if x0 is not None:
        x0 = _check_point_in_box("run.x0", x0, grid)
    if y0 is not None:
        y0 = _check_point_in_box("run.y0", y0, grid)
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
        master_seed=master_seed,
        L_values=tuple(float(l) for l in L) if L is not None else None,
        alphas=alphas,
        ladder=tuple(float(x) for x in run["ladder"])
        if run.get("ladder") is not None else None,
        x0=x0,
        y0=y0,
        radius=float(run.get("radius", model.profile.r)),
        axis=axis,
        window=tuple(float(w) for w in run["window"])
        if run.get("window") is not None else None,
        n_configs=int(run.get("n_configs", 50)),
        M_const=float(constants["M_const"]),
        depth=float(constants["depth"]) if "depth" in constants else None,
        output_dir=str(data.get("output", {}).get("dir", "results")),
        config_hash=config_hash(data),
    )
    _cross_checks(cfg)
    return cfg


def load_config(path, env=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data, env=env)
