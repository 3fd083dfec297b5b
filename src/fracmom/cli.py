"""Command line front end: load a config, run a pipeline, persist records.

Numerics are delegated entirely to the library modules; this file only
sequences them and writes results.  Each rule on the inputs has one
owner: config refuses at parse time, and each library call refuses
before its first draw, so the runners check only the run keys their
subcommand needs.  Exit codes: 0 success, 2 for any configuration
problem, 3 for a numerical failure (records produced before the failure
are already flushed).
"""

import argparse
import json
import logging
import sys
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import criterion as crit
from . import localization as loc
from . import moments
from .config import ExperimentConfig, load_config, parse_config
from .errors import ConfigError, FracmomError, NumericalError
from .model import ground_energy
from .records import ResultRecord, append_records, emit_plot_data
from .resolvent import SpectralShift
from .validation import (
    DissipativeOperator,
    HSOperator,
    oracle_bandwidths,
    oracle_compare,
    weak_l1_levelset_measure,
)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _ladder(cfg: ExperimentConfig):
    if cfg.ladder is None:
        raise ConfigError("run.ladder is required for this subcommand")
    return cfg.x0, cfg.ladder, cfg.axis, cfg.radius


class _Sink:
    """Accumulates records, flushing to disk as they arrive."""

    def __init__(self, cfg: ExperimentConfig, out_dir):
        self.cfg = cfg
        self.dir = Path(out_dir) if out_dir else Path(cfg.output_dir)
        self.records = []

    def add(self, kind, payload):
        rec = ResultRecord(experiment=self.cfg.experiment,
                           config_hash=self.cfg.config_hash, kind=kind,
                           payload=payload)
        self.records.append(rec)
        append_records(self.dir / "records.jsonl", [rec])
        return rec

    def emit_csv(self, kind):
        emit_plot_data(self.records, kind, self.dir / f"{kind}.csv")


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def run_moment(cfg: ExperimentConfig, sink: _Sink, workers):
    X, Y = crit.moment_sets(cfg.grid, cfg.x0, cfg.y0, cfg.radius)
    shifts = [SpectralShift(E=E, eps=eps)
              for E in cfg.E_values for eps in cfg.eps_schedule]
    table = moments.estimate_fractional_moment(
        cfg.model, cfg.s_values, shifts, X, Y, cfg.N, cfg.master_seed,
        workers=workers, diagnostic=True)
    for row in table:
        for est in row:
            sink.add("moment", est.payload())
            print(f"moment s={est.s} E={est.E} eps={est.eps}: "
                  f"{est.mean:.6g} +- {est.stderr:.2g}")
    sink.emit_csv("moment")


def run_epsilon_scan(cfg: ExperimentConfig, sink: _Sink, workers):
    X, Y = crit.moment_sets(cfg.grid, cfg.x0, cfg.y0, cfg.radius)
    table = moments.epsilon_scan(
        cfg.model, cfg.s_values, cfg.E_values,
        moments.EpsilonSchedule(cfg.eps_schedule), X, Y, cfg.N,
        cfg.master_seed, workers=workers, diagnostic=True)
    for s, row in zip(cfg.s_values, table):
        for E, scan in zip(cfg.E_values, row):
            for est in scan.estimates:
                sink.add("moment", est.payload())
            print(f"epsilon-scan s={s} E={E}: verdict {scan.verdict}")
    sink.emit_csv("epsilon-scan")


def run_criterion(cfg: ExperimentConfig, sink: _Sink, workers):
    if cfg.L_values is None:
        raise ConfigError("run.L is required for criterion runs")
    schedule = moments.EpsilonSchedule(cfg.eps_schedule)
    E0 = ground_energy(cfg.model.h0())
    # one scan per ball, folded at every (s, E)
    raws = [crit.estimate_raw_boundary_moment(
                cfg.model, cfg.s_values, cfg.E_values, L, schedule, cfg.N,
                cfg.master_seed, alphas=cfg.alphas, depth=cfg.depth,
                workers=workers)
            for L in cfg.L_values]
    for k, s in enumerate(cfg.s_values):
        for j, E in enumerate(cfg.E_values):
            for L, raw in zip(cfg.L_values, raws):
                report = crit.criterion_factor(
                    s, cfg.lam, E, E0, L, cfg.grid.d, raw[k, j],
                    M_const=cfg.M_const)
                sink.add("criterion", report.payload())
                print(f"criterion s={s} E={E} L={L}: factor={report.factor:.6g}"
                      f" triggered={report.triggered}")
    sink.emit_csv("criterion")


def run_decay(cfg: ExperimentConfig, sink: _Sink, workers):
    eps = cfg.eps_schedule[-1]
    shifts = [SpectralShift(E=E, eps=eps) for E in cfg.E_values]
    table = crit.measure_decay(cfg.model, cfg.s_values, shifts, *_ladder(cfg),
                               cfg.N, cfg.master_seed, workers=workers)
    for s, row in zip(cfg.s_values, table):
        for shift, (fit, _) in zip(shifts, row):
            sink.add("fit", {"quantity": "moment-decay", "s": s,
                             "E": shift.E, "eps": eps, **fit.payload()})
            print(f"decay s={s} E={shift.E}: mu={fit.mu:.4f} r2={fit.r2:.4f}")
    sink.emit_csv("decay")


def _correlator_row(window, X, targets, H):
    pairs = loc.eigensolve_window(H, window)
    return [loc.correlator_from_pairs(pairs, H, X, Y) for Y in targets]


def run_correlator(cfg: ExperimentConfig, sink: _Sink, workers):
    if cfg.window is None:
        raise ConfigError("run.window is required for correlator runs")
    window = cfg.window
    X, targets, dists = crit.distance_ladder(cfg.model, *_ladder(cfg))
    loc.check_countable(cfg.model.h0())
    means, stderrs = moments.mean_and_stderr(moments.map_samples(
        cfg.model, partial(_correlator_row, window, X, targets), cfg.N,
        cfg.master_seed, workers))
    for d, m, se in zip(dists, means, stderrs):
        sink.add("correlator", {
            "dist": d, "value": float(m), "stderr": float(se),
            "window_lo": window.a, "window_hi": window.b})
    fit = crit.fit_exponential_decay(list(zip(dists, means)), stderrs=stderrs)
    sink.add("fit", {"quantity": "correlator-decay", "window_lo": window.a,
                     "window_hi": window.b, **fit.payload()})
    print(f"correlator window=({window.a}, {window.b}): "
          f"mu={fit.mu:.4f} r2={fit.r2:.4f}")
    sink.emit_csv("correlator")


def run_ids(cfg: ExperimentConfig, sink: _Sink, workers):
    counts = loc.ids_counts(cfg.model, cfg.E_values, cfg.N, cfg.master_seed,
                            workers=workers)
    vol = cfg.grid.volume
    for E, column in zip(cfg.E_values, counts.T):
        mean, stderr = moments.mean_and_stderr(column)
        ids, stderr = float(mean / vol), float(stderr / vol)
        sink.add("ids", {"E": E, "ids": ids, "stderr": stderr, "N": cfg.N})
        print(f"ids E={E}: {ids:.6g} +- {stderr:.2g} per unit volume")
    sink.emit_csv("ids")


def run_validate(cfg: ExperimentConfig, sink: _Sink, workers):
    # every realization shares H0's pattern, so its band storage is the
    # oracle's: refuse it before the first draw
    oracle_bandwidths(cfg.model.h0().entries)
    X, Y = crit.moment_sets(cfg.grid, cfg.x0, cfg.y0, cfg.radius)
    failures = 0
    for i in range(cfg.n_configs):
        seed = moments.sample_seed(cfg.master_seed, i)
        E = cfg.E_values[i % len(cfg.E_values)]
        eps = cfg.eps_schedule[i % len(cfg.eps_schedule)]
        rep = oracle_compare(cfg.model, SpectralShift(E=E, eps=eps), X, Y,
                             seed=seed)
        failures += 0 if rep.passed else 1
        sink.add("validation", {"name": f"oracle-{i}", "value": rep.rel_diff,
                                "passed": rep.passed, "seed": seed,
                                "E": E, "eps": eps})
    rng = np.random.default_rng(cfg.master_seed)
    for i in range(20):
        B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        A = DissipativeOperator(X=(B + B.conj().T) / 2.0, Y=np.zeros((5, 5)))
        T = HSOperator(T=rng.standard_normal((5, 5)))
        rep = weak_l1_levelset_measure(A, T,
                                       t_grid=np.geomspace(1.0, 1e3, 40))
        failures += 0 if rep.passed else 1
        sink.add("validation", {"name": f"weak-l1-{i}", "value": rep.slope,
                                "passed": rep.passed})
    sink.emit_csv("validation")
    print(f"validate: {len(sink.records)} checks, {failures} failures")
    if failures:
        raise NumericalError(f"validation suite recorded {failures} failures")


RUNNERS = {
    "moment": run_moment,
    "epsilon-scan": run_epsilon_scan,
    "criterion": run_criterion,
    "decay": run_decay,
    "correlator": run_correlator,
    "ids": run_ids,
    "validate": run_validate,
}


def run_preset(name, out_dir, workers):
    from .presets import get_preset
    data, pipeline = get_preset(name)
    cfg = parse_config(data)
    sink = _Sink(cfg, out_dir)
    sink.dir.mkdir(parents=True, exist_ok=True)
    with open(sink.dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for step in pipeline:
        print(f"preset {name}: running {step}")
        RUNNERS[step](cfg, sink, workers)
    return sink


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process and never modified."""
    parser = argparse.ArgumentParser(
        prog="fracmom",
        description="fractional-moment experiments on discretized random "
                    "Schrodinger operators")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", default=None)
    p = sub.add_parser("preset")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.WARNING)
    args = build_parser().parse_args(argv)
    try:
        if args.workers is not None and args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        if args.subcommand == "preset":
            if args.name is None:
                from .presets import PRESETS, preset_names
                for name in preset_names():
                    print(f"{name}: {PRESETS[name]['description']}")
                print("note: the multiscale bootstrap from a triggered "
                      "criterion to larger scales is out of scope")
                return 0
            run_preset(args.name, args.out, args.workers)
            return 0
        cfg = load_config(args.config)
        sink = _Sink(cfg, args.out)
        RUNNERS[args.subcommand](cfg, sink, args.workers)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FracmomError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
