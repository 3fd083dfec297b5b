"""Probes the benchmark installs around fracmom's public functions.

fracmom modules call each other through names they import
(`from .moments import scan_norms`), so a wrapper replaces the original
object under every name any fracmom module binds it to, and methods are
replaced on their class.  `Patches.restore` puts every original back.

`SetupProbe` is the only probe of an untraced run: it marks the
first disorder realization of each subcommand, so set-up time can be
told apart from sampling.  `Tracer` wraps one span around each call into
a module's public function and keeps, per span name, total time, self
time (total minus child spans) and call counts, plus the counts the
per-layer metrics need.  Spans in pool workers are not gathered: a
pooled run's spans cover the parent process.
"""

import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Patches:
    """Reversible replacement of functions and methods."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make):
        orig = getattr(module, name)
        new = make(orig)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("fracmom"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def method(self, cls, name, make):
        orig = cls.__dict__[name]
        self._undo.append((cls, name, orig))
        setattr(cls, name, make(orig))

    def restore(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)


class SetupProbe:
    """Set-up time of one subcommand: everything before its first realization.

    The boundary is the first `ModelConfig.sample` call in this process,
    or the start of a process pool when workers do the sampling.  The
    operator H0 is built lazily on the first realization, so its assembly
    time after the boundary counts as set-up as well.
    """

    def __init__(self):
        self.boundary = None
        self.late_h0 = 0.0

    def start(self):
        self.boundary = None
        self.late_h0 = 0.0

    def setup_time(self, t0, t1):
        end = self.boundary if self.boundary is not None else t1
        return end - t0 + self.late_h0

    def _mark(self):
        if self.boundary is None:
            self.boundary = time.perf_counter()

    def install(self, patches):
        from fracmom import model, moments

        def sample(orig):
            def wrapper(*args, **kwargs):
                self._mark()
                return orig(*args, **kwargs)
            return wrapper

        def h0(orig):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                out = orig(*args, **kwargs)
                if self.boundary is not None:
                    self.late_h0 += time.perf_counter() - t0
                return out
            return wrapper

        def pool(orig):
            probe = self

            class MarkedPool(orig):
                def __init__(self, *args, **kwargs):
                    probe._mark()
                    super().__init__(*args, **kwargs)
            return MarkedPool

        patches.method(model.ModelConfig, "sample", sample)
        patches.function(model, "assemble_h0", h0)
        patches.function(moments, "ProcessPoolExecutor", pool)


def _size(sel):
    return int(np.asarray(getattr(sel, "indices", sel)).size)


class Tracer:
    """Spans around fracmom's public functions, summed per span name."""

    def __init__(self):
        self.reset()

    def reset(self):
        self._stack = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.seeds = set()
        self.pools = 0
        self.rhs_columns = 0
        self.written = 0
        self._rhs_sets = {}
        self._rhs_distinct = 0

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        t0 = time.perf_counter()
        self._stack.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
            self.total[name] += dur
            self.self_time[name] += dur - child
            self.calls[name] += 1

    def _span(self, name, after=None):
        def make(orig):
            sig = inspect.signature(orig)

            def wrapper(*args, **kwargs):
                out = self.call(name, orig, *args, **kwargs)
                if after is not None:
                    after(sig.bind(*args, **kwargs).arguments)
                return out
            return wrapper
        return make

    def install(self, patches):
        from fracmom import (
            config, criterion, localization, model, moments, records,
            resolvent, validation,
        )

        def seeds(a):
            self.seeds.add(int(a["seed"]))

        def factored(a):
            solver = id(a["self"])
            self._rhs_distinct += len(self._rhs_sets.pop(solver, ()))
            self._rhs_sets[solver] = set()

        def block_norm(a):
            X, Y = a["X"], a["Y"]
            solved = Y if _size(Y) <= _size(X) else X
            self.rhs_columns += _size(solved)
            key = np.asarray(getattr(solved, "indices", solved)).tobytes()
            self._rhs_sets.setdefault(id(a["self"]), set()).add(key)

        def scan(a):
            if a.get("workers") is not None and a["workers"] > 1:
                self.pools += 1

        def written(a):
            self.written += len(a["records"])

        span = self._span
        patches.function(config, "load_config", span("config.load"))
        patches.function(model, "assemble_h0", span("model.h0"))
        patches.function(model, "ground_energy", span("model.ground_energy"))
        patches.function(model, "sample_couplings",
                         span("model.couplings", seeds))
        patches.function(model, "realize_potential", span("model.potential"))
        patches.function(model, "assemble_hamiltonian",
                         span("model.assemble"))
        patches.function(model, "restrict_dirichlet", span("model.restrict"))
        patches.method(resolvent.ShiftedSolver, "__init__",
                       span("resolvent.factor", factored))
        patches.method(resolvent.ShiftedSolver, "block_norm",
                       span("resolvent.block_norm", block_norm))
        patches.function(moments, "scan_norms", span("moments.scan", scan))
        patches.function(moments, "scan_pair_norms",
                         span("moments.scan", scan))
        patches.function(moments, "estimates_from_norms",
                         span("moments.fold"))
        patches.function(criterion, "estimate_raw_boundary_moment",
                         span("criterion.raw_moment"))
        patches.function(criterion, "fit_exponential_decay",
                         span("criterion.fit"))
        patches.function(localization, "eigensolve_window",
                         span("localization.eigensolve"))
        patches.function(localization, "spectrum_count_below",
                         span("localization.count"))
        patches.function(localization, "ids_counts", span("localization.ids"))
        patches.function(validation, "oracle_compare",
                         span("validation.oracle"))
        patches.function(validation, "weak_l1_levelset_measure",
                         span("validation.weak_l1"))
        patches.function(records, "append_records",
                         span("records.write", written))
        patches.function(records, "emit_plot_data", span("records.write"))

    def metrics(self):
        """Per-layer metrics of everything traced since the last reset."""
        t, n = self.total, self.calls
        realizations = n["model.couplings"]
        block_norms = n["resolvent.block_norm"]
        distinct = self._rhs_distinct + sum(
            len(s) for s in self._rhs_sets.values())
        return {
            "config.load_s": (t["config.load"], "s"),
            "model.h0_s": (t["model.h0"], "s"),
            "model.ground_energy_s": (t["model.ground_energy"], "s"),
            "model.couplings_s": (t["model.couplings"], "s"),
            "model.potential_s": (t["model.potential"], "s"),
            "model.assemble_s": (t["model.assemble"], "s"),
            "model.restrict_s": (t["model.restrict"], "s"),
            "model.realizations": (realizations, "count"),
            "model.seed_reuse": (
                len(self.seeds) / realizations if realizations else 0.0,
                "ratio"),
            "resolvent.factor_s": (t["resolvent.factor"], "s"),
            "resolvent.factorizations": (n["resolvent.factor"], "count"),
            "resolvent.block_norm_s": (t["resolvent.block_norm"], "s"),
            "resolvent.block_norms": (block_norms, "count"),
            "resolvent.rhs_columns": (self.rhs_columns, "count"),
            "resolvent.rhs_reuse": (
                distinct / block_norms if block_norms else 0.0, "ratio"),
            "moments.scan_s": (t["moments.scan"], "s"),
            "moments.self_s": (self.self_time["moments.scan"], "s"),
            "moments.pools": (self.pools, "count"),
            "moments.fold_s": (t["moments.fold"], "s"),
            "criterion.raw_moment_s": (t["criterion.raw_moment"], "s"),
            "criterion.fit_s": (t["criterion.fit"], "s"),
            "localization.eigensolve_s": (t["localization.eigensolve"], "s"),
            "localization.eigensolves": (n["localization.eigensolve"],
                                         "count"),
            "localization.count_s": (t["localization.count"], "s"),
            "localization.counts": (n["localization.count"], "count"),
            "localization.ids_s": (t["localization.ids"], "s"),
            "validation.oracle_s": (t["validation.oracle"], "s"),
            "validation.weak_l1_s": (t["validation.weak_l1"], "s"),
            "records.write_s": (t["records.write"], "s"),
            "records.written": (self.written, "count"),
            "cli.self_s": (self.self_time["cli"], "s"),
        }
