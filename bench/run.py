"""fracmom benchmark: run one workload through the fracmom CLI and time it.

    python3 bench/run.py --workload chain-moments --seed 1 --seconds 30 \
        --trace 0
    python3 bench/run.py            # every workload, one process each

Run from the root of a source checkout: fracmom is imported from its
`src` directory, never from an installed copy.  The import happens
before timing starts.  A run repeats whole rounds (every subcommand of
the workload once, each into a fresh output directory) until --seconds
have passed, checks the records of every round against independent
oracles (see checks.py), and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  An operation is one CLI
subcommand call; it fails when it exits with a code other than 0.

--trace 0 reports the end-to-end metrics, medians over the rounds:
  wall_s         wall time of a round, first CLI call to last return
  setup_s        time the round's subcommands spend before their first
                 disorder realization (see probes.SetupProbe)
  samples_per_s  samples fixed by the inputs / (wall_s - setup_s)
  peak_rss_mib   peak resident memory of this process plus that of its
                 largest worker process
--trace 1 runs one untimed warm-up round, then alternates untraced and
traced rounds and reports per-layer metrics (medians over traced rounds)
and trace.overhead_s, the median traced round wall minus the median
untraced one.

No BLAS or OpenMP thread count is set; the run records what it found.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"


def _import_fracmom():
    if not (SRC / "fracmom" / "__init__.py").is_file():
        sys.exit(f"bench: no fracmom sources under {SRC}; run from the root "
                 "of a fracmom checkout")
    sys.path.insert(0, str(SRC))
    import fracmom
    if Path(fracmom.__file__).resolve().parent != SRC / "fracmom":
        sys.exit(f"bench: imported fracmom from {fracmom.__file__}, "
                 f"not from {SRC}")
    import fracmom.cli  # noqa: F401  (its imports load numpy and scipy)


def blas_info():
    """Loaded OpenBLAS builds and their thread counts."""
    found = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            prefix = "scipy_openblas_get_"
            get_threads = getattr(lib, f"{prefix}num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                found.append(f"{get_config().decode()} "
                             f"({get_threads()} threads)")
                break
    return "; ".join(found) or "no OpenBLAS loaded"


def payload_digest(steps):
    """sha256 over (kind, payload) of every record, in step order."""
    h = hashlib.sha256()
    for records in steps.values():
        for rec in records:
            pair = {"kind": rec["kind"], "payload": rec["payload"]}
            h.update(json.dumps(pair, sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


def read_records(out_dir):
    path = out_dir / "records.jsonl"
    if not path.is_file():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Runner:
    """Runs rounds of one workload in this process."""

    def __init__(self, workload, seed, run_dir, workers=None):
        from fracmom import cli
        self.cli = cli
        self.workload = workload
        self.workers = workers
        self.doc = workload.document(seed)
        self.dir = run_dir
        self.config = {}
        for step, doc in workload.step_documents(seed).items():
            self.config[step] = run_dir / f"{step}.json"
            with open(self.config[step], "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
        self.attempted = 0
        self.failed = 0

    def round(self, label, probe=None, tracer=None):
        """One round; returns (wall, setup, {step: records})."""
        wall = setup = 0.0
        steps = {}
        for step in self.workload.steps:
            out = self.dir / label / step
            argv = [step, "--config", str(self.config[step]),
                    "--out", str(out)]
            if self.workers:
                argv += ["--workers", str(self.workers)]
            if probe is not None:
                probe.start()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    if tracer is not None:
                        code = tracer.call("cli", self.cli.main, argv)
                    else:
                        code = self.cli.main(argv)
            except Exception:  # a crash is a failed operation, not a stop
                traceback.print_exc()
                code = 1
            t1 = time.perf_counter()
            wall += t1 - t0
            if probe is not None:
                setup += probe.setup_time(t0, t1)
            if code != 0:
                self.failed += 1
                print(f"bench: {step} exited with {code}", file=sys.stderr)
            steps[step] = read_records(out) if code == 0 else None
        return wall, setup, steps


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def run_workload(workload, seed, seconds, trace):
    from checks import CHECKS
    from probes import Patches, SetupProbe, Tracer

    RUNS.mkdir(exist_ok=True)
    run_dir = RUNS / (f"{workload.name}-seed{seed}-{os.getpid()}-"
                      f"{time.time_ns()}")
    run_dir.mkdir()
    runner = Runner(workload, seed, run_dir, workers=workload.workers)
    samples = workload.samples(runner.doc)
    probe, tracer = SetupProbe(), Tracer()
    untraced, traced, layers, rounds = [], [], [], []

    if trace:
        # the overhead is a difference of two medians over few rounds, so
        # one-time costs of a fresh process must not land on either side
        rounds.append(runner.round("warmup")[2])
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or (trace and not traced)):
        patches = Patches()
        use_tracer = trace and len(untraced) > len(traced)
        try:
            if use_tracer:
                tracer.reset()
                tracer.install(patches)
            else:
                probe.install(patches)
            wall, setup, steps = runner.round(
                f"round{len(rounds):03d}",
                probe=None if use_tracer else probe,
                tracer=tracer if use_tracer else None)
        finally:
            patches.restore()
        rounds.append(steps)
        if use_tracer:
            traced.append(wall)
            layers.append(tracer.metrics())
        else:
            untraced.append((wall, setup))
    rss = peak_rss_mib()

    complete = [r for r in rounds if all(v is not None for v in r.values())]
    failures = []
    digest = payload_digest(complete[0]) if complete else "none"
    if complete:
        oracle, check = CHECKS[workload.name]
        failures = check(runner.doc, complete, oracle(runner.doc))
        if workload.workers:
            # pooled payloads must equal the serial ones at the same seed
            _, _, steps = Runner(workload, seed, run_dir).round(
                "serial-reference")
            failures += [f"round {k}: payloads differ from the serial run"
                         for k, r in enumerate(complete)
                         if payload_digest(r) != payload_digest(steps)]
    for line in failures:
        print(f"bench: check failed: {line}", file=sys.stderr)
    if failures:
        print(f"bench: records kept in {run_dir}", file=sys.stderr)
    else:
        shutil.rmtree(run_dir)

    walls = [w for w, _ in untraced]
    if trace:
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in layers),
                   "unit": unit}
            for name, (_, unit) in layers[0].items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(walls),
            "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(s for _, s in untraced),
                        "unit": "s"},
            "samples_per_s": {
                "value": statistics.median(samples / (w - s)
                                           for w, s in untraced),
                "unit": "samples/s"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
        }
    print(f"workload {workload.name}: seed {seed}, {len(untraced)} untraced "
          f"and {len(traced)} traced rounds, {samples} samples per round")
    print("round walls: " + " ".join(f"{w:.3f}" for w in walls)
          + (" traced: " + " ".join(f"{w:.3f}" for w in traced)
             if traced else ""))
    print(f"blas: {blas_info()}")
    print(f"payload digest: {digest}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not failures, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def run_all(args):
    """Every workload, each in its own benchmark process."""
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_fracmom()
    sys.path.insert(0, str(HERE))
    os.environ.pop("FRACMOM_SEED", None)  # the seed comes from --seed only
    from workloads import WORKLOADS
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        result = run_workload(WORKLOADS[args.workload], args.seed,
                              args.seconds, args.trace)
    else:
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
