"""
The configured-experiment workflow
==================================

Everything the library does is also reachable through the `fracmom`
command line: one JSON document describes the model, the run and the
output, and each subcommand appends JSON-lines records plus tidy CSVs.
Records carry a sha256 hash of the producing configuration (the output
block excluded), so a results file can always be traced back.

This script writes a config, drives two subcommands in-process, reruns
one of them from a copy of the document with another master seed, and
shows the record plumbing.  The same flow from a shell:

    fracmom moment --config exp.json --out results/
    fracmom decay  --config exp.json --out results/ --workers 4
    fracmom preset                      # list the bundled presets
    fracmom preset large-disorder-1d    # run one

Exit codes: 0 on success, 2 for configuration problems, 3 for numerical
failures.
"""

import json
import tempfile
from pathlib import Path

from fracmom import cli
from fracmom.records import read_records

# the work directory and everything written into it go away at the end
with tempfile.TemporaryDirectory(prefix="fracmom-demo-") as tmp:
    workdir = Path(tmp)
    out = workdir / "results"

    config = {
        "experiment": "cli-walkthrough",
        "model": {
            "grid": {"d": 1, "box": [24.0], "h": 1.0},
            "profile": {"r": 1.0, "shape": "indicator", "u0": 4.0},
            "law": {"lam": 8.0},
        },
        "run": {
            "s": [0.5],
            "E": [1.0],
            "eps": [0.1, 0.01],
            "N": 8,
            "master_seed": 3,
            "ladder": [2.0, 4.0, 6.0, 8.0],
            "x0": [6.0],
        },
        "output": {"dir": str(out)},
    }
    config_path = workdir / "exp.json"
    config_path.write_text(json.dumps(config, indent=2))
    print(f"config written to {config_path}")

    # -----------------------------------------------------------------------
    # two subcommands, one records file
    # -----------------------------------------------------------------------

    for argv in (["moment", "--config", str(config_path)],
                 ["decay", "--config", str(config_path)]):
        print(f"\n$ fracmom {' '.join(argv)}")
        code = cli.main(argv)
        print(f"exit code {code}")

    records = read_records(out / "records.jsonl")
    print(f"\n{len(records)} records in {out / 'records.jsonl'}:")
    for rec in records:
        print(f"  kind={rec.kind:8s} hash={rec.config_hash[:12]}... "
              f"payload keys {sorted(rec.payload)[:4]}...")
    print("CSV projections:", sorted(p.name for p in out.glob("*.csv")))

    # -----------------------------------------------------------------------
    # another master seed
    # -----------------------------------------------------------------------

    # the seed lives in the document only, so a rerun with another seed is
    # another document: the sampled numbers and the config hash both change
    reseeded = dict(config, run={**config["run"], "master_seed": 77})
    reseeded_path = workdir / "reseeded.json"
    reseeded_path.write_text(json.dumps(reseeded))
    print("\n$ fracmom moment --config reseeded.json   (master_seed 77)")
    cli.main(["moment", "--config", str(reseeded_path),
              "--out", str(workdir / "reseeded")])

    a = read_records(out / "records.jsonl")[0]
    b = read_records(workdir / "reseeded" / "records.jsonl")[0]
    print(f"first run:    seed {a.payload['seed']}, mean {a.payload['mean']:.6g}")
    print(f"reseeded run: seed {b.payload['seed']}, mean {b.payload['mean']:.6g}")
    print(f"same config hash: {a.config_hash == b.config_hash}")

    # a bad document maps to exit code 2 with the offending field named
    broken = dict(config, run={**config["run"], "eps": [0.01, 0.1]})
    broken_path = workdir / "broken.json"
    broken_path.write_text(json.dumps(broken))
    print("\n$ fracmom moment --config broken.json   (eps increasing)")
    code = cli.main(["moment", "--config", str(broken_path)])
    print(f"exit code {code}")
