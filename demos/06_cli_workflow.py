"""
The configured-experiment workflow
==================================

Everything the library does is also reachable through the `fracmom`
command line: one JSON document describes the model, the run and the
output, and each subcommand appends JSON-lines records plus tidy CSVs.
Records carry a sha256 hash of the producing configuration (the output
block excluded), so a results file can always be traced back.

This script writes a config, drives two subcommands in-process, reruns
one of them with FRACMOM_SEED overriding the master seed, and shows the
record plumbing.  The same flow from a shell:

    fracmom moment --config exp.json --out results/
    fracmom decay  --config exp.json --out results/ --workers 4
    fracmom preset                      # list the bundled presets
    fracmom preset large-disorder-1d    # run one

Exit codes: 0 on success, 2 for configuration problems, 3 for numerical
failures.
"""

import json
import os
import tempfile
from pathlib import Path

from fracmom import cli
from fracmom.records import read_records

workdir = Path(tempfile.mkdtemp(prefix="fracmom-demo-"))
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

# ---------------------------------------------------------------------------
# two subcommands, one records file
# ---------------------------------------------------------------------------

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

# ---------------------------------------------------------------------------
# the seed override
# ---------------------------------------------------------------------------

# FRACMOM_SEED reruns the same document with a different master seed;
# the config hash does not change, the sampled numbers do
os.environ["FRACMOM_SEED"] = "77"
try:
    print("\n$ FRACMOM_SEED=77 fracmom moment ...")
    cli.main(["moment", "--config", str(config_path),
              "--out", str(workdir / "override")])
finally:
    del os.environ["FRACMOM_SEED"]

a = read_records(out / "records.jsonl")[0]
b = read_records(workdir / "override" / "records.jsonl")[0]
print(f"master run:   seed {a.payload['seed']}, mean {a.payload['mean']:.6g}")
print(f"override run: seed {b.payload['seed']}, mean {b.payload['mean']:.6g}")
print(f"same config hash: {a.config_hash == b.config_hash}")

# a bad document maps to exit code 2 with the offending field named
broken = dict(config, run={**config["run"], "eps": [0.01, 0.1]})
broken_path = workdir / "broken.json"
broken_path.write_text(json.dumps(broken))
print("\n$ fracmom moment --config broken.json   (eps increasing)")
code = cli.main(["moment", "--config", str(broken_path)])
print(f"exit code {code}")
