"""The benchmark's workloads: documents, subcommands and sample counts.

Each workload is one configuration document, made from the seed alone,
and the fracmom subcommands run on it in order.  One round runs every
subcommand once, each into its own fresh output directory.  Why each
workload was chosen is in README.md.
"""

import copy
from dataclasses import dataclass

# `validate` draws its 20 weak-L1 benches from the master seed, and a
# bench whose eigenvector path drifts falls back to 200,000 dense solves
# (about 1.8 s).  Seeds 1-10 draw 0 to 2 such benches, which would make
# the round time depend on the seed more than on the code.  validate
# therefore runs at one fixed seed, the first of 1-10 that draws a
# fallback, so that cost is in every run.
VALIDATE_SEED = 4


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple
    workers: int | None

    def document(self, seed):
        return DOCUMENTS[self.name](seed)

    def step_documents(self, seed):
        """The document each subcommand runs on."""
        doc = self.document(seed)
        fixed = copy.deepcopy(doc)
        fixed["run"]["master_seed"] = VALIDATE_SEED
        return {step: fixed if step == "validate" else doc
                for step in self.steps}

    def samples(self, doc):
        """Samples one round fixes: N per reported average, one per oracle."""
        run = doc["run"]
        N = run["N"]
        if self.name in ("chain-moments", "chain-pool"):
            # moment and epsilon-scan means per (s, E, eps), rungs per (s, E)
            grid = len(run["s"]) * len(run["E"])
            return N * grid * (2 * len(run["eps"]) + len(run["ladder"]))
        if self.name == "plane-gauge":
            return N * (len(run["eps"]) + len(run["ladder"]))
        if self.name == "chain-spectra":
            return N * (len(run["ladder"]) + len(run["E"])) + run["n_configs"]
        raise KeyError(self.name)


def _chain_moments(seed):
    return {
        "experiment": "bench-chain-moments",
        "model": {
            "grid": {"d": 1, "box": [64.0], "h": 0.25},
            "profile": {"r": 1.0, "shape": "indicator", "u0": 8.0},
            "law": {"lam": 50.0},
        },
        "run": {
            "s": [0.2, 0.3], "E": [6.0, 8.0], "eps": [1e-2, 1e-3],
            "N": 25, "master_seed": seed,
            "x0": [16.0], "y0": [26.0], "radius": 1.0,
            "ladder": [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0],
        },
    }


def _plane_gauge(seed):
    return {
        "experiment": "bench-plane-gauge",
        "model": {
            "grid": {"d": 2, "box": [24.0, 24.0], "h": 0.25},
            "profile": {"r": 1.0, "shape": "cosine-bump", "u0": 8.0},
            "law": {"lam": 50.0},
            "background": {"gauge": {"kind": "landau", "b": 0.2}},
        },
        "run": {
            "s": [0.3], "E": [8.0], "eps": [0.1, 0.03, 0.01],
            "N": 4, "master_seed": seed,
            "L": 10.0, "alphas": [[12.0, 12.0]],
            "x0": [6.0, 12.0], "radius": 1.0,
            "ladder": [2.0, 4.0, 6.0, 8.0, 10.0],
        },
        "constants": {"depth": 4.0},
    }


def _chain_spectra(seed):
    return {
        "experiment": "bench-chain-spectra",
        "model": {
            "grid": {"d": 1, "box": [120.0], "h": 0.25},
            "profile": {"r": 1.0, "shape": "indicator", "u0": 1.0},
            "law": {"lam": 4.0},
        },
        "run": {
            "s": [0.3], "E": [1.0, 2.0, 4.0, 8.0, 16.0], "eps": [0.1, 0.01],
            "N": 25, "master_seed": seed,
            "x0": [30.0], "radius": 1.0, "window": [2.0, 4.0],
            "ladder": [2.0, 4.0, 6.0, 8.0, 10.0, 12.0], "n_configs": 50,
        },
    }


DOCUMENTS = {
    "chain-moments": _chain_moments,
    "chain-pool": _chain_moments,
    "plane-gauge": _plane_gauge,
    "chain-spectra": _chain_spectra,
}

WORKLOADS = {
    w.name: w for w in (
        Workload("chain-moments", ("moment", "epsilon-scan", "decay"), None),
        Workload("plane-gauge", ("criterion", "decay"), None),
        Workload("chain-spectra", ("correlator", "ids", "validate"), None),
        Workload("chain-pool", ("moment", "epsilon-scan", "decay"), 2),
    )
}
