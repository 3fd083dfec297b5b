"""Named experiment presets for the standard regimes.

Each preset is a complete configuration document plus the pipeline of
subcommands it is meant to drive.  Two regimes are covered: energies
near the bottom of the spectrum where the density of states is small
(band-edge), and strong coupling where localization holds throughout
(large-disorder).  The multiscale bootstrap that would iterate a
triggered criterion up to larger and larger scales is deliberately out
of scope for this laboratory; the presets stop at the single-scale
verdict.
"""

import copy

from .errors import ConfigError

PRESETS = {
    "band-edge": {
        "description": (
            "moderate disorder, energy near the spectral bottom; checks the "
            "density of states is small there, then runs the criterion"),
        "pipeline": ("ids", "criterion"),
        "config": {
            "experiment": "band-edge",
            "model": {
                "grid": {"d": 1, "box": [56.0], "h": 0.5},
                "profile": {"r": 1.0, "shape": "indicator", "u0": 1.0},
                "law": {"lam": 4.0},
            },
            "run": {
                "s": [0.3],
                "E": [0.5],
                "eps": [0.1, 0.01, 0.001],
                "N": 50,
                "master_seed": 7,
                "L": 26.0,
                "alphas": [[28.0]],
            },
            "constants": {"M_const": 1.0},
            "output": {"dir": "results/band-edge"},
        },
    },
    "large-disorder-1d": {
        "description": (
            "strong coupling on a chain; measures the exponential decay of "
            "the fractional moment along a distance ladder"),
        "pipeline": ("decay",),
        "config": {
            "experiment": "large-disorder-1d",
            "model": {
                "grid": {"d": 1, "box": [64.0], "h": 0.25},
                "profile": {"r": 1.0, "shape": "indicator", "u0": 8.0},
                "law": {"lam": 50.0},
            },
            "run": {
                "s": [0.3],
                "E": [8.0],
                "eps": [0.01, 0.001],
                "N": 200,
                "master_seed": 11,
                "ladder": [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0],
                "x0": [16.0],
                "radius": 1.0,
            },
            "constants": {"M_const": 1.0},
            "output": {"dir": "results/large-disorder-1d"},
        },
    },
    "large-disorder-2d": {
        "description": (
            "strong coupling in two dimensions on a small box; the boundary "
            "layer depth is reduced so the criterion ball stays affordable"),
        "pipeline": ("criterion",),
        "config": {
            "experiment": "large-disorder-2d",
            "model": {
                "grid": {"d": 2, "box": [16.0, 16.0], "h": 1.0},
                "profile": {"r": 1.0, "shape": "indicator", "u0": 8.0},
                "law": {"lam": 50.0},
            },
            "run": {
                "s": [0.3],
                "E": [8.0],
                "eps": [0.1, 0.01],
                "N": 20,
                "master_seed": 13,
                "L": 8.0,
                "alphas": [[8.0, 8.0]],
            },
            "constants": {"M_const": 1.0, "depth": 3.0},
            "output": {"dir": "results/large-disorder-2d"},
        },
    },
}


def preset_names():
    return tuple(sorted(PRESETS))


def get_preset(name):
    """Fresh copies of the config document and its pipeline."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    entry = PRESETS[name]
    return copy.deepcopy(entry["config"]), tuple(entry["pipeline"])
