"""Fuzz of the command line: every document exits 0, 2 or 3.

Documents are small (d = 1 or 2, a few dozen grid points, N = 2 or 3)
so that each run takes milliseconds, but their values are not: optional
keys come and go, and lam, u0, V0, E and eps reach the ends of the float
range.  No example passes --workers.
"""

import json
import tempfile

from hypothesis import HealthCheck, example, given, settings, strategies as st

from fracmom import cli

SUBCOMMANDS = ["moment", "epsilon-scan", "criterion", "decay", "correlator",
               "ids", "validate"]
EXTREMES = [1e308, -1e308, 1e-320]


def _floats(*usual):
    # an extreme about one draw in five, so that documents also get past
    # the parser to the solves
    return st.sampled_from(4 * list(usual) + EXTREMES)


RUN = {"s": [0.3], "E": [1.0], "eps": [0.1, 0.01], "N": 2, "master_seed": 0}
# a 1d box of 64 at h = 1e-12 asks for 6.4e13 grid points
TINY_H = {
    "experiment": "fuzz",
    "model": {"grid": {"d": 1, "box": [64.0], "h": 1e-12},
              "profile": {"r": 1.0, "u0": 1.0}, "law": {"lam": 1.0}},
    "run": RUN,
}
# lam * u0 overflows the potential of a realization
HUGE_BUMPS = {
    "experiment": "fuzz",
    "model": {"grid": {"d": 2, "box": [4.0, 4.0], "h": 1.0},
              "profile": {"r": 1.0, "u0": 1e308}, "law": {"lam": 50.0}},
    "run": RUN,
}


@st.composite
def documents(draw):
    sub = draw(st.sampled_from(SUBCOMMANDS))
    d = draw(st.sampled_from([1, 2]))
    h = draw(st.sampled_from(3 * [1.0, 0.5] + [1e-12]))
    box = [draw(st.sampled_from([8.0, 12.0, 30.0] if d == 1 else
                                [4.0, 5.0, 6.0])) for _ in range(d)]
    if d == 2 and h != 1e-12:
        h = 1.0  # at most 25 points
    model = {
        "grid": {"d": d, "box": box, "h": h},
        "profile": {"r": draw(st.sampled_from([1.0, 2.0, 1.0, 0.5])),
                    "u0": draw(_floats(1.0, 8.0)),
                    "shape": draw(st.sampled_from(["indicator",
                                                   "cosine-bump"]))},
        "law": {"lam": draw(_floats(0.0, 2.0, 50.0))},
        "background": {"V0": draw(_floats(0.0, -3.0, 2.0))},
    }
    mid = [b / 2.0 for b in box]
    run = {
        "s": draw(st.sampled_from([[0.3], [0.1, 0.3], [0.2], [0.3, 1.0],
                                   [0.5]])),
        "E": [draw(_floats(1.0, 4.0)) for _ in range(draw(st.sampled_from(
            [1, 2])))],
        "eps": draw(st.sampled_from([[0.1, 0.01], [0.1, 0.01, 1e-3],
                                     [0.1, 0.01], [0.1], [1e308, 0.1],
                                     [0.1, 1e-320], [0.1, -1e308]])),
        "N": draw(st.sampled_from([2, 3])),
        "master_seed": draw(st.integers(0, 3)),
        "L": draw(st.sampled_from([2.0, 5.0, 13.0])),
        "ladder": [1.0, 2.0, 3.0],
        "x0": [b / 4.0 for b in box],
        "y0": [3.0 * b / 4.0 for b in box],
        "radius": draw(st.sampled_from([0.5, 1.0])),
        "window": sorted([draw(_floats(0.0, 1.0)), draw(_floats(4.0, 8.0))]),
        "n_configs": 2,
        "alphas": [mid],
    }
    doc = {"experiment": "fuzz", "model": model, "run": run,
           "constants": {"depth": draw(st.sampled_from([1.0, 3.0]))}}
    for block, key in [("model", "background"), ("constants", "depth"),
                       *(("run", k) for k in ("L", "ladder", "x0", "y0",
                                              "radius", "window", "n_configs",
                                              "alphas"))]:
        if draw(st.integers(0, 3)) == 0:
            del doc[block][key]
    return sub, doc


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(documents())
@example(("moment", TINY_H))
@example(("ids", HUGE_BUMPS))
def test_cli_exits_0_2_or_3_on_any_document(tmp_path, case):
    sub, doc = case
    with tempfile.TemporaryDirectory(dir=tmp_path) as out:
        path = f"{out}/exp.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert cli.main([sub, "--config", path, "--out", f"{out}/run"]) in (
            0, 2, 3)
