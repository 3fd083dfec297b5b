"""Negative controls for the benchmark's output checks.

Each check must pass on records that fracmom writes for a small version
of its workload, and must fail once one record is perturbed.
"""

import contextlib
import copy
import io
import json

import pytest

from fracmom import cli

import checks
from run import payload_digest, read_records


def _run(tmp_path, doc, steps):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = {}
    for step in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([step, "--config", str(path),
                             "--out", str(tmp_path / step)])
        assert code == 0
        out[step] = read_records(tmp_path / step)
    return out


def _payloads(steps, step, kind):
    return [r["payload"] for r in steps[step] if r["kind"] == kind]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    doc = {
        "experiment": "chain",
        "model": {"grid": {"d": 1, "box": [16.0], "h": 0.25},
                  "profile": {"r": 1.0, "shape": "indicator", "u0": 8.0},
                  "law": {"lam": 50.0}},
        "run": {"s": [0.2, 0.3], "E": [6.0, 8.0], "eps": [1e-2, 1e-3],
                "N": 3, "master_seed": 5, "x0": [4.0], "y0": [8.0],
                "radius": 1.0, "ladder": [1.0, 2.0, 3.0]},
    }
    steps = _run(tmp_path_factory.mktemp("chain"), doc,
                 ("moment", "epsilon-scan", "decay"))
    return doc, steps, checks.chain_oracle(doc)


@pytest.fixture(scope="module")
def plane(tmp_path_factory):
    doc = {
        "experiment": "plane",
        "model": {"grid": {"d": 2, "box": [8.0, 8.0], "h": 0.5},
                  "profile": {"r": 1.0, "shape": "cosine-bump", "u0": 8.0},
                  "law": {"lam": 50.0},
                  "background": {"gauge": {"kind": "landau", "b": 0.2}}},
        "run": {"s": [0.3], "E": [8.0], "eps": [0.1, 0.03, 0.01], "N": 2,
                "master_seed": 5, "L": 3.5, "alphas": [[4.0, 4.0]],
                "x0": [2.0, 4.0], "radius": 1.0, "ladder": [1.0, 2.0, 3.0]},
        "constants": {"depth": 2.0},
    }
    steps = _run(tmp_path_factory.mktemp("plane"), doc, ("criterion", "decay"))
    bounds = (checks.gauge_free_e0(doc), checks.rayleigh_e0(doc))
    return doc, steps, checks.plane_oracle(doc), bounds


@pytest.fixture(scope="module")
def spectra(tmp_path_factory):
    doc = {
        "experiment": "spectra",
        "model": {"grid": {"d": 1, "box": [20.0], "h": 0.25},
                  "profile": {"r": 1.0, "shape": "indicator", "u0": 1.0},
                  "law": {"lam": 4.0}},
        "run": {"s": [0.3], "E": [1.0, 2.0, 4.0, 8.0, 16.0], "eps": [0.1],
                "N": 3, "master_seed": 5, "x0": [5.0], "radius": 1.0,
                "window": [2.0, 4.0], "ladder": [1.0, 2.0, 3.0],
                "n_configs": 2},
    }
    steps = _run(tmp_path_factory.mktemp("spectra"), doc,
                 ("correlator", "ids"))
    # validate's 20 weak-L1 benches are slow; its check reads only the
    # record count and the verdicts, so stand-in records serve
    steps["validate"] = [
        {"kind": "validation", "payload": {"name": f"check-{i}",
                                           "passed": True}}
        for i in range(doc["run"]["n_configs"] + 20)]
    return doc, steps, checks.spectra_oracle(doc)


def test_chain_records_pass(chain):
    doc, steps, oracle = chain
    assert checks.check_chain(doc, [steps, steps], oracle) == []


@pytest.mark.parametrize("step", ["moment", "epsilon-scan"])
def test_chain_perturbed_mean_fails(chain, step):
    doc, steps, oracle = chain
    bad = copy.deepcopy(steps)
    _payloads(bad, step, "moment")[3]["mean"] *= 1 + 1e-6
    assert checks.check_chain(doc, [bad], oracle)


def test_chain_perturbed_rung_fails(chain):
    doc, steps, oracle = chain
    bad = copy.deepcopy(steps)
    _payloads(bad, "decay", "fit")[1]["points"][2]["mean"] *= 1 - 1e-6
    assert checks.check_chain(doc, [steps, bad], oracle)


def test_chain_stderr_above_mean_fails(chain):
    doc, steps, oracle = chain
    bad = copy.deepcopy(steps)
    p = _payloads(bad, "moment", "moment")[0]
    p["stderr"] = p["mean"] * 1.01
    assert any("stderr > mean" in f
               for f in checks.check_chain(doc, [bad], oracle))


def test_chain_power_mean_violation_fails(chain):
    doc, steps, oracle = chain
    bad = copy.deepcopy(steps)
    recs = _payloads(bad, "epsilon-scan", "moment")
    low = next(p for p in recs if p["s"] == 0.2)
    high = next(p for p in recs if p["s"] == 0.3 and p["E"] == low["E"]
                and p["eps"] == low["eps"])
    low["mean"] = high["mean"] ** (0.2 / 0.3) * 1.01
    assert any("power means" in f
               for f in checks.check_chain(doc, [bad], oracle))


def test_payload_digest_sees_one_changed_value(chain):
    _, steps, _ = chain
    bad = copy.deepcopy(steps)
    assert payload_digest(bad) == payload_digest(steps)
    _payloads(bad, "moment", "moment")[0]["stderr"] *= 1 + 1e-15
    assert payload_digest(bad) != payload_digest(steps)


def test_plane_records_pass(plane):
    doc, steps, oracle, bounds = plane
    assert checks.check_plane(doc, [steps], oracle, bounds) == []


@pytest.mark.parametrize("field,factor,needle", [
    ("raw_moment", 1 + 1e-6, "raw_moment"),
    ("factor", 1 + 1e-9, "prefactor"),
    ("E0", 0.0, "E0"),
    ("E0", 10.0, "E0"),
])
def test_plane_perturbed_criterion_fails(plane, field, factor, needle):
    doc, steps, oracle, bounds = plane
    bad = copy.deepcopy(steps)
    _payloads(bad, "criterion", "criterion")[0][field] *= factor
    assert any(needle in f
               for f in checks.check_plane(doc, [bad], oracle, bounds))


def test_plane_e0_between_bounds(plane):
    doc, steps, _, (lo, hi) = plane
    e0 = _payloads(steps, "criterion", "criterion")[0]["E0"]
    assert lo < e0 < hi


def test_plane_perturbed_rung_fails(plane):
    doc, steps, oracle, bounds = plane
    bad = copy.deepcopy(steps)
    _payloads(bad, "decay", "fit")[0]["points"][-1]["mean"] *= 1 + 1e-6
    assert checks.check_plane(doc, [bad], oracle, bounds)


def test_plane_nonpositive_rate_fails(plane):
    doc, steps, oracle, bounds = plane
    bad = copy.deepcopy(steps)
    _payloads(bad, "decay", "fit")[0]["mu"] = -0.1
    assert any("mu" in f
               for f in checks.check_plane(doc, [bad], oracle, bounds))


def test_spectra_records_pass(spectra):
    doc, steps, oracle = spectra
    assert checks.check_spectra(doc, [steps], oracle) == []


def test_spectra_perturbed_correlator_fails(spectra):
    doc, steps, oracle = spectra
    bad = copy.deepcopy(steps)
    _payloads(bad, "correlator", "correlator")[1]["value"] *= 1 + 1e-6
    assert checks.check_spectra(doc, [bad], oracle)


def test_spectra_ids_off_by_one_count_fails(spectra):
    doc, steps, oracle = spectra
    bad = copy.deepcopy(steps)
    run = doc["run"]
    _payloads(bad, "ids", "ids")[2]["ids"] += 1.0 / (run["N"] * 20.0)
    assert any("dense count" in f
               for f in checks.check_spectra(doc, [bad], oracle))


def test_spectra_decreasing_ids_fails(spectra):
    doc, steps, oracle = spectra
    bad = copy.deepcopy(steps)
    recs = _payloads(bad, "ids", "ids")
    recs[0]["ids"], recs[-1]["ids"] = recs[-1]["ids"], recs[0]["ids"]
    assert any("decreases" in f
               for f in checks.check_spectra(doc, [bad], oracle))


@pytest.mark.parametrize("change", ["verdict", "missing"])
def test_spectra_validate_verdicts(spectra, change):
    doc, steps, oracle = spectra
    bad = copy.deepcopy(steps)
    if change == "verdict":
        bad["validate"][7]["payload"]["passed"] = False
    else:
        bad["validate"].pop()
    assert any("validate" in f
               for f in checks.check_spectra(doc, [bad], oracle))
