"""The benchmark's probes must find every fracmom name they patch.

`bench/probes.py` replaces fracmom functions, methods and the process
pool class by name.  A refactor that renames or drops one of them only
shows up as an AttributeError in a traced benchmark run, which no test
of fracmom itself would catch; installing the probes here does.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import probes  # noqa: E402

import fracmom.cli  # noqa: E402,F401  (loads every module the probes patch)
from fracmom import model, resolvent  # noqa: E402


def _bindings():
    """Identity of every name bound in a fracmom module or patched class."""
    out = {}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("fracmom"):
            for attr, value in vars(mod).items():
                out[(mod.__name__, attr)] = id(value)
    for cls in (model.ModelConfig, resolvent.ShiftedSolver):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = id(value)
    return out


@pytest.mark.parametrize("probe", [probes.SetupProbe, probes.Tracer])
def test_probe_installs_and_restores(probe):
    before = _bindings()
    patches = probes.Patches()
    try:
        probe().install(patches)
        assert _bindings() != before
    finally:
        patches.restore()
    assert _bindings() == before
