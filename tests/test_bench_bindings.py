"""The benchmark in ``bench/`` wraps public names of the package at fixed
attributes and times a table of leaf functions.  These tests fail when a
refactor removes or renames one of those names, or stops calling through
them, before a benchmark run does."""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from polarlock import anneal, device, disturbance, jones

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


@pytest.mark.parametrize(
    "owner,attr",
    [(owner, attr) for owner, attr, _ in tracing.SPAN_TARGETS
     + tracing.COUNT_TARGETS],
    ids=[f"{getattr(o, '__name__', o)}.{a}"
         for o, a, _ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS])
def test_traced_binding_exists(owner, attr):
    assert callable(getattr(owner, attr, None))


def test_micro_table_runs():
    table = _load("micro").micro_table(0, tiny=True)
    assert table and all(v > 0.0 for v in table.values())


def test_traced_lookups_see_every_call(monkeypatch):
    # tracing.layer_metrics divides by these counts: an evaluation that
    # skipped the module-global lookup would leave them short, or at zero
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in ((anneal, "measure"), (disturbance, "measure"),
                        (disturbance, "rotate_sop")):
        monkeypatch.setattr(owner, attr, counted(
            f"{owner.__name__.split('.')[-1]}.{attr}", getattr(owner, attr)))
    cfg = anneal.AnnealConfig(m0=3, n0=7)
    n = cfg.total_iterations
    dev = device.DeviceParams()

    def lock(kind=None, **model):
        rng = np.random.default_rng(5)
        sop = jones.random_sop(rng)
        objective = (anneal.bind_objective(sop, dev, rng) if kind is None
                     else disturbance.DisturbedObjective(
                         sop, dev, disturbance.DisturbanceModel(kind, **model),
                         rng))
        calls.clear()
        anneal.run_lock(objective, cfg, dev.tps, rng)
        return dict(calls)

    assert lock() == {"anneal.measure": n + 1}
    assert lock("drift", drift_rate=0.01) == {
        "disturbance.measure": n + 1, "disturbance.rotate_sop": n}
    assert lock("jump", jump_at=4, jump_magnitude=1.0) == {
        "disturbance.measure": n + 1, "disturbance.rotate_sop": 1}
