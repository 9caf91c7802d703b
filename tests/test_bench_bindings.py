"""The benchmark in ``bench/`` wraps public names of the package at fixed
attributes and times a table of leaf functions.  These tests fail when a
refactor removes or renames one of those names, before a benchmark run
does."""

import importlib.util
from pathlib import Path

import pytest

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
