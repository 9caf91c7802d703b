"""Marks shared by the test modules."""

import pytest


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(items):
    # every golden pins output bytes, so the whole module belongs to the
    # kernel-variant set that CI reruns under other numpy and BLAS kernels
    for item in items:
        if item.path.name == "test_golden.py":
            item.add_marker(pytest.mark.kernel_variant)
