"""The public namespace of the package."""

import polarlock


def test_public_names_resolve_once():
    names = polarlock.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(polarlock, n)] == []
    namespace = {}
    exec("from polarlock import *", namespace)
    assert set(names) <= set(namespace)
