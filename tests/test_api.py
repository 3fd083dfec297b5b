"""The package's public names: `fracmom.__all__`."""

import fracmom


def test_all_is_sorted_unique_and_resolves():
    names = fracmom.__all__
    assert names == sorted(set(names))
    # a name deleted from its module must leave __all__ as well
    assert [n for n in names if not hasattr(fracmom, n)] == []
    namespace = {}
    exec("from fracmom import *", namespace)
    assert set(names) <= set(namespace)
