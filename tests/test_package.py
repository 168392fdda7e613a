"""The package's public names: a deletion must not leave an export behind."""

import wsnsec


def test_every_export_resolves():
    assert len(wsnsec.__all__) == len(set(wsnsec.__all__))
    missing = [name for name in wsnsec.__all__ if not hasattr(wsnsec, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from wsnsec import *", namespace)
    assert set(wsnsec.__all__) <= set(namespace)
