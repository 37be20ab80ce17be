"""Package surface: every exported name resolves."""

import sinewall


def test_every_export_imports():
    assert len(set(sinewall.__all__)) == len(sinewall.__all__)
    namespace = {}
    exec("from sinewall import *", namespace)  # AttributeError on a stale name
    assert set(sinewall.__all__) <= set(namespace)
