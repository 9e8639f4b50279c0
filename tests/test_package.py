"""The package surface: every name in ``asyncsag.__all__`` exists."""

from __future__ import annotations

import asyncsag


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from asyncsag import *", namespace)
    assert len(set(asyncsag.__all__)) == len(asyncsag.__all__)
    missing = [name for name in asyncsag.__all__ if name not in namespace]
    assert missing == []
