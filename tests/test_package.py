"""The package's public namespace."""

from __future__ import annotations

import pkgutil

import ggprivacy


def test_all_lists_resolvable_public_api_only():
    submodules = {m.name for m in pkgutil.iter_modules(ggprivacy.__path__)}
    assert len(ggprivacy.__all__) == len(set(ggprivacy.__all__))
    for name in ggprivacy.__all__:
        assert getattr(ggprivacy, name) is not None
    assert "annotations" not in ggprivacy.__all__
    assert not submodules & set(ggprivacy.__all__)
