"""The package's public surface: what ``from annodiff import *`` yields."""

import annodiff


def test_every_export_resolves_once():
    # a stale name in __all__ makes ``from annodiff import *`` raise
    missing = [name for name in annodiff.__all__ if not hasattr(annodiff, name)]
    assert missing == []
    assert len(set(annodiff.__all__)) == len(annodiff.__all__)
