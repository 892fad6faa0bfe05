"""The package's public names."""

import pebblekit


def test_public_names_resolve_once():
    names = pebblekit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(pebblekit, name), name
