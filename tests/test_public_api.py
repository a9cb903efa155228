"""Every name a package exports resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["qnetsim", "qnetsim.services"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)
