"""Every name a restage module lists in ``__all__`` is an attribute of it, and
every module has a line in the package docstring's "Layout" map, so a move or
a deletion cannot leave a stale export or map behind."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import restage

MODULES = sorted(m.name for m in pkgutil.iter_modules(restage.__path__, "restage."))


def test_the_package_modules_are_found():
    assert "restage.analysis" in MODULES and "restage.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_the_layout_map_lists_every_module():
    layout = restage.__doc__.split("Layout:\n")[1].split("\n\n")[0]
    listed = {line.split()[0] for line in layout.splitlines()}
    assert {m.name for m in pkgutil.iter_modules(restage.__path__)} <= listed
