"""Every name a restage module lists in ``__all__`` is an attribute of it, so a
move or a deletion cannot leave a stale export behind."""

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
