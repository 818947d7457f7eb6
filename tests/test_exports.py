"""Every exported name resolves, so a deleted function cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import blockprod

MODULES = ["blockprod", *sorted(m.name for m in pkgutil.iter_modules(blockprod.__path__, "blockprod."))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_are_listed():
    assert len(blockprod.__all__) > 0
    assert "blockprod.identities" in MODULES and "blockprod.products" in MODULES
