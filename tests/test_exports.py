"""The package's export lists name only what exists."""

import importlib
import pkgutil

import pytest

import netrecon

MODULES = ["netrecon"] + sorted(
    f"netrecon.{m.name}" for m in pkgutil.iter_modules(netrecon.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_export_list_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
