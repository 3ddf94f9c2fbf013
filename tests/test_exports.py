import importlib
import pkgutil

import pytest

import stirlingb

MODULES = ["stirlingb"] + [
    "stirlingb." + info.name for info in pkgutil.iter_modules(stirlingb.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
