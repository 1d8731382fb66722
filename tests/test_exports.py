"""Every exported name resolves, so no ``__all__`` outlives what it lists."""
import importlib
import pkgutil

import pytest

import resplit

MODULES = sorted(f"resplit.{m.name}" for m in pkgutil.iter_modules(resplit.__path__))


@pytest.mark.parametrize("name", ["resplit", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
