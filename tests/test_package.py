"""Package surface: every name a module lists as public resolves."""

import importlib
import pkgutil

import pytest

import squarequad

_MODULES = ["squarequad"] + sorted(
    f"squarequad.{info.name}" for info in pkgutil.iter_modules(squarequad.__path__)
)


@pytest.mark.parametrize("name", _MODULES)
def test_every_public_name_resolves(name):
    # `from squarequad.<module> import *` and perfbench's tracer read each
    # module's public names through getattr; a stale entry breaks both
    mod = importlib.import_module(name)
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []
