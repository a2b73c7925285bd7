import importlib

import pytest

MODULES = ["bath", "core", "memkernel", "multitime", "oracle", "positivity", "spectral", "tcl2"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(f"oqsolve.{name}")
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
