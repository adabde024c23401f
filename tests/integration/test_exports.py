"""Every exported name resolves: an ``__all__`` lists only what exists."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["repro", "repro.mpi", "repro.mpi.datatypes"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)  # a dangling name raises here
    assert set(module.__all__) <= namespace.keys()
