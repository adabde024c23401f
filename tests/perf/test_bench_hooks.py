"""The end-to-end benchmark's layer hooks still name real entry points.

``bench/layers.py`` wraps repro functions and methods by dotted name.
A target that no longer resolves is not an error there: its layer just
moves into ``trace.unmeasured``.  This test catches such a rename in
tier-1.  It loads the hook table by path and never modifies ``bench/``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[2] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    name = "bench_layers_under_test"
    spec = importlib.util.spec_from_file_location(name, LAYERS)
    module = importlib.util.module_from_spec(spec)
    # Registered while loaded: ``@dataclass`` looks its module up.
    sys.modules[name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    yield module
    sys.modules.pop(name, None)


def test_every_hook_target_resolves(layers):
    assert layers.HOOKS
    unresolved = [hook.target for hook in layers.HOOKS if not layers._resolve(hook.target)]
    assert unresolved == []
