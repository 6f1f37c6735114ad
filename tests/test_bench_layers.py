"""The traced benchmark wraps program functions by name; every name must exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import ghostcheck
import ghostcheck.cli  # noqa: F401  (the benchmark imports these before tracing)
import ghostcheck.factory  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = load_layers()
    assert layers
    for module_name, path, _ in layers:
        owner = getattr(ghostcheck, module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
            assert owner is not None, f"bench/tracing.py names missing {module_name}.{path}"
        assert callable(owner), f"{module_name}.{path} is not callable"
