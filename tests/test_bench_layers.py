"""The benchmark wraps program functions by name and imports others; every
name must exist."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import ghostcheck
import ghostcheck.cli  # noqa: F401  (the benchmark imports these before tracing)
import ghostcheck.factory  # noqa: F401

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


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


def bench_imports():
    """(file, module, name) for every ``from ghostcheck... import name`` in bench/*.py."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ghostcheck":
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


def test_every_benchmark_import_resolves():
    imports = bench_imports()
    assert any(name == "verify_residue_theorem" for _, _, name in imports)
    for filename, module_name, name in imports:
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"bench/{filename} imports missing {module_name}.{name}"
