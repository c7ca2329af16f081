"""Tooling outside the package that names parts of it."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _span_targets():
    """bench/spans.py's TARGETS list, read from its source without importing it."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS in bench/spans.py")


def test_bench_span_targets_resolve():
    # a rename in khh would otherwise surface only when the bench traces
    targets = _span_targets()
    assert targets
    for module_name, path, _, _ in targets:
        obj = importlib.import_module(f"khh.{module_name}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"khh.{module_name}.{path}"
            obj = getattr(obj, attr)
        assert callable(obj), f"khh.{module_name}.{path}"
