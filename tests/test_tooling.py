"""Tooling outside the package that names parts of it."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


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


# a hand-rolled "get, add, store or drop" loop; sparse sums go through add_term
_ACCUMULATE = re.compile(r"\.get\([^)]*, (0|ZERO)\) [+-]")
# the primitive itself, and the idempotent kernel that sums everything and
# drops zeros once at the end (its sums cancel often); the matrix product
# scatters into a dense accumulator and has no get-add loop
_ACCUMULATE_ALLOWED = {
    ("rationals", "add_term"),
    ("hodge", "element_matrix"),
}


def _functions(tree, prefix=""):
    """(qualified name, node) of every function and method, outermost first."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if isinstance(node, ast.FunctionDef):
                yield name, node
            yield from _functions(node, name + ".")


def test_sparse_sums_go_through_add_term():
    hits = []
    paths = sorted((ROOT / "src" / "khh").glob("*.py"))
    assert paths
    for path in paths:
        text = path.read_text()
        lines = text.splitlines()
        functions = list(_functions(ast.parse(text)))
        for lineno, line in enumerate(lines, start=1):
            if not _ACCUMULATE.search(line):
                continue
            owner = None  # the innermost function holding the line
            for name, node in functions:
                if node.lineno <= lineno <= node.end_lineno:
                    owner = name, node
            where = f"{path.name}:{lineno}: {line.strip()}"
            key = (path.stem, owner[0] if owner else None)
            if key not in _ACCUMULATE_ALLOWED:
                hits.append(where)
            elif key[0] != "rationals":
                body = lines[owner[1].lineno - 1 : owner[1].end_lineno]
                if not any("drop zeros once" in ln for ln in body):
                    hits.append(where + "  (no comment saying why)")
    assert not hits, "use rationals.add_term:\n" + "\n".join(hits)


def test_rows_are_skipped_only_by_the_chain_walk():
    # the compression lemma holds only after the composite is verified, and
    # linalg.chain_rank is the one place that asks; a second caller passing
    # skip_rows= would be a second copy of that rule
    calls = []
    for path in sorted((ROOT / "src" / "khh").glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = list(_functions(tree))
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and any(kw.arg == "skip_rows" for kw in call.keywords):
                owners = [n for n, f in functions if f.lineno <= call.lineno <= f.end_lineno]
                calls.append((path.stem, owners[-1] if owners else None))
    assert calls == [("linalg", "chain_rank")]
