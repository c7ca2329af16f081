"""Tooling outside the package that names parts of it."""

import ast
import importlib
import re
from fnmatch import fnmatch
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
# the primitive itself; the matrix product scatters into a dense accumulator
# and has no get-add loop
_ACCUMULATE_ALLOWED = {("rationals", "add_term")}


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
                    owner = name
            if (path.stem, owner) not in _ACCUMULATE_ALLOWED:
                hits.append(f"{path.name}:{lineno}: {line.strip()}")
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


# -- every src function earns its place ----------------------------------------

# a def that no verb reaches stays only for a reason; "module.qualified name"
# patterns
_UNREACHED_ALLOWED = {
    **dict.fromkeys([
        "kahler.omega_dims", "kahler.de_rham_matrix", "kahler.hkr_matrix",
        "kahler.hkr_class_rank", "kahler.torsion_dims", "kahler.omega_hom_matrix",
        "kahler._wedge_images", "kahler.OmegaSlice.class_keys",
        "kahler.OmegaSlice.class_matrix",
    ], "items 10/8 wire them"),
}

# the special methods that operators and formatting call
_OPERATOR_METHODS = {
    ast.Add: "__add__", ast.Sub: "__sub__", ast.Mult: "__mul__",
    ast.MatMult: "__matmul__", ast.Div: "__truediv__", ast.Pow: "__pow__",
    ast.USub: "__neg__", ast.Eq: "__eq__", ast.NotEq: "__eq__",
}
_CONSTRUCTORS = ("__init__", "__post_init__")


def _reached_names(node):
    """The names a piece of code can reach: identifiers, attributes, and the
    special methods behind its operators and formatting."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.BinOp, ast.UnaryOp, ast.AugAssign)):
            names.add(_OPERATOR_METHODS.get(type(sub.op)))
        elif isinstance(sub, ast.Compare):
            names.update(_OPERATOR_METHODS.get(type(op)) for op in sub.ops)
        elif isinstance(sub, ast.FormattedValue):
            names.add("__repr__")
    if names & {"repr", "str"}:
        names.add("__repr__")
    return names


def _defs_and_import_time_names(tree, prefix=""):
    """(qualified name, node) of every function, method and class, and the
    names that the code run on import reaches: module and class bodies,
    decorators and defaults.  A nested def is part of the def holding it."""
    defs, names = [], set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            defs.append((prefix + node.name, node))
            for part in (*node.decorator_list, *node.args.defaults, *node.args.kw_defaults):
                names |= _reached_names(part) if part else set()
        elif isinstance(node, ast.ClassDef):
            defs.append((prefix + node.name, node))
            inner, inner_names = _defs_and_import_time_names(node, prefix + node.name + ".")
            defs += inner
            names |= inner_names
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= _reached_names(node)
    return defs, names


def test_every_src_function_is_reached():
    # name-level closure from the verbs (cli.main), the public khh.__all__
    # and the bench span targets: a name reached reaches every def so named,
    # and a class reaches its constructor, not every method
    import khh

    defs, todo = {}, ["main", *khh.__all__]
    todo += [path.rsplit(".", 1)[-1] for _, path, _, _ in _span_targets()]
    for path in sorted((ROOT / "src" / "khh").glob("*.py")):
        found, names = _defs_and_import_time_names(ast.parse(path.read_text()))
        defs.update((f"{path.stem}.{qualname}", node) for qualname, node in found)
        todo += names
    by_name = {}
    for qualname, node in defs.items():
        by_name.setdefault(qualname.rsplit(".", 1)[-1], []).append(node)
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in by_name.get(name, ()):
                isclass = isinstance(node, ast.ClassDef)
                todo += _CONSTRUCTORS if isclass else _reached_names(node)
    unreached = [
        qualname for qualname, node in defs.items()
        if isinstance(node, ast.FunctionDef) and qualname.rsplit(".", 1)[-1] not in reached
    ]
    stray = [q for q in unreached if not any(fnmatch(q, p) for p in _UNREACHED_ALLOWED)]
    assert not stray, "no verb reaches these; call, publish or delete them:\n" + "\n".join(stray)
    # an entry must still excuse some def: one that names none, or only defs
    # the closure reaches anyway, is stale
    stale = [p for p in _UNREACHED_ALLOWED if not any(fnmatch(q, p) for q in unreached)]
    assert not stale, f"allow-list entries that excuse no unreached def: {stale}"
