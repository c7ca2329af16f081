"""Spans around khh's public functions, installed from outside the package.

`install(tracer)` replaces each traced function or method with a wrapper
that records one span per call: label, start, end, parent span and an
optional size.  Methods are replaced on their class; module functions are
replaced in every khh module that holds them, because several modules
import them by name (`homology_dim` lives in homology and fiber alike).
Spans stay in memory, in flat arrays, until `Tracer.dump` writes them out.

A span's self time is its duration minus the time its child spans cover.
`Tracer.layer_metrics` folds the spans into the per-layer metrics the
benchmark prints; `LAYER_METRICS` lists them with their units.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from array import array
from time import perf_counter

# (module, attribute path, span label, size function or None)
TARGETS = [
    ("algebra", "GradedAlgebra.mono_mul", "algebra.mono_mul", None),
    ("algebra", "GradedAlgebra.weight_basis", "algebra.weight_basis", None),
    ("barcomplex", "SliceContext.basis", "barcomplex.basis", "len"),
    ("barcomplex", "SliceContext.b_matrix", "barcomplex.b_matrix", "nnz_new"),
    ("barcomplex", "SliceContext.B_matrix", "barcomplex.B_matrix", None),
    ("linalg", "SparseMatrix.rank", "linalg.rank", "nnz_self"),
    ("linalg", "SparseMatrix.__matmul__", "linalg.matmul", None),
    ("linalg", "QuotientSpace.__init__", "linalg.quotient", None),
    ("linalg", "SparseMatrix.kernel_basis", "linalg.kernel_basis", None),
    ("linalg", "QuotientSpace.induced_matrix", "linalg.induced_matrix", None),
    ("homology", "HomologyEngine.total_matrix", "homology.total_matrix", "nnz_new"),
    ("homology", "HomologyEngine.hodge_split", "homology.hodge_split", None),
    ("hodge", "idempotent_matrix", "hodge.idempotent_matrix", None),
    ("hodge", "adams_matrix", "hodge.adams_matrix", None),
    ("hodge", "check_slice_completeness", "hodge.completeness", None),
    ("fiber", "ResolutionSquare.cone_matrix", "fiber.cone_matrix", None),
    ("fiber", "ResolutionSquare.chain_map_matrix", "fiber.chain_map_matrix", None),
    ("fiber", "ResolutionSquare.class_map", "fiber.class_map", None),
    ("fiber", "ResolutionSquare.tk", "fiber.tk", None),
    ("fiber", "pic_conductor", "fiber.units", None),
    ("kahler", "DifferentialForms.partials", "kahler.forms", None),
    ("kahler", "OmegaSlice.__init__", "kahler.forms", None),
    ("kahler", "jacobian_smooth", "kahler.jacobian_smooth", None),
    ("curve", "cusp_bundle_tables", "curve.cusp_bundle_tables", None),
    ("curve", "EllipticCurve.is_torsion", "curve.is_torsion", None),
    ("tables", "canonical_json", "tables.canonical_json", None),
    ("corpus", "verify_entry", "corpus.entry", None),
    ("workpool", "map_cells", "workpool.map_cells", "tasks"),
    ("workpool", "_run_cell", "homology.cell", None),
    ("cache", "get", "cache.get", None),
    ("cache", "put", "cache.put", None),
]

# labels whose span durations are kept for a median and a maximum
_DURATION_LABELS = {"homology.cell"}

# (metric, span label, statistic, unit); corpus.entry.<name>.s is added per entry
LAYER_METRICS = [
    ("algebra.mono_mul.self_s", "algebra.mono_mul", "self", "s"),
    ("algebra.mono_mul.calls", "algebra.mono_mul", "calls", "count"),
    ("algebra.weight_basis.self_s", "algebra.weight_basis", "self", "s"),
    ("algebra.weight_basis.calls", "algebra.weight_basis", "calls", "count"),
    ("barcomplex.basis.self_s", "barcomplex.basis", "self", "s"),
    ("barcomplex.basis.calls", "barcomplex.basis", "calls", "count"),
    ("barcomplex.basis.max_dim", "barcomplex.basis", "max_size", "count"),
    ("barcomplex.b_matrix.self_s", "barcomplex.b_matrix", "self", "s"),
    ("barcomplex.b_matrix.calls", "barcomplex.b_matrix", "calls", "count"),
    ("barcomplex.b_matrix.nnz", "barcomplex.b_matrix", "sum_size", "count"),
    ("barcomplex.B_matrix.self_s", "barcomplex.B_matrix", "self", "s"),
    ("barcomplex.B_matrix.calls", "barcomplex.B_matrix", "calls", "count"),
    ("linalg.rank.self_s", "linalg.rank", "self", "s"),
    ("linalg.rank.calls", "linalg.rank", "calls", "count"),
    ("linalg.rank.max_nnz", "linalg.rank", "max_size", "count"),
    ("linalg.matmul.self_s", "linalg.matmul", "self", "s"),
    ("linalg.matmul.calls", "linalg.matmul", "calls", "count"),
    ("linalg.quotient.self_s", "linalg.quotient", "self", "s"),
    ("linalg.quotient.calls", "linalg.quotient", "calls", "count"),
    ("linalg.kernel_basis.self_s", "linalg.kernel_basis", "self", "s"),
    ("linalg.kernel_basis.calls", "linalg.kernel_basis", "calls", "count"),
    ("linalg.induced_matrix.self_s", "linalg.induced_matrix", "self", "s"),
    ("linalg.induced_matrix.calls", "linalg.induced_matrix", "calls", "count"),
    ("homology.total_matrix.self_s", "homology.total_matrix", "self", "s"),
    ("homology.total_matrix.calls", "homology.total_matrix", "calls", "count"),
    ("homology.total_matrix.nnz", "homology.total_matrix", "sum_size", "count"),
    ("homology.hodge_split.self_s", "homology.hodge_split", "self", "s"),
    ("homology.hodge_split.calls", "homology.hodge_split", "calls", "count"),
    ("homology.cells", "homology.cell", "calls", "count"),
    ("homology.cell.p50_s", "homology.cell", "p50", "s"),
    ("homology.cell.max_s", "homology.cell", "max", "s"),
    ("hodge.idempotent_matrix.self_s", "hodge.idempotent_matrix", "self", "s"),
    ("hodge.idempotent_matrix.calls", "hodge.idempotent_matrix", "calls", "count"),
    ("hodge.adams_matrix.self_s", "hodge.adams_matrix", "self", "s"),
    ("hodge.completeness.self_s", "hodge.completeness", "self", "s"),
    ("fiber.cone_matrix.self_s", "fiber.cone_matrix", "self", "s"),
    ("fiber.chain_map_matrix.self_s", "fiber.chain_map_matrix", "self", "s"),
    ("fiber.class_map.self_s", "fiber.class_map", "self", "s"),
    ("fiber.tk.calls", "fiber.tk", "calls", "count"),
    ("fiber.units.s", "fiber.units", "total", "s"),
    ("kahler.forms.self_s", "kahler.forms", "self", "s"),
    ("kahler.jacobian_smooth.s", "kahler.jacobian_smooth", "total", "s"),
    ("curve.cusp_bundle_tables.s", "curve.cusp_bundle_tables", "total", "s"),
    ("curve.is_torsion.s", "curve.is_torsion", "total", "s"),
    ("tables.canonical_json.self_s", "tables.canonical_json", "self", "s"),
    ("workpool.map_cells.s", "workpool.map_cells", "total", "s"),
    ("workpool.tasks", "workpool.map_cells", "sum_size", "count"),
    ("cache.get.calls", "cache.get", "calls", "count"),
    ("cache.put.calls", "cache.put", "calls", "count"),
]


def _size_fn(kind):
    """Size recorded on a span: a slice dimension, a matrix's nnz, a task count."""
    if kind is None:
        return None
    if kind == "len":
        return lambda args, result: len(result)
    if kind == "nnz_self":
        return lambda args, result: args[0].nnz()
    if kind == "tasks":
        return lambda args, result: len(args[2])
    if kind == "nnz_new":
        # cached matrices come back on every call; count each matrix once
        # (the dict keeps each matrix alive, so its id is never reused)
        seen = {}

        def nnz_new(args, result):
            if id(result) in seen:
                return 0
            seen[id(result)] = result
            return result.nnz()

        return nnz_new
    raise ValueError(f"unknown size kind {kind!r}")


class Tracer:
    """Spans of one single-threaded process, kept in flat arrays."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack = [-1]

    def _label_id(self, label):
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def wrap(self, fn, label, size=None):
        fixed = None if callable(label) else self._label_id(label)
        stack = self._stack
        labels, parents, starts, ends, sizes = (
            self.label, self.parent, self.start, self.end, self.size)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            labels.append(fixed if fixed is not None else self._label_id(label(args)))
            parents.append(stack[-1])
            sizes.append(-1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if size is not None:
                sizes[idx] = size(args, result)
            return result

        return traced

    # -- aggregation ---------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.start)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[idx] - self.start[idx]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.start))]

    def layer_metrics(self, entry_names, wall_s):
        """{metric: (value, unit)} for LAYER_METRICS, corpus entries, unattributed_s."""
        selfs = self.self_times()
        count = len(self.labels)
        self_s, calls, total = [0.0] * count, [0] * count, [0.0] * count
        max_size, sum_size = [0] * count, [0] * count
        durations = {lid: [] for lid in range(count)
                     if self.labels[lid] in _DURATION_LABELS}
        for idx, lid in enumerate(self.label):
            dur = self.end[idx] - self.start[idx]
            self_s[lid] += selfs[idx]
            calls[lid] += 1
            if not self._has_ancestor(idx, lid):
                total[lid] += dur
            if lid in durations:
                durations[lid].append(dur)
            s = self.size[idx]
            if s > 0:
                sum_size[lid] += s
                max_size[lid] = max(max_size[lid], s)
        stats = {"self": self_s, "calls": calls, "total": total,
                 "max_size": max_size, "sum_size": sum_size}
        out = {}
        for metric, label, stat, unit in LAYER_METRICS:
            lid = self._label_ids.get(label)
            if lid is None:
                value = 0
            elif stat == "p50":
                value = statistics.median(durations[lid]) if durations[lid] else 0.0
            elif stat == "max":
                value = max(durations[lid], default=0.0)
            else:
                value = stats[stat][lid]
            out[metric] = (value, unit)
        for name in entry_names:
            lid = self._label_ids.get(f"corpus.entry.{name}")
            out[f"corpus.entry.{name}.s"] = (0.0 if lid is None else total[lid], "s")
        out["unattributed_s"] = (wall_s - sum(selfs), "s")
        return out

    def _has_ancestor(self, idx, lid):
        par = self.parent[idx]
        while par >= 0:
            if self.label[par] == lid:
                return True
            par = self.parent[par]
        return False

    def dump(self, path):
        """Write every span once: labels plus columnar start/end/parent/size."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            json.dump({
                "labels": self.labels,
                "label": self.label.tolist(),
                "parent": self.parent.tolist(),
                "start_s": [round(t - t0, 7) for t in self.start],
                "end_s": [round(t - t0, 7) for t in self.end],
                "size": self.size.tolist(),
            }, fh)


def _entry_label(args):
    return f"corpus.entry.{args[0].name}"


def install(tracer: Tracer):
    """Replace every TARGETS function in khh's loaded modules by its traced wrapper."""
    import importlib

    for module_name, path, label, size in TARGETS:
        module = importlib.import_module(f"khh.{module_name}")
        if label == "corpus.entry":
            label = _entry_label
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), label, _size_fn(size)))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, label, _size_fn(size))
        for name, mod in list(sys.modules.items()):
            if name == "khh" or name.startswith("khh."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
