"""Checks on every output of a round, none against a stored copy of khh output.

An operation is one Kunneth cell, or one value group of one report entry.
Each check returns {operation: [reasons]} holding only the operations
that failed; a workload's `attempted` count is its number of operations.

Kunneth cells must carry verify_kunneth's "ok", equal the reference for
A[t], and satisfy Goodwillie's HH_n = HC_n + HC_{n-1} in positive total
weight.  Report groups are checked against the references where the
entry is free or a hypersurface, against the Goodwillie splitting, the
Hodge pieces summing to HH, the paper's criterion (all tk(i, w) with
i <= dim + 1 vanish exactly when the Jacobian verdict is SMOOTH), the
hand-certified `literature`, `trivial` and `pinned` values of the
corpus, and the report's own `failures` list.
"""

from __future__ import annotations

import json
from pathlib import Path

from references import Reference, parse_presentation


def _fail(out, op, reason):
    out.setdefault(op, []).append(reason)


# -- Kunneth grids -------------------------------------------------------------


def kunneth_failures(cells, ref: Reference):
    """cells: [kind, n, w, j, left, right, status]; operations are cell indices."""
    value = {(kind, n, w, j): left for kind, n, w, j, left, _, _ in cells}
    out = {}
    for op, (kind, n, w, j, left, right, status) in enumerate(cells):
        if status != "ok":
            _fail(out, op, f"verify_kunneth status {status} (left {left}, right {right})")
        expected = ref.hh(n, (w, j)) if kind == "hh" else ref.hc(n, (w, j))
        if left != expected:
            _fail(out, op, f"{kind}_{n}({w},{j}) = {left}, reference {expected}")
        if kind == "hh" and w + j > 0:
            hc_n = value.get(("hc", n, w, j))
            hc_prev = value.get(("hc", n - 1, w, j), 0) if n >= 1 else 0
            if hc_n is None or hc_prev is None or left != hc_n + hc_prev:
                _fail(out, op, f"Goodwillie: hh_{n}({w},{j}) = {left} != "
                               f"hc_{n} + hc_{n - 1} = {hc_n} + {hc_prev}")
    return out


# -- the corpus report ---------------------------------------------------------------


def _cells(group):
    return {tuple(int(x) for x in key.split(",")): v for key, v in group.items()}


def _check_algebra_groups(name, observed, ref, out):
    hh = _cells(observed.get("hh", {}))
    if "hh" in observed and ref is not None:
        for (n, w), v in hh.items():
            if v != ref.hh(n, (w,)):
                _fail(out, (name, "hh"), f"hh {n},{w} = {v}, reference {ref.hh(n, (w,))}")
    if "hc" in observed:
        hc = _cells(observed["hc"])
        for (n, w), v in hc.items():
            if w == 0 and v != (1 if n % 2 == 0 else 0):
                _fail(out, (name, "hc"), f"hc {n},0 = {v}, HC(Q) says {1 - n % 2}")
            if w > 0 and (n, w) in hh:
                prev = hc.get((n - 1, w), 0)
                if hh[(n, w)] != v + prev:
                    _fail(out, (name, "hc"), f"Goodwillie at {n},{w}: hh {hh[(n, w)]} "
                                             f"!= hc {v} + hc_prev {prev}")
            if ref is not None and v != ref.hc(n, (w,)):
                _fail(out, (name, "hc"), f"hc {n},{w} = {v}, reference {ref.hc(n, (w,))}")
    if "hodge" in observed:
        pieces = {}
        for (n, w, i), v in _cells(observed["hodge"]).items():
            pieces.setdefault((n, w), {})[i] = v
        for (n, w), total in hh.items():
            got = pieces.get((n, w), {})
            if n >= 1 and sum(got.values()) != total:
                _fail(out, (name, "hodge"), f"pieces at {n},{w} sum to "
                                            f"{sum(got.values())}, hh is {total}")
            if n >= 1 and ref is not None and got != ref.hodge(n, (w,)):
                _fail(out, (name, "hodge"), f"pieces at {n},{w} = {got}, "
                                            f"reference {ref.hodge(n, (w,))}")
    if "omega" in observed and ref is not None:
        for (p, w), v in _cells(observed["omega"]).items():
            if v != ref.omega(p, (w,)):
                _fail(out, (name, "omega"), f"omega {p},{w} = {v}, "
                                            f"reference {ref.omega(p, (w,))}")


def _check_criterion(name, observed, meta, out):
    """The paper's criterion on an entry whose report carries typical pieces."""
    if "tk" not in observed:
        return
    dim = meta["krull_dim"]
    tk = _cells(observed["tk"])
    if max((i for i, _ in tk), default=-1) < dim + 1:
        _fail(out, (name, "tk"), f"tk stops below i = dim + 1 = {dim + 1}")
        return
    vanish = all(v == 0 for (i, _), v in tk.items() if i <= dim + 1)
    smooth = observed["jacobian"]["status"] == "SMOOTH"
    if vanish != smooth:
        _fail(out, (name, "tk"), f"tk(i <= {dim + 1}) all zero is {vanish}, "
                                 f"Jacobian verdict {observed['jacobian']['status']}")


def _check_corpus_values(name, observed, values, out):
    """Hand-certified values: `literature` and `trivial` groups, `pinned` cells."""
    for group, payload in values.items():
        frozen = payload.get("cells", payload.get("value"))
        if group == "pinned":
            for key, v in frozen.items():
                g, coords = key.split(":", 1)
                if observed.get(g, {}).get(coords) != v:
                    _fail(out, (name, g), f"pinned {key} = {v}, observed "
                                          f"{observed.get(g, {}).get(coords)}")
        elif payload.get("source") in ("literature", "trivial"):
            if observed.get(group) != frozen:
                _fail(out, (name, group), f"{payload['source']} value differs")


def _check_nk0(name, observed, out):
    nk0 = observed.get("nk0")
    if nk0 is None or nk0["status"] != "OK":
        return
    semi = observed["seminormalization"]["quotient_dim"]
    growth = {int(j): v for j, v in observed["pic_growth"].items()}
    if not nk0["passed"] or any(v != semi for j, v in growth.items() if j >= 1):
        _fail(out, (name, "nk0"), f"Pic growth {growth} against dim A+/A = {semi}")


class ReportChecker:
    """References and corpus data for the entries of one report corpus."""

    def __init__(self, corpus_dir):
        self.entries = {}
        for sub in sorted(Path(corpus_dir).iterdir()):
            expected = json.loads((sub / "expected.json").read_text())
            alg = sub / "algebra.alg"
            ref = None
            if alg.exists():
                pres = parse_presentation(alg.read_text())
                if Reference.covers(pres):
                    ref = Reference(pres)
            self.entries[sub.name] = (expected.get("meta", {}),
                                      expected.get("values", {}), ref)

    def operations(self, report):
        return [(name, group) for name in sorted(report["entries"])
                for group in sorted(report["entries"][name])]

    def failures(self, report):
        out = {}
        for diff in report["failures"]:
            for d in diff["diffs"]:
                _fail(out, (diff["entry"], d["group"]), "listed in the report's failures")
        if sorted(report["entries"]) != sorted(self.entries):
            _fail(out, ("*", "entries"), "report entries differ from the corpus")
        for name, observed in report["entries"].items():
            meta, values, ref = self.entries.get(name, ({}, {}, None))
            _check_algebra_groups(name, observed, ref, out)
            _check_criterion(name, observed, meta, out)
            _check_corpus_values(name, observed, values, out)
            _check_nk0(name, observed, out)
        return out
