"""Curated corpus: example inputs and frozen expected values.

Each entry directory holds the input files (algebra.alg, optionally
square.sq and curve.crv) plus expected.json with the frozen values.  Every
value group carries a source tag: "trivial" and "literature" values are
asserted as-is, "oracle:*" values are regenerated by the corresponding
computation and must match bit-exactly; a disagreement between two oracle
paths is a hard failure, never something to smooth over.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import OracleDisagreementError, PreconditionError
from .algebra import parse_algebra
from .homology import HomologyEngine
from .kahler import DifferentialForms, jacobian_smooth
from .fiber import ResolutionSquare, pic_conductor, nk0_crosscheck, seminormalization
from .curve import parse_curve_file, cusp_bundle_tables
from .workpool import _algebra_payload


def default_corpus_dir() -> Path:
    return Path(__file__).resolve().parent / "corpus_data"


@dataclass
class CorpusEntry:
    name: str
    path: Path
    meta: dict
    expected: dict
    _algebra: object = None
    _curve: object = None

    @property
    def algebra(self):
        if self._algebra is None and (self.path / "algebra.alg").exists():
            self._algebra = parse_algebra((self.path / "algebra.alg").read_text())
        return self._algebra

    @property
    def square(self):
        """A fresh parse on every access, so that the square and its engines
        live only as long as the caller holds them."""
        if (self.path / "square.sq").exists():
            return ResolutionSquare.parse((self.path / "square.sq").read_text())
        return None

    @property
    def curve_data(self):
        if self._curve is None and (self.path / "curve.crv").exists():
            self._curve = parse_curve_file((self.path / "curve.crv").read_text())
        return self._curve


def load_corpus(corpus_dir=None):
    root = Path(corpus_dir) if corpus_dir else default_corpus_dir()
    if not root.is_dir():
        raise PreconditionError(f"corpus {root} is not a directory")
    entries = []
    for sub in sorted(root.iterdir()):
        if not sub.is_dir():
            continue
        expected_path = sub / "expected.json"
        expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}
        entries.append(
            CorpusEntry(sub.name, sub, expected.get("meta", {}), expected)
        )
    if not entries:
        raise PreconditionError(f"no corpus entries under {root}")
    return entries


def _cells_str(cells):
    return {",".join(str(c) for c in k): v for k, v in sorted(cells.items())}


def compute_observed(entry: CorpusEntry) -> dict:
    """Recompute every value group of one entry from its oracles."""
    meta = entry.meta
    out = {}
    sq = entry.square
    if entry.algebra is not None:
        alg = entry.algebra
        if sq is not None and _algebra_payload(sq.algebra) == _algebra_payload(alg):
            # the fiber reuses the bases, matrices and ranks computed here
            engine = sq.engine_A
        else:
            engine = HomologyEngine(alg)
        n_max = meta.get("n_max", 3)
        w_max = meta.get("w_max", 8)
        hh = {}
        hc = {}
        hodge_cells = {}
        for n in range(n_max + 1):
            for w in range(w_max + 1):
                hh[(n, w)] = engine.hh_dim(n, w)
                hc[(n, w)] = engine.hc_dim(n, w)
                if n >= 1 and hh[(n, w)]:
                    split = engine.hodge_split(n, w)
                    for i, d in enumerate(split.dims, start=1):
                        if d:
                            hodge_cells[(n, w, i)] = d
        out["hh"] = _cells_str(hh)
        out["hc"] = _cells_str(hc)
        out["hodge"] = _cells_str(hodge_cells)
        verdict = jacobian_smooth(alg)
        out["jacobian"] = {
            "status": verdict.status,
            "non_reduced": verdict.non_reduced,
            "zero_divisors": verdict.zero_divisors,
        }
        if meta.get("omega_p_max") is not None:
            forms = DifferentialForms(alg)
            omega = {}
            for p in range(meta["omega_p_max"] + 1):
                for w in range(w_max + 1):
                    omega[(p, w)] = forms.dim(p, (w,))
            out["omega"] = _cells_str(omega)
    if sq is not None:
        sq.validate(meta.get("w_max", 8))
        tk_i_max = meta.get("tk_i_max")
        if tk_i_max is not None:
            tk = {}
            for i in range(tk_i_max + 1):
                for w in range(meta.get("tk_w_max", meta.get("w_max", 8)) + 1):
                    tk[(i, w)] = sq.tk(i, w)
            out["tk"] = _cells_str(tk)
        if meta.get("nk0_degree"):
            deg = meta["nk0_degree"]
            pic = pic_conductor(sq, 1, deg, meta.get("w_max", 8))
            out["pic_growth"] = {str(j): pic.per_degree[j] for j in range(deg + 1)}
            semi = seminormalization(sq, meta.get("w_max", 8))
            out["seminormalization"] = {
                "status": semi.status,
                "quotient_dim": semi.quotient_dim,
            }
            nk = nk0_crosscheck(sq, deg, meta.get("w_max", 8))
            out["nk0"] = {"status": nk.status, "passed": bool(nk.passed)}
    if entry.curve_data is not None:
        curve, points = entry.curve_data
        out["torsion"] = []
        for p in points:
            torsion, order = curve.is_torsion(p)
            out["torsion"].append({"point": repr(p), "torsion": torsion, "order": order})
        if meta.get("cuspbundle") and len(points) >= 2:
            P, Q = points[0], points[1]
            tabs = cusp_bundle_tables(
                curve, P, Q,
                tuple(meta.get("n_range", (-1, 6))),
                meta.get("m", 2), meta.get("j_cutoff", 4),
            )
            out["cuspbundle"] = {
                "regular_all_zero": tabs.regular_verdict,
                "k0": tabs.k0_dims,
                "km1": tabs.km1_dims,
                "findings": len(tabs.findings),
            }
    return out


def verify_entry(entry: CorpusEntry):
    """(observed, diffs): diffs list the cells where frozen values disagree."""
    observed = compute_observed(entry)
    diffs = []
    for group, payload in entry.expected.get("values", {}).items():
        frozen = payload.get("cells", payload.get("value"))
        if group == "pinned":
            # hand-certified spot values: keys "group:coords"
            for key, value in frozen.items():
                g, coords = key.split(":", 1)
                got = observed.get(g, {}).get(coords)
                if got != value:
                    diffs.append(
                        {"group": group, "cell": key, "frozen": value,
                         "observed": got}
                    )
            continue
        if group not in observed:
            diffs.append({"group": group, "error": "missing in observed"})
            continue
        if observed[group] != frozen:
            diffs.append(
                {"group": group, "frozen": frozen, "observed": observed[group]}
            )
    return observed, diffs


def regenerate_derived(corpus_dir=None, write=False):
    """Recompute oracle-sourced golden values; trivial/literature values are
    asserted, never rewritten.  Returns {entry: diffs}."""
    report = {}
    for entry in load_corpus(corpus_dir):
        observed, diffs = verify_entry(entry)
        fixed_diffs = []
        changed = False
        for diff in diffs:
            group = diff.get("group")
            src = (
                entry.expected.get("values", {})
                .get(group, {})
                .get("source", "oracle:unknown")
            )
            if src.startswith("oracle:"):
                if write:
                    entry.expected["values"][group]["cells"] = observed[group]
                    changed = True
                fixed_diffs.append(diff)
            else:
                raise OracleDisagreementError(
                    f"{entry.name}/{group}: frozen {src} value disagrees with "
                    f"the oracle: {diff}"
                )
        if changed:
            (entry.path / "expected.json").write_text(
                json.dumps(entry.expected, indent=1, sort_keys=True) + "\n"
            )
        report[entry.name] = fixed_diffs
    return report


# -- the main-theorem property suite ------------------------------------------


@dataclass
class SmoothnessRow:
    name: str
    jacobian: str
    krull_dim: int
    witness: tuple | None  # (i, w) or None
    has_square: bool
    note: str = ""


@dataclass
class SmoothnessReport:
    rows: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations


def smoothness_suite(corpus_dir=None) -> SmoothnessReport:
    """Jacobian verdict vs typical-piece witnesses over the corpus.

    For every member carrying a certified one-point square: if all
    tk(i, w) vanish for i <= dim + 1 and w up to the member's cutoff, the
    Jacobian verdict must be SMOOTH; conversely every SINGULAR member with
    a square must show a nonzero witness in that range.  The dimension is
    the exact one from the Groebner leads; a member's literature
    `krull_dim` must agree with it (OracleDisagreementError).
    """
    report = SmoothnessReport()
    for entry in load_corpus(corpus_dir):
        if entry.algebra is None:
            continue
        alg = entry.algebra
        verdict = jacobian_smooth(alg)
        d = alg.krull_dim()
        frozen = entry.meta.get("krull_dim")
        if frozen is not None and frozen != d:
            raise OracleDisagreementError(
                f"{entry.name}: meta krull_dim {frozen} disagrees with the "
                f"dimension {d} read from the Groebner leads"
            )
        witness = None
        note = ""
        sq = entry.square
        has_square = sq is not None
        if has_square:
            sq.validate(entry.meta.get("w_max", 8))
            if not sq.center_is_exceptional:
                has_square = False
                note = "square present but exceptional locus is not the center"
        if has_square:
            w_max = entry.meta.get("tk_w_max", entry.meta.get("w_max", 8))
            for i in range(d + 2):
                for w in range(w_max + 1):
                    if sq.tk(i, w):
                        witness = (i, w)
                        break
                if witness:
                    break
            all_zero = witness is None
            if all_zero and verdict.status != "SMOOTH":
                report.violations.append(
                    f"{entry.name}: all typical pieces vanish but the Jacobian "
                    f"verdict is {verdict.status}"
                )
            if verdict.status == "SINGULAR" and witness is None:
                report.violations.append(
                    f"{entry.name}: singular but no typical-piece witness with "
                    f"i <= {d + 1}"
                )
        elif not note:
            note = "no resolution square in the corpus entry"
        report.rows.append(
            SmoothnessRow(entry.name, verdict.status, d, witness, has_square, note)
        )
    return report
