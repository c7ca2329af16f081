"""Command-line front end.

Verbs: hh, hc, hodge, kunneth, cycles, tk, pic, cdh-omega, curve,
cuspbundle, smoothness, report.  Output formats are aligned text,
canonical JSON (sorted keys, integers only) and CSV; identical inputs
produce byte-identical JSON.  The table verbs write all three; cycles,
curve and smoothness write text or JSON, and report writes JSON only.  A
format a verb does not write is a precondition violation.  Exit codes:
0 success, 1 failed checks, 2 parse errors, 3 precondition violations,
4 hypothesis failures (torsion), 5 internal sanity failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import KhhError, PreconditionError
from .algebra import parse_algebra
from .barcomplex import CONVENTIONS
from .homology import HomologyEngine, verify_kunneth, verify_cusp_cycles
from .fiber import ResolutionSquare, pic_conductor, nk0_crosscheck
from .curve import parse_curve_file, cusp_bundle_tables
from .tables import DimensionTable, canonical_json, render
from . import corpus as corpus_mod
from .workpool import map_tasks, resolve_jobs


# the twist sign each `cuspbundle` convention selects; the bar-complex
# conventions change nothing there, and `twist-minus` changes no bar complex
TWISTS = {"standard": "plus", "twist-minus": "minus"}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from None


def _check_cutoffs(args, *names):
    for name in names:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise PreconditionError(f"--{name.replace('_', '-')} must be >= 0")


def _read_square(args):
    """The --square file; squares are only computed under the standard convention."""
    if args.convention != "standard":
        raise PreconditionError(
            f"--convention {args.convention}: resolution squares use the "
            "standard convention only"
        )
    return ResolutionSquare.parse(_read(args.square))


def _common_meta(args, **extra):
    meta = {"convention": args.convention}
    meta.update(extra)
    return meta


def _emit(args, tables):
    sys.stdout.write(render(tables, args.format))


def cmd_dims(args):
    """`hh` and `hc`: the engine's `<verb>_dim` at degree n, per weight."""
    _check_cutoffs(args, "n", "max_weight")
    algebra = parse_algebra(_read(args.algebra))
    dim = getattr(HomologyEngine(algebra, args.convention), f"{args.command}_dim")
    table = DimensionTable(
        f"{args.command} n={args.n} of {algebra.name}", ("w",),
        metadata=_common_meta(args, algebra=algebra.name, n=args.n,
                              max_weight=args.max_weight),
    )
    for w in range(args.max_weight + 1):
        table.set((w,), dim(args.n, w))
    _emit(args, table)
    return 0


def cmd_hodge(args):
    _check_cutoffs(args, "n", "max_weight")
    algebra = parse_algebra(_read(args.algebra))
    engine = HomologyEngine(algebra, args.convention)
    table = DimensionTable(
        f"hodge pieces n={args.n} of {algebra.name}", ("w", "i"),
        metadata=_common_meta(args, algebra=algebra.name, n=args.n,
                              max_weight=args.max_weight),
    )
    for w in range(args.max_weight + 1):
        if engine.hh_dim(args.n, w):
            dims = engine.hodge_split(args.n, w).dims
        else:
            dims = (0,) * args.n
        for i, d in enumerate(dims, start=1):
            table.set((w, i), d)
    _emit(args, table)
    return 0


def cmd_kunneth(args):
    _check_cutoffs(args, "n_max", "max_weight", "t_cutoff")
    resolve_jobs(args.jobs)
    algebra = parse_algebra(_read(args.algebra))
    report = verify_kunneth(
        algebra, args.t_cutoff, args.n_max, args.max_weight,
        conv=args.convention, jobs=args.jobs,
    )
    tables = []
    for kind in ("hh", "hc"):
        table = DimensionTable(
            f"kunneth {kind} mismatches for {algebra.name}", ("n", "w", "j"),
            metadata=_common_meta(
                args, algebra=algebra.name, n_max=args.n_max,
                max_weight=args.max_weight, t_cutoff=args.t_cutoff,
                status="PASS" if report.passed else "FAIL",
            ),
        )
        for cell in report.cells:
            if cell.kind == kind and cell.status != "ok":
                table.set((cell.n, cell.w, cell.j), -1 if cell.left is None else cell.left)
        tables.append(table)
    _emit(args, tables)
    if not report.passed:
        bad = report.mismatches
        sys.stderr.write(f"kunneth: {len(bad)} failing cells; first: "
                         f"(n={bad[0].n}, w={bad[0].w}, j={bad[0].j}, kind={bad[0].kind}, "
                         f"left={bad[0].left}, right={bad[0].right})\n")
        if any(c.status == "sanity" for c in bad):
            return 5
        return 1
    return 0


def cmd_cycles(args):
    report = verify_cusp_cycles(args.i_max)
    obj = {
        "i_max": report.i_max,
        "z_is_cycle": report.z_is_cycle,
        "z_class_nonzero": report.z_class_nonzero,
        "tz_class_nonzero": report.tz_class_nonzero,
        "convention_found": report.convention_found or "NO_CONVENTION_FOUND",
        "sign_pattern": list(report.sign_pattern) if report.sign_pattern else None,
        "attempts": report.per_convention,
        "fallback_classes": {
            str(i): {"dim": d, "representative": rep}
            for i, (d, rep) in report.fallback_classes.items()
        },
    }
    if args.format == "json":
        sys.stdout.write(canonical_json(obj))
    else:
        for key in ("z_is_cycle", "z_class_nonzero", "tz_class_nonzero",
                    "convention_found"):
            sys.stdout.write(f"{key}: {obj[key]}\n")
        for i, data in sorted(obj["fallback_classes"].items()):
            sys.stdout.write(
                f"fallback i={i}: dim {data['dim']}, class {data['representative']}\n"
            )
    return 0


def cmd_tk(args):
    _check_cutoffs(args, "n_max", "max_weight", "degree_cutoff")
    if args.degree_cutoff is not None and not args.nk0:
        raise PreconditionError("--degree-cutoff bounds the --nk0 crosscheck; pass --nk0")
    square = _read_square(args)
    square.validate(args.max_weight)
    tables = []
    table = DimensionTable(
        f"typical pieces of {square.algebra.name}", ("n", "w"),
        metadata=_common_meta(args, algebra=square.algebra.name,
                              n_max=args.n_max, max_weight=args.max_weight),
    )
    for n in range(args.n_max + 1):
        for w in range(args.max_weight + 1):
            table.set((n, w), square.tk(n, w))
    tables.append(table)
    exit_code = 0
    if args.formula_check:
        rep = square.tk_formula_check(args.n_max, args.max_weight)
        check = DimensionTable(
            f"tk-vs-hodge comparison for {square.algebra.name}", ("n", "i", "w"),
            metadata=_common_meta(
                args, cellwise="PASS" if rep.cellwise_equal else "FAIL",
                aggregate="PASS" if rep.aggregate_equal else "FAIL",
            ),
        )
        for cell in rep.cells:
            check.set((cell["n"], cell["i"], cell["w"]),
                      1 if cell["equal"] else 0)
        tables.append(check)
    if args.nk0:
        cutoff = 6 if args.degree_cutoff is None else args.degree_cutoff
        rep = nk0_crosscheck(square, cutoff)
        nk_table = DimensionTable(
            f"nk0 crosscheck for {square.algebra.name}", ("j",),
            metadata=_common_meta(args, status=rep.status,
                                  passed=str(bool(rep.passed)), note=rep.semi.note),
        )
        for j, v in rep.pic_growth.items():
            nk_table.set((j,), v)
        tables.append(nk_table)
        if rep.status == "OK" and not rep.passed:
            exit_code = 1
    _emit(args, tables)
    return exit_code


def cmd_pic(args):
    _check_cutoffs(args, "poly_vars", "degree_cutoff", "max_weight")
    square = _read_square(args)
    square.validate(args.max_weight)
    report = pic_conductor(square, args.poly_vars, args.degree_cutoff)
    table = DimensionTable(
        f"Pic growth of {square.algebra.name}[s_1..s_{args.poly_vars}]", ("j",),
        metadata=_common_meta(args, unipotent_rank=report.unipotent_rank,
                              torus_rank=report.torus_rank,
                              poly_vars=args.poly_vars),
    )
    for j, v in report.per_degree.items():
        table.set((j,), v)
    _emit(args, table)
    return 0


def cmd_cdh_omega(args):
    _check_cutoffs(args, "p", "max_weight")
    square = _read_square(args)
    table = DimensionTable(
        f"cdh H^{args.q} of Omega^{args.p} for {square.algebra.name}", ("w",),
        metadata=_common_meta(args, p=args.p, q=args.q),
    )
    for w in range(args.max_weight + 1):
        table.set((w,), square.cdh_omega(args.p, args.q, w))
    _emit(args, table)
    return 0


def cmd_curve(args):
    curve, points = parse_curve_file(_read(args.curve))
    obj = {
        "discriminant": str(curve.discriminant),
        "points": [],
    }
    for p in points:
        torsion, order = curve.is_torsion(p)
        obj["points"].append({
            "point": repr(p),
            "torsion": torsion,
            "order": order if order is not None else 0,
        })
    if args.format == "json":
        sys.stdout.write(canonical_json(obj))
    else:
        sys.stdout.write(f"discriminant: {obj['discriminant']}\n")
        for row in obj["points"]:
            status = f"torsion of order {row['order']}" if row["torsion"] else "infinite order"
            sys.stdout.write(f"point {row['point']}: {status}\n")
    return 0


def cmd_cuspbundle(args):
    if args.convention not in TWISTS:
        raise PreconditionError(
            f"--convention {args.convention}: cuspbundle takes "
            f"{' or '.join(TWISTS)} only"
        )
    _check_cutoffs(args, "m")
    curve, points = parse_curve_file(_read(args.curve))
    if len(points) < 2:
        raise PreconditionError("curve file must provide the points P and Q")
    tabs = cusp_bundle_tables(
        curve, points[0], points[1], (args.n_min, args.n_max),
        args.m, args.j_cutoff,
    )
    reg = DimensionTable(
        "relative K sheaf cohomology over the curve, polynomial directions",
        ("n", "j_power", "h"),
        metadata=_common_meta(
            args, m=args.m,
            verdict="all-zero" if tabs.regular_verdict else "NONZERO",
        ),
    )
    for row in tabs.regular_table:
        for cell in row["cells"]:
            reg.set((row["n"], cell["j_power"], 0), cell["h0"])
            reg.set((row["n"], cell["j_power"], 1), cell["h1"])
    selected = TWISTS[args.convention]
    twist = DimensionTable(
        "ample-twist cohomology under both sign conventions", ("sign", "j", "h"),
        metadata=_common_meta(
            args, j_cutoff=args.j_cutoff,
            k0_plus=tabs.k0_dims["plus"], k0_minus=tabs.k0_dims["minus"],
            km1_plus=tabs.km1_dims["plus"], km1_minus=tabs.km1_dims["minus"],
            selected_twist=selected,
            k0_selected=tabs.k0_dims[selected],
            km1_selected=tabs.km1_dims[selected],
            findings="; ".join(tabs.findings) if tabs.findings else "none",
        ),
    )
    dual = DimensionTable(
        "square-zero analogue: twisted cohomology cells", ("sign", "j", "p"),
        metadata=_common_meta(args),
    )
    for row in tabs.twist_table:
        sign = 1 if row["convention"] == "plus" else -1
        for table in (twist, dual):
            table.set((sign, row["j"], 0), row["h0"])
            table.set((sign, row["j"], 1), row["h1"])
    _emit(args, [reg, twist, dual])
    return 0


def cmd_smoothness(args):
    report = corpus_mod.smoothness_suite(args.corpus)
    lines = []
    for row in report.rows:
        witness = f"witness i={row.witness[0]} w={row.witness[1]}" if row.witness else "NONE"
        lines.append(
            f"{row.name:12s} {row.jacobian:8s} d={row.krull_dim} {witness}"
            + (f"  [{row.note}]" if row.note else "")
        )
    if args.format == "json":
        obj = {
            "passed": report.passed,
            "violations": report.violations,
            "rows": [
                {"name": r.name, "jacobian": r.jacobian, "krull_dim": r.krull_dim,
                 "witness": list(r.witness) if r.witness else None,
                 "has_square": r.has_square, "note": r.note}
                for r in report.rows
            ],
        }
        sys.stdout.write(canonical_json(obj))
    else:
        sys.stdout.write("\n".join(lines) + "\n")
        for v in report.violations:
            sys.stdout.write(f"VIOLATION: {v}\n")
    return 0 if report.passed else 1


def cmd_report(args):
    resolve_jobs(args.jobs)
    entries = corpus_mod.load_corpus(args.corpus)
    results = map_tasks(corpus_mod.verify_entry, entries, args.jobs)
    bundle = {}
    failures = []
    for entry, (observed, diffs) in zip(entries, results):
        bundle[entry.name] = observed
        if diffs:
            failures.append({"entry": entry.name, "diffs": diffs})
    obj = {"entries": bundle, "failures": failures}
    sys.stdout.write(canonical_json(obj))
    return 0 if not failures else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="khh",
        description="exact per-weight homology and K-invariant workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=False, square=False, curve=False, conv=False, jobs=False,
               formats=("text", "json", "csv")):
        # every verb parses every format, so one it does not write exits 3
        p.add_argument("--format", choices=("text", "json", "csv"), default=formats[0])
        p.set_defaults(formats=formats)
        if conv:
            p.add_argument(
                "--convention", choices=sorted({*CONVENTIONS, *TWISTS}), default="standard"
            )
        if jobs:
            p.add_argument("--jobs", type=int, default=None)
        if algebra:
            p.add_argument("--algebra", required=True)
        if square:
            p.add_argument("--square", required=True)
        if curve:
            p.add_argument("--curve", required=True)

    p = sub.add_parser("hh", help="Hochschild homology dims per weight")
    common(p, algebra=True, conv=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("hc", help="cyclic homology dims per weight")
    common(p, algebra=True, conv=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("hodge", help="Hodge piece dims per weight")
    common(p, algebra=True, conv=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.set_defaults(func=cmd_hodge)

    p = sub.add_parser("kunneth", help="polynomial-extension comparison")
    common(p, algebra=True, conv=True, jobs=True)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--t-cutoff", type=int, default=4)
    p.set_defaults(func=cmd_kunneth)

    p = sub.add_parser("cycles", help="cusp cycle verification and sign search")
    common(p, formats=("text", "json"))
    p.add_argument("--i-max", type=int, default=2)
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("tk", help="typical pieces of a resolution square")
    common(p, square=True, conv=True)
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--formula-check", action="store_true")
    p.add_argument("--nk0", action="store_true")
    p.add_argument("--degree-cutoff", type=int, default=None)  # --nk0 only; 6 by default
    p.set_defaults(func=cmd_tk)

    p = sub.add_parser("pic", help="Picard growth over polynomial extensions")
    common(p, square=True, conv=True)
    p.add_argument("--poly-vars", type=int, default=1)
    p.add_argument("--degree-cutoff", type=int, default=6)
    p.add_argument("--max-weight", type=int, default=None)
    p.set_defaults(func=cmd_pic)

    p = sub.add_parser("cdh-omega", help="descent cohomology of form modules")
    common(p, square=True, conv=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.set_defaults(func=cmd_cdh_omega)

    p = sub.add_parser("curve", help="curve sanity and torsion certification")
    common(p, curve=True, formats=("text", "json"))
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("cuspbundle", help="curve cohomology tables")
    common(p, curve=True, conv=True)
    p.add_argument("--n-min", type=int, default=-1)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--j-cutoff", type=int, default=4)
    p.set_defaults(func=cmd_cuspbundle)

    p = sub.add_parser("smoothness", help="main property suite over a corpus")
    common(p, formats=("text", "json"))
    p.add_argument("--corpus", default=None)
    p.set_defaults(func=cmd_smoothness)

    p = sub.add_parser("report", help="full corpus report (canonical JSON)")
    common(p, jobs=True, formats=("json",))
    p.add_argument("--corpus", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.format not in args.formats:
            raise PreconditionError(
                f"khh {args.command} writes {' or '.join(args.formats)}, "
                f"not {args.format}"
            )
        return args.func(args)
    except KhhError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
