"""One round of one benchmark workload, in a fresh interpreter.

Run by run.py as `python3 bench/worker.py --workload NAME --jobs N
[--corpus DIR] [--trace SPANS_FILE] [--setup-only]` from the root of a
checkout.  Set-up (interpreter start, `import khh`, reading and parsing
the inputs) ends at the `ready_at` stamp, a CLOCK_MONOTONIC reading that
run.py subtracts from its own stamp taken just before it started us.
The workload call is then timed alone: wall seconds, CPU seconds of this
process and of the pool workers it reaped, and the largest resident set
among them.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# workload -> (corpus algebra, n_max, w_max, t_cutoff) of its Kunneth grid
KUNNETH = {
    "kunneth-cusp": ("cusp", 3, 9, 4),
    "kunneth-free1": ("free1", 3, 6, 4),
}


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup(workload, corpus):
    """Import khh and parse the inputs; returns the workload call."""
    sys.path.insert(0, str(ROOT / "src"))
    import khh  # noqa: F401  (the import is part of set-up)

    if workload in KUNNETH:
        from khh.algebra import parse_algebra
        from khh.corpus import default_corpus_dir
        from khh.homology import verify_kunneth

        name, n_max, w_max, t_cutoff = KUNNETH[workload]
        algebra = parse_algebra((default_corpus_dir() / name / "algebra.alg").read_text())

        def call(jobs):
            report = verify_kunneth(algebra, t_cutoff=t_cutoff, n_max=n_max,
                                    w_max=w_max, jobs=jobs)
            cells = [[c.kind, c.n, c.w, c.j, c.left, c.right, c.status]
                     for c in report.cells]
            return {"cells": cells, "passed": report.passed}

        return call
    if workload == "report":
        from khh import cli

        def call(jobs):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["report", "--format", "json", "--jobs", str(jobs),
                                 "--corpus", corpus])
            text = out.getvalue()
            return {"exit_code": code, "stdout": text}

        return call
    raise SystemExit(f"unknown workload {workload!r}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--corpus", default=None)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    call = setup(args.workload, args.corpus)
    ready_at = time.perf_counter()
    result = {"ready_at": ready_at}
    if args.setup_only:
        print(json.dumps(result))
        return

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    output = call(args.jobs)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0

    result.update(wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=_peak_rss_mb(),
                  output=output)
    if args.workload == "report":
        result["stdout_sha256"] = hashlib.sha256(output["stdout"].encode()).hexdigest()
    if tracer is not None:
        entries = sorted(p.name for p in Path(args.corpus).iterdir()) if args.corpus else []
        result["layers"] = tracer.layer_metrics(entries, wall_s)
        result["spans"] = len(tracer.start)
        tracer.dump(args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
