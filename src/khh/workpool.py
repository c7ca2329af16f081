"""Process-pool fan-out for per-cell slice computations.

Cells for distinct (n, w) are independent; the algebra is shipped to the
workers by its presentation data and each worker keeps one engine per
(algebra, convention) so bases and matrices are reused within a process.
Results come back in task order, so reports stay deterministic no matter
how many workers run.
"""

from __future__ import annotations

import os

from .algebra import GradedAlgebra
from .errors import PreconditionError

_ENGINES: dict = {}


def resolve_jobs(jobs: int | None) -> int:
    """Worker count: jobs, else KHH_JOBS, else the cores (at most 8).

    A count below 1, or a KHH_JOBS that is not an integer, is rejected.
    """
    source = "jobs"
    if jobs is None:
        env = os.environ.get("KHH_JOBS")
        if not env:
            return min(8, os.cpu_count() or 1)
        source = "KHH_JOBS"
        try:
            jobs = int(env)
        except ValueError:
            raise PreconditionError(f"KHH_JOBS={env!r} is not an integer") from None
    if jobs < 1:
        raise PreconditionError(f"{source} must be at least 1, got {jobs}")
    return jobs


def _algebra_payload(algebra: GradedAlgebra):
    rels = tuple(
        tuple(sorted((m, (c.numerator, c.denominator)) for m, c in rel.items()))
        for rel in algebra.relations
    )
    return (algebra.name, algebra.gens, algebra.weights, rels, algebra.weight_rank)


def _rebuild_algebra(payload) -> GradedAlgebra:
    from .rationals import QQ

    name, gens, weights, rels, rank = payload
    relations = [{m: QQ(num, den) for m, (num, den) in rel} for rel in rels]
    return GradedAlgebra(name, gens, weights, relations, _rank=rank)


def _engine_for(payload, conv_name):
    from .homology import HomologyEngine

    key = (payload, conv_name)
    engine = _ENGINES.get(key)
    if engine is None:
        engine = HomologyEngine(_rebuild_algebra(payload), conv_name)
        _ENGINES[key] = engine
    return engine


def _run_cell(args):
    payload, conv_name, kind, n, w = args
    from .errors import SanityError

    engine = _engine_for(payload, conv_name)
    try:
        if kind == "hh":
            return engine.hh_dim(n, w)
        if kind == "hc":
            return engine.hc_dim(n, w)
        raise ValueError(f"unknown cell kind {kind!r}")
    except SanityError:
        return None  # reported as a located sanity failure by the caller


def map_cells(algebra: GradedAlgebra, conv_name: str, cells, jobs: int | None):
    """Compute [(kind, n, w, j)] cells of A (bigraded) in task order.

    Cells are (kind, n, w, j) with the slice weight vector (w, j); results
    are dims or None where an exact sanity identity failed (corrupt
    conventions).
    """
    payload = _algebra_payload(algebra)
    tasks = [(payload, conv_name, kind, n, (w, j)) for (kind, n, w, j) in cells]
    njobs = resolve_jobs(jobs)
    if njobs <= 1 or len(tasks) <= 2:
        return [_run_cell(t) for t in tasks]
    # imported here so that the CLI's early `resolve_jobs` check loads no pool
    from concurrent.futures import ProcessPoolExecutor

    # largest weights first so the long poles start immediately
    order = sorted(range(len(tasks)), key=lambda i: -(sum(tasks[i][4]) + tasks[i][3]))
    results: list = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=njobs) as pool:
        for idx, value in zip(order, pool.map(_run_cell, [tasks[i] for i in order])):
            results[idx] = value
    return results
