"""Process-pool fan-out: one helper, `map_tasks`, for every parallel verb.

`map_cells` ships one task per algebra and slice weight.  Weights never
mix in the bar complex, its B operator or the idempotents, so a task holds
every (kind, n) cell of its weight.  `verify_kunneth` hands it the cells of
A[t], at weights (w, j), and then the base side, the cells of A at weights
(w,) that the Kunneth formula reads.  The base tasks go out after every
A[t] task, so the caller is left no serial tail and a worker swaps its
warm algebra at most once, from A[t] to A.

A task carries its algebra as `GradedAlgebra.presentation`: the tuple
(name, generators, weights, relations) that `GradedAlgebra(*presentation)`
rebuilds.  A process that runs weight tasks (a pool worker, or the caller
at one job) keeps one algebra, built from the last task's presentation and
rebuilt only when a task's presentation differs from it in any part.
With it persist the algebra's Groebner basis, its normal-form and
weight-basis caches, and the bar-complex tables every `SliceContext` of
the algebra shares: nf products of monomial pairs and the slot trees of
the bases.  None of these depends on the weight asked or the sign
convention, and each is bounded by the largest weight the process meets.
The HomologyEngine, its slices and its matrices live for one task and are
dropped on return, so a worker's memory is one weight's slices plus those
bounded tables.
`khh report` maps the corpus entries over the same helper.  Results come
back in task order, so reports stay deterministic no matter how many
workers run.
"""

from __future__ import annotations

import functools
import os

from .algebra import GradedAlgebra
from .errors import PreconditionError, SanityError


def resolve_jobs(jobs: int | None) -> int:
    """Worker count: jobs, else the cores (at most 8); jobs below 1 is rejected."""
    if jobs is None:
        return min(8, os.cpu_count() or 1)
    if jobs < 1:
        raise PreconditionError(f"jobs must be at least 1, got {jobs}")
    return jobs


def map_tasks(fn, tasks, jobs: int | None) -> list:
    """[fn(t) for t in tasks], in task order, over a pool of `jobs` processes.

    With one job (or one task) everything runs in this process.  An
    exception raised by fn reaches the caller unchanged, and the tasks not
    yet started are cancelled.
    """
    tasks = list(tasks)
    njobs = min(resolve_jobs(jobs), len(tasks))
    if njobs <= 1:
        return [fn(t) for t in tasks]
    # imported here so that the CLI's early `resolve_jobs` check loads no pool
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=njobs)
    try:
        return list(pool.map(fn, tasks))
    finally:
        pool.shutdown(cancel_futures=True)


def _run_cell(engine, kind, n, w):
    """One cell's dimension, or None where an exact sanity identity failed."""
    try:
        if kind == "hh":
            return engine.hh_dim(n, w)
        if kind == "hc":
            return engine.hc_dim(n, w)
        raise ValueError(f"unknown cell kind {kind!r}")
    except SanityError:
        return None  # reported as a located sanity failure by the caller


@functools.lru_cache(maxsize=1)
def _algebra(presentation) -> GradedAlgebra:
    """The process's warm algebra: rebuilt only when the presentation differs."""
    return GradedAlgebra(*presentation)


def _run_weight(task):
    """The cells of one slice weight, on an engine that lives for this task.

    The algebra is the process's warm one when the presentation equals the
    last task's, so its caches and shared slice tables carry over from task
    to task; any other presentation replaces it.  Engines are never kept:
    their slices and matrices belong to this task's weight alone.
    """
    from .homology import HomologyEngine

    presentation, conv_name, w, cells = task
    engine = HomologyEngine(_algebra(presentation), conv_name)
    return [_run_cell(engine, kind, n, w) for kind, n in cells]


def map_cells(algebras, conv_name: str, cells, jobs: int | None):
    """Compute [(part, kind, n, w)] cells in cell order: the `kind` cell of
    degree n at slice weight vector w of algebras[part].

    One task holds the cells of one (part, w).  Tasks go out part by part,
    largest weights of a part first so that its long poles start at once;
    so a worker meets each algebra in one stretch and swaps its warm
    algebra at most once per part.  Results are dims, or None where an
    exact sanity identity failed (corrupt conventions).
    """
    by_weight: dict = {}
    for part, kind, n, w in cells:
        by_weight.setdefault((part, w), []).append((kind, n))
    keys = sorted(by_weight, key=lambda pw: (pw[0], -sum(pw[1])))
    tasks = [
        (algebras[part].presentation, conv_name, w, by_weight[part, w]) for part, w in keys
    ]
    values = {}
    for (part, w), results in zip(keys, map_tasks(_run_weight, tasks, jobs)):
        for (kind, n), value in zip(by_weight[part, w], results):
            values[(part, kind, n, w)] = value
    return [values[cell] for cell in cells]
