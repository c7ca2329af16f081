"""Forked fan-out: one helper, `map_tasks`, for every parallel verb.

With one job or one task, `map_tasks` runs every task in the calling
process.  Otherwise it forks min(jobs, tasks) children straight from the
caller, with `os.fork` and no executor, so a child starts with the
caller's modules, the task list and fn as they are, and nothing is pickled
on the way out.

Tasks are claimed in task order from one pipe of 4-byte indices.  The
caller writes into it as many indices as it takes, in writes of at most
PIPE_BUF bytes, which a pipe takes whole or not at all, and tops it up
as the children drain it, so the pipe serves any number of tasks and a
child claims its next task without waiting on the caller.  Each child
has its own answer pipe.  When it claims a task it writes the task's
index there, and when fn returns or raises, the pickled (True, result)
or (False, exception).  A child leaves only through `os._exit`, so no
atexit handler, stdio buffer or test teardown it inherited runs twice.

After a task fails, its child empties the claim pipe before it answers
and the caller writes no more indices, so no task that has not started
is started.  The caller waits for the tasks already running, reaps every
child and then raises the exception of the first failing task in task
order, unchanged, so a worker's parse or precondition error keeps its
exit code.  A child that ends before answering fails its task with
`WorkerDiedError`, which names the task and the exit status; the caller
sees the end of the child's answer pipe, so it never waits on a dead
child.  On any exception in the caller, KeyboardInterrupt included,
every child is killed and reaped: no process outlives the call, and no
thread is started.  A fork copies only the calling thread, so a program
that embeds khh and runs threads of its own must not hold, while it
calls a parallel verb, a lock that fn needs.

`map_cells` ships one task per algebra and slice weight.  Weights never
mix in the bar complex, its B operator or the idempotents, so a task holds
every (kind, n) cell of its weight.  `verify_kunneth` hands it the cells of
A[t], at weights (w, j), and then the base side, the cells of A at weights
(w,) that the Kunneth formula reads.  The base tasks go out after every
A[t] task, so the caller is left no serial tail and a worker swaps its
warm algebra at most once, from A[t] to A.

A task carries its algebra as `GradedAlgebra.presentation`: the tuple
(name, generators, weights, relations) that `GradedAlgebra(*presentation)`
rebuilds.  A process that runs weight tasks (a forked child, or the caller
at one job) keeps one algebra, built from the last task's presentation and
rebuilt only when a task's presentation differs from it in any part; a
child starts with the caller's.
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
from .errors import PreconditionError, SanityError, WorkerDiedError

_SIGKILL = 9  # SIGKILL on every POSIX system; the `signal` module stays unloaded


def resolve_jobs(jobs: int | None) -> int:
    """Worker count: jobs, else the cores (at most 8); jobs below 1 is rejected."""
    if jobs is None:
        return min(8, os.cpu_count() or 1)
    if jobs < 1:
        raise PreconditionError(f"jobs must be at least 1, got {jobs}")
    return jobs


def map_tasks(fn, tasks, jobs: int | None) -> list:
    """[fn(t) for t in tasks], in task order, over `jobs` forked processes.

    With one job (or one task) everything runs in this process.  If fn
    raises, no task that has not started is started, and the exception of
    the first failing task in task order reaches the caller unchanged.
    """
    tasks = list(tasks)
    njobs = min(resolve_jobs(jobs), len(tasks))
    if njobs <= 1:
        return [fn(t) for t in tasks]
    return _fork_map(fn, tasks, njobs)


def _fork_map(fn, tasks, njobs: int) -> list:
    # imported here, so that a serial run loads neither, and before the fork,
    # so that no child imports pickle itself
    import pickle  # noqa: F401
    import select

    claim_r, claim_w = os.pipe()
    os.set_blocking(claim_w, False)  # the caller's end alone: children read blocking
    children = {}  # answer pipe -> [pid, unparsed bytes, index of the task it runs]
    results, failures = {}, {}
    queued = 0  # indices written to the claim pipe so far, a prefix of the task order

    def close_claims():
        # a child that reads the empty pipe after this gets EOF, and exits
        nonlocal claim_w
        if claim_w is not None:
            os.close(claim_w)
            claim_w = None

    def queue():
        # as many indices as the pipe takes, in writes of at most PIPE_BUF
        # bytes, which a pipe takes whole or not at all
        nonlocal queued
        while queued < len(tasks):
            stop = min(len(tasks), queued + select.PIPE_BUF // 4)
            try:
                os.write(claim_w, b"".join(i.to_bytes(4, "little") for i in range(queued, stop)))
            except BlockingIOError:
                return
            queued = stop
        close_claims()

    try:
        for _ in range(njobs):
            answer_r, answer_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(answer_r)
                os.close(answer_w)
                raise
            if pid == 0:
                status = 1
                try:
                    for fd in (claim_w, answer_r, *children):
                        os.close(fd)
                    _serve(fn, tasks, claim_r, answer_w)
                    status = 0
                finally:
                    os._exit(status)
            os.close(answer_w)
            children[answer_r] = [pid, bytearray(), None]
        queue()
        while children:
            writing = [claim_w] if claim_w is not None else []
            readable, writable, _ = select.select(list(children), writing, [])
            if writable:
                queue()
            for fd in readable:
                child = children[fd]
                data = os.read(fd, 1 << 16)
                if data:
                    child[1] += data
                    for i, ok, value in _answers(child):
                        (results if ok else failures)[i] = value
                    continue
                pid, _, i = child
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                os.close(fd)
                del children[fd]
                if i is not None or status != 0:
                    how = f"exit status {status}" if status >= 0 else f"signal {-status}"
                    if i is None:  # keyed after every task, so a task's own error wins
                        failures[len(tasks)] = WorkerDiedError(
                            f"a worker process ended with {how} between tasks")
                    else:
                        failures[i] = WorkerDiedError(
                            f"task {i}: its worker process ended with {how} before answering")
            if failures and claim_w is not None:
                # no unstarted task starts: no more indices, and none left queued
                close_claims()
                while os.read(claim_r, 1 << 16):
                    pass
    except BaseException:
        for pid, _, _ in children.values():
            try:
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)
            except OSError:  # already reaped
                pass
        raise
    finally:
        for fd in (claim_r, claim_w, *children):
            if fd is not None:
                os.close(fd)
    if failures:
        raise failures[min(failures)]
    return [results[i] for i in range(len(tasks))]


def _serve(fn, tasks, claim_r, answer_w):
    """A child's loop: claim the next index, announce it, run it, answer.

    Every claim and every announcement is 4 bytes, and the claim pipe only
    ever holds whole indices, so two children never split one.  After its
    first failing task a child empties the claim pipe, so that no other
    child starts a task, before it answers; then it stops.
    """
    import pickle

    while True:
        claim = os.read(claim_r, 4)
        if not claim:
            return
        os.write(answer_w, claim)
        try:
            answer = (True, fn(tasks[int.from_bytes(claim, "little")]))
        except BaseException as exc:
            answer = (False, exc)
        try:
            blob = pickle.dumps(answer, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            answer = (False, SanityError(f"a task's answer cannot be pickled: {exc!r}"))
            blob = pickle.dumps(answer, pickle.HIGHEST_PROTOCOL)
        if not answer[0]:
            while os.read(claim_r, 1 << 16):
                pass
        frame = memoryview(len(blob).to_bytes(8, "little") + blob)
        while frame:
            frame = frame[os.write(answer_w, frame):]
        if not answer[0]:
            return


def _answers(child):
    """The (index, ok, value) answers complete in a child's unparsed bytes."""
    import pickle

    buf = child[1]
    while True:
        if child[2] is None:
            if len(buf) < 4:
                return
            child[2] = int.from_bytes(buf[:4], "little")
            del buf[:4]
        if len(buf) < 8:
            return
        end = 8 + int.from_bytes(buf[:8], "little")
        if len(buf) < end:
            return
        ok, value = pickle.loads(buf[8:end])
        del buf[:end]
        i, child[2] = child[2], None
        yield i, ok, value


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
