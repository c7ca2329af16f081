"""The contract of `workpool.map_tasks` at two jobs: task order, the first
failing task's own exception, no task started after a failure, no hang on
a dying worker, and no process or thread left behind."""

import os
import signal
import subprocess
import sys
import time

import pytest

from khh.errors import ParseError, WorkerDiedError
from khh.workpool import map_tasks


@pytest.fixture(autouse=True)
def bounded():
    """A pool that hangs fails its test after 60 s instead of stalling the run."""

    def expire(signum, frame):
        raise TimeoutError("map_tasks did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_come_back_in_task_order():
    assert map_tasks(lambda x: x * x, range(12), 2) == [x * x for x in range(12)]
    assert map_tasks(lambda x: -x, [3, 1, 2], 8) == [-3, -1, -2]  # jobs > tasks
    assert_no_children()


def test_claims_serve_more_tasks_than_a_pipe_holds():
    # a 64 KiB pipe holds 16384 four-byte indices
    assert map_tasks(abs, range(-20000, 0), 2) == list(range(20000, 0, -1))
    assert_no_children()


def _sleeps_then(outcome, tmp_path):
    """Task 0 sleeps and then returns or raises `outcome`; task 1 raises
    KeyError at once; every later task leaves a marker file."""

    def fn(i):
        if i == 0:
            time.sleep(0.5)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
        if i == 1:
            raise KeyError("task one")
        (tmp_path / f"ran-{i}").touch()
        return i

    return fn


def test_no_task_starts_after_a_failure(tmp_path):
    # task 0 still runs to its end; tasks 2.. have not started when task 1
    # fails, and none of them ever starts
    with pytest.raises(KeyError, match="task one"):
        map_tasks(_sleeps_then(0, tmp_path), range(8), 2)
    assert list(tmp_path.iterdir()) == []
    assert_no_children()


def test_the_first_failing_task_in_task_order_raises(tmp_path):
    # task 1 fails first in time, task 0 first in task order
    with pytest.raises(ParseError) as info:
        map_tasks(_sleeps_then(ParseError("task zero", 3, 9), tmp_path), range(8), 2)
    assert (info.value.line, info.value.column) == (3, 9)
    assert str(info.value) == "task zero (line 3, col 9)"
    assert list(tmp_path.iterdir()) == []
    assert_no_children()


def test_a_worker_that_exits_without_answering_is_an_error():
    def fn(i):
        if i == 2:
            os._exit(7)
        return i

    with pytest.raises(WorkerDiedError, match="task 2: .* exit status 7"):
        map_tasks(fn, range(6), 2)
    assert_no_children()


def test_an_interrupted_caller_kills_and_reaps_every_worker():
    # the timer is the caller's alone: a forked child inherits no timer
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 0.3)
    with pytest.raises(KeyboardInterrupt):
        map_tasks(time.sleep, [30] * 4, 2)
    assert time.monotonic() - start < 10
    assert_no_children()


_UNFLUSHED = """
import sys
from khh.workpool import map_tasks
sys.stdout.write("before the pool\\n")  # a pipe: held in the buffer
print(map_tasks(abs, [-1, -2, -3], 2))
"""


def test_buffered_stdout_is_written_once():
    out = subprocess.run(
        [sys.executable, "-c", _UNFLUSHED], capture_output=True, text=True, check=True,
        timeout=60,
    )
    assert out.stdout == "before the pool\n[1, 2, 3]\n"


_PARALLEL_RUN = """
import sys, threading
from khh.algebra import parse_algebra
from khh.corpus import default_corpus_dir
from khh.homology import verify_kunneth
cusp = parse_algebra((default_corpus_dir() / "cusp" / "algebra.alg").read_text())
assert verify_kunneth(cusp, t_cutoff=1, n_max=1, w_max=5, jobs=2).passed
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))
print(loaded, threading.active_count())
"""


def test_a_parallel_run_loads_no_executor_and_starts_no_thread():
    out = subprocess.run(
        [sys.executable, "-c", _PARALLEL_RUN], capture_output=True, text=True, check=True,
        timeout=60,
    )
    assert out.stdout == "[] 1\n"
