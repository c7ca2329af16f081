"""Polynomial-extension comparison at desk cutoffs plus negative controls.

The full-size run at (n, w, j) <= (3, 12, 4) lives in the acceptance
suite; these tests keep the cutoffs small enough for quick iteration.
"""

import json
import subprocess
import sys

from hypothesis import given, seed, settings

from conftest import algebra_of, read_corpus_text, small_algebras
from khh import workpool
from khh.algebra import GradedAlgebra, parse_algebra
from khh.homology import HomologyEngine, verify_kunneth


def test_base_case_ground_field():
    q = GradedAlgebra("q", (), (), [])
    report = verify_kunneth(q, t_cutoff=3, n_max=3, w_max=0, jobs=1)
    assert report.passed


def test_cusp_small_window(cusp):
    report = verify_kunneth(cusp, t_cutoff=2, n_max=2, w_max=7, jobs=1)
    assert report.passed
    assert len(report.cells) == 2 * 3 * 8 * 3


@settings(max_examples=10)
@seed(0)
@given(small_algebras())
def test_kunneth_holds_on_random_algebras(spec):
    # HH and HC of A[t] against the formula on A, at (n, w, j) <= (2, 5, 2),
    # through the pool at two jobs
    report = verify_kunneth(algebra_of(spec), t_cutoff=2, n_max=2, w_max=5, jobs=2)
    assert report.passed, spec


def test_free1_small_window(free1):
    report = verify_kunneth(free1, t_cutoff=2, n_max=2, w_max=6, jobs=1)
    assert report.passed


def test_t2t5_small_window():
    algebra = parse_algebra("algebra t2t5\nvars x:2 y:5\nrel y^2 - x^5")
    report = verify_kunneth(algebra, t_cutoff=1, n_max=2, w_max=7, jobs=1)
    assert report.passed


def test_corrupted_b_fails_with_located_cells(cusp):
    report = verify_kunneth(
        cusp, t_cutoff=1, n_max=2, w_max=5, conv="corrupt-b-drop-wrap", jobs=1
    )
    assert not report.passed
    bad = report.mismatches
    # every failing cell carries its coordinates; both genuine mismatches and
    # slices whose sanity identities broke are reported
    assert all(hasattr(c, "n") and hasattr(c, "w") and hasattr(c, "j") for c in bad)
    assert any(c.status == "mismatch" for c in bad)
    assert any(c.status == "sanity" for c in bad)


def test_parallel_matches_serial(cusp):
    serial = verify_kunneth(cusp, t_cutoff=1, n_max=1, w_max=5, jobs=1)
    parallel = verify_kunneth(cusp, t_cutoff=1, n_max=1, w_max=5, jobs=2)
    assert [(c.kind, c.n, c.w, c.j, c.left, c.right) for c in serial.cells] == [
        (c.kind, c.n, c.w, c.j, c.left, c.right) for c in parallel.cells
    ]


def test_parallel_matches_serial_on_corrupt_convention(cusp):
    def cells(jobs):
        report = verify_kunneth(
            cusp, t_cutoff=1, n_max=2, w_max=5, conv="corrupt-b-drop-wrap", jobs=jobs
        )
        return [(c.kind, c.n, c.w, c.j, c.left, c.right, c.status) for c in report.cells]

    serial = cells(1)
    assert any(c[-1] == "sanity" and c[4] is None for c in serial)
    assert serial == cells(2)


def test_base_side_runs_in_the_pool_after_every_extension_task(cusp, monkeypatch):
    # one engine per weight task: at one job every cusp[t] task comes before
    # any task of the base side, on two warm algebras built from the tasks'
    # presentations, cusp[t] then cusp; at two jobs the caller builds none
    built, warm = [], []
    init = HomologyEngine.__init__

    def recording(self, algebra, conv="standard"):
        built.append(algebra.name)
        init(self, algebra, conv)

    def building(*presentation):
        warm.append(presentation[0])
        return GradedAlgebra(*presentation)

    monkeypatch.setattr(HomologyEngine, "__init__", recording)
    monkeypatch.setattr(workpool, "GradedAlgebra", building)
    for conv in ("standard", "corrupt-b-drop-wrap"):
        cells = {}
        for jobs in (1, 2):
            built.clear()
            warm.clear()
            report = verify_kunneth(cusp, t_cutoff=1, n_max=2, w_max=5, conv=conv, jobs=jobs)
            cells[jobs] = [(c.kind, c.n, c.w, c.j, c.left, c.right, c.status) for c in report.cells]
            if jobs == 1:
                assert built == ["cusp[t]"] * (6 * 2) + ["cusp"] * 6, conv
                assert warm == ["cusp[t]", "cusp"], conv
            else:
                assert built == warm == [], conv
        assert cells[1] == cells[2], conv


# one cell list per case, computed in an interpreter of its own
_FRESH_RUN = """
import json, sys
from khh.algebra import parse_algebra
from khh.homology import verify_kunneth
algebra = parse_algebra(sys.argv[1])
report = verify_kunneth(algebra, t_cutoff=1, n_max=2, w_max=5, conv=sys.argv[2], jobs=1)
print(json.dumps([[c.kind, c.n, c.w, c.j, c.left, c.right, c.status] for c in report.cells]))
"""


def test_warm_worker_state_does_not_leak_between_runs():
    # a weight task reuses its process's algebra when the payload is the
    # same; every run below must match a fresh interpreter, including one
    # whose algebra shares cusp's name and not its relation
    cusp = read_corpus_text("cusp", "algebra.alg")
    planted = cusp.replace("rel y^2 - x^3", "rel x*y")
    assert planted != cusp
    runs = [
        (cusp, "standard"),
        (read_corpus_text("free1", "algebra.alg"), "standard"),
        (cusp, "corrupt-b-drop-wrap"),
        (cusp, "standard"),
        (planted, "standard"),
    ]
    fresh = {}
    for run in runs:
        if run not in fresh:
            out = subprocess.run(
                [sys.executable, "-c", _FRESH_RUN, *run],
                capture_output=True, text=True, check=True,
            )
            fresh[run] = [tuple(cell) for cell in json.loads(out.stdout)]
    assert fresh[(planted, "standard")] != fresh[(cusp, "standard")]
    for jobs in (1, 2):
        for text, conv in runs:
            algebra = parse_algebra(text)
            report = verify_kunneth(algebra, t_cutoff=1, n_max=2, w_max=5, conv=conv, jobs=jobs)
            cells = [(c.kind, c.n, c.w, c.j, c.left, c.right, c.status) for c in report.cells]
            assert cells == fresh[(text, conv)], (jobs, text, conv)
