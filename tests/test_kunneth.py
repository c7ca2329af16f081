"""Polynomial-extension comparison at desk cutoffs plus negative controls.

The full-size run at (n, w, j) <= (3, 12, 4) lives in the acceptance
suite; these tests keep the cutoffs small enough for quick iteration.
"""

from khh.algebra import GradedAlgebra, parse_algebra
from khh.homology import verify_kunneth


def test_base_case_ground_field():
    q = GradedAlgebra("q", (), (), [])
    report = verify_kunneth(q, t_cutoff=3, n_max=3, w_max=0, jobs=1)
    assert report.passed


def test_cusp_small_window(cusp):
    report = verify_kunneth(cusp, t_cutoff=2, n_max=2, w_max=7, jobs=1)
    assert report.passed
    assert len(report.cells) == 2 * 3 * 8 * 3


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
