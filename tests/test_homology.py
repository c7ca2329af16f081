"""Slice homology: HH, HC, Hodge splitting, SBI exactness."""

import pytest

from khh.algebra import GradedAlgebra
from khh.barcomplex import chain_str
from khh.errors import CompositionNonzeroError
from khh.homology import HomologyEngine


@pytest.fixture(scope="module")
def cusp_engine(cusp):
    return HomologyEngine(cusp)


@pytest.fixture(scope="module")
def free1_engine(free1):
    return HomologyEngine(free1)


def test_hh_free1_line(free1_engine):
    # one class x^{w-1}[x] per positive weight, nothing above degree 1
    for w in range(1, 9):
        assert free1_engine.hh_dim(1, w) == 1
    for w in range(0, 9):
        assert free1_engine.hh_dim(2, w) == 0


def test_hh_free1_representative(free1_engine):
    dim, reps = free1_engine.hh_slice(1, 4)
    assert dim == 1
    assert chain_str(reps[0]) == "x^3[x]"


def test_hh_cusp_weight5(cusp_engine):
    dim, reps = cusp_engine.hh_slice(1, 5)
    assert dim == 2
    assert sorted(chain_str(r) for r in reps) == ["x[y]", "y[x]"]


def test_hc0_is_the_algebra(cusp_engine, cusp):
    for w in range(0, 10):
        assert cusp_engine.hc_dim(0, w) == cusp.dim(w)


def test_hc_of_ground_field_period_classes():
    q = GradedAlgebra("q", (), (), [])
    engine = HomologyEngine(q)
    assert [engine.hc_dim(n, 0) for n in range(6)] == [1, 0, 1, 0, 1, 0]


def test_hc_cusp_weight5(cusp_engine):
    # frozen from the (b, B) total complex: Omega^1/dA has rank 1 here
    assert cusp_engine.hc_dim(1, 5) == 1


def test_connectedness_bound(cusp_engine, free1_engine):
    for n in range(1, 5):
        for w in range(0, n):
            assert free1_engine.hh_dim(n, w) == 0
    # the cusp generators have weight >= 2, so the bound sharpens
    for n in range(1, 5):
        for w in range(0, 2 * n):
            assert cusp_engine.hh_dim(n, w) == 0


def test_hodge_split_free2_concentrates(free2):
    engine = HomologyEngine(free2)
    for w in range(2, 7):
        split = engine.hodge_split(2, w)
        assert split.dims[0] == 0 and split.dims[1] == split.total
        assert split.adams_eigendims == split.dims


def test_hodge_split_single_piece_at_n1(cusp_engine, free1_engine):
    assert cusp_engine.hodge_split(1, 5).dims == (2,)
    assert free1_engine.hodge_split(1, 3).dims == (1,)


def test_hodge_representatives_are_cycles(cusp_engine):
    reps = cusp_engine.hodge_representatives(2, 8, 2)
    for rep in reps:
        assert cusp_engine.ctx.b_chain(rep).is_zero()


def test_sbi_exactness(cusp_engine, free1_engine):
    for n, w in [(1, 4), (2, 5), (2, 6), (3, 8), (2, 7)]:
        result = cusp_engine.sbi_check(n, w)
        assert result["exact_at_hc_n"] and result["exact_at_hc_n2"], (n, w)
    for n, w in [(1, 3), (2, 4), (3, 5)]:
        result = free1_engine.sbi_check(n, w)
        assert result["exact_at_hc_n"] and result["exact_at_hc_n2"], (n, w)


def test_report_table_consistency(cusp_engine):
    report = cusp_engine.report(2, 8, with_reps=True)
    for (n, w), entry in report.table.items():
        if n >= 1:
            assert sum(entry["hodge"]) == entry["hh"]
    assert report.representatives[(1, (5,), 1)]


def test_dual_numbers_hh_growth(dualnum):
    # one class per degree: weight 1 in degree 1 (e[e] bounds [e|e]),
    # weight 3 in degree 2, and so on up the staircase
    engine = HomologyEngine(dualnum)
    dims = [[engine.hh_dim(n, w) for w in range(6)] for n in range(4)]
    assert dims[0] == [1, 1, 0, 0, 0, 0]
    assert dims[1] == [0, 1, 0, 0, 0, 0]
    assert dims[2] == [0, 0, 0, 1, 0, 0]
    for n in range(1, 4):
        assert sum(dims[n]) == 1


@pytest.mark.parametrize("conv", ["corrupt-b-drop-wrap", "corrupt-b-wrap-flip"])
def test_hc_blockwise_check_matches_full_composite(cusp, conv):
    # hc_dim verifies the identities inside D_n D_{n+1} one block at a time;
    # it must fail on exactly the cells where the whole product is nonzero
    engine = HomologyEngine(cusp, conv)
    full, blockwise = [], []
    for n in range(4):
        for w in range(8):
            product = engine.total_matrix(n, w) @ engine.total_matrix(n + 1, w)
            if not product.is_zero():
                full.append((n, w))
            try:
                engine.hc_dim(n, w)
            except CompositionNonzeroError:
                blockwise.append((n, w))
    assert full
    assert blockwise == full
