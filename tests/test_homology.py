"""Slice homology: HH, HC, Hodge splitting, SBI exactness."""

import importlib
import pkgutil

import pytest
from hypothesis import example, given, seed, settings

import khh
from khh import cli, hodge, homology
from khh.algebra import GradedAlgebra, parse_algebra, slice_memo
from khh.barcomplex import BarChain, SliceContext, chain_str
from khh.corpus import default_corpus_dir
from khh.errors import CompositionNonzeroError, OracleDisagreementError, PreconditionError
from khh.homology import HomologyEngine
from khh.kahler import DifferentialForms
from khh.linalg import Factor, SparseMatrix
from conftest import FractionEchelon, algebra_of, hc_space, read_corpus_text, small_algebras


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


def hodge_representatives(engine, n, w, i):
    """Cycles spanning the i-th Hodge piece of HH_n at weight w: the images
    e_n^(i) rep of the HH representatives, in order, kept where their
    classes are independent of the earlier picks."""
    space = engine.hh_space(n, w)
    emat = engine.ctx.idempotent_matrix(n, w, i)
    basis = engine.ctx.basis(n, w)
    picked = []
    ech = FractionEchelon(space.dim)
    for rep in space.reps:
        img = emat.apply(rep)
        if ech.add_row(space.coords(img)) is not None:
            picked.append(BarChain(engine.algebra, n, {basis[r]: c for r, c in img.items()}))
    return picked


def test_hodge_representatives_are_cycles(cusp_engine):
    # HH_2 of the cusp is zero at weight 8, so weight 7 keeps the loop honest
    assert hodge_representatives(cusp_engine, 2, 7, 2)
    for w in (7, 8):
        for rep in hodge_representatives(cusp_engine, 2, w, 2):
            assert cusp_engine.ctx.b_chain(rep).is_zero()


def test_representatives_are_pinned(cusp_engine, free2):
    # which chains come out, not only that they are cycles: frozen from the
    # Fraction echelon so a change of elimination cannot move them
    dim, reps = cusp_engine.hh_slice(1, 5)
    assert dim == 2
    assert [chain_str(r) for r in reps] == ["y[x]", "x[y]"]
    assert hodge_representatives(cusp_engine, 2, 8, 2) == []
    assert [chain_str(c) for c in hodge_representatives(cusp_engine, 2, 7, 2)] == [
        "-x[x|y] + x[y|x]"
    ]
    assert [chain_str(c) for c in hodge_representatives(cusp_engine, 1, 7, 1)] == [
        "x*y[x]", "x^2[y]"
    ]
    free2_engine = HomologyEngine(free2)
    free2_reps = {
        (n, (w,), i): [chain_str(c) for c in chains]
        for n in range(1, 3)
        for w in range(6)
        for i in range(1, n + 1)
        if (chains := hodge_representatives(free2_engine, n, w, i))
    }
    assert free2_reps == {
        (1, (1,), 1): ["[x]", "[y]"],
        (1, (2,), 1): ["x[x]", "x[y]", "y[x]", "y[y]"],
        (1, (3,), 1): ["x^2[x]", "x^2[y]", "x*y[x]", "x*y[y]", "y^2[x]", "y^2[y]"],
        (1, (4,), 1): ["x^3[x]", "x^3[y]", "x^2*y[x]", "x^2*y[y]",
                       "x*y^2[x]", "x*y^2[y]", "y^3[x]", "y^3[y]"],
        (1, (5,), 1): ["x^4[x]", "x^4[y]", "x^3*y[x]", "x^3*y[y]", "x^2*y^2[x]",
                       "x^2*y^2[y]", "x*y^3[x]", "x*y^3[y]", "y^4[x]", "y^4[y]"],
        (2, (2,), 2): ["-[x|y] + [y|x]"],
        (2, (3,), 2): ["-x[x|y] + x[y|x]", "-y[x|y] + y[y|x]"],
        (2, (4,), 2): ["-x^2[x|y] + x^2[y|x]", "-x*y[x|y] + x*y[y|x]",
                       "-y^2[x|y] + y^2[y|x]"],
        (2, (5,), 2): ["-x^3[x|y] + x^3[y|x]", "-x^2*y[x|y] + x^2*y[y|x]",
                       "-x*y^2[x|y] + x*y^2[y|x]", "-y^3[x|y] + y^3[y|x]"],
    }


def _lose_last_free_column(monkeypatch):
    free_columns = Factor.free_columns
    monkeypatch.setattr(Factor, "free_columns", lambda f: free_columns(f)[:-1])


def _drop_last_boundary_pivot(monkeypatch):
    column_factor = SparseMatrix.column_factor

    def lossy(m, keep=None):
        # a proper factor of every boundary pivot but the last, in pivot order
        factor = Factor(m.rows)
        for c, row in list(column_factor(m, keep).pivot_rows.items())[:-1]:
            factor._append(dict(row), c)
        return factor

    monkeypatch.setattr(SparseMatrix, "column_factor", lossy)


@pytest.mark.parametrize("kind, plant", [
    ("hh", _lose_last_free_column),
    ("hh", _drop_last_boundary_pivot),
    ("hc", _drop_last_boundary_pivot),
])
def test_quotient_dim_checked_against_ranks(cusp, monkeypatch, kind, plant):
    # a fault planted in the vector path must not pass as a class count; at
    # (1, 5) b_1 vanishes, so all three basis chains are free coordinates,
    # and the boundary (1, 1, -1) meets each of them: losing any one leaves
    # two coordinates and one boundary, hence one class
    counts = {
        ("hh", _lose_last_free_column): "1 classes .* dimension 2",
        ("hh", _drop_last_boundary_pivot): "3 classes .* dimension 2",
        ("hc", _drop_last_boundary_pivot): "2 classes .* dimension 1",
    }[kind, plant]
    plant(monkeypatch)
    engine = HomologyEngine(cusp)
    with pytest.raises(OracleDisagreementError, match=f"{counts} from the ranks"):
        engine.hh_space(1, 5) if kind == "hh" else hc_space(engine, 1, 5)
    if kind == "hh":
        algebra = str(default_corpus_dir() / "cusp" / "algebra.alg")
        assert cli.main(["hodge", "--algebra", algebra, "--n", "1", "--max-weight", "5"]) == 5


def sbi_check(engine, n, w) -> dict:
    """Exactness of HH_n -> HC_n -> HC_{n-2} -> HH_{n-1} at the middle."""
    w = engine.algebra._coerce_weight(w)
    hh_n = engine.hh_space(n, w)
    hc_n = hc_space(engine, n, w)
    hc_n2 = hc_space(engine, n - 2, w) if n >= 2 else None
    hh_n1 = engine.hh_space(n - 1, w) if n >= 1 else None
    # T_n = C_n + T_{n-2}: I includes the C_n slot, S keeps the other
    one = SparseMatrix.identity
    c_n = engine.ctx.dim(n, w)
    t_n = [c_n, hc_n.ambient_dim - c_n]
    inc = SparseMatrix.from_blocks(t_n, [c_n], [(0, 0, one(c_n))])
    i_star = hh_n.induced_matrix(inc, hc_n)
    result = {"n": n, "w": w}
    if hc_n2 is not None:
        proj = SparseMatrix.from_blocks(t_n[1:], t_n, [(0, 1, one(t_n[1]))])
        s_star = hc_n.induced_matrix(proj, hc_n2)
        # connecting map: B of the C_{n-2} slot of a T_{n-2} cycle
        c_n2 = engine.ctx.dim(n - 2, w)
        t_n2 = [c_n2, hc_n2.ambient_dim - c_n2]
        lead = SparseMatrix.from_blocks([c_n2], t_n2, [(0, 0, one(c_n2))])
        del_star = hc_n2.induced_matrix(engine.ctx.B_matrix(n - 2, w) @ lead, hh_n1)
        exact_at_hcn = (
            (s_star @ i_star).is_zero()
            and i_star.rank() == hc_n.dim - s_star.rank()
        )
        exact_at_hcn2 = (
            (del_star @ s_star).is_zero()
            and s_star.rank() == hc_n2.dim - del_star.rank()
        )
        result.update(exact_at_hc_n=exact_at_hcn, exact_at_hc_n2=exact_at_hcn2)
    else:
        # short range: exactness at HC_n degenerates to surjectivity of I
        result.update(exact_at_hc_n=i_star.rank() == hc_n.dim, exact_at_hc_n2=True)
    return result


def test_sbi_exactness(cusp_engine, free1_engine, dualnum):
    # cusp (5, 11) and dualnum (4, 3), (6, 5) have HC_{n-2} = HH_{n-1} = Q
    # with T_{n-2} in two or more blocks, so exactness there needs the
    # connecting map to read the leading block; at cone (2, 3) it needs S
    # to drop the leading block of T_n
    cone_engine = HomologyEngine(parse_algebra(read_corpus_text("cone", "algebra.alg")))
    for engine, cells in [
        (cusp_engine, [(1, 4), (2, 5), (2, 6), (3, 8), (2, 7), (5, 11)]),
        (free1_engine, [(1, 3), (2, 4), (3, 5)]),
        (HomologyEngine(dualnum), [(4, 3), (6, 5)]),
        (cone_engine, [(2, 3)]),
    ]:
        for n, w in cells:
            result = sbi_check(engine, n, w)
            assert result["exact_at_hc_n"] and result["exact_at_hc_n2"], (n, w)


@settings(max_examples=25)
@seed(0)
@given(small_algebras())
@example(((2, 3), ((((0, 2), 1), ((3, 0), -1)),)))  # the cusp y^2 = x^3
def test_sbi_exact_on_random_algebras(spec):
    # HH_n -> HC_n -> HC_{n-2} -> HH_{n-1} is exact at both HC positions on
    # every slice (n, w) <= (4, 6); this drives hc_space and the total complex
    engine = HomologyEngine(algebra_of(spec))
    for w in range(7):
        for n in range(5):
            result = sbi_check(engine, n, w)
            assert result["exact_at_hc_n"] and result["exact_at_hc_n2"], (spec, n, w)


def test_report_table_consistency(cusp_engine):
    # the Hodge pieces of every HH slice sum to its dimension
    for n in range(1, 3):
        for w in range(9):
            if cusp_engine.hh_dim(n, w):
                assert sum(cusp_engine.hodge_split(n, w).dims) == cusp_engine.hh_dim(n, w)
    assert hodge_representatives(cusp_engine, 1, 5, 1)


def test_slice_memo(cusp, cusp_square, monkeypatch):
    # an int weight and its one-vector are one entry
    ctx = SliceContext(cusp)
    assert ctx.b_matrix(2, 5) is ctx.b_matrix(2, (5,))
    engine = HomologyEngine(cusp)
    assert engine.hh_space(1, 5) is engine.hh_space(1, (5,))
    # a repeated call builds nothing: every builder below it is gone
    first = [
        engine.hh_dim(2, 7), engine.hc_dim(2, 7),
        engine.hodge_class_matrix(2, 7, 1), engine.total_matrix(3, 7),
        engine.ctx.cyclic_b_matrix(2, 7), engine.ctx.cyclic_basis(2, 7),
    ]

    def build(*args, **kwargs):
        raise AssertionError("rebuilt a memoized slice value")

    monkeypatch.setattr(SparseMatrix, "from_images", build)
    monkeypatch.setattr(SparseMatrix, "rank", build)
    monkeypatch.setattr(SparseMatrix, "from_blocks", build)
    monkeypatch.setattr(homology, "QuotientSpace", build)
    monkeypatch.setattr(hodge, "idempotent_matrix", build)
    again = [
        engine.hh_dim(2, (7,)), engine.hc_dim(2, 7),
        engine.hodge_class_matrix(2, 7, 1), engine.total_matrix(3, 7),
        engine.ctx.cyclic_b_matrix(2, 7), engine.ctx.cyclic_basis(2, 7),
    ]
    assert all(a is b for a, b in zip(first, again))
    # a stored weight tuple is served without coercing it again ...
    monkeypatch.setattr(cusp, "_coerce_weight", build)
    assert ctx.b_matrix(2, (5,)) is ctx.b_matrix(2, (5,))
    monkeypatch.undo()
    # ... and a negative or wrong-rank tuple beside it is still rejected
    for bad in ((-5,), (5, 0)):
        with pytest.raises(PreconditionError):
            ctx.b_matrix(2, bad)
    # a negative weight is rejected at every memoized entry point
    entry_points = [
        (ctx, "basis", (1, -1)), (ctx, "index", (1, -1)),
        (ctx, "b_matrix", (1, -1)), (ctx, "B_matrix", (1, -1)),
        (ctx, "idempotent_matrix", (1, -1, 1)), (ctx, "cyclic_b_matrix", (1, -1)),
        (ctx, "cyclic_index", (1, -1)), (ctx, "cyclic_basis", (1, -1)),
        (ctx, "holds", ("b.b", 1, -1)),
        (engine, "hh_dim", (1, -1)), (engine, "hh_space", (1, -1)),
        (engine, "total_matrix", (1, -1)), (engine, "hc_dim", (-1, -3)),
        (engine, "_rank", ("bar", 1, -1)),
        (engine, "hodge_class_matrix", (1, -1, 1)),
        (cusp_square, "chain_map_matrix", (1, -1)), (cusp_square, "cone_matrix", (1, -1)),
        (cusp_square, "cone_holds", (1, -1)), (cusp_square, "class_map", (1, -1)),
        (ctx, "_cyclic", (1, -1)), (ctx, "_face_index", (1, -1)),
        (cusp_square, "_stacked_hom_matrix", (-1,)), (cusp_square, "_stacked_index", (-1,)),
        (cusp_square, "_conductor_slices", (-1,)), (cusp_square, "conductor_quotients", (-1,)),
        (DifferentialForms(cusp), "slice", (1, -1)),
    ]
    for obj, name, args in entry_points:
        with pytest.raises(PreconditionError):
            getattr(obj, name)(*args)
    # ... and the list names every slice_memo method in khh
    memo_code = slice_memo(lambda self, w: None).__code__
    memoized = {
        (cls.__name__, name)
        for info in pkgutil.iter_modules(khh.__path__)
        for module in [importlib.import_module(f"khh.{info.name}")]
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        for name, attr in vars(cls).items()
        if hasattr(attr, "__wrapped__") and getattr(attr, "__code__", None) is memo_code
    }
    assert memoized <= {(type(obj).__name__, name) for obj, name, _ in entry_points}


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


# -- chain-compressed ranks ---------------------------------------------------


@settings(max_examples=80)
@seed(0)
@given(small_algebras())
@example(((2, 3), ((((0, 2), 1), ((3, 0), -1)),)))  # the cusp y^2 = x^3
def test_chained_ranks_equal_full_ranks_of_fresh_matrices(spec):
    # hh_dim and hc_dim rank each b_m, on the bar and on Connes' complex,
    # without the rows at b_{m-1}'s pivot columns; a fresh context's copy
    # of the same matrix factors every row
    algebra = algebra_of(spec)
    engine = HomologyEngine(algebra)
    fresh = SliceContext(algebra)
    for w in range(1, 6):
        for n in range(5):
            engine.hh_dim(n, w)
            engine.hc_dim(n, w)
        for m in range(6):
            for build in ("b_matrix", "cyclic_b_matrix"):
                chained, full = getattr(engine.ctx, build)(m, w), getattr(fresh, build)(m, w)
                assert chained == full
                assert chained.rank() == full.rank(), (spec, build, m, w)


@settings(max_examples=40)
@seed(0)
@given(small_algebras())
@example(((2, 3), ((((0, 2), 1), ((3, 0), -1)),)))  # the cusp y^2 = x^3
def test_corrupt_chained_ranks_equal_full_ranks_of_fresh_matrices(spec):
    # under the corrupt conventions some d_{m-1} d_m != 0, and there the
    # chain must rank d_m in full: its rank is that of a fresh matrix
    algebra = algebra_of(spec)
    for conv in ("corrupt-b-drop-wrap", "corrupt-b-wrap-flip"):
        engine, fresh = HomologyEngine(algebra, conv), HomologyEngine(algebra, conv)
        for w in range(6):
            for complex_ in ("bar", "connes", "total"):
                for m in range(5):
                    full = fresh._differential(complex_, m, w).rank()
                    assert engine._rank(complex_, m, w) == full, (spec, conv, complex_, m, w)


def test_failed_lower_composite_ranks_in_full(cusp):
    # under corrupt-b-wrap-flip, b.b fails at C_2 but holds at C_3 in weight
    # 7, so HH_3 exists there and b_3 must be ranked in full: without the
    # rows at the pivot columns {0, 1, 2, 4, 5} of b_2's full factor it
    # reads rank 1, not 3
    conv, n, w = "corrupt-b-wrap-flip", 3, 7
    engine = HomologyEngine(cusp, conv)
    assert not engine.ctx.holds("b.b", n - 1, w) and engine.ctx.holds("b.b", n, w)
    pivots = engine.ctx.b_matrix(n - 1, w).pivot_columns()
    assert sorted(pivots) == [0, 1, 2, 4, 5]
    assert SliceContext(cusp, conv).b_matrix(n, w).rank(skip_rows=pivots) == 1
    fresh = SliceContext(cusp, conv)
    b_n, b_n1 = fresh.b_matrix(n, w), fresh.b_matrix(n + 1, w)
    assert b_n.rank() == 3
    assert engine.hh_dim(n, w) == fresh.dim(n, w) - b_n.rank() - b_n1.rank() == 0
