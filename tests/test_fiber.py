"""Resolution squares: fibers, typical pieces, Picard and NK_0 machinery."""

from collections import Counter
from math import gcd

import pytest
from hypothesis import given, seed, settings, strategies as st

from khh import cli
from khh.rationals import QQ
from khh.algebra import GradedHom, parse_algebra
from khh.linalg import QuotientSpace, SparseMatrix
from khh import fiber
from khh.fiber import (
    ResolutionSquare,
    nk0_crosscheck,
    pic_conductor,
    seminormalization,
)
from khh.corpus import default_corpus_dir
from khh.kahler import DifferentialForms, torsion_dims
from khh.errors import (
    CompositionNonzeroError,
    OracleDisagreementError,
    SanityError,
    SquareInvalidError,
    UnsupportedDimensionError,
)
from conftest import read_corpus_text
from test_homology import _lose_last_free_column


@pytest.fixture(scope="module")
def t2t5_square():
    square = ResolutionSquare.parse(read_corpus_text("t2t5", "square.sq"))
    return square.validate(12)


@pytest.fixture(scope="module")
def dual_square():
    square = ResolutionSquare.parse(read_corpus_text("dualnum", "square.sq"))
    return square.validate(10)


@pytest.fixture(scope="module")
def axes_square():
    square = ResolutionSquare.parse(read_corpus_text("axes", "square.sq"))
    return square.validate(10)


@pytest.fixture(scope="module")
def two_branch_square():
    # the coordinate axes xy = 0 normalize to two lines
    square = ResolutionSquare.parse(read_corpus_text("axes", "square.sq"))
    return square.validate(8)


@pytest.fixture(scope="module")
def smooth_square():
    square = ResolutionSquare.parse(read_corpus_text("free1", "square.sq"))
    return square.validate(10)


def test_fiber_dims_cusp_cokernel(cusp_square):
    assert cusp_square.fiber_dims(1, 1) == 1
    for w in (2, 3, 4, 5, 6):
        assert cusp_square.fiber_dims(1, w) == 0


def test_fiber_vanishes_on_smooth(smooth_square):
    for m in range(-2, 2):
        for w in range(0, 7):
            assert smooth_square.fiber_dims(m, w) == 0


def test_tk_cusp_table(cusp_square):
    assert [cusp_square.tk(0, w) for w in range(6)] == [0, 1, 0, 0, 0, 0]
    assert [cusp_square.tk(1, w) for w in range(6)] == [0, 1, 0, 0, 0, 0]
    tk2 = {w: cusp_square.tk(2, w) for w in range(10) if cusp_square.tk(2, w)}
    assert tk2 == {5: 1, 7: 1}


def test_tk2_matches_torsion_forms(cusp_square, cusp):
    line = parse_algebra("algebra line\nvars t:1")
    nu = GradedHom(cusp, line, [{(2,): QQ(1)}, {(3,): QQ(1)}])
    for w in range(1, 10):
        assert cusp_square.tk(2, w) == torsion_dims(nu, 1, w)


def test_tk_formula_check_cusp(cusp_square):
    report = cusp_square.tk_formula_check(3, 9)
    assert report.cellwise_equal and report.aggregate_equal


def test_tk_formula_check_smooth(smooth_square):
    report = smooth_square.tk_formula_check(3, 5)
    assert report.cellwise_equal
    assert all(c["tk_hodge"] == 0 for c in report.cells)


def test_tk_hodge_splits_tk(cusp_square):
    for n in (1, 2):
        for w in (1, 5, 7):
            total = sum(cusp_square.tk_hodge(n, w, i) for i in range(1, n + 2))
            assert total == cusp_square.tk(n, w), (n, w)


def test_cdh_omega(cusp_square):
    assert [cusp_square.cdh_omega(1, 0, w) for w in range(1, 5)] == [1, 1, 1, 1]
    assert all(cusp_square.cdh_omega(0, 1, w) == 0 for w in range(5))
    assert all(cusp_square.cdh_omega(2, 0, w) == 0 for w in range(5))
    with pytest.raises(UnsupportedDimensionError):
        cusp_square.cdh_omega(1, 2, 3)


@pytest.mark.parametrize("name, max_weight", [("axes", 8), ("fatplane", 6)])
def test_cdh_omega_off_the_cusp(name, max_weight):
    # the Mayer-Vietoris sequence of the blow-up square, with E_red one point
    # per branch: h^1 = 0 and h^0 - h^1 = sum_k dim Omega^p(B_k)_w, plus
    # 1 - #branches at p = w = 0 (two branches on axes, non-reduced E on fatplane)
    square = ResolutionSquare.parse(read_corpus_text(name, "square.sq"))
    forms = [DifferentialForms(B) for B, _ in square.branches]
    for p in range(3):
        for w in range(max_weight + 1):
            assert square.cdh_omega(p, 1, w) == 0
            expect = sum(f.dim(p, w) for f in forms) + (p == w == 0) * (1 - len(forms))
            assert square.cdh_omega(p, 0, w) == expect, (name, p, w)


def test_dual_numbers_collapse_square(dual_square):
    assert dual_square.kernel_nilpotent
    assert dual_square.center_is_exceptional
    assert [dual_square.tk(1, w) for w in range(4)] == [0, 1, 0, 0]
    assert all(dual_square.tk(0, w) == 0 for w in range(4))


def test_square_rejects_non_nilpotent_kernel():
    text = """
algebra bad
vars x:1 y:1

algebra line
vars t:1

normalize line x->t y->0
conductor x
"""
    square = ResolutionSquare.parse(text)
    with pytest.raises(SquareInvalidError):
        square.validate(6)


def test_square_rejects_conductor_outside_the_image():
    # (x) is not the conductor of t^2, t^5: x*t = t^3 has no preimage in A_3 = 0
    text = read_corpus_text("t2t5", "square.sq").replace("conductor x^2 y", "conductor x")
    square = ResolutionSquare.parse(text)
    with pytest.raises(SquareInvalidError, match="conductor element escapes the image at weight 3"):
        square.validate(6)


@pytest.mark.parametrize("call", [
    lambda square: square.cdh_omega(1, 0, 20),
    lambda square: square.tk(1, 18),
    lambda square: square.tk_hodge(2, 17, 1),
], ids=["cdh_omega", "tk", "tk_hodge"])
def test_square_is_certified_up_to_the_weight_asked(monkeypatch, call):
    # plant a conductor of infinite colength past the default probe (14): the
    # finite-colength check sees it only if the square is certified at w
    real = ResolutionSquare.conductor_quotients
    point = QuotientSpace(SparseMatrix.zero(1, 0), SparseMatrix.zero(0, 1))

    def planted(square, w):
        quotients = real(square, w)
        return (point, *quotients[1:]) if square.algebra._coerce_weight(w)[0] > 14 else quotients

    monkeypatch.setattr(ResolutionSquare, "conductor_quotients", planted)
    square = ResolutionSquare.parse(read_corpus_text("cusp", "square.sq"))
    assert square.cdh_omega(1, 0, 14) == 1
    with pytest.raises(SquareInvalidError, match="not finite"):
        call(square)


def _count_ideal_slices(monkeypatch):
    """Count the ideal slices built, per (algebra, weight)."""
    built = Counter()
    real = fiber.ideal_slice_matrix

    def spy(algebra, gens, w):
        built[algebra.name, algebra._coerce_weight(w)] += 1
        return real(algebra, gens, w)

    monkeypatch.setattr(fiber, "ideal_slice_matrix", spy)
    return built


def test_conductor_slices_are_built_once(monkeypatch):
    # stepping the certified bound up reruns the colength window on lookups
    built = _count_ideal_slices(monkeypatch)
    fatplane = ResolutionSquare.parse(read_corpus_text("fatplane", "square.sq"))
    for w in range(41):
        fatplane.cdh_omega(1, 0, w)
    assert built and max(built.values()) == 1
    # Picard growth, seminormalization and the crosscheck share the quotients
    built.clear()
    cusp = ResolutionSquare.parse(read_corpus_text("cusp", "square.sq"))
    cusp.validate(12)
    pic_conductor(cusp, 1, 6)
    seminormalization(cusp)
    nk0_crosscheck(cusp, 6)
    assert built and max(built.values()) == 1


def test_chain_map_term_outside_the_branch_basis_is_fatal(monkeypatch):
    # a map given on basis elements must land in the target basis: a stray
    # term is an internal fault (exit 5), never silently dropped
    square = ResolutionSquare.parse(read_corpus_text("cusp", "square.sq"))
    square.validate(12)
    real = GradedHom.apply_mono

    def stray(hom, m):
        return {**real(hom, m), (99,): QQ(1)}

    monkeypatch.setattr(GradedHom, "apply_mono", stray)
    with pytest.raises(SanityError, match="outside the target basis"):
        square.chain_map_matrix(1, 5)


def test_planted_non_chain_map_is_fatal(monkeypatch):
    # f_1 + e_00 on the cusp breaks f_1 b_2 = b_2 f_2, the cone's one block
    # that b.b on A and on the branch leaves open
    real = ResolutionSquare.chain_map_matrix

    def planted(square, n, w):
        maps = real(square, n, w)
        if n != 1 or not (maps[0].rows and maps[0].cols):
            return maps
        bump = SparseMatrix(maps[0].rows, maps[0].cols, {(0, 0): 1})
        return (maps[0] + bump, *maps[1:])

    monkeypatch.setattr(ResolutionSquare, "chain_map_matrix", planted)
    square = ResolutionSquare.parse(read_corpus_text("cusp", "square.sq"))
    for w in range(4, 10):
        assert not square.cone_holds(1, w)
        with pytest.raises(CompositionNonzeroError, match="cone D_1 D_2 != 0"):
            square.tk(2, w)
    path = str(default_corpus_dir() / "cusp" / "square.sq")
    assert cli.main(["tk", "--square", path, "--n-max", "2", "--max-weight", "6"]) == 5


def monomial_curve_square(a, b):
    """The square of k[t^a, t^b] -> k[t], a < b coprime, and its conductor
    exponent c = (a-1)(b-1); the conductor t^c k[t] is generated by
    t^c .. t^{c+a-1}, each written as some x^i y^j with ai + bj = s."""
    c = (a - 1) * (b - 1)
    gens = []
    for s in range(c, c + a):
        j = next(j for j in range(a) if b * j <= s and (s - b * j) % a == 0)
        gens.append(f"x^{(s - b * j) // a}*y^{j}")
    text = f"""
algebra mono
vars x:{a} y:{b}
rel y^{a} - x^{b}

algebra line
vars t:1

normalize line x->t^{a} y->t^{b}
conductor {" ".join(gens)}
"""
    return ResolutionSquare.parse(text), c


# coprime 2 <= a < b <= 7 whose conductor exponent is at most 12; the
# larger conductors, (4, 7) up to (6, 7), take 0.9-4 s each
MONOMIAL_CURVES = [
    (a, b) for b in range(3, 8) for a in range(2, b) if gcd(a, b) == 1 and (a - 1) * (b - 1) <= 12
]


@settings(max_examples=len(MONOMIAL_CURVES))
@seed(0)
@given(st.sampled_from(MONOMIAL_CURVES))
def test_fiber_cone_les_on_monomial_curves(pair):
    # each tk cell compares the cone's homology with the LES bookkeeping and
    # is fatal on a mismatch; the Hodge formula holds cell by cell
    square, c = monomial_curve_square(*pair)
    w_max = c + pair[1]
    for n in range(3):
        for w in range(w_max + 1):
            assert square.tk(n, w) >= 0
    assert square.tk_formula_check(2, w_max).cellwise_equal


def test_pic_cusp(cusp_square):
    pic0 = pic_conductor(cusp_square, 0)
    assert pic0.unipotent_rank == 1
    assert pic0.per_degree == {j: (1 if j == 0 else 0) for j in range(7)}
    pic1 = pic_conductor(cusp_square, 1)
    assert all(pic1.per_degree[j] == 1 for j in range(7))


def test_pic_t2t5(t2t5_square):
    pic = pic_conductor(t2t5_square, 1)
    assert pic.unipotent_rank == 2
    assert all(pic.per_degree[j] == 2 for j in range(1, 7))


def test_pic_seminormal_axes(axes_square):
    assert not axes_square.center_is_exceptional
    pic = pic_conductor(axes_square, 1)
    assert pic.unipotent_rank == 0
    assert all(pic.per_degree[j] == 0 for j in range(1, 7))


def test_seminormalization_values(cusp_square, t2t5_square, axes_square):
    assert seminormalization(cusp_square).added_weights == (1,)
    assert seminormalization(t2t5_square).added_weights == (1, 3)
    assert seminormalization(axes_square).status == "ALREADY_SEMINORMAL"


def test_nk0_crosscheck(cusp_square, t2t5_square, smooth_square, dual_square):
    for square, expected in ((cusp_square, 1), (t2t5_square, 2)):
        report = nk0_crosscheck(square)
        assert report.status == "OK" and report.passed
        assert all(v == expected for v in report.pic_growth.values())
    smooth_report = nk0_crosscheck(smooth_square)
    assert smooth_report.passed
    assert all(v == 0 for v in smooth_report.pic_growth.values())
    assert nk0_crosscheck(dual_square).status == "UNSUPPORTED"


def _units_reports(square):
    return pic_conductor(square, 2), seminormalization(square), nk0_crosscheck(square)


@pytest.mark.parametrize("name", ["cusp", "t2t5", "axes", "free1"])
def test_units_read_the_exact_top_weight(name):
    # the sums stop at the quotients' top weight, so certifying further
    # changes no report
    fresh = ResolutionSquare.parse(read_corpus_text(name, "square.sq"))
    reports = _units_reports(fresh)
    assert fresh._validated_upto < 40
    certified = ResolutionSquare.parse(read_corpus_text(name, "square.sq")).validate(40)
    assert _units_reports(certified) == reports


def test_nk0_crosscheck_passes_on_monomial_curves():
    for a, b in MONOMIAL_CURVES:
        square, _ = monomial_curve_square(a, b)
        assert nk0_crosscheck(square).passed, (a, b)


DEEP_COLLAPSE = """
algebra deep60
vars e:1
rel e^60

algebra q

normalize q e->0
conductor e
"""


def test_deep_nilpotent_collapse_square(tmp_path):
    # the kernel (e) is nilpotent, though e^59 != 0
    path = tmp_path / "deep60.sq"
    path.write_text(DEEP_COLLAPSE)
    assert cli.main(["tk", "--square", str(path), "--n-max", "1", "--max-weight", "2"]) == 0
    assert cli.main(["pic", "--square", str(path)]) == 0
    square = ResolutionSquare.parse(DEEP_COLLAPSE)
    semi = seminormalization(square)
    assert square.kernel_nilpotent
    assert (semi.status, semi.note) == ("UNSUPPORTED", "not reduced")


def test_pic_certifies_the_square_to_the_weight_asked(monkeypatch):
    asked = []
    real = ResolutionSquare.validate

    def spy(square, w=None):
        asked.append((square, w))
        return real(square, w)

    monkeypatch.setattr(ResolutionSquare, "validate", spy)
    path = str(default_corpus_dir() / "cusp" / "square.sq")
    assert cli.main(["pic", "--square", path, "--max-weight", "30"]) == 0
    square, w = asked[0]
    assert w == 30 and square._validated_upto >= 30


def test_fatplane_square_witnesses():
    square = ResolutionSquare.parse(read_corpus_text("fatplane", "square.sq"))
    square.validate(10)
    assert square.tk(0, 1) == 1 and square.tk(0, 2) == 1
    assert square.tk(1, 1) == 1


def test_tk_formula_check_beyond_the_cusp(t2t5_square, dual_square):
    # the degree-shift comparison is a theorem over any regular base, so a
    # failing cell anywhere flags an implementation bug
    assert t2t5_square.tk_formula_check(3, 10).cellwise_equal
    assert dual_square.tk_formula_check(3, 8).cellwise_equal
    square = ResolutionSquare.parse(read_corpus_text("fatplane", "square.sq"))
    square.validate(9)
    report = square.tk_formula_check(3, 9)
    assert report.cellwise_equal and report.aggregate_equal


def test_two_branch_square_tk(two_branch_square):
    assert len(two_branch_square.branches) == 2
    tk = {
        (n, w): two_branch_square.tk(n, w)
        for n in range(3)
        for w in range(7)
        if two_branch_square.tk(n, w)
    }
    assert tk == {(0, 0): 1, (2, 2): 1}


def test_two_branch_square_tk_hodge(two_branch_square):
    pieces = {
        (n, w, i): two_branch_square.tk_hodge(n, w, i)
        for n in range(1, 3)
        for w in range(7)
        for i in range(1, n + 1)
        if two_branch_square.tk_hodge(n, w, i)
    }
    assert pieces == {(2, 2, 2): 1}
    # the pieces i = 1, ..., n + 1 split tk
    for n in range(3):
        for w in range(7):
            total = sum(two_branch_square.tk_hodge(n, w, i) for i in range(1, n + 2))
            assert total == two_branch_square.tk(n, w), (n, w)


def test_two_branch_square_formula_check(two_branch_square):
    report = two_branch_square.tk_formula_check(3, 6)
    assert report.cellwise_equal and report.aggregate_equal


def test_fiber_class_count_checked_against_ranks(monkeypatch):
    # the fiber reads HH of A and of each branch through HomologyEngine, so a
    # fault in the vector path surfaces as a class count, not as wrong tk
    square = ResolutionSquare.parse(read_corpus_text("cusp", "square.sq"))
    square.validate(12)
    _lose_last_free_column(monkeypatch)
    with pytest.raises(OracleDisagreementError, match="classes from the quotient"):
        square.tk(2, 5)
