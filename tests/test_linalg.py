"""Exact sparse linear algebra: frozen examples and exactness properties."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from conftest import FractionEchelon, algebra_of, from_dense, hc_space, small_algebras
from khh import hodge
from khh.homology import HomologyEngine
from khh.rationals import QQ
from khh.linalg import (
    Factor,
    SparseMatrix,
    QuotientSpace,
    chain_rank,
    eigenspace,
)
from khh.barcomplex import SliceContext
from khh.errors import NotSquareError, PreconditionError, SanityError


def test_rank_empty_matrix():
    assert SparseMatrix.zero(0, 0).rank() == 0


def test_rank_identity():
    assert SparseMatrix.identity(3).rank() == 3


def test_rank_dependent_rows():
    assert from_dense([[1, 2], [2, 4]]).rank() == 1


def test_kernel_of_injective_map():
    assert SparseMatrix.identity(2).kernel_basis() == []


def test_kernel_of_zero_map():
    vectors = SparseMatrix.zero(2, 3).kernel_basis()
    assert len(vectors) == 3


def test_kernel_single_row():
    m = from_dense([[1, 1, 0]])
    vectors = m.kernel_basis()
    assert len(vectors) == 2
    for v in vectors:
        assert not m.apply(v)


def _two_step(d_in, d_out):
    """d_0 = d_out and d_1 = d_in for `chain_rank`, with d_0 d_1 = 0 checked
    as `SliceContext.holds` checks an identity."""
    composite_vanishes = SliceContext._products_cancel([(d_out, d_in)])
    return [d_out, d_in].__getitem__, lambda k: composite_vanishes


def _homology(d_in, d_out):
    """dim ker d_out - rank d_in, both ranks through the chain walk."""
    differential, composes = _two_step(d_in, d_out)
    return d_out.cols - sum(chain_rank(differential, k, composes) for k in (0, 1))


def test_chain_rank_zero_complex():
    d_in = SparseMatrix.zero(0, 0)
    d_out = SparseMatrix.zero(0, 2)
    assert _homology(d_in, d_out) == 2


def test_chain_rank_exact_complex():
    d_in = SparseMatrix.identity(2)
    d_out = SparseMatrix.zero(0, 2)
    assert _homology(d_in, d_out) == 0


def test_chain_rank_rank_count():
    d_in = from_dense([[2], [0]])
    d_out = from_dense([[0, 1]])
    assert _homology(d_in, d_out) == 0


def test_chain_rank_factors_a_bad_composition_in_full():
    # the identity check sees d_0 d_1 != 0, so the walk keeps every row of d_1
    differential, composes = _two_step(SparseMatrix.identity(2), SparseMatrix.identity(2))
    assert not composes(1)
    assert chain_rank(differential, 1, composes) == 2


def test_chain_rank_skips_no_rows_where_the_composite_fails(monkeypatch):
    # d_out's pivot column 0 is d_in's only nonzero row: skipped, the rank
    # of d_in would read 0, so the walk must pass no skip_rows here
    d_out = from_dense([[1, 0]])
    assert from_dense([[1], [0]]).rank(skip_rows=d_out.pivot_columns()) == 0
    calls = []
    rank = SparseMatrix.rank

    def recording(m, skip_rows=frozenset()):
        calls.append(skip_rows)
        return rank(m, skip_rows)

    monkeypatch.setattr(SparseMatrix, "rank", recording)
    differential, composes = _two_step(from_dense([[1], [0]]), d_out)
    assert not composes(1)
    assert chain_rank(differential, 1, composes) == 1
    assert not any(calls)
    # a composable pair: d_in loses row 0 and keeps its rank
    d_in, d_out = from_dense([[1], [1]]), from_dense([[1, -1]])
    assert _homology(d_in, d_out) == 0
    assert frozenset({0}) in calls


def test_eigenspace_scalar_matrix():
    m = SparseMatrix.identity(3).scale(QQ(2))
    assert len(eigenspace(m, 2)) == 3


def test_eigenspace_diagonal():
    m = from_dense([[2, 0], [0, 4]])
    assert len(eigenspace(m, 4)) == 1


def test_from_blocks_places_blocks_by_slot():
    a = from_dense([[1, 2]])
    b = from_dense([[3], [QQ(1, 2)]])
    # slots of 1 and 2 rows by 2, 0 and 1 columns: the empty slot takes no room
    mat = SparseMatrix.from_blocks([1, 2], [2, 0, 1], [(0, 0, a), (1, 2, b), (1, 2, b)])
    assert mat == from_dense([[1, 2, 0], [0, 0, 6], [0, 0, 1]])
    empty = SparseMatrix.zero(2, 0)
    assert SparseMatrix.from_blocks([1, 2], [2, 0], [(1, 1, empty)]) == SparseMatrix.zero(3, 2)
    # a block must have its slot's shape, even where it would fit inside
    for slot in [(0, 2, b), (1, 0, a), (0, 1, a), (2, 0, a), (-1, 0, b)]:
        with pytest.raises(ValueError, match="does not fit slot"):
            SparseMatrix.from_blocks([1, 2], [2, 0, 1], [slot])


def test_from_images_adds_up_a_stream_of_terms():
    # an image may be a generator of (key, coefficient) terms, as an idempotent's are
    index = {"p": 0, "q": 1, "r": 2}
    images = {
        "u": [("p", 1), ("q", 2), ("p", 3)],  # p repeats: 1 + 3
        "v": [("q", 5), ("r", 1), ("q", -5)],  # q cancels: no entry
        "w": [("r", -2), ("r", 2)],  # the whole column cancels
    }
    mat = SparseMatrix.from_images(3, "uvw", lambda s: (term for term in images[s]), index)
    assert mat._rowdata == ({0: 4}, {0: 2}, {1: 1})
    assert mat == from_dense([[4, 0, 0], [2, 0, 0], [0, 1, 0]])
    # a term outside the target basis is a bug in the map, never dropped
    with pytest.raises(SanityError, match="outside the target basis"):
        SparseMatrix.from_images(3, "u", lambda s: (t for t in [("p", 1), ("s", 1)]), index)
    # a QQ coefficient sends the matrix through the constructor: over den
    half = SparseMatrix.from_images(
        2, "u", lambda s: (t for t in [("p", QQ(1, 2)), ("q", 1), ("p", 1)]), index
    )
    assert (half.den, half._rowdata) == (2, ({0: 3}, {0: 2}))
    assert all(type(v) is int for row in half._rowdata for v in row.values())


def test_eigenspace_jordan_block():
    m = from_dense([[0, 1], [0, 0]])
    assert len(eigenspace(m, 0)) == 1


def test_eigenspace_requires_square():
    with pytest.raises(NotSquareError):
        eigenspace(SparseMatrix.zero(2, 3), 0)


def _random_matrix(rng, rows, cols, density=0.5, span=4):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = rng.randint(-span, span)
                if v:
                    entries[(i, j)] = QQ(v)
    return SparseMatrix(rows, cols, entries)


@settings(max_examples=60)
@seed(0)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 10_000))
def test_rank_nullity_and_transpose(rows, cols, seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rows, cols)
    r = m.rank()
    assert r + len(m.kernel_basis()) == cols
    # the column factor eliminates the transpose, apart from the row factor
    assert r == len(m.column_factor().pivot_rows)
    for v in m.kernel_basis():
        assert not m.apply(v)


@settings(max_examples=40)
@seed(0)
@given(st.integers(0, 10_000))
def test_matrix_product_associative_bit_exact(seed):
    rng = random.Random(seed)
    a = _random_matrix(rng, 4, 3, density=0.7)
    b = _random_matrix(rng, 3, 5, density=0.7)
    c = _random_matrix(rng, 5, 2, density=0.7)
    assert (a @ b) @ c == a @ (b @ c)


def test_column_space_membership_consistent_and_inconsistent():
    m = from_dense([[1, 2], [2, 4]])
    columns = m.column_echelon()
    assert columns.contains({0: QQ(3), 1: QQ(6)})
    assert not columns.contains({0: QQ(1)})
    assert columns.contains({})
    assert m.column_echelon() is columns


def test_quotient_space_classes():
    # ambient QQ^2, boundaries spanned by (1, 1), everything a cycle
    d_in = from_dense([[1], [1]])
    d_out = SparseMatrix.zero(0, 2)
    space = QuotientSpace(d_in, d_out)
    assert space.dim == 1
    coords_e0 = space.coords({0: QQ(1)})
    coords_e1 = space.coords({1: QQ(1)})
    # e0 + e1 is the boundary, so the two classes are opposite
    assert coords_e0 == {0: QQ(1)}
    assert coords_e1 == {0: QQ(-1)}


def test_quotient_space_over_zero_differential_has_unit_reps():
    # cokernel of d_in: callers read a class basis off min(rep)
    d_in = from_dense([[1, 0], [1, 2], [0, 1], [0, 0]])
    space = QuotientSpace(d_in, SparseMatrix.zero(0, 4))
    assert space.dim == 4 - d_in.rank() == 2
    assert all(rep == {min(rep): QQ(1)} for rep in space.reps)
    assert [min(rep) for rep in space.reps] == [0, 3]


# -- int storage against a dense Fraction reference ------------------------

_ENTRIES = st.one_of(
    st.just(QQ(0)),
    st.integers(-3, 3).map(QQ),
    st.builds(QQ, st.integers(-3, 3), st.integers(1, 4)),
)


def _draw_dense(draw, rows, cols):
    return [[draw(_ENTRIES) for _ in range(cols)] for _ in range(rows)]


def _sparse(dense, cols):
    entries = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}
    return SparseMatrix(len(dense), cols, entries)


def _to_dense(m):
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.items():
        out[i][j] = Fraction(v)
    return out


def _ref_mul(a, b, inner, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
            for i in range(len(a))]


def _ref_rank(dense):
    rows = [list(r) for r in dense]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c] / rows[r][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        r += 1
    return r


@st.composite
def _storage_cases(draw):
    """(n, k, m, a, b, c, scalar, target, vec): dense a, b of shape n x k,
    c of shape k x m, a scalar, a target of length n and a vector of length k."""
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    da, db = _draw_dense(draw, n, k), _draw_dense(draw, n, k)
    dc = _draw_dense(draw, k, m)
    scalar = draw(_ENTRIES)
    target = [draw(_ENTRIES) for _ in range(n)]
    vec = [draw(_ENTRIES) for _ in range(k)]
    return n, k, m, da, db, dc, scalar, target, vec


def _qq(x):
    """A nested list of numbers as QQ entries."""
    return [_qq(v) for v in x] if isinstance(x, list) else QQ(x)


@settings(max_examples=80)
@seed(0)
@given(_storage_cases())
# a product entry cancels to 0 mid-row and is touched again; another cancels for good
@example((1, 3, 2, _qq([[1, 1, 1]]), _qq([[0, 2, QQ(1, 2)]]), _qq([[1, 2], [-1, -2], [1, 0]]),
          QQ(-1, 2), _qq([1]), _qq([1, 0, -1])))
# a factor with no columns: a is 2 x 0 and c is 0 x 3
@example((2, 0, 3, [[], []], [[], []], [], QQ(3), _qq([1, 0]), []))
# an all-zero row of a, above a row whose product cancels in one column
@example((2, 2, 2, _qq([[0, 0], [1, -1]]), _qq([[1, 0], [0, 0]]), _qq([[1, 2], [3, 2]]),
          QQ(2), _qq([0, 1]), _qq([1, 1])))
def test_int_storage_agrees_with_dense_fraction_reference(case):
    n, k, m, da, db, dc, scalar, target, vec = case
    a, b, c = _sparse(da, k), _sparse(db, k), _sparse(dc, m)

    assert _to_dense(a) == da
    assert _to_dense(a @ c) == _ref_mul(da, dc, k, m)
    assert a @ c == _sparse(_ref_mul(da, dc, k, m), m)  # canonical: no stored zeros
    assert _to_dense(a + b) == [[x + y for x, y in zip(r, s)] for r, s in zip(da, db)]
    assert _to_dense(a - b) == [[x - y for x, y in zip(r, s)] for r, s in zip(da, db)]
    assert _to_dense(a.scale(scalar)) == [[scalar * x for x in r] for r in da]
    for prod in (a @ c, a + b, a - b, a.scale(scalar)):
        assert all(isinstance(v, QQ) for _, v in prod.items())

    r = _ref_rank(da)
    assert a.rank() == r
    kernel = a.kernel_basis()
    assert len(kernel) == k - r
    dense_kernel = [[v.get(j, Fraction(0)) for j in range(k)] for v in kernel]
    assert _ref_rank(dense_kernel) == len(kernel)
    for kvec in dense_kernel:
        assert all(row == [0] for row in _ref_mul(da, [[x] for x in kvec], k, 1))

    columns = a.column_echelon()
    inside = _ref_rank([row + [t] for row, t in zip(da, target)]) == r
    assert columns.contains({i: t for i, t in enumerate(target) if t}) == inside
    image = a.apply({j: x for j, x in enumerate(vec) if x})
    ref_image = _ref_mul(da, [[x] for x in vec], k, 1)
    assert image == {i: row[0] for i, row in enumerate(ref_image) if row[0]}
    assert all(isinstance(v, QQ) for v in image.values())
    assert columns.contains(image)


@settings(max_examples=60)
@seed(0)
@given(st.data())
def test_fraction_and_scaled_int_builds_compare_equal(data):
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    dense = _draw_dense(data.draw, rows, cols)
    den = lcm(1, *(v.denominator for row in dense for v in row))
    from_fractions = _sparse(dense, cols)
    ints = {(i, j): int(v * den) for i, row in enumerate(dense) for j, v in enumerate(row) if v}
    from_ints = SparseMatrix(rows, cols, ints).scale(QQ(1, den))
    assert from_fractions == from_ints
    assert SparseMatrix.from_blocks([rows], [cols], [(0, 0, from_ints)]) == from_fractions
    assert from_fractions.scale(den) == SparseMatrix(rows, cols, ints)
    assert (from_fractions.scale(QQ(1, 2)) == from_fractions) == from_fractions.is_zero()


# -- the int echelon against the Fraction echelon it replaced ----------------


def _ref_echelon(dense, cols):
    ech = FractionEchelon(cols)
    for row in dense:
        ech.add_row({j: Fraction(v) for j, v in enumerate(row) if v})
    return ech


def _ref_quotient(d_in, d_out, ambient):
    """(reps, echelon) of the former QuotientSpace, on dense Fraction input."""
    columns = [[row[j] for row in d_in] for j in range(len(d_in[0]) if d_in else 0)]
    ech = _ref_echelon(columns, ambient)
    reps = []
    for z in _ref_echelon(d_out, ambient).kernel_vectors():
        row = ech.reduce({**z, ambient + len(reps): Fraction(1)})
        if row and min(row) < ambient:
            ech.add_row(row)
            reps.append(z)
    return reps, ech


def _ref_coords(ech, ambient, vec):
    reduced = ech.reduce({j: Fraction(v) for j, v in vec.items()})
    assert all(c >= ambient for c in reduced)
    return {c - ambient: -v for c, v in reduced.items()}


def _assert_primitive_pivot_rows(factor, natural=False):
    # primitive, positive at the pivot and zero at every earlier pivot column
    earlier = []
    for c, row in factor.pivot_rows.items():
        assert row[c] > 0 and not any(k in row for k in earlier)
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1
        if natural:
            assert c == min(row) and all(k < c for k in earlier)
        earlier.append(c)


def _is_qq_dict(vec):
    return all(isinstance(v, QQ) for v in vec.values())


@settings(max_examples=100)
@seed(0)
@given(st.data())
def test_int_echelon_matches_fraction_echelon(data):
    # a pair d_out @ d_in = 0: d_in of rank <= t, rows of d_out in its left kernel
    m, k, t, r = (data.draw(st.integers(0, n)) for n in (5, 5, 4, 4))
    d_in = _ref_mul(_draw_dense(data.draw, m, t), _draw_dense(data.draw, t, k), t, k)
    left_kernel = _ref_echelon([[row[i] for row in d_in] for i in range(k)], m).kernel_vectors()
    d_out = [
        [sum((c * v.get(i, 0) for c, v in zip(coeffs, left_kernel)), Fraction(0)) for i in range(m)]
        for coeffs in (
            [data.draw(_ENTRIES) for _ in left_kernel] for _ in range(r)
        )
    ]
    a_in, a_out = _sparse(d_in, k), _sparse(d_out, m)
    assert (a_out @ a_in).is_zero()

    kernel = a_out.kernel_basis()
    assert kernel == _ref_echelon(d_out, m).kernel_vectors()
    assert all(_is_qq_dict(v) for v in kernel)
    _assert_primitive_pivot_rows(a_out.echelon(), natural=True)
    _assert_primitive_pivot_rows(a_in.column_echelon())
    # the Markowitz rank against the natural, the column and the Fraction factors
    for a, dense, cols in ((a_in, d_in, k), (a_out, d_out, m)):
        assert a.rank() == len(a.echelon().pivot_rows) == len(a.column_echelon().pivot_rows)
        assert a.rank() == len(_ref_echelon(dense, cols).pivot_rows)

    space = QuotientSpace(a_in, a_out)
    ref_reps, ref_ech = _ref_quotient(d_in, d_out, m)
    assert space.reps == ref_reps
    _assert_primitive_pivot_rows(space._ech)

    # a cycle: a random mix of kernel vectors plus a random boundary
    mix = {}
    for z in kernel:
        c = data.draw(_ENTRIES)
        for j, v in z.items():
            mix[j] = mix.get(j, 0) + c * v
    boundary = a_in.apply({j: data.draw(_ENTRIES) for j in range(k)})
    cycle = {j: v for j, v in ((j, mix.get(j, 0) + boundary.get(j, 0)) for j in range(m)) if v}
    coords = space.coords(cycle)
    assert coords == _ref_coords(ref_ech, m, cycle) and _is_qq_dict(coords)
    columns = _ref_echelon([[row[j] for row in d_in] for j in range(k)], m)
    for vec in (boundary, cycle, {j: data.draw(_ENTRIES) for j in range(m)}):
        vec = {j: v for j, v in vec.items() if v}
        assert a_in.column_echelon().contains(vec) == (not columns.reduce(dict(vec)))

    # lam*I + d_in H maps cycles to cycles and is lam on classes
    lam = data.draw(_ENTRIES)
    h = _sparse(_draw_dense(data.draw, k, m), m)
    op = SparseMatrix.identity(m).scale(lam) + a_in @ h
    induced = space.induced_matrix(op, space)
    ref_entries = {}
    for j, rep in enumerate(ref_reps):
        for i, v in _ref_coords(ref_ech, m, op.apply(rep)).items():
            ref_entries[(i, j)] = v
    assert induced == SparseMatrix(len(ref_reps), len(ref_reps), ref_entries)
    assert induced == SparseMatrix.identity(space.dim).scale(lam)


@settings(max_examples=25)
@seed(0)
@given(small_algebras())
@example(((2, 3), ((((0, 2), 1), ((3, 0), -1)),)))  # the cusp y^2 = x^3
def test_homology_quotients_match_fraction_reference(spec):
    # the engine's quotients against the former full-matrix one: reps,
    # coords of a mixed cycle, psi_2 on HH classes, and a non-cycle refused
    engine = HomologyEngine(algebra_of(spec))
    for n in range(3):
        for w in range(1, 6):
            for kind, complex_ in (("hh", "bar"), ("hc", "total")):
                space = engine.hh_space(n, w) if kind == "hh" else hc_space(engine, n, w)
                d_in, d_out = engine._differentials(complex_, n, w)
                m = d_out.cols
                ref_reps, ref_ech = _ref_quotient(_to_dense(d_in), _to_dense(d_out), m)
                assert space.reps == ref_reps, (spec, kind, n, w)
                assert all(_is_qq_dict(rep) for rep in space.reps)

                cycle = d_in.apply({j: QQ(j % 3 - 1) for j in range(d_in.cols)})
                for k, rep in enumerate(space.reps):
                    for j, v in rep.items():
                        cycle[j] = cycle.get(j, 0) + (k + 1) * v
                cycle = {j: v for j, v in cycle.items() if v}
                assert space.coords(cycle) == _ref_coords(ref_ech, m, cycle)

                if kind == "hh" and n >= 1:
                    psi2 = hodge.adams_matrix(engine.ctx, n, w, 2)
                    ref_entries = {}
                    for j, rep in enumerate(ref_reps):
                        for i, v in _ref_coords(ref_ech, m, psi2.apply(rep)).items():
                            ref_entries[(i, j)] = v
                    expect = SparseMatrix(space.dim, space.dim, ref_entries)
                    assert space.induced_matrix(psi2, space) == expect

                live = [j for (_, j), _ in d_out.items()]
                if live:
                    with pytest.raises(PreconditionError):
                        space.coords({**cycle, min(live): QQ(1, 2) + cycle.get(min(live), 0)})


@settings(max_examples=100)
@seed(0)
@given(st.data())
def test_compressed_rank_matches_full_and_fraction_ranks(data):
    # d_in = (kernel vectors of d_out) @ X, so d_out @ d_in = 0 exactly
    r, m, k = (data.draw(st.integers(0, n)) for n in (4, 6, 5))
    d_out = _draw_dense(data.draw, r, m)
    kernel = _ref_echelon(d_out, m).kernel_vectors()
    x = _draw_dense(data.draw, len(kernel), k)
    d_in = [
        [sum((v.get(i, 0) * row[j] for v, row in zip(kernel, x)), Fraction(0)) for j in range(k)]
        for i in range(m)
    ]
    a_out = _sparse(d_out, m)
    assert (a_out @ _sparse(d_in, k)).is_zero()
    skip = a_out.pivot_columns()
    assert len(skip) == a_out.rank() == len(_ref_echelon(d_out, m).pivot_rows)
    compressed = _sparse(d_in, k).rank(skip_rows=skip)
    assert compressed == _sparse(d_in, k).rank() == len(_ref_echelon(d_in, k).pivot_rows)


@st.composite
def _planted_singleton_chains(draw):
    """(cols, dense int rows) with singleton chains planted in a random core.

    Chain row i is the only row at its chain column once the chain rows
    before it are gone: it may meet the later chain columns of its chain
    and any core column, and no core row meets a chain column.  Chain and
    core columns interleave, and the rows come shuffled.
    """
    nchains, ncore = draw(st.integers(1, 2)), draw(st.integers(0, 5))
    lengths = [draw(st.integers(1, 4)) for _ in range(nchains)]
    cols = ncore + sum(lengths)
    order = draw(st.permutations(range(cols)))
    core, chains, at = order[:ncore], [], ncore
    for length in lengths:
        chains.append(order[at : at + length])
        at += length
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    rows = [[0] * cols for _ in range(draw(st.integers(0, 5)))]
    for row in rows:
        for c in core:
            row[c] = draw(entry)
    for chain in chains:
        for i, c in enumerate(chain):
            row = [0] * cols
            row[c] = draw(st.sampled_from([1, -1, 2, -3]))
            for d in (*chain[i + 1 :], *core):
                row[d] = draw(entry)
            rows.append(row)
    return cols, draw(st.permutations(rows))


def _exact_heap_pivots(rows):
    """Pivot columns, in order, of Markowitz elimination with no singleton
    phase: next the least (live rows, column), counted afresh at every
    step, as an exact-count heap pops it; on the row with a unit entry
    there if any, then the shortest, then the first; every other row at
    the column eliminated over Fraction and kept as the primitive int row
    a positive scale gives, as the fraction-free walk keeps it."""
    live = {r: dict(row) for r, row in enumerate(row for row in rows if row)}
    order = []
    while live:
        counts = {}
        for row in live.values():
            for j in row:
                counts[j] = counts.get(j, 0) + 1
        c = min(counts, key=lambda j: (counts[j], j))
        at_c = [r for r, row in live.items() if c in row]
        prow = live.pop(min(at_c, key=lambda r: (abs(live[r][c]) != 1, len(live[r]), r)))
        order.append(c)
        for r in at_c:
            row = live.get(r)
            if row is None:
                continue  # the pivot row
            f = Fraction(row[c], prow[c])
            new = {j: row.get(j, 0) - f * prow.get(j, 0) for j in {*row, *prow}}
            new = {j: v for j, v in new.items() if v}
            if not new:
                del live[r]
                continue
            scale = Fraction(lcm(*(v.denominator for v in new.values())))
            scale /= gcd(*(int(v * scale) for v in new.values()))
            live[r] = {j: int(v * scale) for j, v in new.items()}
    return order


@settings(max_examples=150)
@seed(0)
@given(_planted_singleton_chains(), st.data())
def test_singleton_cascade_agrees_with_natural_order_and_fractions(case, data):
    cols, dense = case
    rows = [{j: v for j, v in enumerate(row) if v} for row in dense]
    ref = _ref_echelon(dense, cols)
    markowitz = Factor(cols, rows)
    assert rows == [{j: v for j, v in enumerate(row) if v} for row in dense]  # untouched
    rank = len(ref.pivot_rows)
    assert len(markowitz.pivot_rows) == len(Factor(cols, rows, markowitz=False).pivot_rows) == rank
    assert len(Factor.markowitz_pivots(rows)) == rank
    # the cascade is a fast path of the exact heap's own order
    assert Factor.markowitz_pivots(rows) == _exact_heap_pivots(rows)
    assert from_dense(dense).rank() == rank
    _assert_primitive_pivot_rows(markowitz)
    # every row, a combination of rows and a random vector
    mix = {}
    for row in rows:
        c = data.draw(st.integers(-2, 2))
        for j, v in row.items():
            mix[j] = mix.get(j, 0) + c * v
    vectors = [*rows, mix, {j: data.draw(st.integers(-2, 2)) for j in range(cols)}]
    for vec in vectors:
        vec = {j: v for j, v in vec.items() if v}
        assert markowitz.contains(vec) == (not ref.reduce({j: Fraction(v) for j, v in vec.items()}))


def test_int_echelon_over_empty_and_negative_pivots():
    # 0 x n and n x 0 shapes, zero rows and columns, negative leading entries
    assert SparseMatrix.zero(0, 3).kernel_basis() == [{0: 1}, {1: 1}, {2: 1}]
    assert SparseMatrix.zero(3, 0).kernel_basis() == []
    m = from_dense([[0, -2, 4, 0], [0, 0, 0, 0], [0, -3, 0, 6]])
    assert m.echelon().pivot_rows == {1: {1: 1, 2: -2}, 2: {2: 1, 3: -1}}
    assert m.kernel_basis() == [{0: 1}, {3: 1, 2: 1, 1: 2}]
    # the residual of 1/2 e_1 + 1/3 e_3 is 4/3 e_3, as the int row {1: 3, 3: 2} over 6
    residual, s = m.echelon()._reduce({1: 3, 3: 2}, 6)
    assert {j: QQ(v, s) for j, v in residual.items()} == {3: QQ(4, 3)}
