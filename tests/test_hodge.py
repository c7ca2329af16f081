"""Eulerian idempotent table and its action on slices."""

import pytest

from khh.rationals import QQ
from khh.algebra import GradedAlgebra, parse_algebra
from khh.barcomplex import SliceContext
from khh import hodge
from khh.hodge import (
    _convolve,
    _perms,
    _sign,
    _solve_idempotents,
    adams_matrix,
    check_slice_completeness,
    element_matrix,
    eulerian_idempotents,
    idempotent_matrix,
    lambda_element,
)


def test_table_n2_is_symmetrizer_antisymmetrizer():
    e1, e2 = eulerian_idempotents(2)
    half = QQ(1, 2)
    assert e1 == {(0, 1): half, (1, 0): half}
    assert e2 == {(0, 1): half, (1, 0): -half}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_complete_orthogonal(n):
    idems = eulerian_idempotents(n)
    total = {}
    for e in idems:
        for perm, c in e.items():
            total[perm] = total.get(perm, QQ(0)) + c
    identity = tuple(range(n))
    assert {p: c for p, c in total.items() if c} == {identity: QQ(1)}
    for i, ei in enumerate(idems):
        for j, ej in enumerate(idems):
            prod = _convolve(ei, ej)
            assert prod == (ei if i == j else {})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_top_idempotent_is_antisymmetrizer(n):
    from math import factorial

    top = eulerian_idempotents(n)[-1]
    assert top == {p: QQ(_sign(p), factorial(n)) for p in _perms(n)}


def test_lambda_identity_at_k1():
    for n in (2, 3, 4):
        lam1 = lambda_element(n, 1)
        assert lam1 == {tuple(range(n)): QQ(1)}


def test_chain_map_property_on_fresh_slices():
    algebra = parse_algebra("algebra f3\nvars x:1 y:2 z:3")
    ctx = SliceContext(algebra)
    for n, w in [(2, 4), (3, 6), (4, 7)]:
        b = ctx.b_matrix(n, (w,))
        for i in range(1, n):
            upper = idempotent_matrix(ctx, n, (w,), i)
            lower = idempotent_matrix(ctx, n - 1, (w,), i)
            assert (b @ upper - lower @ b).is_zero()


def test_slice_completeness_and_orthogonality(cusp):
    ctx = SliceContext(cusp)
    for n, w in [(2, 6), (2, 8), (3, 9)]:
        check_slice_completeness(ctx, n, (w,))
        mats = [idempotent_matrix(ctx, n, (w,), i) for i in range(1, n + 1)]
        for i, mi in enumerate(mats):
            for j, mj in enumerate(mats):
                prod = mi @ mj
                assert prod == (mi if i == j else prod.zero(prod.rows, prod.cols))


def test_adams_is_weighted_sum_of_idempotents(free2):
    ctx = SliceContext(free2)
    n, w = 2, 3
    psi2 = adams_matrix(ctx, n, (w,), 2)
    expected = idempotent_matrix(ctx, n, (w,), 1).scale(QQ(2)) + idempotent_matrix(
        ctx, n, (w,), 2
    ).scale(QQ(4))
    assert psi2 == expected


def _variant_commutes_with_b(inverse_descents):
    """Does one descent variant's idempotent table commute with b on probe slices?"""
    free2 = GradedAlgebra("hodge-probe", ("x", "y"), ((1,), (1,)), [])
    cusp = GradedAlgebra(
        "hodge-probe-cusp", ("x", "y"), ((2,), (3,)),
        [{(0, 2): QQ(1), (3, 0): QQ(-1)}],
    )
    probes = [
        (SliceContext(free2), [(2, (2,)), (2, (3,)), (3, (3,)), (3, (4,))]),
        (SliceContext(cusp), [(2, (6,)), (3, (8,))]),
    ]
    tables = {k: _solve_idempotents(k, inverse_descents) for k in range(1, 5)}
    for ctx, cells in probes:
        for n, w in cells:
            b = ctx.b_matrix(n, w)
            for i in range(1, n):
                upper = element_matrix(tables[n][i - 1], ctx, n, w)
                lower = element_matrix(tables[n - 1][i - 1], ctx, n - 1, w)
                if not (b @ upper - lower @ b).is_zero():
                    return False
    return True


def test_pinned_descent_variant_is_the_first_that_commutes_with_b():
    # trying the descents of sigma first, the probe must land on the pinned variant
    first = next(v for v in (False, True) if _variant_commutes_with_b(v))
    assert hodge._INVERSE_DESCENTS is first is False


def test_idempotent_denominators_divide_factorial_and_slice_stays_complete(cusp):
    from math import factorial

    ctx = SliceContext(cusp)
    n, w = 3, (9,)
    for i in range(1, n + 1):
        mat = idempotent_matrix(ctx, n, w, i)
        assert factorial(n) % mat.den == 0
        assert all(isinstance(v, QQ) and factorial(n) % v.denominator == 0 for _, v in mat.items())
    assert any(idempotent_matrix(ctx, n, w, i).den > 1 for i in range(1, n + 1))
    check_slice_completeness(ctx, n, w)
