"""Eulerian idempotent table and its action on slices."""

import pytest

from khh.rationals import QQ
from khh.algebra import GradedAlgebra, parse_algebra
from khh.barcomplex import SliceContext
from khh import hodge
from khh.errors import IdempotentSanityError
from khh.hodge import (
    _compose,
    _perms,
    _sign,
    _solve_idempotents,
    _validate_table,
    adams_matrix,
    check_slice_completeness,
    element_matrix,
    eulerian_idempotents,
    idempotent_matrix,
    lambda_element,
)


def _convolve(p, q):
    """Product in QQ[S_n] in Fraction arithmetic: the oracle for the int check."""
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            s = _compose(a, b)
            v = out.get(s, QQ(0)) + ca * cb
            if v:
                out[s] = v
            else:
                out.pop(s, None)
    return out


def _fraction_table_holds(n, idems):
    """The three table identities in Fraction arithmetic."""
    from math import factorial

    total = {}
    for e in idems:
        for perm, c in e.items():
            total[perm] = total.get(perm, QQ(0)) + c
    if {p: c for p, c in total.items() if c} != {tuple(range(n)): QQ(1)}:
        return False
    nonzero = [{p: c for p, c in e.items() if c} for e in idems]
    for i, ei in enumerate(nonzero):
        for j, ej in enumerate(nonzero):
            if _convolve(ei, ej) != (ei if i == j else {}):
                return False
    return nonzero[-1] == {p: QQ(_sign(p), factorial(n)) for p in _perms(n)}


def test_table_n2_is_symmetrizer_antisymmetrizer():
    e1, e2 = eulerian_idempotents(2)
    half = QQ(1, 2)
    assert e1 == {(0, 1): half, (1, 0): half}
    assert e2 == {(0, 1): half, (1, 0): -half}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_complete_orthogonal(n):
    assert _fraction_table_holds(n, eulerian_idempotents(n))


def _perturbed_tables(idems, delta):
    """(table, balanced) with one coefficient moved by delta, and for n >= 2
    with delta moved from one idempotent to the next at one permutation:
    that keeps the sum, so only the later identities can catch it."""
    n = len(idems)
    moves = [((0, delta),)] + ([((0, delta), (1, -delta))] if n >= 2 else [])
    for i in range(n):
        for perm in _perms(n):
            for move in moves:
                table = [dict(e) for e in idems]
                for k, d in move:
                    idx = (i + k) % n
                    table[idx][perm] = table[idx].get(perm, QQ(0)) + d
                yield tuple(table), len(move) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_int_table_check_agrees_with_fraction_oracle(n):
    idems = eulerian_idempotents(n)
    _validate_table(n, idems)
    for table, balanced in _perturbed_tables(idems, QQ(1, len(_perms(n)))):
        assert not _fraction_table_holds(n, table)
        with pytest.raises(IdempotentSanityError) as err:
            _validate_table(n, table)
        assert ("do not sum" in str(err.value)) != balanced
    if n >= 2:
        # complete and orthogonal, but the top idempotent is e^(1)
        swapped = (idems[-1],) + idems[1:-1] + (idems[0],)
        assert not _fraction_table_holds(n, swapped)
        with pytest.raises(IdempotentSanityError, match="antisymmetrizer"):
            _validate_table(n, swapped)


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
