"""Bar complex slices: differentials, normalization, shuffle products."""

import hashlib
import random
from itertools import product

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from khh.rationals import QQ, add_term
from khh.algebra import GradedAlgebra
from khh.barcomplex import BarChain, SliceContext, chain_str, parse_chain
from khh.errors import SanityError
from conftest import algebra_of, check_slice, small_algebras


@pytest.fixture(scope="module")
def cusp_ctx(cusp):
    return SliceContext(cusp)


@pytest.fixture(scope="module")
def free2_ctx(free2):
    return SliceContext(free2)


def test_b_kills_degree_one_commutative(cusp_ctx, cusp):
    chain = parse_chain(cusp, "x[y] + 2*y[x^2]")
    assert cusp_ctx.b_chain(chain).is_zero()


def test_b_of_generating_cycle(cusp_ctx, cusp):
    z = parse_chain(cusp, "2*x[y] + 3*y[x]")
    assert cusp_ctx.b_chain(z).is_zero()


def test_b_of_yy(cusp_ctx, cusp):
    got = cusp_ctx.b_chain(parse_chain(cusp, "[y|y]"))
    expected = parse_chain(cusp, "2*y[y] - 1[x^3]")
    assert got == expected


def test_b_normalization_drops_nothing_on_homogeneous(free2_ctx, free2):
    chain = parse_chain(free2, "[x|y|x]")
    image = free2_ctx.b_chain(chain)
    assert all(all(m != (0, 0) for m in t[1:]) for t in image.terms)


def _combination(*terms):
    """The chain sum c * chain over (c, chain) terms of one degree."""
    out = {}
    for c, chain in terms:
        for t, v in chain.terms.items():
            add_term(out, t, c * v)
    return BarChain(terms[0][1].algebra, terms[0][1].degree, out)


def _B_chain(ctx, chain):
    """Connes' B of a chain, tensor by tensor."""
    out = {}
    for tensor, c in chain.terms.items():
        for t, v in ctx.B_tensor(tensor).items():
            add_term(out, t, c * v)
    return BarChain(chain.algebra, chain.degree + 1, out)


def test_connes_B_kills_rotations_with_scalars(cusp_ctx, cusp):
    assert _B_chain(cusp_ctx, parse_chain(cusp, "1[x]")).is_zero()


def test_connes_B_degree_zero(cusp_ctx, cusp):
    got = _B_chain(cusp_ctx, parse_chain(cusp, "y", degree=0))
    assert chain_str(got) == "[y]"


def test_slice_sanity_grid(cusp_ctx):
    for n in range(0, 4):
        for w in range(0, 11):
            check_slice(cusp_ctx, n, w)


@settings(max_examples=30)
@seed(0)
@given(small_algebras())
@example(((2, 3), ((((0, 2), 1), ((3, 0), -1)),)))  # the cusp y^2 = x^3
def test_slice_identities_hold_on_random_algebras(spec):
    # b^2 = 0, B^2 = 0 and bB + Bb = 0 at every (n, w) <= (3, 6)
    algebra = algebra_of(spec)
    for conv in ("standard", "b-transpose"):
        ctx = SliceContext(algebra, conv)
        for w in range(7):
            for n in range(4):
                check_slice(ctx, n, w)


def test_corrupt_wrap_flip_fails_sanity(cusp):
    ctx = SliceContext(cusp, "corrupt-b-wrap-flip")
    with pytest.raises(SanityError):
        for n in range(0, 3):
            for w in range(0, 8):
                check_slice(ctx, n, w)


def test_shuffle_one_one(free2_ctx, free2):
    got = free2_ctx.shuffle(
        parse_chain(free2, "1[x]"), parse_chain(free2, "1[y]")
    )
    assert chain_str(got) == "[x|y] - [y|x]"


def test_shuffle_degree_zero_acts_as_module(cusp_ctx, cusp):
    a = parse_chain(cusp, "x", degree=0)
    c = parse_chain(cusp, "2*x[y] + 3*y[x]")
    got = cusp_ctx.shuffle(a, c)
    assert got == parse_chain(cusp, "2*x^2[y] + 3*x*y[x]")


def _random_chain(ctx, rng, n, w):
    basis = ctx.basis(n, (w,))
    if not basis:
        return BarChain(ctx.algebra, n)
    terms = {}
    for _ in range(min(3, len(basis))):
        t = basis[rng.randrange(len(basis))]
        terms[t] = terms.get(t, QQ(0)) + QQ(rng.randint(-2, 2))
    return BarChain(ctx.algebra, n, {t: c for t, c in terms.items() if c})


def test_shuffle_graded_commutative_and_leibniz(free2_ctx):
    rng = random.Random(7)
    for p, q, w1, w2 in [(1, 1, 2, 3), (1, 2, 2, 3), (2, 2, 3, 3), (2, 1, 2, 2)]:
        c = _random_chain(free2_ctx, rng, p, w1)
        d = _random_chain(free2_ctx, rng, q, w2)
        left = free2_ctx.shuffle(c, d)
        right = _combination(((-1) ** (p * q), free2_ctx.shuffle(d, c)))
        assert left == right
        lhs = free2_ctx.b_chain(free2_ctx.shuffle(c, d))
        rhs = _combination(
            (1, free2_ctx.shuffle(free2_ctx.b_chain(c), d)),
            ((-1) ** p, free2_ctx.shuffle(c, free2_ctx.b_chain(d))),
        )
        assert lhs == rhs


def test_shuffle_associative(free2_ctx):
    rng = random.Random(11)
    a = _random_chain(free2_ctx, rng, 1, 2)
    b = _random_chain(free2_ctx, rng, 1, 1)
    c = _random_chain(free2_ctx, rng, 1, 2)
    left = free2_ctx.shuffle(free2_ctx.shuffle(a, b), c)
    right = free2_ctx.shuffle(a, free2_ctx.shuffle(b, c))
    assert left == right


def test_transpose_convention_is_isomorphic(cusp):
    std = SliceContext(cusp, "standard")
    rev = SliceContext(cusp, "b-transpose")
    for n in range(0, 4):
        for w in range(0, 9):
            check_slice(rev, n, w)
            assert std.b_matrix(n, (w,)).rank() == rev.b_matrix(n, (w,)).rank()


def test_chain_homogeneity_enforced(cusp):
    from khh.errors import PreconditionError

    chain = parse_chain(cusp, "x[y] + y[y]")
    with pytest.raises(PreconditionError):
        chain.weight()


# -- basis order: the documented key, by brute force ---------------------------


def _reference_basis(algebra, n, w):
    """Every tensor of C_n at weight w, sorted by the documented key: the slot
    weights of m_1..m_n, each by (total, vector), then the head's and then
    each entry's position in the weight basis of its weight."""
    positive = [
        v for v in product(*(range(x + 1) for x in w)) if sum(v) and algebra.dim(v)
    ]
    keyed = []
    for slots in product(positive, repeat=n):
        head_w = tuple(x - sum(col) for x, *col in zip(w, *slots))
        if min(head_w) < 0:
            continue
        for tensor in product(*(algebra.weight_basis(v) for v in (head_w, *slots))):
            position = tuple(
                algebra.weight_basis(algebra.mono_weight(m)).index(m) for m in tensor
            )
            keyed.append(((tuple((sum(v), v) for v in slots), position), tensor))
    keyed.sort()
    return tuple(tensor for _, tensor in keyed)


@st.composite
def small_rank_one_algebras(draw):
    """(weights, monomial relations) of a connected rank-1 graded algebra:
    1-2 generators of weight <= 3 and at most one monomial relation."""
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    relations = []
    if draw(st.booleans()):
        relations.append(tuple(draw(st.integers(0, 2)) for _ in weights))
    return weights, tuple(r for r in relations if sum(r) >= 2)


@settings(max_examples=50)
@seed(0)
@given(small_rank_one_algebras())
@example(((2, 3), ((0, 2),)))  # the monomial cusp y^2
@example(((1,), ()))  # the free algebra on one generator
def test_basis_follows_documented_order(spec):
    weights, relations = spec
    gens = ("x", "y")[: len(weights)]
    algebra = GradedAlgebra(
        "random", gens, [(w,) for w in weights], [{m: QQ(1)} for m in relations]
    )
    extension = algebra.with_polynomial_generator("t")
    for alg, window in ((algebra, [(6,)]), (extension, [(3, 1), (2, 2), (1, 3)])):
        ctx = SliceContext(alg)
        for w in window:
            for n in range(5):
                assert ctx.basis(n, w) == _reference_basis(alg, n, w), (spec, n, w)


# sha256 of the cusp[t] bases below, recorded from the recursive enumerator
# that the memoized one replaced
CUSP_T_BASES_SHA256 = "aa0cd46daec558dce3086603f3ddb1e6177a536247240edce326749f4e39bc43"


def test_cusp_t_bases_are_pinned(cusp):
    """The bases of cusp[t] at n <= 4, (w, j) <= (9, 4) keep their order:
    kernel vectors and pinned representatives read it."""
    ctx = SliceContext(cusp.with_polynomial_generator("t"))
    digest = hashlib.sha256()
    for n in range(5):
        for w in range(10):
            for j in range(5):
                digest.update(repr((n, w, j, ctx.basis(n, (w, j)))).encode())
    assert digest.hexdigest() == CUSP_T_BASES_SHA256


@pytest.mark.parametrize("name", ["cusp", "free1"])
def test_integral_b_and_B_images_keep_int_coefficients(name, request):
    # b and from_images keep int rows only for int coefficients: a QQ zero
    # would give the same matrices and silently leave that fast path
    ctx = SliceContext(request.getfixturevalue(name).with_polynomial_generator("t"))
    for w, j, n in product(range(7), range(3), range(1, 4)):
        ctx.b_matrix(n, (w, j))
        for tensor in ctx.basis(n, (w, j)):
            assert all(type(c) is int for c in ctx.B_tensor(tensor).values()), (n, w, j, tensor)
        rows = ctx.cyclic_b_matrix(n, (w, j))._rowdata
        assert all(type(c) is int for row in rows for c in row.values()), (n, w, j)
    # every product b read, hence every coefficient b wrote
    assert all(type(c) is int for terms in ctx._products.values() for _, c in terms)
