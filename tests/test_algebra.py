"""Presented graded algebras: parsing, normal forms, weight bases, maps."""

import random
from itertools import product

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from conftest import _monomials, algebra_of, read_corpus_text, small_algebras
from khh.rationals import QQ, add_term
from khh.algebra import GradedAlgebra, GradedHom, parse_algebra, parse_poly
from khh.errors import (
    InhomogeneousRelationError,
    ParseError,
    RelationNotKilledError,
    WeightMismatchError,
    ZeroWeightGeneratorError,
)


def test_build_free_algebra():
    algebra = parse_algebra("algebra f\nvars x:1")
    assert algebra.gens == ("x",)
    assert [algebra.dim(w) for w in range(4)] == [1, 1, 1, 1]


def test_build_cusp(cusp):
    assert [cusp.mono_str(m) for m in cusp.weight_basis(6)] == ["x^3"]
    assert cusp.dim(1) == 0


def test_build_dual_numbers(dualnum):
    e = dualnum.gen_poly(0)
    assert dualnum.multiply(e, e) == {}


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_algebra("algebra f\nvars x:1\nrel x + %")
    assert err.value.line == 3


def test_inhomogeneous_relation_rejected():
    with pytest.raises(InhomogeneousRelationError) as err:
        parse_algebra("algebra f\nvars x:2 y:3\nrel y - x")
    assert "weights" in str(err.value)


def test_zero_weight_generator_rejected():
    with pytest.raises(ZeroWeightGeneratorError):
        parse_algebra("algebra f\nvars x:0")


def test_weight_basis_cusp_examples(cusp):
    assert cusp.weight_basis(1) == ()
    assert [cusp.mono_str(m) for m in cusp.weight_basis(5)] == ["x*y"]


def test_weight_basis_free_monomial_count():
    algebra = parse_algebra("algebra f\nvars x:1")
    assert [algebra.mono_str(m) for m in algebra.weight_basis(5)] == ["x^5"]


def test_multiply_examples(cusp):
    y = cusp.gen_poly(1)
    assert cusp.poly_str(cusp.multiply(y, y)) == "x^3"
    p = cusp.nf(parse_poly("x^2 + y", cusp.gens))
    assert cusp.multiply(cusp.one(), p) == p


def test_hilbert_series_free2(free2):
    for w in range(9):
        assert free2.dim(w) == w + 1


def test_cusp_matches_punctured_line(cusp):
    line = parse_algebra("algebra line\nvars t:1")
    for w in range(14):
        expected = line.dim(w) - (1 if w == 1 else 0)
        assert cusp.dim(w) == expected


def test_algebra_hom_cusp_to_line(cusp):
    line = parse_algebra("algebra line\nvars t:1")
    nu = GradedHom(cusp, line, [{(2,): QQ(1)}, {(3,): QQ(1)}])
    xy = cusp.multiply(cusp.gen_poly(0), cusp.gen_poly(1))
    assert line.poly_str(nu.apply(xy)) == "t^5"


def test_algebra_hom_identity(cusp):
    iden = GradedHom(cusp, cusp, [cusp.gen_poly(i) for i in range(cusp.ngens)])
    p = cusp.nf(parse_poly("x^3 + x y", cusp.gens))
    assert iden.apply(p) == p


def test_algebra_hom_weight_mismatch(cusp):
    line = parse_algebra("algebra line\nvars t:1")
    with pytest.raises(WeightMismatchError):
        GradedHom(cusp, line, [{(1,): QQ(1)}, {(3,): QQ(1)}])


def test_algebra_hom_relation_not_killed(cusp):
    free = parse_algebra("algebra f\nvars u:2 v:3")
    with pytest.raises(RelationNotKilledError):
        GradedHom(cusp, free, [free.gen_poly(0), free.gen_poly(1)])


def _random_poly(algebra, rng, max_weight=8, terms=3):
    out = {}
    for _ in range(terms):
        w = rng.randrange(2, max_weight + 1)
        basis = algebra.weight_basis(w)
        if not basis:
            continue
        m = basis[rng.randrange(len(basis))]
        out[m] = out.get(m, QQ(0)) + QQ(rng.randint(-3, 3))
    return {m: c for m, c in out.items() if c}


@settings(max_examples=40)
@seed(0)
@given(st.integers(0, 10_000))
def test_nf_is_idempotent_linear_multiplicative(seed):
    cusp = parse_algebra("algebra cusp\nvars x:2 y:3\nrel y^2 - x^3")
    rng = random.Random(seed)
    w = rng.randrange(4, 9)
    basis_raw = [(a, b) for a in range(5) for b in range(4) if 2 * a + 3 * b == w]
    p = {m: QQ(rng.randint(-3, 3)) for m in basis_raw}
    p = {m: c for m, c in p.items() if c}
    q = {m: QQ(rng.randint(-2, 2)) for m in basis_raw}
    q = {m: c for m, c in q.items() if c}
    nf = cusp.nf
    assert nf(nf(p)) == nf(p)

    def poly_sum(a, b):
        out = dict(a)
        for m, c in b.items():
            add_term(out, m, c)
        return out

    assert nf(poly_sum(p, q)) == poly_sum(nf(p), nf(q))
    assert cusp.multiply(p, q) == cusp.multiply(nf(p), nf(q))


def test_polynomial_extension_bigrading(cusp):
    ext = cusp.with_polynomial_generator("t")
    assert ext.weight_rank == 2
    assert ext.dim((5, 2)) == 1
    assert ext.dim((1, 3)) == 0  # no weight-1 part in the base


def test_parse_poly_rational_coefficients():
    algebra = parse_algebra("algebra f\nvars x:1")
    p = parse_poly("3/2 x^2 - 2*x^2", algebra.gens)
    assert p == {(2,): QQ(-1, 2)}
    assert parse_poly("x x x", algebra.gens) == {(3,): QQ(1)}


# -- the complete Groebner basis ---------------------------------------------


def _ladder_growth_order(algebra, samples=9):
    """Growth order of the weight dims, by repeated differencing along the
    multiples of the lcm of the generator weights.  That step is a period
    of the Hilbert quasi-polynomial, and every generator's powers reach its
    multiples, so the dims there grow at the full order.  The ladder starts
    past the weight of the lcm of all leads, which bounds the degree of the
    Hilbert numerator (Taylor's resolution), so every sample lies where the
    dims follow the quasi-polynomial and the differences must settle."""
    from math import lcm

    if algebra.ngens == 0:
        return 0
    step = lcm(*[sum(w) for w in algebra.weights])
    leads = [algebra.lead(g) for g in algebra.reduced_relations()]
    top = sum(algebra.mono_weight(tuple(map(max, zip(*leads))))) if leads else 0
    first = -(-top // step)
    seq = [algebra.dim(step * k) for k in range(first, first + samples)]
    if all(v == 0 for v in seq[-3:]):
        return 0
    degree = 0
    while any(x != seq[-1] for x in seq[-3:]):
        seq = [b - a for a, b in zip(seq, seq[1:])]
        degree += 1
        assert degree <= 4 and len(seq) >= 3, "weight dims do not settle"
    return degree + 1


def _divide(algebra, p, basis):
    """Remainder of p on division by basis, by the algebra's monomial order."""
    work, rem = dict(p), {}
    leads = [(algebra.lead(g), g) for g in basis]
    while work:
        m = algebra.lead(work)
        c = work.pop(m)
        for lead, g in leads:
            if all(a <= b for a, b in zip(lead, m)):
                q = c / g[lead]
                for gm, gc in g.items():
                    if gm != lead:
                        mm = tuple(x + b - a for x, a, b in zip(gm, lead, m))
                        v = work.get(mm, 0) - q * gc
                        if v:
                            work[mm] = v
                        else:
                            work.pop(mm, None)
                break
        else:
            rem[m] = c
    return rem


def _s_poly(algebra, f, g):
    lf, lg = algebra.lead(f), algebra.lead(g)
    top = tuple(map(max, lf, lg))
    out = {}
    for p, lead, sign in ((f, lf, 1), (g, lg, -1)):
        for m, c in p.items():
            mm = tuple(x + t - a for x, t, a in zip(m, top, lead))
            v = out.get(mm, 0) + sign * c / p[lead]
            if v:
                out[mm] = v
            else:
                out.pop(mm, None)
    return out


def _assert_reduced_groebner(algebra):
    """Buchberger's criterion and reducedness, by a division of the test's own."""
    basis = algebra.reduced_relations()
    for i, f in enumerate(basis):
        lead = algebra.lead(f)
        assert f[lead] == 1
        for j, g in enumerate(basis):
            if i != j:
                lg = algebra.lead(g)
                assert not any(all(a <= b for a, b in zip(lg, m)) for m in f)
            if i < j:
                assert _divide(algebra, _s_poly(algebra, f, g), basis) == {}
    for rel in algebra.relations:
        assert _divide(algebra, rel, basis) == {}


@settings(max_examples=150)
@seed(0)
@given(small_algebras())
@example(((1, 1), ((((0, 6), 1),), (((5, 0), 1),))))  # socle past a fixed ladder
def test_krull_dim_is_the_growth_order_of_the_weight_dims(spec):
    algebra = algebra_of(spec)
    assert algebra.krull_dim() == _ladder_growth_order(algebra), spec


@settings(max_examples=150)
@seed(0)
@given(small_algebras())
def test_reduced_relations_meet_buchbergers_criterion(spec):
    _assert_reduced_groebner(algebra_of(spec))


def test_corpus_bases_meet_buchbergers_criterion(corpus_entries):
    for entry in corpus_entries.values():
        if entry.algebra is not None:
            _assert_reduced_groebner(entry.algebra)
            _assert_reduced_groebner(entry.algebra.with_polynomial_generator("t"))


def test_krull_dim_of_a_polynomial_extension(cusp, dualnum):
    # rank-2 weights: the count reads the leads alone
    assert cusp.with_polynomial_generator("t").krull_dim() == 2
    assert dualnum.with_polynomial_generator("t").krull_dim() == 1


def _brute_force_basis(algebra, w):
    """Every monomial of weight w that no lead divides, in basis order."""
    leads = [algebra.lead(g) for g in algebra.reduced_relations()]
    monos = _monomials([wt[0] for wt in algebra.weights], w)
    standard = [m for m in monos if not any(all(a <= b for a, b in zip(l, m)) for l in leads)]
    return tuple(sorted(standard, key=algebra.order_key))


@seed(0)
@given(small_algebras())
def test_weight_basis_walk_equals_brute_force_filter(spec):
    # the walk stops at the first prefix a lead divides; it must drop nothing
    algebra = algebra_of(spec)
    for w in range(13):
        assert algebra.weight_basis(w) == _brute_force_basis(algebra, w), (spec, w)


@settings(max_examples=60)
@seed(0)
@given(small_algebras())
def test_presentation_rebuilds_the_algebra(spec):
    # the worker pool and the slice cache know an algebra by its presentation
    base = algebra_of(spec)
    for algebra, bound in ((base, (8,)), (base.with_polynomial_generator("t"), (6, 2))):
        rebuilt = GradedAlgebra(*algebra.presentation)
        assert rebuilt.presentation == algebra.presentation
        hash(algebra.presentation)  # the warm-algebra cache keys by it
        assert rebuilt.weight_rank == algebra.weight_rank == len(bound)
        assert rebuilt._leads == algebra._leads, spec
        for w in algebra.weight_vectors_upto(bound):
            assert rebuilt.weight_basis(w) == algebra.weight_basis(w), (spec, w)
        for m in product(range(4), repeat=algebra.ngens):
            assert rebuilt.nf_mono(m) == algebra.nf_mono(m), (spec, m)


def test_fatplane_weight_basis_equals_brute_force_filter():
    fatplane = parse_algebra(read_corpus_text("fatplane", "algebra.alg"))
    for w in range(31):
        assert fatplane.weight_basis(w) == _brute_force_basis(fatplane, w), w


def test_is_nilpotent_edge_cases_and_deep_powers(cusp, dualnum):
    # the cusp's lead is y^2, yet y is not nilpotent: y is not its first
    # generator, so its own leads do not decide y
    assert cusp.lead(cusp.reduced_relations()[0]) == (0, 2)
    assert not any(cusp.is_nilpotent(cusp.gen_poly(i)) for i in range(2))
    assert dualnum.is_nilpotent(dualnum.gen_poly(0))
    # a zero normal form is nilpotent, a nonzero constant is not
    assert dualnum.is_nilpotent({}) and dualnum.is_nilpotent({(2,): QQ(3)})
    assert not dualnum.is_nilpotent(dualnum.one())
    # no power bound: e^59 != 0 in k[e]/(e^60)
    deep = parse_algebra("algebra deep\nvars e:1 f:1\nrel e^60")
    assert deep.is_nilpotent(deep.gen_poly(0))
    assert not deep.is_nilpotent(deep.gen_poly(1))
    assert not deep.is_nilpotent(parse_poly("e + f", deep.gens))
    # a nilpotent sum of generators that are not nilpotent
    cube = parse_algebra("algebra cube\nvars x:1 y:1\nrel x^3 + 3 x^2 y + 3 x y^2 + y^3")
    assert not any(cube.is_nilpotent(cube.gen_poly(i)) for i in range(2))
    assert cube.is_nilpotent(parse_poly("x + y", cube.gens))
    assert not cube.is_nilpotent(parse_poly("x - y", cube.gens))


def _nilpotent_by_powers(algebra, p, k_max=40):
    """True if some p^k with k <= k_max vanishes, False if none does."""
    power = algebra.nf(p)
    for _ in range(k_max - 1):
        if not power:
            return True
        power = algebra.multiply(power, p)
    return not power


@settings(max_examples=100)
@seed(0)
@given(small_algebras(), st.integers(1, 4), st.data())
def test_is_nilpotent_agrees_with_a_power_search(spec, w, data):
    algebra = algebra_of(spec)
    basis = algebra.weight_basis(w)
    monos = data.draw(st.lists(st.sampled_from(basis), max_size=2, unique=True)) if basis else []
    element = {m: QQ(data.draw(st.sampled_from([1, -1, 2]))) for m in monos}
    for p in [*(algebra.gen_poly(i) for i in range(algebra.ngens)), element]:
        assert algebra.is_nilpotent(p) == _nilpotent_by_powers(algebra, p), (spec, p)
