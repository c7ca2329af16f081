"""Elliptic curve arithmetic, Riemann-Roch, and the cohomology tables."""

import random

import pytest

from khh.curve import (
    DivisorClass,
    DivisorGroup,
    EllipticCurve,
    O,
    cusp_bundle_tables,
    parse_curve_file,
    reduced_k_summands,
)
from khh.errors import ParseError, PreconditionError, TorsionPointError
from conftest import read_corpus_text


@pytest.fixture(scope="module")
def e37():
    return EllipticCurve(0, 0, 1, -1, 0)


@pytest.fixture(scope="module")
def div37(e37):
    return DivisorGroup(e37)


def test_discriminant_nonzero(e37):
    assert e37.discriminant == 37


def test_singular_equation_rejected():
    with pytest.raises(PreconditionError):
        EllipticCurve(0, 0, 0, 0, 0)


def test_group_law_identity_and_inverse(e37):
    P = e37.point(0, 0)
    assert e37.add(P, O) == P
    assert e37.add(P, e37.neg(P)) == O
    assert e37.neg(e37.neg(P)) == P


def test_group_law_frozen_chord(e37):
    # regression vector produced by the chord construction
    got = e37.add(e37.point(0, 0), e37.point(1, 0))
    assert got == e37.point(-1, -1)


def test_group_law_associativity_random(e37):
    rng = random.Random(5)
    P = e37.point(0, 0)
    points = [e37.mul(k, P) for k in range(1, 8)]
    for _ in range(40):
        a, b, c = (rng.choice(points) for _ in range(3))
        assert e37.add(e37.add(a, b), c) == e37.add(a, e37.add(b, c))


def test_torsion_certification(e37):
    assert e37.is_torsion(O) == (True, 1)
    assert e37.is_torsion(e37.point(0, 0)) == (False, None)
    e32 = EllipticCurve(0, 0, 0, -1, 0)
    assert e32.is_torsion(e32.point(0, 0)) == (True, 2)


def test_divisor_reduction_is_homomorphism(e37, div37):
    rng = random.Random(9)
    P = e37.point(0, 0)
    pts = [e37.mul(k, P) for k in range(1, 6)]
    for _ in range(25):
        d1 = [(rng.choice(pts), rng.randint(-2, 2)) for _ in range(3)]
        d2 = [(rng.choice(pts), rng.randint(-2, 2)) for _ in range(3)]
        lhs = div37.reduce(d1 + d2)
        rhs = div37.add(div37.reduce(d1), div37.reduce(d2))
        assert lhs == rhs


def test_rr_dims(e37, div37):
    P = e37.point(0, 0)
    J = DivisorClass(0, P)
    for j in range(1, 5):
        L = div37.power(div37.of_point(O), j)
        assert div37.rr_dims(div37.add(div37.of_point(P), div37.power(div37.of_point(O), j - 1))) == (j, 0)
    for r in (1, 2, 3, -1, -4):
        assert div37.rr_dims(div37.power(J, r)) == (0, 0)
    assert div37.rr_dims(DivisorClass(0, O)) == (1, 1)


def test_rr_riemann_roch_and_serre_duality(e37, div37):
    rng = random.Random(21)
    P = e37.point(0, 0)
    for _ in range(30):
        D = DivisorClass(rng.randint(-5, 5), e37.mul(rng.randint(-3, 3), P))
        h0, h1 = div37.rr_dims(D)
        assert h0 - h1 == D.degree
        assert (h1, h0) == div37.rr_dims(DivisorClass(-D.degree, e37.neg(D.reducer)))


def test_reduced_k_summands_all_positive():
    for n in range(-1, 8):
        for m in range(0, 3):
            powers = reduced_k_summands(n, m)
            assert powers == tuple(sorted(set(powers)))
            assert all(j_power > 0 for j_power in powers)


def test_cusp_bundle_tables(e37):
    P = e37.point(0, 0)
    tabs = cusp_bundle_tables(e37, P, O, (-1, 6), 2, 4)
    assert tabs.regular_verdict  # every (h0, h1) cell is (0, 0)
    plus = {row["j"]: (row["h0"], row["h1"])
            for row in tabs.twist_table if row["convention"] == "plus"}
    assert plus == {1: (1, 0), 2: (2, 0), 3: (3, 0), 4: (4, 0)}
    minus = {row["j"]: (row["h0"], row["h1"])
             for row in tabs.twist_table if row["convention"] == "minus"}
    assert minus == {1: (0, 1), 2: (0, 2), 3: (0, 3), 4: (0, 4)}
    assert tabs.k0_dims == {"plus": 10, "minus": 0}
    assert tabs.km1_dims == {"plus": 0, "minus": 10}
    assert tabs.findings  # the sign discrepancy is flagged, not resolved


def test_cusp_bundle_rejects_torsion():
    e32 = EllipticCurve(0, 0, 0, -1, 0)
    with pytest.raises(TorsionPointError):
        cusp_bundle_tables(e32, e32.point(0, 0), O, (-1, 2), 1, 2)


def test_dualnum_table_matches_polynomial_count(e37):
    # h^0(J (x) L^j) = j under positive twists: the growing column matches
    # the rank-j slice count of a two-variable polynomial algebra
    P = e37.point(0, 0)
    tabs = cusp_bundle_tables(e37, P, O, (0, 2), 1, 5)
    plus = [row for row in tabs.twist_table if row["convention"] == "plus"]
    assert [row["h0"] for row in plus] == [1, 2, 3, 4, 5]


def test_parse_curve_file():
    curve, points = parse_curve_file(read_corpus_text("curve37a", "curve.crv"))
    assert curve.discriminant == 37
    assert len(points) == 2 and points[1].infinity
    with pytest.raises(ParseError):
        parse_curve_file("curve 0 0 1 -1 0\npoint 5 5")
