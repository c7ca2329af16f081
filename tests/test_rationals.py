"""Exact rationals and the sparse-sum primitive."""

from khh.rationals import QQ, add_term


def test_add_term_drops_a_key_whose_sum_is_zero():
    out = {"a": QQ(1, 2), "b": 3}
    add_term(out, "a", QQ(-1, 2))
    add_term(out, "b", -3)
    assert out == {}


def test_add_term_with_zero_on_an_absent_key_stores_nothing():
    out = {"a": 1}
    add_term(out, "b", 0)
    add_term(out, "c", QQ(0))
    assert out == {"a": 1}


def test_add_term_accumulates_and_keeps_the_position():
    out = {"a": 1, "b": 2}
    add_term(out, "a", 4)
    add_term(out, "c", 1)
    assert list(out.items()) == [("a", 5), ("b", 2), ("c", 1)]


def test_add_term_keeps_int_sums_int_and_rational_sums_rational():
    out = {}
    add_term(out, "i", 2)
    add_term(out, "i", -5)
    add_term(out, "q", QQ(2))
    add_term(out, "q", QQ(1, 3))
    assert out == {"i": -3, "q": QQ(7, 3)}
    assert type(out["i"]) is int and type(out["q"]) is QQ
