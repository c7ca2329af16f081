"""Hand-computed cases for the benchmark's reference models.

Run with `python3 -m pytest bench/test_references.py`.
"""

from fractions import Fraction

import pytest

from references import Hypersurface, Reference, hkr_hh, parse_presentation, rank

CUSP = "algebra cusp\nvars x:2 y:3\nrel y^2 - x^3\n"
DUALNUM = "algebra dualnum\nvars e:1\nrel e^2\n"


def test_parser_reads_terms_products_and_coefficients():
    pres = parse_presentation("algebra a\nvars x:1 y:2 # comment\nrel 2 x^2 y - 3/2*y^2\nrel x y\n")
    assert pres.gens == ("x", "y")
    assert pres.weights == ((1,), (2,))
    assert pres.relations[0] == {(2, 1): Fraction(2), (0, 2): Fraction(-3, 2)}
    assert pres.relations[1] == {(1, 1): Fraction(1)}


def test_rank_of_small_matrices():
    assert rank([{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]) == 1
    assert rank([{0: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]) == 2
    assert rank([{}]) == 0


def test_hkr_counts_for_free_algebras():
    free1 = parse_presentation("algebra free1\nvars x:1\n")
    # HH_0 = Q[x], HH_1 = Q[x] dx, nothing above the number of variables
    assert [hkr_hh(free1, 0, (w,)) for w in range(4)] == [1, 1, 1, 1]
    assert [hkr_hh(free1, 1, (w,)) for w in range(4)] == [0, 1, 1, 1]
    assert hkr_hh(free1, 2, (3,)) == 0
    free2 = parse_presentation("algebra free2\nvars x:1 y:1\n")
    assert hkr_hh(free2, 1, (2,)) == 4  # x dx, x dy, y dx, y dy
    assert hkr_hh(free2, 2, (3,)) == 2  # x dx^dy, y dx^dy


def test_free_algebra_hodge_and_goodwillie():
    ref = Reference(parse_presentation("algebra free1\nvars x:1\n"))
    assert ref.hodge(1, (4,)) == {1: 1}
    # HC of Q[x]: Q[x] in degree 0, zero above in positive weight
    assert [ref.hc(n, (3,)) for n in range(4)] == [1, 0, 0, 0]
    assert [ref.hc(n, (0,)) for n in range(4)] == [1, 0, 1, 0]


def test_dual_numbers():
    ref = Reference(parse_presentation(DUALNUM))
    # HH_n is one class: de u^[k] (weight n, n odd) or e u^[k] (weight n + 1)
    for n, w, piece in [(1, 1, 1), (2, 3, 1), (3, 3, 2), (4, 5, 2)]:
        assert ref.hodge(n, (w,)) == {piece: 1}
        assert sum(ref.hh(n, (v,)) for v in range(9)) == 1
    # reduced HC is Q in even degrees, at weight n + 1
    assert [ref.hc(n, (3,)) for n in range(5)] == [0, 0, 1, 0, 0]


def test_cusp_forms_and_low_degrees():
    cusp = Hypersurface(parse_presentation(CUSP))
    assert cusp.basis((6,)) == [(0, 2)]  # x^3 is the lead, so y^2 stays
    # weight 5: y dx and x dy; df = -3x^2 dx + 2y dy first appears in weight 6
    assert cusp.omega(1, (5,)) == 2
    assert cusp.omega(1, (6,)) == 1
    # dx^dy spans HH_2 in weight 5, in the top Hodge piece
    assert cusp.hodge(2, (5,)) == {2: 1}


def test_bigraded_polynomial_extension_follows_kunneth():
    base = Reference(parse_presentation(CUSP))
    ext = Reference(parse_presentation(CUSP).with_polynomial_variable())
    assert ext.hh(1, (0, 1)) == 1  # dt
    # HH_n(A[t])_{w,j} = HH_n(A)_w + HH_{n-1}(A)_w for j >= 1
    for n in range(1, 4):
        for w in range(8):
            want = base.hh(n, (w,)) + base.hh(n - 1, (w,))
            assert ext.hh(n, (w, 2)) == want


def test_hypersurface_model_rejects_other_presentations():
    with pytest.raises(ValueError):
        Hypersurface(parse_presentation("algebra free1\nvars x:1\n"))
    with pytest.raises(ValueError):
        hkr_hh(parse_presentation(CUSP), 1, (5,))
