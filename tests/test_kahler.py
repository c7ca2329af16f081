"""Differential forms: presentations, de Rham, torsion, Jacobian verdicts."""

import pytest

from khh.rationals import QQ
from khh.algebra import GradedHom, parse_algebra
from khh.homology import HomologyEngine
from khh.kahler import (
    DifferentialForms,
    de_rham_matrix,
    hkr_class_rank,
    hkr_matrix,
    jacobian_smooth,
    omega_dims,
    torsion_dims,
)


@pytest.fixture(scope="module")
def cusp_to_line(cusp):
    line = parse_algebra("algebra line\nvars t:1")
    return GradedHom(cusp, line, [{(2,): QQ(1)}, {(3,): QQ(1)}])


def test_omega0_is_the_algebra(cusp):
    for w in range(8):
        assert omega_dims(cusp, 0, w) == cusp.dim(w)


def test_omega1_cusp_frozen(cusp):
    assert omega_dims(cusp, 1, 5) == 2  # y dx and x dy
    assert omega_dims(cusp, 1, 6) == 1  # the relation differential has weight 6
    assert [omega_dims(cusp, 1, w) for w in range(5)] == [0, 0, 1, 1, 1]


def test_omega_vanishes_above_generator_count(cusp, free2):
    assert all(omega_dims(cusp, 3, w) == 0 for w in range(10))
    assert all(omega_dims(free2, 3, w) == 0 for w in range(8))


def test_de_rham_square_zero(cusp):
    forms = DifferentialForms(cusp)
    for w in range(2, 10):
        d0 = de_rham_matrix(forms, 0, (w,))
        d1 = de_rham_matrix(forms, 1, (w,))
        assert (d1 @ d0).is_zero()


def test_hkr_iso_on_smooth(free1, free2):
    e1 = HomologyEngine(free1)
    for w in range(1, 7):
        assert hkr_class_rank(free1, 1, w, e1) == e1.hh_dim(1, w) == 1
    e2 = HomologyEngine(free2)
    for n, w in [(1, 3), (2, 2), (2, 4), (3, 3)]:
        r = hkr_class_rank(free2, n, w, e2)
        assert r == omega_dims(free2, n, w) == e2.hh_dim(n, w)


def test_hkr_lands_in_cycles(free2):
    engine = HomologyEngine(free2)
    mat = hkr_matrix(free2, 2, (3,), engine.ctx)
    b = engine.ctx.b_matrix(2, (3,))
    assert (b @ mat).is_zero()


def test_hkr_cusp_image_bounded(cusp):
    engine = HomologyEngine(cusp)
    for w in (5, 6, 7):
        r = hkr_class_rank(cusp, 1, w, engine)
        assert r <= engine.hh_dim(1, w)


def test_torsion_dims_cusp(cusp_to_line):
    dims = [torsion_dims(cusp_to_line, 1, w) for w in range(1, 10)]
    assert dims == [0, 0, 0, 0, 1, 0, 1, 0, 0]


def test_torsion_identity_map_is_zero(free1):
    iden = GradedHom(free1, free1, [free1.gen_poly(i) for i in range(free1.ngens)])
    assert all(torsion_dims(iden, 1, w) == 0 for w in range(1, 6))


def test_jacobian_verdicts(cusp, free2, dualnum):
    assert jacobian_smooth(free2).status == "SMOOTH"
    cusp_verdict = jacobian_smooth(cusp)
    assert cusp_verdict.status == "SINGULAR"
    assert not cusp_verdict.non_reduced
    dual_verdict = jacobian_smooth(dualnum)
    assert dual_verdict.status == "SINGULAR"
    assert dual_verdict.non_reduced


def test_jacobian_flags_zero_divisors():
    axes = parse_algebra("algebra axes\nvars x:1 y:1\nrel x y")
    verdict = jacobian_smooth(axes)
    assert verdict.status == "SINGULAR"
    assert verdict.zero_divisors and not verdict.non_reduced


def test_jacobian_indeterminate_on_eliminable_generator():
    algebra = parse_algebra("algebra bad\nvars x:1 y:2\nrel y - x^2")
    assert jacobian_smooth(algebra).status == "INDETERMINATE"
