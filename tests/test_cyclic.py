"""Connes' cyclic complex: basis, b, its checks and the Goodwillie oracle."""

import pytest
from hypothesis import example, given, settings, strategies as st

from khh import cache, cli
from khh.algebra import GradedAlgebra
from khh.barcomplex import SliceContext
from khh.corpus import default_corpus_dir
from khh.errors import CompositionNonzeroError, OracleDisagreementError
from khh.homology import HomologyEngine
from khh.linalg import SparseMatrix
from khh.rationals import QQ
from khh.workpool import _algebra_payload


def test_cyclic_basis_keeps_one_rotation_per_live_orbit(free1):
    ctx = SliceContext(free1)
    # weight 4 in degree 1: x[x^3] ~ x^3[x] share an orbit; x^2[x^2] is its
    # own rotation with sign -1 and vanishes; [x^4] has a scalar head
    assert ctx.cyclic_basis(1, 4) == (((1,), (3,)),)
    index = ctx.cyclic_index(1, 4)
    assert index[((3,), (1,))] == (0, -1)
    assert index[((2,), (2,))] is None
    assert ((0,), (4,)) not in index
    # in degree 2 the rotation sign is +1, so x^2[x^2|x^2] survives
    assert ((2,), (2,), (2,)) in ctx.cyclic_basis(2, 6)


def test_b_transpose_cyclic_basis_reverses_the_representatives(free2):
    std = SliceContext(free2)
    rev = SliceContext(free2, "b-transpose")
    for n in range(3):
        for w in range(1, 6):
            reversed_reps = {rev._reverse(t) for t in std.cyclic_basis(n, w)}
            assert set(rev.cyclic_basis(n, w)) == reversed_reps


def test_b_transpose_hc_equals_standard_on_cusp(cusp):
    std = HomologyEngine(cusp)
    rev = HomologyEngine(cusp, "b-transpose")
    for n in range(4):
        for w in range(10):
            assert rev.hc_dim(n, w) == std.hc_dim(n, w), (n, w)


def _drop_fold_sign(monkeypatch):
    canon = SliceContext._cyclic_canon_std

    def unsigned(tensor):
        found = canon(tensor)
        return None if found is None else (found[0], 1)

    monkeypatch.setattr(SliceContext, "_cyclic_canon_std", staticmethod(unsigned))


def test_planted_fold_sign_fault_is_an_oracle_disagreement(free1, monkeypatch):
    # with the sign dropped, b still squares to zero on free1 at weight 4,
    # so only the Goodwillie sum of HH can catch the wrong HC_1
    _drop_fold_sign(monkeypatch)
    with pytest.raises(OracleDisagreementError, match="Connes"):
        HomologyEngine(free1).hc_dim(1, 4)
    algebra = str(default_corpus_dir() / "free1" / "algebra.alg")
    assert cli.main(["hc", "--algebra", algebra, "--n", "1", "--max-weight", "4"]) == 5


def test_cyclic_bb_check_catches_a_corrupted_matrix(free2, monkeypatch):
    n, w = 2, (5,)
    b_n = SliceContext(free2).cyclic_b_matrix(n, w)
    live_columns = {j for (_, j), _ in b_n.items()}
    assert live_columns
    original = SliceContext.cyclic_b_matrix

    def corrupted(self, m, weight):
        mat = original(self, m, weight)
        if m != n + 1:
            return mat
        # flip one entry whose row meets a nonzero column of b_n
        target = next(ij for ij, _ in mat.items() if ij[0] in live_columns)
        return SparseMatrix(mat.rows, mat.cols, {
            ij: -v if ij == target else v for ij, v in mat.items()
        })

    monkeypatch.setattr(SliceContext, "cyclic_b_matrix", corrupted)
    ctx = SliceContext(free2)
    with pytest.raises(CompositionNonzeroError, match="cyclic b.b"):
        ctx.verify("cyclic b.b", n, w)
    with pytest.raises(CompositionNonzeroError):
        HomologyEngine(free2).hc_dim(n, w)


def test_cell_cached_under_an_older_version_is_not_served(cusp, tmp_path, monkeypatch):
    monkeypatch.setenv("KHH_CACHE_DIR", str(tmp_path))
    payload = _algebra_payload(cusp)
    monkeypatch.setattr(cache, "VERSION", 1)
    stale = cache.cell_key(payload, "standard", "hc", 1, (5,))
    cache.put(stale, 7)
    assert cache.get(stale) == 7
    monkeypatch.undo()
    monkeypatch.setenv("KHH_CACHE_DIR", str(tmp_path))
    assert cache.VERSION != 1
    assert HomologyEngine(cusp).hc_dim(1, 5) == 1


# -- differential property: Connes, the total complex and Goodwillie ---------


def _monomials(weights, total):
    """Exponent vectors of the given weighted total over len(weights) variables."""
    if not weights:
        return [()] if total == 0 else []
    out = []
    for e in range(total // weights[0] + 1):
        out += [(e, *rest) for rest in _monomials(weights[1:], total - e * weights[0])]
    return out


@st.composite
def small_algebras(draw):
    """(weights, relations) of a connected graded algebra: 1-3 generators of
    weight <= 3, up to two monomial or homogeneous binomial relations."""
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    relations = []
    for _ in range(draw(st.integers(0, 2))):
        total = draw(st.integers(2, 6))
        monos = [m for m in _monomials(weights, total) if sum(m) >= 2]
        if not monos:
            continue
        lead = draw(st.sampled_from(monos))
        others = [m for m in monos if m != lead]
        if others and draw(st.booleans()):
            coeff = draw(st.sampled_from([1, -1, 2]))
            relations.append(((lead, 1), (draw(st.sampled_from(others)), -coeff)))
        else:
            relations.append(((lead, 1),))
    return weights, tuple(relations)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_algebras())
@example(((2, 3), ((((0, 2), 1), ((3, 0), -1)),)))  # the cusp y^2 = x^3
@example(((1,), ((((2,), 1),),)))  # the dual numbers
def test_connes_total_complex_and_goodwillie_agree(spec):
    weights, relations = spec
    gens = ("x", "y", "z")[: len(weights)]
    algebra = GradedAlgebra(
        "random", gens, [(w,) for w in weights],
        [{m: QQ(c) for m, c in rel} for rel in relations],
    )
    engine = HomologyEngine(algebra)
    for w in range(1, 6):
        for n in range(4):
            connes = engine.hc_dim(n, w)
            goodwillie = sum((-1) ** k * engine.hh_dim(n - k, w) for k in range(n + 1))
            assert connes == goodwillie == engine.hc_space(n, w).dim, (spec, n, w)
