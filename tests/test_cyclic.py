"""Connes' cyclic complex: basis, b, its checks and the Goodwillie oracle."""

from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings

from khh import cache, cli
from khh.barcomplex import SliceContext
from khh.corpus import default_corpus_dir
from khh.errors import CompositionNonzeroError, OracleDisagreementError
from khh.homology import HomologyEngine
from khh.linalg import SparseMatrix
from conftest import algebra_of, hc_space, small_algebras


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
    orbit_signs = SliceContext._orbit_signs

    def unsigned(tensor):
        members, signs = orbit_signs(tensor)
        return members, None if signs is None else [1] * len(signs)

    monkeypatch.setattr(SliceContext, "_orbit_signs", staticmethod(unsigned))


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
    # version 2 cells came from the rank kernel before the singleton cascade
    for old in (1, 2):
        monkeypatch.setenv("KHH_CACHE_DIR", str(tmp_path / str(old)))
        monkeypatch.setattr(cache, "VERSION", old)
        stale = cache.cell_path(cusp.presentation, "standard", "hc", 1, (5,))
        cache.put(stale, 7)
        assert cache.get(stale) == 7
        monkeypatch.undo()
        monkeypatch.setenv("KHH_CACHE_DIR", str(tmp_path / str(old)))
        assert cache.VERSION == 3
        assert cache.get(cache.cell_path(cusp.presentation, "standard", "hc", 1, (5,))) is None
        assert HomologyEngine(cusp).hc_dim(1, 5) == 1
    # a cell resolves the cache directory once, cold and warm alike
    mkdirs = []
    mkdir = Path.mkdir

    def counting(path, *args, **kwargs):
        mkdirs.append(path)
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting)
    for _ in ("cold", "warm"):
        mkdirs.clear()
        assert HomologyEngine(cusp).hh_dim(2, 7) == 1
        assert mkdirs == [tmp_path / "2"]


# -- differential property: Connes, the total complex and Goodwillie ---------


@settings(max_examples=80)
@seed(0)
@given(small_algebras())
@example(((2, 3), ((((0, 2), 1), ((3, 0), -1)),)))  # the cusp y^2 = x^3
@example(((1,), ((((2,), 1),),)))  # the dual numbers
def test_connes_total_complex_and_goodwillie_agree(spec):
    engine = HomologyEngine(algebra_of(spec))
    for w in range(1, 6):
        for n in range(4):
            connes = engine.hc_dim(n, w)
            goodwillie = sum((-1) ** k * engine.hh_dim(n - k, w) for k in range(n + 1))
            assert connes == goodwillie == hc_space(engine, n, w).dim, (spec, n, w)
