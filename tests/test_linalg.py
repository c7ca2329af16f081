"""Exact sparse linear algebra: frozen examples and exactness properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from khh.rationals import QQ
from khh.linalg import (
    SparseMatrix,
    QuotientSpace,
    rank,
    kernel_basis,
    homology_dim,
    eigenspace,
)
from khh.errors import CompositionNonzeroError, NotSquareError


def test_rank_empty_matrix():
    assert rank(SparseMatrix.zero(0, 0)) == 0


def test_rank_identity():
    assert rank(SparseMatrix.identity(3)) == 3


def test_rank_dependent_rows():
    assert rank(SparseMatrix.from_dense([[1, 2], [2, 4]])) == 1


def test_kernel_of_injective_map():
    assert kernel_basis(SparseMatrix.identity(2)) == []


def test_kernel_of_zero_map():
    vectors = kernel_basis(SparseMatrix.zero(2, 3))
    assert len(vectors) == 3


def test_kernel_single_row():
    m = SparseMatrix.from_dense([[1, 1, 0]])
    vectors = kernel_basis(m)
    assert len(vectors) == 2
    for v in vectors:
        assert not m.apply(v)


def test_homology_dim_zero_complex():
    d_in = SparseMatrix.zero(0, 0)
    d_out = SparseMatrix.zero(0, 2)
    assert homology_dim(d_in, d_out) == 2


def test_homology_dim_exact_complex():
    d_in = SparseMatrix.identity(2)
    d_out = SparseMatrix.zero(0, 2)
    assert homology_dim(d_in, d_out) == 0


def test_homology_dim_rank_count():
    d_in = SparseMatrix.from_dense([[2], [0]])
    d_out = SparseMatrix.from_dense([[0, 1]])
    assert homology_dim(d_in, d_out) == 0


def test_homology_dim_detects_bad_composition():
    d_in = SparseMatrix.identity(2)
    d_out = SparseMatrix.identity(2)
    with pytest.raises(CompositionNonzeroError):
        homology_dim(d_in, d_out)


def test_eigenspace_scalar_matrix():
    m = SparseMatrix.identity(3).scale(QQ(2))
    assert len(eigenspace(m, 2)) == 3


def test_eigenspace_diagonal():
    m = SparseMatrix.from_dense([[2, 0], [0, 4]])
    assert len(eigenspace(m, 4)) == 1


def test_eigenspace_jordan_block():
    m = SparseMatrix.from_dense([[0, 1], [0, 0]])
    assert len(eigenspace(m, 0)) == 1


def test_eigenspace_requires_square():
    with pytest.raises(NotSquareError):
        eigenspace(SparseMatrix.zero(2, 3), 0)


def _random_matrix(rng, rows, cols, density=0.5, span=4):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = rng.randint(-span, span)
                if v:
                    entries[(i, j)] = QQ(v)
    return SparseMatrix(rows, cols, entries)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 10_000))
def test_rank_nullity_and_transpose(rows, cols, seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rows, cols)
    r = m.rank()
    assert r + len(m.kernel_basis()) == cols
    assert r == m.transpose().rank()
    for v in m.kernel_basis():
        assert not m.apply(v)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_matrix_product_associative_bit_exact(seed):
    rng = random.Random(seed)
    a = _random_matrix(rng, 4, 3, density=0.7)
    b = _random_matrix(rng, 3, 5, density=0.7)
    c = _random_matrix(rng, 5, 2, density=0.7)
    assert (a @ b) @ c == a @ (b @ c)


def test_column_space_membership_consistent_and_inconsistent():
    m = SparseMatrix.from_dense([[1, 2], [2, 4]])
    columns = m.column_echelon()
    assert columns.contains({0: QQ(3), 1: QQ(6)})
    assert not columns.contains({0: QQ(1)})
    assert columns.contains({})
    assert m.column_echelon() is columns


def test_quotient_space_classes():
    # ambient QQ^2, boundaries spanned by (1, 1), everything a cycle
    d_in = SparseMatrix.from_dense([[1], [1]])
    d_out = SparseMatrix.zero(0, 2)
    space = QuotientSpace(d_in, d_out)
    assert space.dim == 1
    coords_e0 = space.coords({0: QQ(1)})
    coords_e1 = space.coords({1: QQ(1)})
    # e0 + e1 is the boundary, so the two classes are opposite
    assert coords_e0 == {0: QQ(1)}
    assert coords_e1 == {0: QQ(-1)}


def test_quotient_space_over_zero_differential_has_unit_reps():
    # cokernel of d_in: callers read a class basis off min(rep)
    d_in = SparseMatrix.from_dense([[1, 0], [1, 2], [0, 1], [0, 0]])
    space = QuotientSpace(d_in, SparseMatrix.zero(0, 4))
    assert space.dim == 4 - d_in.rank() == 2
    assert all(rep == {min(rep): QQ(1)} for rep in space.reps)
    assert [min(rep) for rep in space.reps] == [0, 3]
