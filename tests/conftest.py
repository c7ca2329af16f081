import os
from fractions import Fraction
from pathlib import Path
from weakref import WeakKeyDictionary

import pytest
from hypothesis import settings, strategies as st

import khh
from khh.algebra import GradedAlgebra, parse_algebra
from khh.corpus import default_corpus_dir, load_corpus
from khh.homology import _check_space_dim
from khh.linalg import QuotientSpace, SparseMatrix

# every property test draws the same examples on every run; a failure found
# this way is frozen as an @example on its test.  Each @given test also
# carries an explicit @seed(0), which overrides derandomize's digest of the
# test's source, so an edit to a test body does not redraw its examples;
# with no example database, nothing from an earlier run is replayed either
settings.register_profile("khh", derandomize=True, database=None, deadline=None)
settings.load_profile("khh")

# CLI subprocesses import the same khh as the tests, installed or not
_SRC = str(Path(khh.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


def read_corpus_text(name, filename):
    return (default_corpus_dir() / name / filename).read_text()


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


def algebra_of(spec):
    """The GradedAlgebra of a `small_algebras` example."""
    weights, relations = spec
    gens = ("x", "y", "z")[: len(weights)]
    return GradedAlgebra("random", gens, [(w,) for w in weights], relations)


@pytest.fixture(scope="session")
def corpus_entries():
    return {e.name: e for e in load_corpus()}


@pytest.fixture(scope="session")
def cusp():
    return parse_algebra(read_corpus_text("cusp", "algebra.alg"))


@pytest.fixture(scope="session")
def free1():
    return parse_algebra(read_corpus_text("free1", "algebra.alg"))


@pytest.fixture(scope="session")
def free2():
    return parse_algebra(read_corpus_text("free2", "algebra.alg"))


@pytest.fixture(scope="session")
def dualnum():
    return parse_algebra(read_corpus_text("dualnum", "algebra.alg"))


@pytest.fixture(scope="session")
def cusp_square():
    from khh.fiber import ResolutionSquare

    square = ResolutionSquare.parse(read_corpus_text("cusp", "square.sq"))
    square.validate(12)
    return square


# -- oracles and helpers the tests share ----------------------------------------


def from_dense(data):
    """The SparseMatrix of a list of rows."""
    entries = {(i, j): v for i, row in enumerate(data) for j, v in enumerate(row) if v}
    return SparseMatrix(len(data), len(data[0]) if data else 0, entries)


def check_slice(ctx, n, w):
    """b^2, B^2 and, unless the convention is corrupt, bB + Bb at (n, w)."""
    ctx.verify("b.b", n, w)
    ctx.verify("B.B", n, w)
    if not ctx.conv.corrupt:
        ctx.verify("b.B + B.b", n, w)


_HC_SPACES = WeakKeyDictionary()  # engine -> {(n, w): its HC quotient}


def hc_space(engine, n, w):
    """HC_n at weight w as classes of the (b, B) total complex, built once per
    engine; its class count must equal `hc_dim`, which comes from Connes'
    complex in positive weight."""
    spaces = _HC_SPACES.setdefault(engine, {})
    key = (n, engine.algebra._coerce_weight(w))
    if key not in spaces:
        space = QuotientSpace(*engine._differentials("total", n, w))
        _check_space_dim(space, engine.hc_dim(n, w), "HC", n, w)
        spaces[key] = space
    return spaces[key]


class FractionEchelon:
    """The former rational echelon (pivots scaled to 1), kept as an oracle."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivot_rows = {}

    def reduce(self, row):
        pivots = self.pivot_rows
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                return row
            a = row.pop(c)
            for j, v in prow.items():
                if j == c:
                    continue
                s = row.get(j, Fraction(0)) - a * v
                if s:
                    row[j] = s
                else:
                    row.pop(j, None)
        return row

    def add_row(self, row):
        row = self.reduce(row)
        if not row:
            return None
        c = min(row)
        pv = row[c]
        if pv != 1:
            row = {j: v / pv for j, v in row.items()}
        self.pivot_rows[c] = row
        return c

    def kernel_vectors(self):
        pivots = self.pivot_rows
        free_cols = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        pivot_cols_desc = sorted(pivots, reverse=True)
        for f in free_cols:
            v = {f: Fraction(1)}
            for c in pivot_cols_desc:
                if c > f:
                    continue
                prow = pivots[c]
                s = Fraction(0)
                for j, a in prow.items():
                    if j == c:
                        continue
                    b = v.get(j)
                    if b is not None:
                        s += a * b
                if s:
                    v[c] = -s
            basis.append(v)
        return basis
