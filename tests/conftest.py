import os
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

import khh
from khh.algebra import GradedAlgebra, parse_algebra
from khh.corpus import default_corpus_dir, load_corpus
from khh.rationals import QQ

# every property test draws the same examples on every run; a failure found
# this way is frozen as an @example on its test
settings.register_profile("khh", derandomize=True, deadline=None)
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
    return GradedAlgebra(
        "random", gens, [(w,) for w in weights],
        [{m: QQ(c) for m, c in rel} for rel in relations],
    )


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
