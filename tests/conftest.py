import os
from pathlib import Path

import pytest

import khh
from khh.algebra import parse_algebra
from khh.corpus import default_corpus_dir, load_corpus

# CLI subprocesses import the same khh as the tests, installed or not
_SRC = str(Path(khh.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


def read_corpus_text(name, filename):
    return (default_corpus_dir() / name / filename).read_text()


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
