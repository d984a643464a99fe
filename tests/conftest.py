import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from switchnet.cuts import CutFunction, random_sparse_function  # noqa: F401  (tests import it from here)
from switchnet.graphs import InputGraph, layered_dag  # noqa: F401  (tests import it from here)


def pointwise_product(f, g):
    return CutFunction.from_values(f.n, [a * b for a, b in zip(f.values, g.values)])


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_graph(n, rng, acyclic=False, p=0.3):
    verts = ["s"] + list(range(1, n + 1)) + ["t"]
    edges = set()
    for i, u in enumerate(verts):
        for j, v in enumerate(verts):
            if u == v:
                continue
            if acyclic and j <= i:
                continue
            if rng.random() < p:
                edges.add((u, v))
    return InputGraph(n, edges)


@st.composite
def small_graphs(draw, n=None):
    """Random graphs on the given n, or on n <= 7, at several densities,
    cyclic or not; edges into s and out of t are allowed, as InputGraph
    stores them."""
    if n is None:
        n = draw(st.integers(0, 7))
    p = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    acyclic = draw(st.booleans())
    return random_graph(n, random.Random(draw(st.integers(0, 10**6))), acyclic=acyclic, p=p)


@st.composite
def rationals(draw, integral=False):
    """Ints, or Fractions with mixed small denominators and numerators past 2**64."""
    num = draw(st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)))
    if integral:
        return num
    return Fraction(num, draw(st.sampled_from([1, 2, 3, 4, 6, 9, 10, 35, 2**65 + 1])))


@st.composite
def sparse_functions(draw, max_n=10, integral=False, n=None):
    """Sparse cut functions on the given n, or on 1 <= n <= max_n, with up to
    eight coefficients."""
    if n is None:
        n = draw(st.integers(1, max_n))
    sets = st.frozensets(st.integers(1, n), max_size=n)
    coeffs = draw(st.dictionaries(sets, rationals(integral), max_size=8))
    return CutFunction(n, coeffs=coeffs)
