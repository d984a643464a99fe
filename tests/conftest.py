import random

import pytest
from hypothesis import strategies as st

from switchnet.cuts import CutFunction, random_sparse_function  # noqa: F401  (tests import it from here)
from switchnet.graphs import InputGraph


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
def small_graphs(draw):
    """Random graphs on n <= 7 at several densities, cyclic or not; edges into
    s and out of t are allowed, as InputGraph stores them."""
    n = draw(st.integers(0, 7))
    p = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    acyclic = draw(st.booleans())
    return random_graph(n, random.Random(draw(st.integers(0, 10**6))), acyclic=acyclic, p=p)
