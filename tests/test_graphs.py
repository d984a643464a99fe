import json
import math

import pytest

from switchnet.cuts import Permutation
from switchnet.graphs import InputGraph, all_distinct_permuted_copies, chain_with_lollipops

CHAIN = InputGraph(2, {("s", 1), (1, 2), (2, "t")})


def brute_linkage(graph, depth):
    """Enumeration oracle: count linked partners per vertex by path search."""
    best = 0
    for v in graph.vertices:
        count = 0
        for w in graph.vertices:
            if w == v:
                continue
            d1 = graph.distance(v, w)
            d2 = graph.distance(w, v)
            if (d1 is not None and d1 <= depth) or (d2 is not None and d2 <= depth):
                count += 1
        best = max(best, count)
    return best


class TestBoundedReach:
    def test_chain_examples(self):
        assert CHAIN.bounded_reach("s", 1) == {1}
        assert CHAIN.bounded_reach("s", 3) == {1, 2, "t"}
        assert CHAIN.bounded_reach("s", 0) == set()

    def test_monotone_in_depth(self, rng):
        g = _random_graph(6, rng)
        for v in g.vertices:
            prev = set()
            for d in range(8):
                cur = g.bounded_reach(v, d)
                assert prev <= cur
                prev = cur

    def test_full_reach_at_depth_n_plus_one(self, rng):
        g = _random_graph(5, rng)
        for v in g.vertices:
            full = g.bounded_reach(v, 5 + 1)
            assert full == g.bounded_reach(v, 50)

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            CHAIN.bounded_reach(9, 1)


class TestLinkage:
    def test_chain_depth_one(self):
        assert CHAIN.linkage_degree(1) == 2

    def test_edgeless(self):
        assert InputGraph(4, set()).linkage_degree(3) == 0

    def test_complete_dag_depth_two(self):
        order = ["s", 1, 2, 3, "t"]
        edges = {(order[i], order[j]) for i in range(5) for j in range(i + 1, 5)}
        g = InputGraph(3, edges)
        assert g.linkage_degree(2) == 4

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(10):
            g = _random_graph(5, rng)
            for d in range(4):
                assert g.linkage_degree(d) == brute_linkage(g, d)


class TestPermutation:
    def test_identity(self):
        assert CHAIN.permuted(Permutation.identity(2)) == CHAIN

    def test_swap(self):
        swapped = CHAIN.permuted(Permutation({1: 2, 2: 1}))
        assert swapped == InputGraph(2, {("s", 2), (2, 1), (1, "t")})

    def test_acyclicity_preserved(self, rng):
        for _ in range(10):
            g = _random_graph(5, rng, acyclic=True)
            sigma = Permutation.random(5, rng)
            assert g.permuted(sigma).is_acyclic()

    def test_commutes_with_bounded_reach(self, rng):
        for _ in range(10):
            g = _random_graph(5, rng)
            sigma = Permutation.random(5, rng)
            for v in g.vertices:
                image = {sigma(w) for w in g.bounded_reach(v, 2)}
                assert image == g.permuted(sigma).bounded_reach(sigma(v), 2)


class TestPaths:
    def test_direct_edge(self):
        assert InputGraph(1, {("s", "t")}).shortest_st_path_length() == 1

    def test_chain(self):
        assert CHAIN.shortest_st_path_length() == 3

    def test_no_path(self):
        assert InputGraph(2, {("s", 1)}).shortest_st_path_length() is None
        assert InputGraph(2, {("s", 1)}).shortest_st_path() is None

    def test_shortest_path_is_valid(self):
        path = CHAIN.shortest_st_path()
        assert path == ["s", 1, 2, "t"]


class TestConstruction:
    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            InputGraph(2, {(1, 1)})

    def test_unknown_vertices_rejected(self):
        with pytest.raises(ValueError):
            InputGraph(2, {(1, 5)})

    def test_degenerate_edges_storable(self):
        g = InputGraph(2, {(1, "s"), ("t", 2), ("s", "t")})
        assert len(g.edges) == 3

    def test_json_roundtrip(self):
        blob = json.dumps(CHAIN.to_json())
        assert InputGraph.from_json(json.loads(blob)) == CHAIN

    def test_chain_with_lollipops(self):
        g = chain_with_lollipops(5, 2)
        assert g.edges == frozenset({("s", 1), (1, 2), (2, "t"), ("s", 3), ("s", 4), ("s", 5)})

    def test_distinct_permuted_copies(self):
        assert len(all_distinct_permuted_copies(chain_with_lollipops(4, 2))) == 12


def _walked_copies(graph):
    """Oracle: walk all n! permutations, keeping each copy at its first sigma."""
    seen = {}
    for sigma in Permutation.all(graph.n):
        g = graph.permuted(sigma)
        seen.setdefault(g.edges, g)
    return list(seen.values())


class TestOrbitEnumeration:
    def test_matches_permutation_walk_on_random_graphs(self, rng):
        for _ in range(120):
            n = rng.randint(0, 6)
            g = _random_graph(n, rng, acyclic=rng.random() < 0.5, p=rng.choice([0.05, 0.15, 0.3, 0.6]))
            assert all_distinct_permuted_copies(g) == _walked_copies(g)

    @pytest.mark.parametrize("n,k", [(7, 3), (6, 1), (5, 5)])
    def test_matches_permutation_walk_on_chain_with_lollipops(self, n, k):
        g = chain_with_lollipops(n, k)
        copies = all_distinct_permuted_copies(g)
        assert copies == _walked_copies(g)
        assert len(copies) == math.perm(n, k)


def _random_graph(n, rng, acyclic=False, p=0.3):
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
