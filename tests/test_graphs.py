import json
import math
import random
import tracemalloc
from collections import deque
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchnet.cuts import Permutation
from switchnet.graphs import InputGraph, all_distinct_permuted_copies, chain_with_lollipops, orbit_bound
from switchnet.parity import placement_graphs

from conftest import random_graph, small_graphs

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
        g = random_graph(6, rng)
        for v in g.vertices:
            prev = set()
            for d in range(8):
                cur = g.bounded_reach(v, d)
                assert prev <= cur
                prev = cur

    def test_full_reach_at_depth_n_plus_one(self, rng):
        g = random_graph(5, rng)
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
            g = random_graph(5, rng)
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
            g = random_graph(5, rng, acyclic=True)
            sigma = Permutation.random(5, rng)
            assert g.permuted(sigma).is_acyclic()

    def test_commutes_with_bounded_reach(self, rng):
        for _ in range(10):
            g = random_graph(5, rng)
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

    def test_ties_break_in_str_order(self):
        # with n >= 10, "10" sorts before "2" as a string but after it as an
        # int, so the chosen path shows which order broke the tie
        g = InputGraph(10, {("s", v) for v in range(2, 11)} | {(v, "t") for v in range(2, 11)})
        assert g.shortest_st_path() == ["s", 10, "t"]


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

    def test_graph_holds_only_its_edges(self):
        # a graph holds n, its edge set and its memoized trees, about 1.5 KiB
        # in a placement family; eager successor and predecessor maps made it
        # 5.4 KiB, and members of a family never run a BFS
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            placements = placement_graphs(8, 3)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held / len(placements) < 3 * 1024


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
            g = random_graph(n, rng, acyclic=rng.random() < 0.5, p=rng.choice([0.05, 0.15, 0.3, 0.6]))
            assert all_distinct_permuted_copies(g) == _walked_copies(g)

    @pytest.mark.parametrize("n,k", [(7, 3), (6, 1), (5, 5)])
    def test_matches_permutation_walk_on_chain_with_lollipops(self, n, k):
        g = chain_with_lollipops(n, k)
        copies = all_distinct_permuted_copies(g)
        assert copies == _walked_copies(g)
        assert len(copies) == math.perm(n, k)
        assert orbit_bound(g) == math.perm(n, k)

    def test_orbit_bound_bounds_the_copies(self, rng):
        # n!/prod |C|! counts the canonical maps; distinct copies can be fewer
        for _ in range(60):
            g = random_graph(rng.randint(0, 6), rng, p=rng.choice([0.05, 0.3, 0.6]))
            assert orbit_bound(g) >= len(all_distinct_permuted_copies(g))

    def test_orbit_bound_of_larger_cores(self):
        assert orbit_bound(chain_with_lollipops(10, 2)) == 90
        assert orbit_bound(chain_with_lollipops(12, 3)) == 1320


def _adjacency(graph, reverse=False):
    adj = {}
    for u, v in graph.edges:
        a, b = (v, u) if reverse else (u, v)
        adj.setdefault(a, set()).add(b)
    return adj


def _loop_bounded_reach(graph, v, depth, reverse=False):
    """The per-query BFS that bounded_reach and bounded_coreach ran before
    every query read one memoized tree."""
    adj = _adjacency(graph, reverse)
    seen = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        if seen[u] == depth:
            continue
        for w in adj.get(u, ()):
            if w not in seen:
                seen[w] = seen[u] + 1
                queue.append(w)
    del seen[v]
    return set(seen)


def _loop_distance(graph, u, v):
    if u == v:
        return 0
    adj = _adjacency(graph)
    seen = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for w in adj.get(x, ()):
            if w not in seen:
                seen[w] = seen[x] + 1
                if w == v:
                    return seen[w]
                queue.append(w)
    return None


def _loop_shortest_st_path(graph):
    adj = _adjacency(graph)
    seen = {"s": None}
    queue = deque(["s"])
    while queue:
        x = queue.popleft()
        if x == "t":
            path = []
            while x is not None:
                path.append(x)
                x = seen[x]
            return path[::-1]
        for w in sorted(adj.get(x, ()), key=str):
            if w not in seen:
                seen[w] = x
                queue.append(w)
    return None


def _loop_linkage_degree(graph, depth):
    return max(
        len(_loop_bounded_reach(graph, v, depth) | _loop_bounded_reach(graph, v, depth, reverse=True))
        for v in graph.vertices
    )


def _loop_is_acyclic(graph):
    """Kahn's topological sort, which is_acyclic ran before it read the trees."""
    indeg = {v: 0 for v in graph.vertices}
    for u, v in graph.edges:
        indeg[v] += 1
    adj = _adjacency(graph)
    queue = deque(v for v, d in indeg.items() if d == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for w in adj.get(u, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(graph.vertices)


def _answers(graph, reach, distance, linkage, path, acyclic):
    """Every query over every vertex, pair and depth that can matter."""
    depths = range(graph.n + 3)
    return (
        {(v, d): reach(v, d) for v in graph.vertices for d in depths},
        {(u, v): distance(u, v) for u in graph.vertices for v in graph.vertices},
        [linkage(d) for d in depths],
        path(),
        acyclic(),
    )


def _graph_answers(g):
    return _answers(g, g.bounded_reach, g.distance, g.linkage_degree, g.shortest_st_path, g.is_acyclic)


def _loop_answers(g):
    return _answers(g, partial(_loop_bounded_reach, g), partial(_loop_distance, g),
                    partial(_loop_linkage_degree, g), partial(_loop_shortest_st_path, g),
                    partial(_loop_is_acyclic, g))


class TestQueriesMatchSearchLoops:
    """Differential tests: each query read off the memoized BFS tree against
    the per-query search loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_all_queries(self, g):
        assert _graph_answers(g) == _loop_answers(g)
        assert g.shortest_st_path_length() == _loop_distance(g, "s", "t")

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(), st.integers(0, 10**6))
    def test_memo_unaffected_by_permuted_copy(self, g, seed):
        before = _graph_answers(g)
        copy = g.permuted(Permutation.random(g.n, random.Random(seed)))
        assert _graph_answers(copy) == _loop_answers(copy)
        assert _graph_answers(g) == before == _loop_answers(g)


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_json_roundtrip(g):
    back = InputGraph.from_json(json.loads(json.dumps(g.to_json())))
    assert back == g and back.to_json() == g.to_json()
