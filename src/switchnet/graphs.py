"""Input graphs on {s, t, 1..n} with bounded-depth reachability queries."""

from collections import deque
from itertools import combinations
from math import factorial, prod


def bfs(start, step, goal=None):
    """Breadth-first search from start.  step(x) yields (y, via) pairs in the
    order they are tried; the first pair to reach y links it to its parent,
    links[y] = (x, via), and links[start] is None.  Returns the links, in
    visiting order, and the first vertex reached that satisfies goal (None
    when none does, or without a goal, after visiting everything)."""
    links = {start: None}
    if goal is not None and goal(start):
        return links, start
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y, via in step(x):
            if y not in links:
                links[y] = (x, via)
                if goal is not None and goal(y):
                    return links, y
                queue.append(y)
    return links, None


def trace(links, end):
    """The vertices on the BFS path from the start to end, in order."""
    path = [end]
    while links[path[-1]] is not None:
        path.append(links[path[-1]][0])
    return path[::-1]


def _valid_vertex(v, n):
    return v in ("s", "t") or (isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= n)


def _require_count(n):
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"vertex count {n!r} is not an int >= 0")


class InputGraph:
    """A directed graph on {s, t, 1..n}.  Immutable after construction.

    Loops are rejected; edges into s, out of t, and s->t are storable
    (they simply never cross any cut / cross every cut respectively).
    """

    def __init__(self, n: int, edges):
        _require_count(n)
        self.n = n
        clean = set()
        for u, v in edges:
            if not _valid_vertex(u, n) or not _valid_vertex(v, n):
                raise ValueError(f"edge ({u!r},{v!r}) has a vertex outside s,t,1..{n}")
            if u == v:
                raise ValueError(f"loop edge at {u!r}")
            clean.add((u, v))
        self.edges = frozenset(clean)
        self._trees = {}

    @property
    def vertices(self):
        return ["s", "t"] + list(range(1, self.n + 1))

    def has_edge(self, u, v):
        return (u, v) in self.edges

    def middle_vertices(self):
        return range(1, self.n + 1)

    def _tree(self, source, reverse=False):
        """BFS from source over `edges`, read forward or reversed: the parent
        links (see `bfs`) and each reached vertex's distance.  Neighbours are
        tried in str order, so shortest_st_path is deterministic.  Memoized:
        the graph is immutable, and no caller may see or mutate the dicts."""
        key = (source, reverse)
        if key not in self._trees:
            adjacency = {}
            for u, v in self.edges:
                adjacency.setdefault(v if reverse else u, []).append(u if reverse else v)
            links, _ = bfs(source, lambda x: ((w, None) for w in sorted(adjacency.get(x, ()), key=str)))
            dist = {}
            for v, link in links.items():
                dist[v] = 0 if link is None else dist[link[0]] + 1
            self._trees[key] = links, dist
        return self._trees[key]

    def bounded_reach(self, v, depth: int):
        """Vertices reachable from v by a directed path of length <= depth (v excluded)."""
        if v not in ("s", "t") and not _valid_vertex(v, self.n):
            raise ValueError(f"unknown vertex {v!r}")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        return {w for w, d in self._tree(v)[1].items() if 0 < d <= depth}

    def distance(self, u, v):
        """BFS edge-count distance from u to v, or None when unreachable."""
        return self._tree(u)[1].get(v)

    def linkage_degree(self, depth: int) -> int:
        """max over vertices v of |{w != v : v reaches w or w reaches v within depth}|."""
        return max(
            len({w for reverse in (False, True)
                 for w, d in self._tree(v, reverse)[1].items() if 0 < d <= depth})
            for v in self.vertices
        )

    def shortest_st_path_length(self):
        """BFS distance from s to t, or None when there is no path."""
        return self.distance("s", "t")

    def shortest_st_path(self):
        """One shortest s->t path as a vertex list, or None."""
        links = self._tree("s")[0]
        return trace(links, "t") if "t" in links else None

    def has_st_path(self):
        return self.shortest_st_path_length() is not None

    def is_acyclic(self):
        """No edge (u, v) closes a cycle, i.e. no edge has u reachable from v."""
        return not any(u in self._tree(v)[1] for u, v in self.edges)

    def permuted(self, sigma):
        return InputGraph(self.n, {(sigma(u), sigma(v)) for u, v in self.edges})

    def is_lollipop(self, v) -> bool:
        """Middle vertex with an edge from s or an edge to t."""
        return self.has_edge("s", v) or self.has_edge(v, "t")

    def sorted_edges(self):
        return sorted(self.edges, key=lambda e: (str(e[0]), str(e[1])))

    def __eq__(self, other):
        return isinstance(other, InputGraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"InputGraph(n={self.n}, edges={self.sorted_edges()})"

    def to_json(self):
        return {"n": self.n, "edges": [[u, v] for u, v in self.sorted_edges()]}

    @classmethod
    def from_json(cls, obj):
        if not all(isinstance(x, list) for x in [obj["edges"], *obj["edges"]]):
            raise ValueError("a graph's edges must be a JSON array of [tail, head] arrays")
        return cls(obj["n"], {(u, v) for u, v in obj["edges"]})


def _swap_classes(graph: InputGraph):
    """Middle vertices grouped by whether swapping two of them fixes the edge
    set.  That relation is an equivalence, since (i k) = (i j)(j k)(i j), so
    every permutation inside a class is an automorphism of the graph."""
    classes = []
    for v in graph.middle_vertices():
        for cls in classes:
            u = cls[0]
            if graph.permuted(lambda x: {u: v, v: u}.get(x, x)) == graph:
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def orbit_bound(graph: InputGraph) -> int:
    """n!/prod |C|! over the swap classes C: the number of canonical maps
    all_distinct_permuted_copies walks, which bounds the copies it returns."""
    return factorial(graph.n) // prod(factorial(len(cls)) for cls in _swap_classes(graph))


def all_distinct_permuted_copies(graph: InputGraph):
    """The family {sigma(G)} over all permutations, deduplicated, in the
    order of each copy's lexicographically first (sigma(1), ..., sigma(n)).

    Only canonical maps are walked: one per assignment of disjoint image
    sets to the swap classes, sending each class in increasing order onto
    its image set in increasing order.  Every sigma is a canonical map
    composed with a permutation inside the classes, and the first sigma of
    each copy is canonical, so the n!/prod |C|! canonical maps, sorted,
    give the same list as walking all n! permutations.
    """
    n = graph.n
    partial = [({}, range(1, n + 1))]
    for cls in _swap_classes(graph):
        partial = [({**m, **dict(zip(cls, image))}, [w for w in free if w not in image])
                   for m, free in partial for image in combinations(free, len(cls))]
    seen = {}
    for images in sorted(tuple(m[v] for v in range(1, n + 1)) for m, _ in partial):
        g = graph.permuted(lambda v: v if v in ("s", "t") else images[v - 1])
        seen.setdefault(g.edges, g)
    return list(seen.values())


def chain_with_lollipops(n: int, k: int) -> InputGraph:
    """Chain s->1->...->k->t plus s-lollipops on the remaining vertices."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    edges = {("s", 1), (k, "t")}
    edges |= {(i, i + 1) for i in range(1, k)}
    edges |= {("s", v) for v in range(k + 1, n + 1)}
    return InputGraph(n, edges)


def layered_dag(a, b, tail_len, n):
    """s feeds a complete bipartite layer A x B, then a chain from the first
    B vertex into t, so the shortest s->t distance is 3 + tail_len; vertices
    past the chain are isolated padding."""
    A = range(1, a + 1)
    B = range(a + 1, a + b + 1)
    edges = {("s", x) for x in A} | {(x, y) for x in A for y in B}
    path = [B[0], *range(a + b + 1, a + b + 1 + tail_len), "t"]
    edges |= set(zip(path, path[1:]))
    return InputGraph(n, edges)
