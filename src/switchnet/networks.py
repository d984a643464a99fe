"""Switching networks: acceptance, soundness, and reachability functions.

A switching network is an undirected multigraph with distinguished nodes
s' and t' whose edges carry labels of the form v1 -> v2 (possible edges
of the input graph) or, representably but unused by the builders here,
negated labels.  Soundness of a monotone network is decided by sweeping
the 2**n maximal NO instances G(C): acceptance is monotone in the input
edge set and every disconnected input is a subgraph of some G(C).

Both sweeps run one dataflow pass over per-node bitmasks.  Soundness
uses bitmasks over the cut space, which also yields the reachability
function of every node; completeness over a family of input graphs uses
bitmasks over the family's members.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .cuts import CutFunction, crossing_mask, full_cut_mask
from .graphs import InputGraph, _require_count, _valid_vertex, bfs, trace


@dataclass(frozen=True)
class NetEdge:
    u: object
    v: object
    label: tuple
    negated: bool = False

    def endpoints(self):
        return (self.u, self.v)


def undirected_edges(triples):
    """NetEdges for the (u, v, label) triples in input order, skipping loops
    and any triple whose label already joins u and v in either direction."""
    out, seen = [], set()
    for u, v, label in triples:
        if u == v or (u, v, label) in seen or (v, u, label) in seen:
            continue
        seen.add((u, v, label))
        out.append(NetEdge(u, v, label))
    return out


class SwitchingNetwork:
    """Undirected labeled multigraph with distinguished s' and t' nodes."""

    def __init__(self, n: int, vertices, s_node, t_node, edges):
        _require_count(n)
        self.n = n
        self.vertices = list(vertices)
        vertex_set = set(self.vertices)
        if s_node not in vertex_set or t_node not in vertex_set:
            raise ValueError("s' and t' must be network vertices")
        self.s_node = s_node
        self.t_node = t_node
        self.edges = []
        for e in edges:
            if not isinstance(e, NetEdge):
                e = NetEdge(*e)
            if e.u not in vertex_set or e.v not in vertex_set:
                raise ValueError(f"edge {e} has an endpoint outside the vertex set")
            tail, head = e.label
            for x in (tail, head):
                if not _valid_vertex(x, n):
                    raise ValueError(f"label vertex {x!r} outside s,t,1..{n}")
            if tail == head:
                raise ValueError("labels must be ordered pairs of distinct vertices")
            self.edges.append(e)

    @property
    def size(self):
        """|V'| minus the two distinguished nodes."""
        return len(self.vertices) - 2

    def is_monotone(self):
        return all(not e.negated for e in self.edges)

    def _require_monotone(self):
        if not self.is_monotone():
            raise ValueError("operation defined only for monotone networks")

    def accepts(self, graph: InputGraph) -> bool:
        """True iff some s'-t' path uses only labels consistent with the graph."""
        return self.accepting_path(graph) is not None

    def _mask_dataflow(self, edge_masks, seed):
        """For each node, the OR over s'-node walks of the AND of the masks of
        the walk's edges, starting from `seed` at s'.  Bit i of a node's mask
        says the node is reachable in the subnetwork of edges whose mask has
        bit i; `edge_masks` runs parallel to `self.edges`."""
        adj = {v: [] for v in self.vertices}
        for e, m in zip(self.edges, edge_masks):
            adj[e.u].append((e.v, m))
            adj[e.v].append((e.u, m))
        reach = {v: 0 for v in self.vertices}
        reach[self.s_node] = seed
        queue = deque([self.s_node])
        queued = {self.s_node}
        while queue:
            x = queue.popleft()
            queued.discard(x)
            rx = reach[x]
            for y, m in adj[x]:
                new = reach[y] | (rx & m)
                if new != reach[y]:
                    reach[y] = new
                    if y not in queued:
                        queued.add(y)
                        queue.append(y)
        return reach

    def cut_reachability(self):
        """For each node, the bitmask over cuts C where the node is reachable
        from s' using only labels that do not cross C (labels in E(G(C)))."""
        self._require_monotone()
        full = full_cut_mask(self.n)
        usable = {}
        for e in self.edges:
            if e.label not in usable:
                usable[e.label] = full ^ crossing_mask(self.n, e.label)
        return self._mask_dataflow([usable[e.label] for e in self.edges], full)

    def is_sound(self) -> bool:
        """No cut C has an s'-t' path labeled within E(G(C))."""
        return self.cut_reachability()[self.t_node] == 0

    def soundness_counterexample(self):
        """A cut accepted as a NO instance, or None when sound."""
        reach_t = self.cut_reachability()[self.t_node]
        if reach_t == 0:
            return None
        return (reach_t & -reach_t).bit_length() - 1

    def is_complete_for(self, family) -> bool:
        return self.completeness_counterexample(family) is None

    def completeness_counterexample(self, family):
        """The first member of the family the network rejects, or None.

        One dataflow pass decides the whole family: bit i of a label's mask
        says whether family[i] contains that label."""
        family = list(family)
        contains = {}
        for i, g in enumerate(family):
            if g.n != self.n:
                raise ValueError("input graph vertex count does not match network labels")
            for label in g.edges:
                contains[label] = contains.get(label, 0) | (1 << i)
        full = (1 << len(family)) - 1
        masks = [full ^ contains.get(e.label, 0) if e.negated else contains.get(e.label, 0)
                 for e in self.edges]
        rejected = full ^ self._mask_dataflow(masks, full)[self.t_node]
        return family[(rejected & -rejected).bit_length() - 1] if rejected else None

    def reachability_functions(self):
        """node -> CutFunction with value -1 where the node is reachable, +1 otherwise."""
        reach = self.cut_reachability()
        out = {}
        for v in self.vertices:
            bits = reach[v]
            out[v] = CutFunction.from_values(
                self.n, [Fraction(-1) if (bits >> c) & 1 else Fraction(1) for c in range(1 << self.n)]
            )
        return out

    def accepting_path(self, graph: InputGraph):
        """A list of NetEdges forming an s'-t' walk consistent with the graph, or None."""
        if graph.n != self.n:
            raise ValueError("input graph vertex count does not match network labels")
        adj = {}
        for e in self.edges:
            if (e.label in graph.edges) != e.negated:
                adj.setdefault(e.u, []).append((e.v, e))
                adj.setdefault(e.v, []).append((e.u, e))
        links, end = bfs(self.s_node, lambda x: adj.get(x, ()), lambda x: x == self.t_node)
        return None if end is None else [links[y][1] for y in trace(links, end)[1:]]

    def reduce_by_lollipop(self, w):
        """Contract edges labeled s->w and drop every edge mentioning w.

        Yields a network over the input vertex set without w (ids above w
        shift down by one); used to check that accepting a family with an
        extra s-lollipop is at least as hard as accepting the family itself.
        """
        self._require_monotone()

        def relabel_vertex(x):
            if x in ("s", "t"):
                return x
            return x - 1 if x > w else x

        # union-find over network nodes for the contracted s->w edges
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.edges:
            if e.label == ("s", w):
                ru, rv = find(e.u), find(e.v)
                if ru != rv:
                    parent[ru] = rv
        new_edges = []
        for e in self.edges:
            if w in e.label:
                continue
            label = (relabel_vertex(e.label[0]), relabel_vertex(e.label[1]))
            new_edges.append(NetEdge(find(e.u), find(e.v), label))
        nodes = {find(v) for v in self.vertices}
        return SwitchingNetwork(self.n - 1, nodes, find(self.s_node), find(self.t_node), new_edges)

    def to_json(self):
        return {
            "n": self.n,
            "vertices": list(self.vertices),
            "s": self.s_node,
            "t": self.t_node,
            "edges": [
                {"u": e.u, "v": e.v, "label": list(e.label), **({"negated": True} if e.negated else {})}
                for e in self.edges
            ],
        }

    @classmethod
    def from_json(cls, obj):
        edges = [
            NetEdge(d["u"], d["v"], tuple(d["label"]), d.get("negated", False))
            for d in obj["edges"]
        ]
        return cls(obj["n"], obj["vertices"], obj["s"], obj["t"], edges)
