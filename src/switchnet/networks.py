"""Switching networks: acceptance, soundness, and reachability functions.

A switching network is an undirected multigraph with distinguished nodes
s' and t' whose edges carry labels of the form v1 -> v2 (possible edges
of the input graph) or, representably but unused by the builders here,
negated labels.  Soundness of a monotone network is decided by sweeping
the 2**n maximal NO instances G(C): acceptance is monotone in the input
edge set and every disconnected input is a subgraph of some G(C).

Both sweeps run one dataflow pass over per-node bitmasks.  Soundness
uses bitmasks over the cut space, which also yields the reachability
function of every node; acceptance of a family of input graphs (`accepted`,
behind completeness and the pebble game's win-through test) uses bitmasks
over the family's members.
"""

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress

from .cuts import CutFunction, full_cut_mask, usable_masks
from .graphs import InputGraph, _require_count, _valid_vertex, bfs, trace

WRITE_BLOCK = 4096  # edges per write in SwitchingNetwork.write_json
# bits of cut masks a soundness sweep may hold, 4 GiB; it holds one 2**n-bit
# mask per distinct label, first beside the n left masks it builds them from
# and then beside one mask per node
SWEEP_BITS_CAP = 1 << 35


@dataclass(frozen=True)
class NetEdge:
    u: object
    v: object
    label: tuple
    negated: bool = False


def _json_at(x, depth):
    """x as json.dump(..., indent=2) writes it at nesting depth `depth`."""
    if type(x) is int:  # the builders' node ids; repr is json.dumps's text, and faster
        return repr(x)
    if x is None or isinstance(x, (str, int, float)):
        return json.dumps(x)
    return json.dumps(x, indent=2).replace("\n", "\n" + "  " * depth)


class SwitchingNetwork:
    """Undirected labeled multigraph with distinguished s' and t' nodes.

    Edges are held as parallel int columns: each endpoint's position in
    `vertices`, an index into one list of distinct label tuples (each label
    validated once), and the set of negated edge indices.  `edges` lists them
    as NetEdges, built on first use."""

    def __init__(self, n: int, vertices, s_node, t_node, edges):
        edges = [e if isinstance(e, NetEdge) else NetEdge(*e) for e in edges]
        pos = self._set_nodes(n, vertices, s_node, t_node)
        self._set_edges_by_id(pos, [e.u for e in edges], [e.v for e in edges],
                              [e.label for e in edges], [e.negated for e in edges])

    @classmethod
    def from_columns(cls, n: int, vertices, s_node, t_node, us, vs, labels, label_column):
        """The monotone network whose edge i joins the nodes at positions us[i]
        and vs[i] of `vertices` with label labels[label_column[i]]; the three
        columns have one entry per edge, and the labels are distinct."""
        net, labels = cls.__new__(cls), list(labels)
        net._set_nodes(n, vertices, s_node, t_node)
        if not len(us) == len(vs) == len(label_column):
            raise ValueError("edge columns differ in length")
        if len(set(labels)) != len(labels):
            raise ValueError("labels repeat")
        for column, bound in ((us, len(net.vertices)), (vs, len(net.vertices)), (label_column, len(labels))):
            if column and not (min(column) >= 0 and max(column) < bound):
                raise ValueError("edge column entry out of range")
        net._set_edges(us, vs, labels, label_column, frozenset())
        return net

    def _set_nodes(self, n, vertices, s_node, t_node):
        """Check and set the node fields; returns each vertex's position."""
        _require_count(n)
        self.n = n
        self.vertices = list(vertices)
        pos = {v: i for i, v in enumerate(self.vertices)}
        if len(pos) != len(self.vertices):
            raise ValueError("network vertex ids must be distinct")
        if s_node not in pos or t_node not in pos:
            raise ValueError("s' and t' must be network vertices")
        self.s_node, self.t_node = s_node, t_node
        self._s, self._t = pos[s_node], pos[t_node]
        self._edges = None
        return pos

    def _set_edges_by_id(self, pos, us, vs, labels, negated):
        """Check and set the edges from per-edge endpoint ids, labels and
        negated flags; `pos` maps each vertex to its position."""
        try:
            us, vs = list(map(pos.__getitem__, us)), list(map(pos.__getitem__, vs))
        except KeyError as exc:
            raise ValueError(f"edge endpoint {exc.args[0]!r} is outside the vertex set") from None
        # Only exact ints and strs may key the label index: 1 == 1.0 == True.
        if not set(map(type, chain.from_iterable(labels))) <= {int, str}:
            raise ValueError(f"label vertices must be 's', 't' or ints in 1..{self.n}")
        index = {}
        column = [index.setdefault(tuple(label), len(index)) for label in labels]
        if not set(map(type, negated)) <= {bool}:
            raise ValueError("an edge's negated flag must be true or false")
        self._set_edges(us, vs, list(index), column, frozenset(compress(range(len(negated)), negated)))

    def _set_edges(self, us, vs, labels, label_column, negated):
        """Check each distinct label once, then set the edge columns."""
        for label in labels:
            if len(label) != 2:
                raise ValueError(f"label {label!r} is not a pair of vertices")
            for x in label:
                if not _valid_vertex(x, self.n):
                    raise ValueError(f"label vertex {x!r} outside s,t,1..{self.n}")
            if label[0] == label[1]:
                raise ValueError("labels must be ordered pairs of distinct vertices")
        self._us, self._vs, self._labels, self._lab, self._negated = us, vs, labels, label_column, negated

    @property
    def edges(self):
        """The edges as NetEdges, built on first use and shared by every
        caller: do not mutate the list."""
        if self._edges is None:
            verts, labels, negated = self.vertices, self._labels, self._negated
            self._edges = [NetEdge(verts[u], verts[v], labels[j], i in negated)
                           for i, (u, v, j) in enumerate(zip(self._us, self._vs, self._lab))]
        return self._edges

    @property
    def size(self):
        """|V'| minus the two distinguished nodes."""
        return len(self.vertices) - 2

    def is_monotone(self):
        return not self._negated

    def _require_monotone(self):
        if not self.is_monotone():
            raise ValueError("operation defined only for monotone networks")

    def require_sweep_fits(self):
        """Refuse, with a ValueError, a soundness sweep whose cut masks would
        take more than SWEEP_BITS_CAP bits."""
        bits = (max(len(self.vertices), self.n) + len(self._labels)) << self.n
        if bits > SWEEP_BITS_CAP:
            raise ValueError(f"the soundness sweep at n={self.n} needs {bits} bits of cut masks, "
                             f"above its budget of {SWEEP_BITS_CAP}")

    def accepts(self, graph: InputGraph) -> bool:
        """True iff some s'-t' path uses only labels consistent with the graph."""
        return self.accepting_path(graph) is not None

    def _mask_dataflow(self, label_masks, seed, full=0):
        """For each node position, the OR over s'-node walks of the AND of the
        masks of the walk's edges, starting from `seed` at s'.  Bit i of a
        node's mask says the node is reachable in the subnetwork of edges
        whose mask has bit i.  An edge's mask is label_masks[its label index],
        complemented within `full` when the edge is negated."""
        masks = list(map(label_masks.__getitem__, self._lab))
        for i in self._negated:
            masks[i] ^= full
        adj = [[] for _ in self.vertices]
        for u, v, m in zip(self._us, self._vs, masks):
            adj[u].append((v, m))
            adj[v].append((u, m))
        reach = [0] * len(adj)
        reach[self._s] = seed
        queue = deque([self._s])
        queued = {self._s}
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
        self.require_sweep_fits()
        usable = usable_masks(self.n, self._labels)
        return dict(zip(self.vertices, self._mask_dataflow(usable, full_cut_mask(self.n))))

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
        """The first member of the family the network rejects, or None."""
        family = list(family)
        rejected = ((1 << len(family)) - 1) ^ self.accepted(family)
        return family[(rejected & -rejected).bit_length() - 1] if rejected else None

    def accepted(self, family) -> int:
        """The mask of the members the network accepts: bit i is set when
        family[i] is accepted.

        One dataflow pass decides the whole family: bit i of a label's mask
        says whether family[i] contains that label."""
        family = list(family)
        index = {label: j for j, label in enumerate(self._labels)}
        contains = [0] * len(index)
        for i, g in enumerate(family):
            if g.n != self.n:
                raise ValueError("input graph vertex count does not match network labels")
            for label in g.edges:
                if label in index:
                    contains[index[label]] |= 1 << i
        full = (1 << len(family)) - 1
        return self._mask_dataflow(contains, full, full)[self._t]

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
        present = [label in graph.edges for label in self._labels]
        adj = {}
        for i, (u, v, j) in enumerate(zip(self._us, self._vs, self._lab)):
            if present[j] != (i in self._negated):
                adj.setdefault(u, []).append((v, i))
                adj.setdefault(v, []).append((u, i))
        links, end = bfs(self._s, lambda x: adj.get(x, ()), lambda x: x == self._t)
        return None if end is None else [self.edges[links[y][1]] for y in trace(links, end)[1:]]

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
        nodes = list(dict.fromkeys(find(v) for v in self.vertices))
        return SwitchingNetwork(self.n - 1, nodes, find(self.s_node), find(self.t_node), new_edges)

    def to_json(self):
        verts, labels = self.vertices, self._labels
        edges = [{"u": verts[u], "v": verts[v], "label": list(labels[j])}
                 for u, v, j in zip(self._us, self._vs, self._lab)]
        for i in self._negated:
            edges[i]["negated"] = True
        return {"n": self.n, "vertices": list(verts), "s": self.s_node, "t": self.t_node, "edges": edges}

    def write_json(self, fh):
        """Write to_json() to fh byte for byte as json.dump(..., indent=2)
        lays it out, encoding each node id and each label once and joining
        fixed per-edge templates, WRITE_BLOCK edges per write."""
        fh.write('{\n  "n": %s,\n  "vertices": [\n    %s\n  ],\n  "s": %s,\n  "t": %s,\n  "edges": ' % (
            json.dumps(self.n), ",\n    ".join(_json_at(v, 2) for v in self.vertices),
            _json_at(self.s_node, 1), _json_at(self.t_node, 1)))
        if not self._us:
            fh.write("[]\n}")
            return
        ids = [_json_at(v, 3) for v in self.vertices]
        heads = ['    {\n      "u": ' + x + ',\n      "v": ' for x in ids]
        ends = [x + ',\n      "label": ' for x in ids]
        labels = [_json_at(list(label), 3) for label in self._labels]
        tails = ("\n    }", ',\n      "negated": true\n    }')
        us, vs, lab, negated = self._us, self._vs, self._lab, self._negated
        fh.write("[\n")
        for lo in range(0, len(us), WRITE_BLOCK):
            if lo:
                fh.write(",\n")
            fh.write(",\n".join([heads[us[i]] + ends[vs[i]] + labels[lab[i]] + tails[i in negated]
                                  for i in range(lo, min(lo + WRITE_BLOCK, len(us)))]))
        fh.write("\n  ]\n}")

    @classmethod
    def from_json(cls, obj):
        net, edges = cls.__new__(cls), obj["edges"]
        labels = [d["label"] for d in edges]
        if not all(isinstance(x, list) for x in [obj["vertices"], edges, *labels]):
            raise ValueError("a network's vertices, edges and edge labels must be JSON arrays")
        pos = net._set_nodes(obj["n"], obj["vertices"], obj["s"], obj["t"])
        net._set_edges_by_id(pos, [d["u"] for d in edges], [d["v"] for d in edges],
                             labels, [d.get("negated", False) for d in edges])
        return net
