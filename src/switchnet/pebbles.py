"""The reversible pebble game: legal moves, minimum pebble number, the
recursive-halving strategy for paths, and the standard translation of a
state set into a switching network.

A game state is the frozenset of pebbled vertices among {1..n} plus
possibly 't'; s always carries a pebble.  A pebble may be added to or
removed from w exactly when some pebbled vertex (or s) has an edge to w,
so the move relation is symmetric.
"""

from math import ceil, log2

from .graphs import InputGraph, bfs, trace
from .networks import SwitchingNetwork

STATE_CAP = 20  # search state spaces are 2**n; refuse beyond this


def _pebbled_with_s(state):
    return set(state) | {"s"}


def middle_count(state) -> int:
    return sum(1 for v in state if v != "t")


def is_winning(state) -> bool:
    return "t" in state


def toggle_justifiers(graph: InputGraph, state, w):
    """Pebbled vertices (s included) with an edge to w, excluding w itself."""
    return [v for v in _pebbled_with_s(state) if v != w and graph.has_edge(v, w)]


def moves(graph: InputGraph, state):
    """All states one legal toggle away."""
    out = set()
    targets = list(graph.middle_vertices()) + ["t"]
    for w in targets:
        if toggle_justifiers(graph, state, w):
            out.add(frozenset(set(state) ^ {w}))
    return out


def _search_win(graph: InputGraph, admit):
    """BFS over the states `admit` accepts, from the empty state; returns the
    state path to the first winning state reached, or None."""
    links, won = bfs(frozenset(), lambda st: ((nxt, None) for nxt in moves(graph, st) if admit(nxt)),
                     is_winning)
    return None if won is None else trace(links, won)


def winning_play(graph: InputGraph, budget: int):
    """A winning state sequence within the pebble budget, or None."""
    if not graph.has_st_path():
        return None
    if graph.n > STATE_CAP:
        raise ValueError(f"state search refused for n={graph.n} > {STATE_CAP}")
    return _search_win(graph, lambda st: middle_count(st) <= budget)


def min_pebble_number(graph: InputGraph) -> int:
    """Minimum simultaneous middle-vertex pebbles over winning plays,
    by iterative deepening over the budget."""
    if not graph.has_st_path():
        raise ValueError("no s->t path; the game cannot be won")
    for budget in range(0, graph.n + 1):
        if winning_play(graph, budget) is not None:
            return budget
    raise AssertionError("unreachable: full budget always wins when an s->t path exists")


def savitch_sequence(graph: InputGraph, path):
    """Winning state sequence along an s->t path by recursive halving,
    using at most ceil(lg(path length)) middle pebbles at once."""
    if path[0] != "s" or path[-1] != "t" or len(path) < 2:
        raise ValueError("need an s...t vertex path")
    for a, b in zip(path, path[1:]):
        if not graph.has_edge(a, b):
            raise ValueError(f"({a!r},{b!r}) is not a graph edge")

    toggles = []

    def pebble_segment(i, j):
        # produce a pebble on path[j] given a pebble on path[i]
        if j == i + 1:
            toggles.append(path[j])
            return
        mid = i + (j - i + 1) // 2
        pebble_segment(i, mid)
        pebble_segment(mid, j)
        unpebble_segment(i, mid)

    def unpebble_segment(i, j):
        if j == i + 1:
            toggles.append(path[j])
            return
        mid = i + (j - i + 1) // 2
        pebble_segment(i, mid)
        unpebble_segment(mid, j)
        unpebble_segment(i, mid)

    pebble_segment(0, len(path) - 1)
    states = [frozenset()]
    for w in toggles:
        states.append(frozenset(set(states[-1]) ^ {w}))
    # sanity: every step must be a legal move
    for st, nxt in zip(states, states[1:]):
        if nxt not in moves(graph, st):
            raise AssertionError("halving scheme produced an illegal move")
    if not is_winning(states[-1]):
        raise AssertionError("halving scheme did not win")
    return states


def max_middle_pebbles(states) -> int:
    return max(middle_count(st) for st in states)


def savitch_bound(length: int) -> int:
    return ceil(log2(length)) if length > 1 else 0


def can_win_through(graphs, network: SwitchingNetwork) -> int:
    """The mask of the graphs (all on the network's n) whose game is won from
    the empty state visiting only the intermediate states `network` was
    emitted from by `network_from_states` (the start and any winning state are
    exempt): bit i is set for graphs[i].  That is exactly when the network
    accepts graphs[i]."""
    return network.accepted(graphs)


def network_from_states(states, n: int) -> SwitchingNetwork:
    """One network node per state plus s' (the empty state) and t' (winning,
    collapsed); edges are the legal toggles between represented states, one
    per justifying vertex, labeled by the justifying input edge."""
    start = frozenset()
    interior = sorted(
        {frozenset(st) for st in states if not is_winning(st)} - {start},
        key=lambda st: sorted(map(str, st)),
    )
    # positions: START 0, WIN 1, the interior states 2 and up
    pos = {start: 0, **{st: i for i, st in enumerate(interior, 2)}}

    # generic input graph over which toggles are labeled: any vertex pair may
    # justify a move; the *labels* are what acceptance later filters on
    edges = []
    for st, a in pos.items():
        # sorted: the set order of "s" among ints varies with PYTHONHASHSEED
        pebbled = sorted(_pebbled_with_s(st), key=str)
        # winning toggles: add a pebble on t
        edges += [(a, 1, (v, "t")) for v in pebbled]
        for w in range(1, n + 1):
            # a toggle joins two listed states; keep it from the one listed first
            b = pos.get(st ^ {w}, 0)
            if b > a:
                edges += [(a, b, (v, w)) for v in pebbled if v != w]
    index = {}
    column = [index.setdefault(label, len(index)) for _, _, label in edges]
    us, vs, _ = zip(*edges)  # never empty: START always has (s, t) to WIN
    return SwitchingNetwork.from_columns(n, ["START", "WIN", *range(len(interior))], "START", "WIN",
                                         us, vs, list(index), column)
