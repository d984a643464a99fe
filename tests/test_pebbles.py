import math
import os
import random
import subprocess
import sys
from collections import deque
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchnet
from switchnet.graphs import InputGraph
from switchnet.networks import NetEdge, SwitchingNetwork
from switchnet.pebbles import (
    STATE_CAP,
    _search_win,
    can_win_through,
    is_winning,
    max_middle_pebbles,
    middle_count,
    min_pebble_number,
    moves,
    network_from_states,
    savitch_bound,
    savitch_sequence,
    winning_play,
)

from conftest import small_graphs


def chain_graph(length):
    """s -> 1 -> ... -> (length-1) -> t, or the direct edge for length 1."""
    if length == 1:
        return InputGraph(1, {("s", "t")})
    edges = {("s", 1), (length - 1, "t")} | {(i, i + 1) for i in range(1, length - 1)}
    return InputGraph(max(length - 1, 1), edges)


class TestMoves:
    def test_first_move(self):
        g = chain_graph(3)
        assert moves(g, frozenset()) == {frozenset({1})}

    def test_chain_toggles(self):
        g = chain_graph(3)
        assert moves(g, frozenset({1})) == {frozenset(), frozenset({1, 2})}

    def test_symmetry(self, rng):
        g = chain_graph(5)
        for _ in range(20):
            st = frozenset(v for v in range(1, 5) if rng.random() < 0.5)
            for nxt in moves(g, st):
                assert st in moves(g, nxt)


class TestMinPebbleNumber:
    def test_direct_edge(self):
        assert min_pebble_number(chain_graph(1)) == 0

    @pytest.mark.parametrize("length", [2, 3, 4, 5, 8])
    def test_chains_hit_log_bound(self, length):
        assert min_pebble_number(chain_graph(length)) == math.ceil(math.log2(length))

    def test_no_path_rejected(self):
        with pytest.raises(ValueError):
            min_pebble_number(InputGraph(2, {("s", 1)}))

    def test_upper_bounded_by_savitch(self):
        for length in range(2, 10):
            assert min_pebble_number(chain_graph(length)) <= savitch_bound(length)


class TestSavitch:
    @pytest.mark.parametrize("length", range(2, 17))
    def test_within_log_bound(self, length):
        g = chain_graph(length)
        path = ["s"] + list(range(1, length)) + ["t"]
        states = savitch_sequence(g, path)
        assert is_winning(states[-1])
        assert max_middle_pebbles(states) <= savitch_bound(length)

    def test_small_counts(self):
        assert max_middle_pebbles(savitch_sequence(chain_graph(2), ["s", 1, "t"])) == 1
        assert max_middle_pebbles(savitch_sequence(chain_graph(4), ["s", 1, 2, 3, "t"])) == 2
        path8 = ["s"] + list(range(1, 8)) + ["t"]
        assert max_middle_pebbles(savitch_sequence(chain_graph(8), path8)) == 3

    def test_invalid_path_rejected(self):
        with pytest.raises(ValueError):
            savitch_sequence(chain_graph(3), ["s", 2, "t"])


class TestNetworkFromStates:
    def test_savitch_states_accept_the_chain(self):
        g = chain_graph(4)
        states = savitch_sequence(g, ["s", 1, 2, 3, "t"])
        net = network_from_states(states, 3)
        assert net.accepts(g)
        assert net.is_sound()

    def test_size_is_state_count(self):
        g = chain_graph(3)
        states = savitch_sequence(g, ["s", 1, 2, "t"])
        interior = {st for st in states if st and not is_winning(st)}
        net = network_from_states(states, 2)
        assert net.size == len(interior)

    def test_sound_for_random_state_sets(self, rng):
        for _ in range(10):
            n = rng.randint(2, 5)
            states = {
                frozenset(v for v in range(1, n + 1) if rng.random() < 0.4)
                for _ in range(rng.randint(1, 6))
            }
            net = network_from_states(states, n)
            assert net.is_sound()

    def test_edge_order_independent_of_hash_seed(self):
        # the pebbled sets mix "s" with ints, whose set order follows the
        # string hash seed; the emitted JSON must not
        code = (
            "import json; from switchnet.parity import build_chain_lollipop; "
            "print(json.dumps(build_chain_lollipop(6, 2, seed=3).network.to_json()))"
        )
        src = str(Path(switchnet.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for seed in ("1", "2")
        ]
        assert outs[0] and outs[0] == outs[1]


def _loop_network_from_states(states, n):
    """Oracle: network_from_states as written before networks.undirected_edges."""
    start = frozenset()
    interior = sorted(
        {frozenset(st) for st in states if not is_winning(st)} - {start},
        key=lambda st: sorted(map(str, st)),
    )
    name = {start: "START"}
    for i, st in enumerate(interior):
        name[st] = i
    vertices = ["START", "WIN"] + list(range(len(interior)))
    edges, seen = [], set()
    all_states = [start] + interior
    state_set = set(all_states)
    for st in all_states:
        pebbled = set(st) | {"s"}
        for v in sorted(pebbled, key=str):
            if v != "t":
                key = (name[st], "WIN", (v, "t"))
                if key not in seen:
                    seen.add(key)
                    edges.append(NetEdge(name[st], "WIN", (v, "t")))
        for w in range(1, n + 1):
            nxt = frozenset(set(st) ^ {w})
            if nxt not in state_set:
                continue
            for v in sorted(pebbled - {w}, key=str):
                key = (name[st], name[nxt], (v, w))
                rkey = (name[nxt], name[st], (v, w))
                if key in seen or rkey in seen:
                    continue
                seen.add(key)
                edges.append(NetEdge(name[st], name[nxt], (v, w)))
    return SwitchingNetwork(n, vertices, "START", "WIN", edges)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), st.data())
def test_network_from_states_matches_emit_loop(n, data):
    # winning states (holding t) and repeats are drawn too; both are dropped.
    # Up to 24 states on n <= 7 join many interior states by toggles, listed
    # in either order, so each toggle's reverse emission is dropped often
    state = st.frozensets(st.sampled_from([*range(1, n + 1), "t"]))
    states = data.draw(st.lists(state, max_size=24))
    assert network_from_states(states, n).to_json() == _loop_network_from_states(states, n).to_json()


def _loop_search_win(graph, budget):
    """The budgeted state search that winning_play ran before one search
    served every admission rule."""
    start = frozenset()
    prev = {start: None}
    queue = deque([start])
    while queue:
        st_ = queue.popleft()
        for nxt in moves(graph, st_):
            if nxt in prev:
                continue
            if middle_count(nxt) > budget:
                continue
            prev[nxt] = st_
            if is_winning(nxt):
                path = [nxt]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return path[::-1]
            queue.append(nxt)
    return None


def _loop_can_win_through(graph, allowed):
    start = frozenset()
    seen = {start}
    queue = deque([start])
    while queue:
        st_ = queue.popleft()
        for nxt in moves(graph, st_):
            if nxt in seen:
                continue
            if is_winning(nxt):
                return True
            if nxt in allowed:
                seen.add(nxt)
                queue.append(nxt)
    return False


def random_allowed(g, seed, p):
    """Each state over g's middle vertices, with and without t, kept with
    probability p."""
    rng = random.Random(seed)
    middles = range(1, g.n + 1)
    states = [frozenset(c) | extra for k in range(g.n + 1) for c in combinations(middles, k)
              for extra in (frozenset(), frozenset({"t"}))]
    return {state for state in states if rng.random() < p}


class TestSearchMatchesLoops:
    """Differential tests: the one state search under each admission rule
    against the loop that rule used to have."""

    @settings(max_examples=100, deadline=None)
    @given(small_graphs())
    def test_winning_play_and_min_pebble_number(self, g):
        plays = [winning_play(g, b) for b in range(g.n + 1)]
        if not g.has_st_path():
            assert plays == [None] * (g.n + 1)
            with pytest.raises(ValueError):
                min_pebble_number(g)
            return
        assert plays == [_loop_search_win(g, b) for b in range(g.n + 1)]
        assert min_pebble_number(g) == next(b for b, play in enumerate(plays) if play is not None)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(), st.integers(0, 10**6), st.sampled_from([0.2, 0.6, 0.95]))
    def test_can_win_through(self, g, seed, p):
        allowed = random_allowed(g, seed, p)
        assert can_win_through([g], network_from_states(allowed, g.n)) == _loop_can_win_through(g, allowed)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(), st.integers(0, 10**6), st.sampled_from([0.0, 0.2, 0.6, 0.95, 1.0]))
    def test_can_win_through_matches_search_win(self, g, seed, p):
        # the network's acceptance against the one state search over moves(),
        # admitting the allowed states and every winning state
        allowed = random_allowed(g, seed, p)
        want = _search_win(g, lambda st_: is_winning(st_) or st_ in allowed) is not None
        assert can_win_through([g], network_from_states(allowed, g.n)) == want

    def test_state_cap_refuses_budgeted_search_only(self):
        g = chain_graph(STATE_CAP + 2)
        with pytest.raises(ValueError):
            winning_play(g, 1)
        with pytest.raises(ValueError):
            min_pebble_number(g)
        assert can_win_through([g], network_from_states(set(), g.n)) == 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: st.lists(small_graphs(n), max_size=5)),
           st.integers(0, 10**6), st.sampled_from([0.0, 0.2, 0.6, 0.95, 1.0]))
    def test_can_win_through_masks_a_list(self, graphs, seed, p):
        # bit i of the mask is graphs[i]'s own answer; an empty list gives 0.
        # The allowed states hold winning states (with t) too
        if not graphs:
            allowed = random_allowed(InputGraph(3, set()), seed, p)
            assert can_win_through(graphs, network_from_states(allowed, 3)) == 0
            return
        allowed = random_allowed(graphs[0], seed, p)
        mask = can_win_through(graphs, network_from_states(allowed, graphs[0].n))
        assert mask < 1 << len(graphs)
        for i, g in enumerate(graphs):
            assert mask >> i & 1 == _loop_can_win_through(g, allowed)
