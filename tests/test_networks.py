import io
import json
import subprocess
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchnet.cuts import CutFunction, edge_crosses, iter_cuts, maximal_no_instance
from switchnet.graphs import InputGraph, all_distinct_permuted_copies, chain_with_lollipops
from switchnet.networks import NetEdge, SwitchingNetwork
from switchnet.parity import build_chain_lollipop, build_general_network

SINGLE_EDGE = SwitchingNetwork(
    2, ["s'", "t'"], "s'", "t'", [NetEdge("s'", "t'", ("s", 1))]
)
TWO_STEP = SwitchingNetwork(
    2,
    ["s'", "m", "t'"],
    "s'",
    "t'",
    [NetEdge("s'", "m", ("s", 1)), NetEdge("m", "t'", (1, "t"))],
)


def brute_sound(network):
    """Oracle: per-cut BFS over the maximal NO instances."""
    return all(
        not network.accepts(maximal_no_instance(c, network.n))
        for c in iter_cuts(network.n)
    )


class TestAccepts:
    def test_single_edge(self):
        assert SINGLE_EDGE.accepts(InputGraph(2, {("s", 1)}))
        assert not SINGLE_EDGE.accepts(InputGraph(2, {("s", 2)}))

    def test_disconnected_network_never_accepts(self):
        net = SwitchingNetwork(2, ["s'", "t'"], "s'", "t'", [])
        assert not net.accepts(InputGraph(2, {("s", "t")}))

    def test_two_edge_path(self):
        assert TWO_STEP.accepts(InputGraph(2, {("s", 1), (1, "t")}))
        assert not TWO_STEP.accepts(InputGraph(2, {("s", 1)}))

    def test_negated_labels(self):
        net = SwitchingNetwork(
            1, ["s'", "t'"], "s'", "t'", [NetEdge("s'", "t'", ("s", 1), negated=True)]
        )
        assert net.accepts(InputGraph(1, set()))
        assert not net.accepts(InputGraph(1, {("s", 1)}))

    def test_monotonicity(self, rng):
        res = build_chain_lollipop(4, 2, seed=3)
        net = res.network
        for g in res.placements[:6]:
            assert net.accepts(g)
            extra = set(g.edges) | {(1, 3), (2, 4)}
            assert net.accepts(InputGraph(4, extra))


class TestSoundness:
    def test_single_edge_unsound(self):
        assert not SINGLE_EDGE.is_sound()
        cut = SINGLE_EDGE.soundness_counterexample()
        assert SINGLE_EDGE.accepts(maximal_no_instance(cut, 2))

    def test_two_step_sound(self):
        assert TWO_STEP.is_sound()

    def test_empty_network_sound(self):
        net = SwitchingNetwork(2, ["s'", "t'"], "s'", "t'", [])
        assert net.is_sound()

    def test_matches_bruteforce_oracle(self):
        for net in (SINGLE_EDGE, TWO_STEP, build_chain_lollipop(4, 2, seed=0).network):
            assert net.is_sound() == brute_sound(net)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_labels_match_bruteforce_oracle(self, data):
        # labels range over every ordered pair of distinct vertices, so s->t,
        # t->s, v->s and t->v labels are drawn too
        n = data.draw(st.integers(1, 5))
        vertices = ["s", "t", *range(1, n + 1)]
        labels = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)).filter(lambda e: e[0] != e[1])
        nodes = list(range(data.draw(st.integers(2, 6))))
        edges = data.draw(st.lists(st.builds(NetEdge, st.sampled_from(nodes), st.sampled_from(nodes), labels),
                                   max_size=10))
        net = SwitchingNetwork(n, nodes, 0, 1, edges)
        assert net.is_sound() == brute_sound(net)
        first = next((c for c in iter_cuts(n) if net.accepts(maximal_no_instance(c, n))), None)
        assert net.soundness_counterexample() == first

    def test_non_monotone_rejected(self):
        net = SwitchingNetwork(
            1, ["s'", "t'"], "s'", "t'", [NetEdge("s'", "t'", ("s", 1), negated=True)]
        )
        with pytest.raises(ValueError):
            net.is_sound()


class TestCompleteness:
    def test_empty_family(self):
        assert SINGLE_EDGE.is_complete_for([])

    def test_chain_lollipop_family(self):
        res = build_chain_lollipop(4, 2, seed=0)
        family = all_distinct_permuted_copies(chain_with_lollipops(4, 2))
        assert res.network.is_complete_for(family)

    def test_counterexample_reported(self):
        g = InputGraph(2, {("s", 2), (2, "t")})
        assert TWO_STEP.completeness_counterexample([g]) == g

    def test_family_dataflow_matches_per_member_paths(self, rng):
        """Oracle: one accepting_path BFS per member; the accepted mask must
        hold the members it accepts, and the counterexample must be the first
        member it rejects.  Networks lose random edges, and one
        edge is negated, so both outcomes and negated labels are exercised."""
        base = build_chain_lollipop(4, 2, seed=0).network
        family = all_distinct_permuted_copies(chain_with_lollipops(4, 2))
        outcomes = set()
        for trial in range(40):
            keep = [e for e in base.edges if rng.random() < 0.9]
            if trial % 2 and keep:
                i = rng.randrange(len(keep))
                e = keep[i]
                keep[i] = NetEdge(e.u, e.v, e.label, negated=True)
            net = SwitchingNetwork(base.n, base.vertices, base.s_node, base.t_node, keep)
            first = next((g for g in family if net.accepting_path(g) is None), None)
            assert net.accepted(family) == sum(1 << i for i, g in enumerate(family)
                                               if net.accepting_path(g) is not None)
            assert net.completeness_counterexample(family) == first
            assert net.is_complete_for(family) == (first is None)
            outcomes.add(first is None)
        assert outcomes == {True, False}

    def test_vertex_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TWO_STEP.is_complete_for([InputGraph(3, set())])


class TestReachabilityFunctions:
    def test_source_is_minus_one(self):
        funcs = TWO_STEP.reachability_functions()
        assert funcs["s'"] == CutFunction.constant(2, Fraction(-1))

    def test_sink_is_plus_one_when_sound(self):
        funcs = TWO_STEP.reachability_functions()
        assert funcs["t'"] == CutFunction.constant(2, Fraction(1))

    def test_unsound_sink_not_constant(self):
        funcs = SINGLE_EDGE.reachability_functions()
        assert funcs["t'"] != CutFunction.constant(2, Fraction(1))

    def test_unit_norm(self):
        for v, f in TWO_STEP.reachability_functions().items():
            assert f.norm_squared() == 1

    def test_edge_property(self):
        # endpoints agree on every cut the label does not cross
        funcs = TWO_STEP.reachability_functions()
        for e in TWO_STEP.edges:
            fu, fv = funcs[e.u], funcs[e.v]
            for c in iter_cuts(2):
                if not edge_crosses(e.label, c):
                    assert fu.value_at(c) == fv.value_at(c)

    def test_soundness_iff_sink_constant(self):
        for net in (SINGLE_EDGE, TWO_STEP):
            funcs = net.reachability_functions()
            assert net.is_sound() == (funcs["t'"] == CutFunction.constant(2, Fraction(1)))


class TestReduction:
    def test_lollipop_contraction_preserves_soundness_and_family(self):
        res = build_chain_lollipop(4, 2, seed=0)
        reduced = res.network.reduce_by_lollipop(4)
        assert reduced.n == 3
        assert reduced.is_sound()
        family = all_distinct_permuted_copies(chain_with_lollipops(3, 2))
        assert reduced.is_complete_for(family)

    def test_lollipop_contraction_independent_of_hash_seed(self):
        # the chain builder's string node ids hash differently per seed
        script = (
            "import json\n"
            "from switchnet.parity import build_chain_lollipop\n"
            "print(json.dumps(build_chain_lollipop(4, 2, seed=0).network.reduce_by_lollipop(4).to_json()))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = [
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                           env={"PYTHONPATH": src, "PYTHONHASHSEED": seed}, timeout=120).stdout
            for seed in ("0", "1")
        ]
        assert outs[0] == outs[1]


class TestSerialization:
    def test_roundtrip(self):
        blob = json.dumps(TWO_STEP.to_json())
        net = SwitchingNetwork.from_json(json.loads(blob))
        assert net.is_sound()
        assert net.size == TWO_STEP.size
        assert {(e.u, e.v, e.label) for e in net.edges} == {
            (e.u, e.v, e.label) for e in TWO_STEP.edges
        }

    def test_label_validation(self):
        with pytest.raises(ValueError):
            SwitchingNetwork(2, ["a", "b"], "a", "b", [NetEdge("a", "b", (1, 9))])
        with pytest.raises(ValueError):
            SwitchingNetwork(2, ["a", "b"], "a", "b", [NetEdge("a", "b", (1, 1))])

    @pytest.mark.parametrize("edges", [
        # a label equal to an earlier valid one is still checked: True == 1, 1.0 == 1
        [NetEdge("a", "b", (1, 2)), NetEdge("a", "b", (True, 2))],
        [NetEdge("a", "b", (1, 2)), NetEdge("b", "a", (1.0, 2))],
        [NetEdge("a", "b", ("s", 1, 2))],
        [NetEdge("a", "b", ("s", 1), negated="no")],
        [NetEdge("a", "b", ("s", 1), negated=1)],
        [NetEdge("a", "c", ("s", 1))],
    ], ids=["bool-vertex", "float-vertex", "three-vertices", "negated-str", "negated-int", "endpoint"])
    def test_edge_validation(self, edges):
        with pytest.raises(ValueError):
            SwitchingNetwork(2, ["a", "b"], "a", "b", edges)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            SwitchingNetwork(1, ["a", "b", "b", "b"], "a", "b", [])

    def test_bool_count_rejected(self):
        with pytest.raises(ValueError):
            SwitchingNetwork(True, ["a", "b"], "a", "b", [])

    def test_from_columns_checks_ranges(self):
        args = (2, ["a", "b"], "a", "b")
        net = SwitchingNetwork.from_columns(*args, [0], [1], [("s", 1)], [0])
        assert net.edges == [NetEdge("a", "b", ("s", 1))]
        for us, vs, labels, column in (([2], [1], [("s", 1)], [0]), ([0], [-1], [("s", 1)], [0]),
                                       ([0], [1], [("s", 1)], [1]), ([0, 1], [1], [("s", 1)], [0]),
                                       ([0], [1], [("s", 1)], [0, 0]), ([0], [1], [("s", 1), ("s", 1)], [1])):
            with pytest.raises(ValueError):
                SwitchingNetwork.from_columns(*args, us, vs, labels, column)


SCALAR_IDS = st.one_of(st.integers(-50, 50), st.text(max_size=3))


@st.composite
def networks(draw, ids=SCALAR_IDS):
    """Small networks with the given vertex ids (by default ints and strings)
    and some negated edges."""
    n = draw(st.integers(1, 6))
    vertices = draw(st.lists(ids, min_size=2, max_size=8, unique=True))
    tails, heads = ["s", *range(1, n + 1)], [*range(1, n + 1), "t"]
    labels = st.tuples(st.sampled_from(tails), st.sampled_from(heads)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(st.builds(NetEdge, st.sampled_from(vertices), st.sampled_from(vertices),
                                    labels, st.booleans()), max_size=12))
    return SwitchingNetwork(n, vertices, vertices[0], vertices[-1], edges)


@settings(max_examples=100, deadline=None)
@given(networks())
def test_json_roundtrip_property(net):
    written = io.StringIO()
    net.write_json(written)
    for text in (json.dumps(net.to_json()), written.getvalue()):
        back = SwitchingNetwork.from_json(json.loads(text))
        assert (back.n, back.vertices, back.s_node, back.t_node, back.edges) == (
            net.n, net.vertices, net.s_node, net.t_node, net.edges)


# scalar ids of every JSON type, and tuples, which JSON writes as nested lists
JSON_IDS = st.one_of(SCALAR_IDS, st.none(), st.booleans(), st.floats(allow_nan=False),
                     st.tuples(st.integers(-3, 3), st.text(max_size=2)),
                     st.tuples(st.tuples(st.integers(0, 2)), st.none()))


def _assert_writes_as_json_dump(net):
    expected, written = io.StringIO(), io.StringIO()
    json.dump(net.to_json(), expected, indent=2)
    net.write_json(written)
    assert written.getvalue() == expected.getvalue()


@settings(max_examples=300, deadline=None)
@given(networks(ids=JSON_IDS))
def test_write_json_matches_json_dump(net):
    _assert_writes_as_json_dump(net)


def test_write_json_matches_json_dump_on_builds():
    _assert_writes_as_json_dump(build_chain_lollipop(6, 2, seed=3).network)
    _assert_writes_as_json_dump(build_general_network(chain_with_lollipops(6, 2), [1, 2], z=2, seed=0).network)


def _loop_accepting_path(network, graph):
    """Oracle: the search loop accepting_path ran before graphs.bfs."""
    adj = {}
    for e in network.edges:
        if (e.label in graph.edges) != e.negated:
            adj.setdefault(e.u, []).append((e.v, e))
            adj.setdefault(e.v, []).append((e.u, e))
    prev = {network.s_node: None}
    queue = deque([network.s_node])
    while queue:
        x = queue.popleft()
        if x == network.t_node:
            path = []
            while prev[x] is not None:
                y, e = prev[x]
                path.append(e)
                x = y
            return path[::-1]
        for y, e in adj.get(x, ()):
            if y not in prev:
                prev[y] = (x, e)
                queue.append(y)
    return None


@st.composite
def dense_networks(draw):
    """Networks on few nodes with many, often parallel, edges over few labels,
    so that s'-t' walks are long and BFS ties are common."""
    n = draw(st.integers(1, 3))
    vertices = list(range(draw(st.integers(2, 7))))
    tails, heads = ["s", *range(1, n + 1)], [*range(1, n + 1), "t"]
    labels = st.tuples(st.sampled_from(tails), st.sampled_from(heads)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(st.builds(NetEdge, st.sampled_from(vertices), st.sampled_from(vertices),
                                    labels, st.booleans()), min_size=6, max_size=24))
    return SwitchingNetwork(n, vertices, vertices[0], vertices[-1], edges)


@settings(max_examples=300, deadline=None)
@given(st.one_of(networks(), dense_networks()), st.data())
def test_accepting_path_matches_search_loop(net, data):
    # the input graph holds a random subset of the network's labels, so some
    # positive edges are missing and some negated edges are usable
    labels = sorted({e.label for e in net.edges}, key=str)
    present = data.draw(st.lists(st.sampled_from(labels), unique=True)) if labels else []
    graph = InputGraph(net.n, present)
    assert net.accepting_path(graph) == _loop_accepting_path(net, graph)
