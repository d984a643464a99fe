import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from switchnet import lowerbound
from switchnet.cuts import CutFunction, _nondegenerate, common_denominator, is_edge_invariant
from switchnet.graphs import InputGraph, chain_with_lollipops
from switchnet.lowerbound import (
    REPRESENTATIVE_TOP,
    BuildDiagnostics,
    ConstructionError,
    InvariantFamily,
    LevelDiagnostics,
    SumVectorTable,
    build_base_function,
    build_invariant_family,
    closed_form_lower_bound,
    cutoff_case,
    cutoff_cost_bound,
    cutoff_sum,
    default_e0,
    discrepancy_sum,
    extend_invariant,
    fixed_value,
    low_connectivity_hypotheses,
    lower_bound_certificate,
    relevance_threshold,
    relevant_edges,
    representative,
    table_from_function,
)
from switchnet.parity import build_chain_lollipop
from switchnet.subsets import k_subsets
from switchnet.sums import permutation_bound_sum, s_single, sum_of_squares

from conftest import layered_dag, pointwise_product, random_graph, random_sparse_function, rationals

SHORT_CHAIN = InputGraph(2, {("s", 1), (1, 2), (2, "t")})
LONG_CHAIN = InputGraph(6, {("s", 1), (1, 2), (2, 3), (3, 4), (4, "t")})


def invariance_multiplier(n, edge):
    """A function vanishing exactly on the cuts the edge crosses; multiplying
    any function by it pointwise yields an edge-invariant function."""
    one = CutFunction.constant(n, Fraction(1))
    tail, head = edge
    if tail == "s":
        return one - CutFunction.character(n, {head})
    if head == "t":
        return one + CutFunction.character(n, {tail})
    factor = pointwise_product(
        one - CutFunction.character(n, {tail}), one + CutFunction.character(n, {head})
    )
    return CutFunction.constant(n, Fraction(4)) - factor


def admissible_base(n, edge, z, rng):
    """Random function satisfying the edge's coefficient relations below z:
    truncate a genuinely invariant function to levels < z."""
    h = pointwise_product(invariance_multiplier(n, edge), random_sparse_function(n, rng))
    return CutFunction(n, coeffs={V: c for V, c in h.coeffs.items() if len(V) < z})


def random_table(n, max_level, rng):
    vectors = {
        (k, total - k): [
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in k_subsets(n, k)
        ]
        for total in range(max_level + 1)
        for k in range(total + 1)
    }
    return SumVectorTable(n, max_level, vectors)


def pairwise_relevant(graph, z, k, u, A, edge):
    """Reference relevance test of one pair, checked field by field."""
    tail, head = edge
    if not _nondegenerate(edge, graph.n):
        return False
    A = frozenset(A)
    if tail != "s" and tail not in A:
        return False
    if head != "t" and head not in A:
        return False
    limit = relevance_threshold(z, k, u)
    if limit == 0:
        return False
    d = graph.distance(tail, head)
    return d is not None and 0 < d <= limit


def pairwise_relevant_edges(graph, z, k, u, A):
    A = sorted(A)
    return [
        (tail, head)
        for tail in ["s"] + A
        for head in A + ["t"]
        if tail != head
        and (tail, head) != ("s", "t")
        and pairwise_relevant(graph, z, k, u, A, (tail, head))
    ]


def looped_representative(graph, z, V, rng=None):
    """Reference normal form with its own radius and move loops."""
    current = set(V)
    if len(current) >= z:
        raise ValueError("representatives are defined for |V| < z")
    while True:
        limit = 2 ** (z - 1 - len(current))
        moves = []
        for v in sorted(current):
            d = graph.distance(v, "t")
            if d is not None and d <= limit:
                moves.append(("top", v))
        for w in sorted(current):
            for v in sorted(current - {w}) + ["s"]:
                d = graph.distance(v, w)
                if d is not None and 0 < d <= limit:
                    moves.append(("drop", w))
                    break
        if not moves:
            return frozenset(current)
        move = rng.choice(moves) if rng is not None else moves[0]
        if move[0] == "top":
            return REPRESENTATIVE_TOP
        current.discard(move[1])


@st.composite
def small_dags(draw):
    n = draw(st.integers(1, 7))
    p = draw(st.sampled_from([0.15, 0.3, 0.6]))
    return random_graph(n, random.Random(draw(st.integers(0, 10**6))), acyclic=True, p=p)


class TestRelevance:
    @settings(max_examples=80, deadline=None)
    @given(small_dags(), st.integers(1, 4), st.data())
    def test_matches_pairwise_filter(self, graph, z, data):
        n = graph.n
        tokens = ["s", "t", 0, n + 1] + list(range(1, n + 1))
        for level in range(z):
            for k in range(min(level, n) + 1):
                u = level - k
                A = data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
                edges = relevant_edges(graph, z, k, u, A)
                assert edges == pairwise_relevant_edges(graph, z, k, u, A)
                for edge in [(a, b) for a in tokens for b in tokens]:
                    want = pairwise_relevant(graph, z, k, u, A, edge)
                    assert (edge in edges) == want, (edge, k, u, A)
                    assert (edge in relevant_edges(graph, z, k, u, set(A))) == want

    def test_chain_examples(self):
        assert ("s", 1) in relevant_edges(SHORT_CHAIN, 2, 1, 0, {1})
        assert (1, 2) not in relevant_edges(SHORT_CHAIN, 2, 2, 0, {1, 2})

    def test_degenerate_edges_never_relevant(self):
        assert (1, "s") not in relevant_edges(SHORT_CHAIN, 3, 1, 0, {1})
        assert ("s", "t") not in relevant_edges(SHORT_CHAIN, 3, 0, 0, set())

    def test_endpoints_must_be_in_coordinate(self):
        assert ("s", 1) not in relevant_edges(SHORT_CHAIN, 3, 1, 0, {2})

    def test_classification(self):
        assert relevant_edges(SHORT_CHAIN, 2, 1, 0, {1})  # s->1 within 2^0: fixed
        assert not relevant_edges(InputGraph(3, set()), 3, 1, 0, {1})
        # a pair linked by a direct edge is fixed at (2, 0) when the radius allows
        assert relevant_edges(LONG_CHAIN, 3, 2, 0, {1, 2})
        assert not relevant_edges(LONG_CHAIN, 3, 2, 0, {5, 6})


class TestFixedValue:
    def _seed_table(self, graph, z):
        t = SumVectorTable(graph.n, z - 1, z=z)
        t.vectors[(0, 0)] = [Fraction(1)]
        t.vectors[(0, 1)] = [Fraction(0)]
        return t

    @staticmethod
    def _edges_at(t, graph, z, top):
        """Each coordinate's relevant-edge list up to level top, in t's colex order."""
        return {
            (k, level - k): [relevant_edges(graph, z, k, level - k, S) for S in t.rank_map(k)]
            for level in range(top + 1)
            for k in range(level + 1)
        }

    def _fixed_value(self, t, graph, z, k, u, A):
        return fixed_value(t, self._edges_at(t, graph, z, k + u), k, u, A)

    def test_source_equation(self):
        t = self._seed_table(SHORT_CHAIN, 2)
        value, count = self._fixed_value(t, SHORT_CHAIN, 2, 1, 0, frozenset({1}))
        assert value == -1 and count == 1

    def test_sink_equation_sign(self):
        t = self._seed_table(SHORT_CHAIN, 2)
        value, _ = self._fixed_value(t, SHORT_CHAIN, 2, 1, 0, frozenset({2}))
        assert value == 1

    def test_free_coordinate_rejected(self):
        t = self._seed_table(SHORT_CHAIN, 2)
        assert not relevant_edges(SHORT_CHAIN, 2, 1, 1, {1})
        with pytest.raises(ValueError):
            self._fixed_value(t, SHORT_CHAIN, 2, 1, 1, frozenset({1}))
        with pytest.raises(ValueError):
            self._fixed_value(t, InputGraph(2, set()), 2, 1, 0, frozenset({1}))

    def test_closure_reads_the_reduced_coordinate(self):
        # s->1 and 1->2 are relevant at (2, 0, {1, 2}), so s->2 must be at (1, 0, {2})
        t = SumVectorTable(2, 2, z=3)
        edges_at = self._edges_at(t, SHORT_CHAIN, 3, 2)
        fixed_value(t, edges_at, 2, 0, (1, 2))
        edges_at[(1, 0)][t.rank_map(1)[frozenset({2})]].remove(("s", 2))
        with pytest.raises(ConstructionError, match=r"closure violated: \('s', 2\) not relevant at \(1,0,\[2\]\)"):
            fixed_value(t, edges_at, 2, 0, (1, 2))

    def test_multiple_equations_agree_during_builds(self):
        _, _, diag = build_base_function(LONG_CHAIN, 3)
        assert diag.multi_equation_checks >= 1  # agreement asserted internally

    def test_lookup_keys(self):
        t = self._seed_table(SHORT_CHAIN, 2)
        t.vectors[(1, 0)] = [Fraction(-1), Fraction(1)]
        assert [t.lookup(1, 0, A) for A in [(1,), frozenset({1}), (2,), frozenset({2})]] == [-1, -1, 1, 1]
        assert [t.lookup(k, u, A) for k, u in [(0, 0), (-1, 0), (0, -1), (-1, -1)] for A in [(), frozenset()]] == [
            1, 1, 0, 0, 0, 0, 0, 0
        ]


class TestErrorVectors:
    def test_zero_on_actual_functions(self, rng):
        for _ in range(5):
            g = random_sparse_function(5, rng)
            table = table_from_function(g, 3)
            for total in range(0, 4):
                for k in range(0, total + 1):
                    u = total - k
                    if u >= 1:
                        assert all(x == 0 for x in table.error_vector(k, u))

    def test_u_zero_rejected(self, rng):
        table = table_from_function(random_sparse_function(4, rng), 2)
        with pytest.raises(ValueError):
            table.error_vector(1, 0)

    def test_perturbation_is_local(self, rng):
        g = random_sparse_function(5, rng)
        table = table_from_function(g, 3)
        idx = 2
        table.vectors[(1, 1)][idx] += 1
        err = table.error_vector(1, 1)
        assert err[idx] == 1
        assert all(x == 0 for i, x in enumerate(err) if i != idx)

    def test_recurrences_on_random_tables(self, rng):
        # the three decompositions of the error vector into defects and
        # lower-order errors hold identically on arbitrary tables
        n = 4
        for trial in range(6):
            table = random_table(n, 3, rng)

            def err(k, u, A):
                if u < 1 or k < 0:
                    return Fraction(0)
                sa = frozenset(A)
                up = sum(
                    (table.lookup(k + 1, u - 1, sa | {b}) for b in range(1, n + 1) if b not in sa),
                    start=Fraction(0),
                )
                return table.lookup(k, u, sa) - Fraction(1, u) * up

            def dsum(edge, k, u, A):
                return Fraction(1, u) * sum(
                    (
                        table.delta_coordinate(edge, k + 1, u - 1, frozenset(A) | {b})
                        for b in range(1, n + 1)
                        if b not in A
                    ),
                    start=Fraction(0),
                )

            for k in range(1, 3):
                for u in range(1, 3):
                    for A in k_subsets(n, k):
                        A = frozenset(A)
                        w = min(A)
                        lhs = err(k, u, A)
                        d = table.delta_coordinate(("s", w), k, u, A)
                        assert lhs == d - dsum(("s", w), k, u, A) + Fraction(u - 1, u) * err(
                            k, u - 1, A
                        ) - err(k - 1, u, A - {w})
                        d = table.delta_coordinate((w, "t"), k, u, A)
                        assert lhs == d - dsum((w, "t"), k, u, A) - Fraction(u - 1, u) * err(
                            k, u - 1, A
                        ) + err(k - 1, u, A - {w})
                        if k >= 2:
                            v, w2 = sorted(A)[:2]
                            d = table.delta_coordinate((v, w2), k, u, A)
                            assert lhs == (
                                d
                                - dsum((v, w2), k, u, A)
                                + err(k - 1, u, A - {v})
                                - err(k - 1, u, A - {w2})
                                + err(k - 2, u, A - {v, w2})
                                - Fraction(u - 1, u) * err(k - 1, u - 1, A - {v})
                                - Fraction(u - 1, u) * err(k - 1, u - 1, A - {w2})
                                + Fraction(u - 2, u) * err(k, u - 2, A)
                            )


class TestDeltaVectors:
    def test_zero_for_invariant_function(self, rng):
        for edge in [("s", 2), (3, "t"), (1, 4)]:
            h = pointwise_product(
                invariance_multiplier(4, edge), random_sparse_function(4, rng)
            )
            table = table_from_function(h, 2)
            for total in range(0, 3):
                for k in range(0, total + 1):
                    assert all(x == 0 for x in table.delta_vector(k, total - k, edge))

    def test_constant_function_defect(self):
        table = table_from_function(CutFunction.constant(3, Fraction(1)), 2)
        delta = table.delta_vector(1, 0, ("s", 2))
        assert delta[k_subsets(3, 1).index((2,))] == 1

    def test_zero_table(self):
        table = SumVectorTable(3, 2, {(k, u): [Fraction(0)] * len(k_subsets(3, k))
                                       for k in range(3) for u in range(3 - k)})
        assert all(x == 0 for x in table.delta_vector(1, 1, ("s", 1)))

    def test_degenerate_edge_rejected(self, rng):
        table = table_from_function(random_sparse_function(3, rng), 2)
        with pytest.raises(ValueError):
            table.delta_vector(1, 0, ("t", 1))


class TestBaseFunction:
    def test_unit_empty_coefficient(self):
        g, _, _ = build_base_function(LONG_CHAIN, 2)
        assert g.coeff(frozenset()) == 1

    def test_support_below_z(self):
        for z in (2, 3):
            g, _, _ = build_base_function(LONG_CHAIN, z)
            assert g.degree() <= z - 1

    def test_table_matches_function(self):
        # the construction's table must be the definitional table of g
        g, table, _ = build_base_function(LONG_CHAIN, 3)
        oracle = table_from_function(g, 2)
        for key, vec in table.vectors.items():
            assert vec == oracle.vectors[key]

    def test_guard_rejects_short_paths(self):
        with pytest.raises(ValueError):
            build_base_function(SHORT_CHAIN, 3)  # needs distance > 4

    def test_guard_rejects_cycles(self):
        cyclic = InputGraph(3, {("s", 1), (1, 2), (2, 3), (3, 1), (2, "t")})
        with pytest.raises(ValueError):
            build_base_function(cyclic, 1)

    def test_no_st_path_is_acceptable(self):
        # the construction itself never needs an s->t path to exist
        g, _, _ = build_base_function(InputGraph(4, {(1, 2)}), 2)
        assert g.coeff(frozenset()) == 1

    def test_extension_invariance_full_pipeline(self):
        fam, _, _ = build_invariant_family(LONG_CHAIN, 2)
        fam.validate()
        for e, ge in fam.functions.items():
            assert is_edge_invariant(ge, e)
            assert ge.coeff(frozenset()) == 1


class TestTableSerialization:
    def test_json_roundtrip(self):
        _, table, _ = build_base_function(LONG_CHAIN, 2)
        blob = table.to_json()
        back = SumVectorTable.from_json(blob)
        assert back.vectors == table.vectors
        assert back.tags == table.tags


    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 3), st.booleans(), st.data())
    def test_json_roundtrip_property(self, n, max_level, tagged, data):
        """Tables holding ints and Fractions, with and without tags."""
        keys = [(k, total - k) for total in range(max_level + 1) for k in range(total + 1)]
        vectors = {key: data.draw(st.lists(st.one_of(rationals(), rationals(integral=True)),
                                           min_size=len(k_subsets(n, key[0])),
                                           max_size=len(k_subsets(n, key[0]))))
                   for key in keys}
        tags = {key: [data.draw(st.sampled_from(["fixed", "free"])) for _ in vec]
                for key, vec in vectors.items()} if tagged else {}
        table = SumVectorTable(n, max_level, vectors, tags, z=data.draw(st.none() | st.integers(1, 4)))
        back = SumVectorTable.from_json(json.loads(json.dumps(table.to_json())))
        assert (back.n, back.max_level, back.z) == (table.n, table.max_level, table.z)
        assert back.vectors == table.vectors
        assert back.tags == {key: tag for key, tag in table.tags.items() if tag}
        assert back.to_json() == table.to_json()


class TestDiagnostics:
    def test_edgeless_graph_satisfies_target_bounds(self):
        # m = 0 and every coordinate free: the norm targets hold with equality
        g, table, diag = build_base_function(InputGraph(5, set()), 2)
        assert diag.linkage_m == 0
        assert diag.m_hypothesis_ok
        for (k, u), level in diag.levels.items():
            assert level.fixed_within_target and level.free_within_target
        assert g == CutFunction.constant(5, Fraction(1))

    def test_dense_graph_aborts_with_level(self):
        # every vertex sits within the working radius of s or t, so the free
        # solve has no room and the construction must abort loudly
        edges = {("s", v) for v in range(1, 4)} | {(v, "t") for v in range(4, 7)}
        graph = InputGraph(6, edges)
        with pytest.raises(ConstructionError) as err:
            build_base_function(graph, 3)
        assert err.value.k is not None


class TestExtendInvariant:
    def test_source_extension(self):
        base = CutFunction.constant(3, Fraction(1))
        ge = extend_invariant(base, ("s", 2), 1)
        assert ge == CutFunction(
            3, coeffs={frozenset(): Fraction(1), frozenset({2}): Fraction(-1)}
        )
        assert is_edge_invariant(ge, ("s", 2))

    def test_sink_extension(self):
        base = CutFunction.constant(3, Fraction(1))
        ge = extend_invariant(base, (1, "t"), 1)
        assert ge == CutFunction(
            3, coeffs={frozenset(): Fraction(1), frozenset({1}): Fraction(1)}
        )
        assert is_edge_invariant(ge, (1, "t"))

    def test_middle_extension(self):
        base = CutFunction.constant(3, Fraction(1))
        ge = extend_invariant(base, (1, 2), 1)
        assert ge == CutFunction(
            3, coeffs={frozenset(): Fraction(1), frozenset({1}): Fraction(1)}
        )
        assert is_edge_invariant(ge, (1, 2))

    def test_low_levels_unchanged(self, rng):
        for edge in [("s", 1), (2, "t"), (3, 4)]:
            b = admissible_base(5, edge, 3, rng)
            ge = extend_invariant(b, edge, 3)
            for V, c in b.coeffs.items():
                assert ge.coeff(V) == c
            assert is_edge_invariant(ge, edge)

    def test_precondition_enforced(self):
        bad = CutFunction.constant(3, Fraction(1)) + CutFunction.character(3, {1})
        with pytest.raises(ValueError):
            extend_invariant(bad, ("s", 1), 2)  # needs coeff({1}) = -coeff({})


def full_walk_extension(g, edge, z):
    """The extension by the definitional walk over all C(n, z) z-subsets,
    Fraction(0) where a subset gets no value: the oracle of the anchored walk."""
    tail, head = edge
    co = dict(g.coeffs)

    def c(V):
        return g.coeffs.get(frozenset(V), Fraction(0))

    for combo in combinations(range(1, g.n + 1), z):
        V = frozenset(combo)
        if tail == "s":
            val = -c(V - {head}) if head in V else Fraction(0)
        elif head == "t":
            val = c(V - {tail}) if tail in V else Fraction(0)
        elif tail in V and head in V:
            val = -c(V - {head}) + c(V - {tail}) + c(V - {tail, head})
        elif tail in V:
            val = c(V - {tail})
        else:
            val = Fraction(0)
        if val != 0:
            co[V] = val
    return CutFunction(g.n, coeffs=co)


class TestAnchoredExtension:
    """extend_invariant walks only the z-subsets holding the edge's anchor;
    coefficients, key order and JSON equal the full walk's."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_matches_full_walk(self, n, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        u, v = data.draw(st.permutations(range(1, n + 1)))[:2]
        integral = data.draw(st.booleans())
        for edge in [("s", u), (u, "t"), (u, v)]:
            for z in range(1, n + 1):
                base = admissible_base(n, edge, z, rng)
                if integral:
                    scale = common_denominator(base.coeffs.values())
                    base = CutFunction(n, coeffs={V: int(c * scale) for V, c in base.coeffs.items()})
                got, want = extend_invariant(base, edge, z), full_walk_extension(base, edge, z)
                assert list(got.coeffs.items()) == list(want.coeffs.items())
                assert json.dumps(got.to_json()) == json.dumps(want.to_json())


class TestCutoffSums:
    def test_all_cases_match_direct_computation(self, rng):
        n, z = 6, 3
        edges = [("s", 1), (1, "t"), (1, 2)]
        seen_cases = set()
        for edge in edges:
            for trial in range(4):
                b = admissible_base(n, edge, z, rng)
                ge = extend_invariant(b, edge, z)
                for k in range(0, z + 1):
                    u = z - k
                    for A in k_subsets(n, k):
                        seen_cases.add(cutoff_case(edge, A))
                        assert cutoff_sum(b, edge, frozenset(A), u, z) == s_single(
                            ge, A, u
                        )
        assert seen_cases == {"1a", "1b", "2a", "2b", "3a", "3b", "3c", "3d"}

    def test_boundary_requirement(self, rng):
        b = admissible_base(4, ("s", 1), 2, rng)
        with pytest.raises(ValueError):
            cutoff_sum(b, ("s", 1), {1}, 2, 2)

    def test_boundary_square_sums_dominated(self, rng):
        n, z = 6, 3
        for edge in [("s", 2), (3, "t"), (2, 5)]:
            for _ in range(3):
                b = admissible_base(n, edge, z, rng)
                ge = extend_invariant(b, edge, z)
                bound = cutoff_cost_bound(b, z)
                for k in range(0, z + 1):
                    assert sum_of_squares(ge, k, z - k) <= bound


class TestRepresentative:
    FAN = InputGraph(4, {("s", 1), ("s", 2), (3, "t"), (1, 4)})

    @settings(max_examples=80, deadline=None)
    @given(small_dags(), st.integers(1, 5), st.data())
    def test_matches_looped_moves(self, graph, z, data):
        size = data.draw(st.integers(0, min(z - 1, graph.n)))
        V = data.draw(st.frozensets(st.integers(1, graph.n), min_size=size, max_size=size))
        assert representative(graph, z, V) == looped_representative(graph, z, V)
        for seed in data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4)):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = representative(graph, z, V, rng=got_rng)
            assert got == looped_representative(graph, z, V, rng=want_rng)
            assert got_rng.getstate() == want_rng.getstate()

    def test_drop_both_source_vertices(self, rng):
        for _ in range(10):
            assert representative(self.FAN, 4, {1, 2}, rng=rng) == frozenset()

    def test_top_jump(self, rng):
        assert representative(self.FAN, 4, {3}, rng=rng) == REPRESENTATIVE_TOP

    def test_no_reduction(self):
        # threshold 2^0 = 1 reaches neither s->4 (distance 2) nor 4->t (none)
        assert representative(self.FAN, 2, {4}) == frozenset({4})

    def test_size_guard(self):
        with pytest.raises(ValueError):
            representative(self.FAN, 2, {1, 2})

    def test_order_independence_on_guarded_dags(self, rng):
        # order independence relies on the no-short-s->t-path hypothesis:
        # otherwise a drop justified by s composes with a jump to TOP into a
        # short s->t path and the two orders genuinely diverge
        checked = 0
        while checked < 30:
            n = rng.randint(3, 6)
            edges = set()
            order = ["s"] + list(range(1, n + 1)) + ["t"]
            for i in range(len(order)):
                for j in range(i + 1, len(order)):
                    if (order[i], order[j]) != ("s", "t") and rng.random() < 0.3:
                        edges.add((order[i], order[j]))
            graph = InputGraph(n, edges)
            z = rng.randint(2, 5)
            d = graph.distance("s", "t")
            if d is not None and d <= 2 ** (z - 1):
                continue
            checked += 1
            size = rng.randint(0, min(z - 1, n))
            V = frozenset(rng.sample(range(1, n + 1), size))
            results = {
                representative(graph, z, V, rng=random.Random(rng.randrange(10**9)))
                for _ in range(8)
            }
            assert len(results) == 1, (graph, z, sorted(V), results)


class TestDiscrepancy:
    def _family(self, graph, z=1):
        base = CutFunction.constant(graph.n, Fraction(1))
        return InvariantFamily(
            graph, z, {e: extend_invariant(base, e, z) for e in graph.edges}, base=base
        )

    def test_total_is_two(self):
        graph = chain_with_lollipops(4, 2)
        res = build_chain_lollipop(4, 2, seed=0)
        fam = self._family(graph)
        path = res.network.accepting_path(graph)
        rep = discrepancy_sum(res.network, path, fam, e0=("s", 1))
        assert rep.total == 2

    def test_total_is_two_on_detour_walks(self):
        # the identity holds for walks, not just simple paths: prepend a
        # there-and-back detour over the first edge
        graph = chain_with_lollipops(4, 2)
        res = build_chain_lollipop(4, 2, seed=0)
        fam = self._family(graph)
        path = res.network.accepting_path(graph)
        detour = [path[0], path[0]] + path
        rep = discrepancy_sum(res.network, detour, fam, e0=(1, 2))
        assert rep.total == 2

    def test_telescoping(self):
        graph = chain_with_lollipops(4, 2)
        res = build_chain_lollipop(4, 2, seed=0)
        path = res.network.accepting_path(graph)
        funcs = res.network.reachability_functions()
        cur, total = res.network.s_node, None
        for pe in path:
            nxt = pe.v if pe.u == cur else pe.u
            step = funcs[nxt] - funcs[cur]
            total = step if total is None else total + step
            cur = nxt
        assert total == funcs[res.network.t_node] - funcs[res.network.s_node]

    def test_absolute_sum_at_least_two(self):
        # every walk vertex contributes jumps with unit coefficients, so the
        # absolute version dominates the telescoped total
        graph = chain_with_lollipops(4, 2)
        res = build_chain_lollipop(4, 2, seed=0)
        fam = self._family(graph)
        path = res.network.accepting_path(graph)
        funcs = res.network.reachability_functions()
        nodes, cur = [res.network.s_node], res.network.s_node
        for pe in path:
            cur = pe.v if pe.u == cur else pe.u
            nodes.append(cur)
        e0 = ("s", 1)
        g0 = fam.functions[e0]
        total = Fraction(0)
        for e in graph.edges:
            if e == e0:
                continue
            diff = fam.functions[e] - g0
            total += sum(abs(funcs[v].dot(diff)) for v in nodes)
        assert total >= 2

    def test_label_outside_graph_rejected(self):
        graph = chain_with_lollipops(4, 2)
        other = chain_with_lollipops(4, 1)
        res = build_chain_lollipop(4, 1, seed=0)
        fam = self._family(graph)
        path = res.network.accepting_path(other)
        with pytest.raises(ValueError):
            discrepancy_sum(res.network, path, fam, e0=("s", 1))


class TestCertificate:
    def test_end_to_end_positive(self):
        fam, _, _ = build_invariant_family(LONG_CHAIN, 2)
        cert = lower_bound_certificate(LONG_CHAIN, fam)
        assert cert.value > 0
        assert math.isfinite(cert.value)
        assert not cert.hypothesis_clean  # n = 6 is far below 4 (z+1)^2

    def test_default_e0_is_first_shortest_path_edge(self):
        assert default_e0(LONG_CHAIN) == ("s", 1)

    def test_degenerate_family_detected(self):
        graph = InputGraph(3, {("s", 1), (2, "t")})
        h = pointwise_product(
            invariance_multiplier(3, ("s", 1)), invariance_multiplier(3, (2, "t"))
        )
        assert h.coeff(frozenset()) == 1  # nonzero on a quarter of cuts, value 4
        fam = InvariantFamily(graph, 2, {e: h for e in graph.edges}, base=h)
        with pytest.raises(ZeroDivisionError):
            lower_bound_certificate(graph, fam, e0=("s", 1))

    def test_bad_e0_rejected(self):
        fam, _, _ = build_invariant_family(LONG_CHAIN, 2)
        with pytest.raises(ValueError):
            lower_bound_certificate(LONG_CHAIN, fam, e0=("s", 9))

    def test_dense_certificate_keeps_no_value_lists(self):
        # n = 15 runs the value-domain invariance test on every function,
        # on the support's subcube: no 2**15-entry list is built or cached
        graph = chain_with_lollipops(15, 1)
        fam, _, _ = build_invariant_family(graph, 1)
        cert = lower_bound_certificate(graph, fam)
        assert cert.max_sum == Fraction(16, 5)
        assert all(g._values is None for g in fam.functions.values())


class TestClosedForm:
    def test_reference_value(self):
        # recomputed independently: exp of the log-decomposition
        val = closed_form_lower_bound(32000, 1, 2, 64)
        logv = (
            0.25 * math.log(9 * 1 * 32000)
            + 0.5 * (math.log(32000) - math.log(9))
            - math.log(20 * 64 * 3)
            - 0.5 * math.log(4 * 2)
        )
        assert val == pytest.approx(math.exp(logv), rel=1e-12)
        assert val == pytest.approx(0.127182, rel=1e-5)

    def test_monotone_in_n(self):
        assert closed_form_lower_bound(64000, 1, 2, 64) > closed_form_lower_bound(
            32000, 1, 2, 64
        )

    def test_linear_in_edge_count(self):
        assert closed_form_lower_bound(32000, 1, 2, 128) == pytest.approx(
            closed_form_lower_bound(32000, 1, 2, 64) / 2
        )

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            closed_form_lower_bound(100, 0, 2, 4)

    def test_hypothesis_flags(self):
        flags = low_connectivity_hypotheses(LONG_CHAIN, 2)
        assert flags["acyclic"] and flags["has_st_path"] and flags["no_short_st_path"]
        assert flags["linkage_m"] == 2
        assert not flags["m_small_enough"]


def relabelled(graph, rng):
    image = list(range(1, graph.n + 1))
    rng.shuffle(image)
    f = dict(zip(range(1, graph.n + 1), image)).get
    return InputGraph(graph.n, {(f(u, u), f(v, v)) for u, v in graph.edges})


@st.composite
def guarded_layered_dags(draw):
    """(graph, z) with z <= 3 for a relabelled layered_dag on n <= 10 whose
    shortest s->t path is longer than 2**(z-1)."""
    z = draw(st.integers(1, 3))
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    tail = draw(st.integers(max(0, 2 ** (z - 1) - 2), 10 - a - b))
    n = draw(st.integers(a + b + tail, 10))
    return relabelled(layered_dag(a, b, tail, n), random.Random(draw(st.integers(0, 10**6)))), z


def diagnostics_from_table(graph, z, table):
    """The build's diagnostics recomputed in Fractions from its returned
    table's norms and values (test oracle)."""
    n, hyp = graph.n, low_connectivity_hypotheses(graph, z)
    m = hyp["linkage_m"]
    diag = BuildDiagnostics(seed=0, n=n, z=z, linkage_m=m, linkage_depth=2 ** (z - 2) if z >= 2 else 0,
                            m_hypothesis_ok=hyp["m_small_enough"])
    full = {}
    for level in range(z):
        for k in range(level + 1):
            u = level - k
            for A in k_subsets(n, k):
                diag.multi_equation_checks += max(0, len(relevant_edges(graph, z, k, u, A)) - 1)
            full[(k, u)], fixed, free = table.norms(k, u)
            # each free row of the level below moves the fixed supersets' sum
            # to its right side
            adj_sq = Fraction(0)
            if k >= 1:
                fixed_sets = {frozenset(A) for A, tag in zip(k_subsets(n, k), table.tags[(k, u)]) if tag == "fixed"}
                for V, tag in zip(k_subsets(n, k - 1), table.tags[(k - 1, u + 1)]):
                    ups = [frozenset(V) | {b} for b in range(1, n + 1) if b not in V]
                    adj = sum((table.lookup(k, u, S) for S in ups if S in fixed_sets), start=Fraction(0))
                    adj_sq += adj * adj if tag == "free" else 0

            def at(kk, uu):
                return full.get((kk, uu), Fraction(0))

            target = Fraction(9 * m * n) ** (k + u) / 4
            rec = (2 * at(k, u - 1) + 6 * at(k, u - 2) + (4 * m + 6 * k * m) * at(k - 1, u)
                   + 6 * k * m * at(k - 1, u - 1) + 3 * n * m * at(k - 2, u))
            diag.levels[(k, u)] = LevelDiagnostics(
                fixed_norm_sq=fixed, free_norm_sq=free, target_bound_sq=target,
                fixed_within_target=fixed * fixed <= target if k + u else True,
                free_within_target=free * free <= target if k + u else True,
                equation_rhs_bound=rec, fixed_within_recurrence=fixed <= rec if k >= 1 else True,
                adjustment_norm_sq=adj_sq, adjustment_bound=m * (k + 1) * k * fixed,
                adjustment_within_bound=adj_sq <= m * (k + 1) * k * fixed if k >= 1 else True,
            )
    return diag


def check_numerator_build(graph, z):
    try:
        g, table, diag = build_base_function(graph, z)
    except ConstructionError:
        assume(False)
    oracle = table_from_function(g, z - 1, graph, z)
    assert (table.n, table.max_level, table.z, table.den) == (oracle.n, oracle.max_level, oracle.z, 1)
    assert table.vectors == oracle.vectors and table.tags == oracle.tags
    assert all(type(x) is Fraction for vec in table.vectors.values() for x in vec)
    recomputed = diagnostics_from_table(graph, z, table)
    assert diag == recomputed
    assert diag.to_json() == recomputed.to_json()


class TestNumeratorBuild:
    """The table is built on integer numerators; what it returns must equal
    the definitional Fraction table and the Fraction diagnostics."""

    @settings(max_examples=60, deadline=None)
    @given(guarded_layered_dags())
    def test_matches_fraction_oracles(self, case):
        check_numerator_build(*case)

    @pytest.mark.parametrize("dims", [(1, 1, 6, 10), (3, 3, 6, 14)])
    def test_matches_fraction_oracles_at_z4(self, dims):
        check_numerator_build(relabelled(layered_dag(*dims), random.Random(0)), 4)

    def test_sweep_catches_a_perturbed_solution(self, monkeypatch):
        graph = relabelled(layered_dag(2, 2, 2, 9), random.Random(1))
        solve, calls = lowerbound.min_norm_solve, []
        monkeypatch.setattr(lowerbound, "min_norm_solve", lambda *a: calls.append(1) or solve(*a))
        build_base_function(graph, 3)
        last = len(calls)
        assert last >= 1

        def perturbed(*args):
            calls.append(1)
            sol = solve(*args)
            if len(calls) == 2 * last:  # the last solve: no later level reads it
                sol[0] += Fraction(1, 7)
            return sol

        monkeypatch.setattr(lowerbound, "min_norm_solve", perturbed)
        with pytest.raises(ConstructionError, match="nonzero error vector"):
            build_base_function(graph, 3)


def fraction_certificate(family, e0):
    """(max_sum, argmax_edge) from Fraction differences g_e - g_e0 (test oracle)."""
    g0 = family.functions[e0]
    best, arg = Fraction(0), None
    for e in family.graph.sorted_edges():
        if e != e0:
            val = permutation_bound_sum(family.functions[e] - g0, family.z)
            if val > best:
                best, arg = val, e
    return best, arg


class TestIntegerDifferences:
    @pytest.mark.parametrize("graph,z", [
        (LONG_CHAIN, 2),
        (LONG_CHAIN, 3),
        (chain_with_lollipops(6, 1), 1),
        (layered_dag(2, 2, 2, 9), 3),
        (relabelled(chain_with_lollipops(15, 1), random.Random(0)), 1),
        (relabelled(layered_dag(3, 3, 2, 22), random.Random(0)), 3),
    ], ids=["chain6z2", "chain6z3", "lollipops6", "layered9z3", "bench_dense", "bench_deep"])
    def test_matches_fraction_loop(self, graph, z):
        family, _, _ = build_invariant_family(graph, z)
        for e0 in [default_e0(graph), *graph.sorted_edges()[:2]]:
            report = lower_bound_certificate(graph, family, e0=e0)
            assert type(report.max_sum) is Fraction
            assert (report.max_sum, report.argmax_edge) == fraction_certificate(family, e0)

    def test_family_shares_level_z_sets_per_anchor(self):
        graph = layered_dag(2, 2, 2, 9)
        family, _, _ = build_invariant_family(graph, 3)
        seen = {}
        for e, g in family.functions.items():
            assert g == extend_invariant(family.base, e, 3)
            for V in g.coeffs:
                if len(V) == 3:
                    assert seen.setdefault(V, V) is V
