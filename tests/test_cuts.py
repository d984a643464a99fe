import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchnet import cuts
from switchnet.cuts import (
    CutFunction,
    Permutation,
    crossing_mask,
    dot,
    edge_crosses,
    eval_character,
    invariant_by_coeffs,
    invariant_by_values,
    is_edge_invariant,
    integer_coeffs,
    iter_cuts,
    maximal_no_instance,
    nonzero_mask,
    parity_mask,
    relation_violations,
)
from switchnet.graphs import InputGraph
from switchnet.lowerbound import extend_invariant

from conftest import random_sparse_function, rationals, sparse_functions


def brute_dot(f, g):
    """Definitional oracle: 2^-n sum over cuts of the value product."""
    n = f.n
    return sum(
        (f.value_at(c) * g.value_at(c) for c in iter_cuts(n)), start=Fraction(0)
    ) * Fraction(1, 1 << n)


class TestCharacters:
    def test_empty_set_is_one_everywhere(self):
        for c in iter_cuts(3):
            assert eval_character(set(), c, 3) == 1

    def test_singleton_parity(self):
        # vertex 1 in L(C) (bit 0 set) flips the sign
        assert eval_character({1}, 0b001, 3) == -1
        assert eval_character({1}, 0b110, 3) == 1

    def test_pair_parity(self):
        assert eval_character({1, 2}, 0b011, 3) == 1
        assert eval_character({1, 2}, 0b001, 3) == -1

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            eval_character({4}, 0, 3)


class TestDot:
    def test_orthonormality_exhaustive_small_n(self):
        # every basis pair at n <= 4, against the definitional oracle
        for n in range(1, 5):
            for V in map(frozenset, _all_subsets(n)):
                eV = CutFunction.character(n, V)
                for W in map(frozenset, _all_subsets(n)):
                    eW = CutFunction.character(n, W)
                    expected = Fraction(1) if V == W else Fraction(0)
                    assert dot(eV, eW) == expected
                    assert brute_dot(eV, eW) == expected

    def test_character_integrates_to_zero(self):
        f = CutFunction.constant(2, Fraction(1))
        assert dot(f, CutFunction.character(2, {1})) == 0

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            dot(CutFunction.constant(2, 1), CutFunction.constant(3, 1))

    def test_parseval_on_random_functions(self, rng):
        for n in (3, 5, 7):
            for _ in range(10):
                f = random_sparse_function(n, rng)
                g = random_sparse_function(n, rng)
                assert f.dot(g) == brute_dot(f, g)


class TestTransform:
    def test_constant_function(self):
        f = CutFunction(2, coeffs={frozenset(): Fraction(1)})
        assert f.values == [Fraction(1)] * 4

    def test_roundtrip_values_to_coeffs_to_values(self, rng):
        for n in (2, 4, 6):
            vals = [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in iter_cuts(n)]
            f = CutFunction.from_values(n, list(vals))
            g = CutFunction(n, coeffs=f.coeffs)
            assert g.values == vals

    def test_transform_against_definitional_sum(self, rng):
        # oracle: evaluate the coefficient expansion cut by cut
        f = random_sparse_function(5, rng)
        for c in iter_cuts(5):
            direct = sum(
                (coeff * eval_character(V, c, 5) for V, coeff in f.coeffs.items()),
                start=Fraction(0),
            )
            assert f.values[c] == direct

    def test_dense_cap(self):
        f = CutFunction(17, coeffs={frozenset(): Fraction(1)})
        with pytest.raises(ValueError):
            f.values


class TestPermutations:
    def test_identity_fixes_functions(self, rng):
        f = random_sparse_function(4, rng)
        assert f.permuted(Permutation.identity(4)) == f

    def test_character_maps_to_permuted_character(self, rng):
        for _ in range(20):
            n = rng.randint(2, 7)
            sigma = Permutation.random(n, rng)
            V = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
            assert CutFunction.character(n, V).permuted(sigma) == CutFunction.character(
                n, sigma.apply_set(V)
            )

    def test_dot_invariance(self, rng):
        for _ in range(10):
            n = rng.randint(2, 6)
            sigma = Permutation.random(n, rng)
            f = random_sparse_function(n, rng)
            g = random_sparse_function(n, rng)
            assert dot(f.permuted(sigma), g.permuted(sigma)) == dot(f, g)

    def test_group_action(self, rng):
        for _ in range(10):
            n = rng.randint(2, 6)
            sigma = Permutation.random(n, rng)
            tau = Permutation.random(n, rng)
            f = random_sparse_function(n, rng)
            assert f.permuted(sigma.compose(tau)) == f.permuted(tau).permuted(sigma)

    def test_value_and_coeff_permutation_agree(self, rng):
        f = random_sparse_function(4, rng)
        sigma = Permutation.random(4, rng)
        by_coeffs = f.permuted(sigma)
        by_values = CutFunction.from_values(4, f.values).permuted(sigma)
        assert by_coeffs == by_values

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation({1: 1, 2: 1})


class TestEdgeCrossing:
    def test_source_edges(self):
        # s->w crosses exactly when w is on the t side
        for c in iter_cuts(3):
            assert edge_crosses(("s", 2), c) == (not (c >> 1) & 1)

    def test_sink_edges(self):
        for c in iter_cuts(3):
            assert edge_crosses((2, "t"), c) == bool((c >> 1) & 1)

    def test_st_edge_crosses_everything(self):
        assert all(edge_crosses(("s", "t"), c) for c in iter_cuts(3))

    def test_permutation_equivariance(self, rng):
        for _ in range(30):
            n = rng.randint(2, 6)
            sigma = Permutation.random(n, rng)
            u, v = rng.sample(["s", "t"] + list(range(1, n + 1)), 2)
            c = rng.randrange(1 << n)
            assert edge_crosses((u, v), c) == edge_crosses(
                (sigma(u), sigma(v)), sigma.apply_cut(c)
            )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_masks_match_per_cut_oracles(self, n):
        verts = ["s", "t"] + list(range(1, n + 1))
        for e in [(u, v) for u in verts for v in verts if u != v]:
            assert crossing_mask(n, e) == sum(1 << c for c in iter_cuts(n) if edge_crosses(e, c))
        for vmask in range(1 << n):
            V = [v for v in range(1, n + 1) if vmask >> (v - 1) & 1]
            want = sum(1 << c for c in iter_cuts(n) if eval_character(V, c, n) == -1)
            assert parity_mask(n, vmask) == want


class TestMaximalNoInstance:
    def test_n1_example(self):
        g = maximal_no_instance(0b0, 1)  # L(C) = {s}
        universe = {(u, v) for u in ["s", "t", 1] for v in ["s", "t", 1] if u != v}
        assert g.edges == frozenset(universe - {("s", 1), ("s", "t")})

    def test_never_connected(self):
        for n in (1, 2, 3):
            for c in iter_cuts(n):
                assert not maximal_no_instance(c, n).has_st_path()

    def test_every_disconnected_graph_embeds_n2_exhaustive(self):
        verts = ["s", "t", 1, 2]
        pairs = [(u, v) for u in verts for v in verts if u != v]
        for mask in range(1 << len(pairs)):
            edges = {pairs[i] for i in range(len(pairs)) if (mask >> i) & 1}
            g = InputGraph(2, edges)
            if g.has_st_path():
                continue
            assert any(
                edges <= maximal_no_instance(c, 2).edges for c in iter_cuts(2)
            )

    def test_every_disconnected_graph_embeds_n3_sampled(self, rng):
        verts = ["s", "t", 1, 2, 3]
        pairs = [(u, v) for u in verts for v in verts if u != v]
        checked = 0
        while checked < 3000:
            edges = {p for p in pairs if rng.random() < 0.35}
            g = InputGraph(3, edges)
            if g.has_st_path():
                continue
            checked += 1
            assert any(edges <= maximal_no_instance(c, 3).edges for c in iter_cuts(3))


class TestEdgeInvariance:
    def test_zero_function(self):
        z = CutFunction(3, coeffs={})
        for e in [("s", 1), (2, "t"), (1, 3)]:
            assert is_edge_invariant(z, e)

    def test_source_invariant_pair(self):
        g = CutFunction(3, coeffs={frozenset(): Fraction(1), frozenset({2}): Fraction(-1)})
        assert is_edge_invariant(g, ("s", 2))
        assert not is_edge_invariant(g, ("s", 1))

    def test_constant_not_invariant(self):
        g = CutFunction.constant(3, Fraction(1))
        assert not is_edge_invariant(g, ("s", 1))

    def test_degenerate_edges_rejected(self):
        g = CutFunction.constant(3, Fraction(1))
        for e in [(1, "s"), ("t", 2), ("s", "t")]:
            with pytest.raises(ValueError):
                is_edge_invariant(g, e)

    def test_out_of_range_vertices_rejected(self):
        g = CutFunction.constant(3, Fraction(1))
        for e in [(7, "t"), ("s", 5), (7, 1), (1, 4), (0, "t")]:
            with pytest.raises(ValueError):
                crossing_mask(3, e)
            with pytest.raises(ValueError):
                invariant_by_values(g, e)
            with pytest.raises(ValueError):
                invariant_by_coeffs(g, e)
            with pytest.raises(ValueError):
                is_edge_invariant(g, e)

    def test_degenerate_edges_rejected_by_each_test(self):
        g = CutFunction.constant(3, Fraction(1))
        for e in [(1, "s"), ("t", 2), ("s", "t"), (2, 2)]:
            for test in (invariant_by_values, invariant_by_coeffs):
                with pytest.raises(ValueError):
                    test(g, e)

    def test_value_and_coeff_tests_agree(self, rng):
        # agreement over many random functions and all non-degenerate edges
        for n in (3, 4):
            tokens = ["s"] + list(range(1, n + 1))
            for _ in range(25):
                g = random_sparse_function(n, rng)
                for tail in tokens:
                    for head in list(range(1, n + 1)) + ["t"]:
                        if tail == head or (tail == "s" and head == "t"):
                            continue
                        assert invariant_by_values(g, (tail, head)) == invariant_by_coeffs(
                            g, (tail, head)
                        )


class TestSerialization:
    def test_roundtrip(self, rng):
        f = random_sparse_function(5, rng)
        blob = json.dumps(f.to_json())
        assert CutFunction.from_json(json.loads(blob)) == f

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(sparse_functions(), sparse_functions(integral=True)))
    def test_roundtrip_property(self, f):
        back = CutFunction.from_json(json.loads(json.dumps(f.to_json())))
        assert back.n == f.n and back.coeffs == f.coeffs

    def test_rationals_as_strings(self):
        f = CutFunction(2, coeffs={frozenset({1}): Fraction(3, 7)})
        assert f.to_json()["coeffs"] == [{"V": [1], "c": "3/7"}]

    def test_bool_vertex_rejected(self):
        with pytest.raises(ValueError, match="vertex id True"):
            CutFunction.from_json({"n": 2, "coeffs": [{"V": [True], "c": "1/1"}]})


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_parseval_property(n, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = random_sparse_function(n, rng)
    assert f.norm_squared() == brute_dot(f, f)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(0, 10**6))
def test_relations_match_value_sweep(n, seed):
    """Zeroing a random function on the cuts an edge crosses makes it
    invariant under the edge.  The coefficient relations must say so, agree
    with the value sweep on the original, and, truncated below any level z,
    pass extend_invariant's precondition and extend to an invariant function."""
    f = random_sparse_function(n, random.Random(seed), terms=6)
    middles = list(range(1, n + 1))
    for edge in [(a, b) for a in ["s"] + middles for b in middles + ["t"] if a != b and (a, b) != ("s", "t")]:
        crossing = crossing_mask(n, edge)
        g = CutFunction.from_values(n, [0 if crossing >> c & 1 else v for c, v in enumerate(f.values)])
        assert invariant_by_coeffs(g, edge) and invariant_by_values(g, edge)
        assert invariant_by_coeffs(f, edge) == invariant_by_values(f, edge)
        for z in range(1, n + 1):
            below = CutFunction(n, coeffs={V: c for V, c in g.coeffs.items() if len(V) < z})
            assert is_edge_invariant(extend_invariant(below, edge, z), edge)


def _all_subsets(n):
    out = []
    for k in range(n + 1):
        out.extend(combinations(range(1, n + 1), k))
    return out


def fraction_butterfly(vals):
    """In-place Walsh-Hadamard butterfly on Fractions, one element pair at a
    time: the oracle of the integer transform."""
    size = len(vals)
    h = 1
    while h < size:
        for i in range(0, size, h * 2):
            for j in range(i, i + h):
                a, b = vals[j], vals[j + h]
                vals[j], vals[j + h] = a + b, a - b
        h *= 2
    return vals


def oracle_values(n, coeffs):
    dense = [Fraction(0)] * (1 << n)
    for V, c in coeffs.items():
        dense[sum(1 << (v - 1) for v in V)] = Fraction(c)
    return fraction_butterfly(dense)


def oracle_coeffs(n, values):
    scale = Fraction(1, 1 << n)
    spectrum = fraction_butterfly([Fraction(v) for v in values])
    return {
        frozenset(v + 1 for v in range(n) if (mask >> v) & 1): c * scale
        for mask, c in enumerate(spectrum)
        if c != 0
    }


class TestIntegerTransform:
    """The int Walsh transform over a common denominator against the
    Fraction butterfly, in both directions."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(sparse_functions(), sparse_functions(integral=True)))
    def test_coeffs_to_values(self, f):
        values = f.values
        assert values == oracle_values(f.n, f.coeffs)
        if all(isinstance(c, int) or c.denominator == 1 for c in f.coeffs.values()):
            assert all(isinstance(v, int) for v in values)
        assert nonzero_mask(v != 0 for v in values) == nonzero_mask(values)
        assert nonzero_mask(values) == sum(1 << c for c, v in enumerate(values) if v)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(sparse_functions(), sparse_functions(integral=True)))
    def test_values_to_coeffs(self, f):
        back = CutFunction.from_values(f.n, oracle_values(f.n, f.coeffs)).coeffs
        assert back == f.coeffs
        assert all(isinstance(c, Fraction) for c in back.values())

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_dense_values_to_coeffs(self, n, data):
        values = data.draw(st.lists(rationals(), min_size=1 << n, max_size=1 << n))
        f = CutFunction.from_values(n, values)
        assert f.coeffs == oracle_coeffs(n, values)
        assert CutFunction(n, coeffs=f.coeffs).values == values


@st.composite
def subcube_functions(draw):
    """Functions on n <= 14 whose coefficients sit on 0-4 support vertices,
    or whose support is all n vertices; coefficients may be zero, integral or
    over mixed denominators."""
    n = draw(st.integers(1, 14))
    support = sorted(draw(st.frozensets(st.integers(1, n), max_size=4)))
    keys = st.frozensets(st.sampled_from(support)) if support else st.just(frozenset())
    coeffs = draw(st.dictionaries(keys, rationals(), max_size=6))
    if draw(st.booleans()):
        coeffs[frozenset(range(1, n + 1))] = draw(rationals())
    return CutFunction(n, coeffs=coeffs)


class TestSupportSubcube:
    """Values are transformed on the support's subcube, then lifted to all
    2**n cuts."""

    @settings(max_examples=40, deadline=None)
    @given(subcube_functions())
    def test_values_match_fraction_butterfly(self, f):
        assert f.values == oracle_values(f.n, f.coeffs)

    @pytest.mark.parametrize("n", [1, 9, 14])
    def test_zero_function(self, n):
        zero = CutFunction(n, coeffs={frozenset([1]): 0, frozenset(range(1, n + 1)): Fraction(0, 7)})
        assert zero.values == [0] * (1 << n)

    def test_one_vertex_transforms_two_entries(self, monkeypatch):
        sizes = []
        walsh = cuts._walsh

        def recording(vals, n):
            sizes.append(len(vals))
            return walsh(vals, n)

        monkeypatch.setattr(cuts, "_walsh", recording)
        f = CutFunction(15, coeffs={frozenset(): Fraction(1, 3), frozenset([9]): Fraction(-2, 5)})
        values = f.values
        assert sizes == [2]
        assert len(values) == 1 << 15
        assert {values[c] for c in range(1 << 15) if not (c >> 8) & 1} == {Fraction(-1, 15)}
        assert {values[c] for c in range(1 << 15) if (c >> 8) & 1} == {Fraction(11, 15)}


def all_cuts_invariant(g, edge):
    """The value test over all 2**n cuts: g's dense values against the edge's
    crossing mask."""
    return nonzero_mask(g.values) & crossing_mask(g.n, tuple(edge)) == 0


def fraction_relation_violations(g, edge, below=None):
    """The invariance relations summed on the Fraction coefficients
    themselves: the oracle of the integer-numerator sums."""
    tail, head = edge
    if tail == "s":
        terms = ((frozenset([head]), 1), (frozenset(), 1))
    elif head == "t":
        terms = ((frozenset([tail]), 1), (frozenset(), -1))
    else:
        terms = ((frozenset([tail, head]), 1), (frozenset([tail]), 1),
                 (frozenset([head]), -1), (frozenset(), -1))
    mids = terms[0][0]
    co = g.coeffs
    for V in {V - mids for V in co}:
        if below is not None and len(V | mids) >= below:
            continue
        if sum(sign * co.get(V | D, 0) for D, sign in terms) != 0:
            yield V


def nondegenerate_edges(n):
    middles = list(range(1, n + 1))
    return [(a, b) for a in ["s"] + middles for b in middles + ["t"]
            if a != b and (a, b) != ("s", "t")]


@st.composite
def invariance_cases(draw):
    """Functions on n <= 8 whose coefficients sit on a drawn support, which
    may miss any vertex: zero, constant, sparse, or sparse times (1 -+ e_w)
    for a support vertex w, which vanishes on every cut with w on the t side
    (or the s side) and so is invariant under every edge into (out of) w."""
    n = draw(st.integers(1, 8))
    support = sorted(draw(st.frozensets(st.integers(1, n))))
    kind = draw(st.sampled_from(["zero", "constant", "sparse", "vanishing"]))
    if kind == "zero":
        return CutFunction(n, coeffs={})
    if kind == "constant":
        return CutFunction.constant(n, draw(rationals()))
    keys = st.frozensets(st.sampled_from(support)) if support else st.just(frozenset())
    coeffs = draw(st.dictionaries(keys, rationals(), max_size=6))
    if kind == "vanishing" and support:
        w = frozenset([draw(st.sampled_from(support))])
        sign = draw(st.sampled_from([1, -1]))
        coeffs = {V ^ D: 0 for V in coeffs for D in (frozenset(), w)} | coeffs
        coeffs = {V: c - sign * coeffs.get(V ^ w, 0) for V, c in coeffs.items()}
    return CutFunction(n, coeffs=coeffs)


class TestInvarianceOnTheSupport:
    """The subcube value test and the integer relations against the all-cuts
    sweep and the Fraction relations, over every non-degenerate edge: edges
    with none, one or both endpoints outside the support."""

    @settings(max_examples=80, deadline=None)
    @given(invariance_cases())
    def test_matches_all_cuts_and_fraction_oracles(self, g):
        n = g.n
        for edge in nondegenerate_edges(n):
            by_value = invariant_by_values(g, edge)
            assert by_value == all_cuts_invariant(g, edge)
            assert invariant_by_coeffs(g, edge) == by_value
            assert is_edge_invariant(g, edge) == by_value
            for below in [None, *range(1, n + 2)]:
                assert set(relation_violations(g, edge, below)) == set(
                    fraction_relation_violations(g, edge, below))

    def test_vanishing_functions_are_invariant_off_the_support(self):
        # support {2}: 1 - e_2 vanishes when 2 is on the t side, so every
        # edge into 2 keeps it invariant, whatever its tail
        g = CutFunction(4, coeffs={frozenset(): 1, frozenset([2]): -1})
        for edge in [("s", 2), (1, 2), (3, 2), (4, 2)]:
            assert invariant_by_values(g, edge) and invariant_by_coeffs(g, edge)
        for edge in [(1, 3), (2, 3), (1, "t"), (2, "t"), ("s", 4)]:
            assert not invariant_by_values(g, edge) and not invariant_by_coeffs(g, edge)

    def test_value_test_caches_no_values(self):
        g = CutFunction(12, coeffs={frozenset(): 1, frozenset([5]): Fraction(-1, 3)})
        invariant_by_values(g, (5, 9))
        assert g._values is None


def test_integer_coeffs():
    assert integer_coeffs({}) == (1, {})
    co = {frozenset(): Fraction(1, 4), frozenset([1]): Fraction(-5, 6), frozenset([2]): 3}
    den, nums = integer_coeffs(co)
    assert den == 12
    assert nums == {frozenset(): 3, frozenset([1]): -10, frozenset([2]): 36}
    assert all(type(x) is int for x in nums.values())
