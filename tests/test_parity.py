import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import combinations, permutations, repeat, starmap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchnet.cuts import CutFunction, Permutation, edge_crosses, iter_cuts
from switchnet.graphs import InputGraph, all_distinct_permuted_copies, chain_with_lollipops
from switchnet.networks import NetEdge
from switchnet.pebbles import _search_win, is_winning, network_from_states
from switchnet import parity
from switchnet.parity import (
    ONE,
    BoundExceeded,
    InfeasibleParameters,
    KFunction,
    accepting_walk,
    block_parity,
    build_chain_lollipop,
    build_general_network,
    build_partition_family,
    can_go,
    canonical_chars,
    _greedy_pick,
    _iter_equal_partitions,
    default_z,
    legal_steps,
    match_probability_lower_bound,
    partition_matches,
    placement_graphs,
    reduction_char_path,
    reduction_char_sets,
    reduction_functions,
    step_implication,
    step_lollipop,
    upper_bound_formulas,
)


class TestKFunctions:
    def test_empty_is_minus_one(self):
        k = KFunction([])
        assert all(k.value(c) == -1 for c in iter_cuts(3))

    def test_single_factor_is_the_factor(self):
        k = KFunction([(1, {1})])
        e1 = CutFunction.character(3, {1})
        assert k.to_cut_function(3) == e1

    def test_adjoining_constant_minus_one_is_identity(self):
        f = KFunction([(1, {1, 2})])
        g = KFunction([(1, {1, 2}), (-1, frozenset())])
        for c in iter_cuts(3):
            assert f.value(c) == g.value(c)
        assert canonical_chars(f.chars) == canonical_chars(g.chars)

    def test_value_is_max_of_factors(self, rng):
        for _ in range(10):
            chars = [
                (rng.choice([1, -1]), frozenset(rng.sample(range(1, 5), rng.randint(0, 3))))
                for _ in range(3)
            ]
            k = KFunction(chars)
            for c in iter_cuts(4):
                factor_values = [
                    s * (-1 if bin(sum(1 << (v - 1) for v in V) & c).count("1") % 2 else 1)
                    for s, V in chars
                ]
                assert k.value(c) == max(factor_values)

    def test_canonical_one_detection(self):
        assert canonical_chars([(1, ())]) is ONE
        assert canonical_chars([(1, (1,)), (-1, (1,))]) is ONE


class TestSteps:
    def test_can_go_reflexive(self):
        f = KFunction([(1, {1})])
        for e in [("s", 1), (2, "t"), (1, 2)]:
            assert can_go(f, f, e, n=3)

    def test_lollipop_step_contract(self):
        f = KFunction([(1, {1})])
        g = step_lollipop(f, 0, ("s", 1))
        assert g.chars == ((-1, ()),)
        assert can_go(f, g, ("s", 1), n=3)
        assert not can_go(f, g, ("s", 2), n=3)

    def test_source_step_is_involution_up_to_sign(self):
        f = KFunction([(1, {1, 2})])
        g = step_lollipop(step_lollipop(f, 0, ("s", 1)), 0, ("s", 1))
        assert g.chars == f.chars

    def test_sink_step(self):
        f = KFunction([(1, {1})])
        g = step_lollipop(f, 0, (2, "t"))
        assert g.chars == ((1, (1, 2)),)
        assert can_go(f, g, (2, "t"), n=3)

    def test_implication_step(self):
        f = KFunction([(1, {1})])
        g = step_implication(f, (1, 2))
        assert g.chars == ((1, (1,)), (1, (2,)))
        assert can_go(f, g, (1, 2), n=3)
        assert not can_go(f, g, (1, 3), n=3)

    def test_implication_requires_prerequisite(self):
        with pytest.raises(ValueError):
            step_implication(KFunction([(1, {2})]), (1, 3))

    def test_can_go_matches_value_sweep(self, rng):
        # oracle: compare the bitmask test against explicit CutFunction values
        for _ in range(20):
            chars1 = [(rng.choice([1, -1]), frozenset(rng.sample(range(1, 4), rng.randint(1, 2))))]
            chars2 = [(rng.choice([1, -1]), frozenset(rng.sample(range(1, 4), rng.randint(1, 2))))]
            f, g = KFunction(chars1), KFunction(chars2)
            e = rng.choice([("s", 1), (1, "t"), (1, 2), (2, 3)])
            direct = all(
                f.to_cut_function(3).values[c] == g.to_cut_function(3).values[c]
                for c in iter_cuts(3)
                if not edge_crosses(e, c)
            )
            assert can_go(f, g, e, n=3) == direct
            fc, gc = f.to_cut_function(3), g.to_cut_function(3)
            assert can_go(fc, gc, e) == can_go(fc, g, e) == can_go(f, gc, e, n=3) == direct


def _loop_steps(chars, n):
    """Oracle: the edge loop build_general_network ran before legal_steps."""
    out = []
    for fi, (sign, V) in enumerate(chars):
        vset = set(V)
        for u in range(1, n + 1):
            toggled = tuple(sorted(vset ^ {u}))
            for flip, label in ((-1, ("s", u)), (1, (u, "t"))):
                rest = chars[:fi] + ((sign * flip, toggled),) + chars[fi + 1 :]
                out.append((label, canonical_chars(rest)))
        if sign == 1 and len(V) == 1:
            v = V[0]
            for w in range(1, n + 1):
                if w != v:
                    out.append(((v, w), canonical_chars(chars + ((1, (w,)),))))
    return out


@st.composite
def factor_tuples(draw):
    n = draw(st.integers(1, 7))
    char = st.tuples(st.sampled_from((1, -1)),
                     st.lists(st.integers(1, n), unique=True, max_size=n).map(lambda V: tuple(sorted(V))))
    return n, tuple(draw(st.lists(char, max_size=4)))


@settings(max_examples=200, deadline=None)
@given(factor_tuples())
def test_legal_steps_match_builder_loop(case):
    n, chars = case
    steps = list(legal_steps(chars, n))
    assert steps == _loop_steps(chars, n)
    if n <= 5:
        f = KFunction.from_chars(chars)
        for label, target in steps:
            g = KFunction([(1, ())]) if target is ONE else KFunction.from_chars(target)
            assert can_go(f, g, label, n=n)


def _tuple_canonical(factors):
    """Oracle: canonical_chars over sorted vertex tuples, as written before
    characters were coded as ints."""
    out = set()
    for sign, V in factors:
        V = tuple(sorted(V))
        if not V:
            if sign > 0:
                return ONE
            continue
        if (-sign, V) in out:
            return ONE
        out.add((sign, V))
    return tuple(sorted(out))


@settings(max_examples=200, deadline=None)
@given(factor_tuples())
def test_canonical_chars_match_tuple_rule(case):
    _, chars = case
    assert canonical_chars(chars) == _tuple_canonical(chars)


class TestReductionGadget:
    def test_singleton_block_is_empty(self):
        assert reduction_functions({5}) == []

    def test_size_bound(self):
        for size in range(2, 9):
            block = set(range(1, size + 1))
            count = len(reduction_functions(block))
            assert count <= 2 * size * math.ceil(math.log2(size))

    def test_block_of_four_counts(self):
        assert len(reduction_functions({1, 2, 3, 4})) <= 16

    def test_path_stays_inside_gadget(self):
        graph = InputGraph(6, {("s", v) for v in range(1, 7)})
        block = {1, 2, 3, 4}
        emitted = reduction_char_sets(block) | {frozenset({v}) for v in block}
        for root in block:
            path = reduction_char_path(block, root, graph)
            for (sign, V), _ in path:
                assert frozenset(V) in emitted
            assert path[-1][0] == (1, (root,))

    def test_parity_bookkeeping(self, rng):
        # after stripping everything but the root, the sign equals +1 exactly
        # because each s-lollipop flip is counted by the starting parity
        for _ in range(20):
            n = 6
            types = {v: rng.choice(["s", "t"]) for v in range(1, n + 1)}
            edges = {("s", v) if t == "s" else (v, "t") for v, t in types.items()}
            graph = InputGraph(n, edges)
            block = set(rng.sample(range(1, n + 1), rng.randint(1, n)))
            root = rng.choice(sorted(block))
            path = reduction_char_path(block, root, graph)
            assert path[0][0] == (block_parity(graph, block, root), tuple(sorted(block)))
            assert path[-1][0] == (1, (root,))
            # sign at every step recomputes as parity of the remaining set
            for (sign, V), _ in path:
                assert sign == block_parity(graph, set(V), root)

    def test_mixed_lollipop_paths_are_legal_steps(self, rng):
        graph = InputGraph(4, {("s", 1), (2, "t"), ("s", 3), (4, "t"), ("s", 4)})
        block = {1, 2, 3, 4}
        for root in block:
            path = reduction_char_path(block, root, graph)
            for ((s1, V1), _), ((s2, V2), label) in zip(path, path[1:]):
                f, g = KFunction([(s1, V1)]), KFunction([(s2, V2)])
                assert can_go(f, g, label, n=4)
                assert label in graph.edges


class TestChainLollipopBuilder:
    def test_k1_single_batch(self):
        res = build_chain_lollipop(4, 1, seed=0)
        assert len(res.orderings) == 1
        assert res.network.is_sound()
        assert res.network.is_complete_for(res.placements)

    def test_k2_n6_full_verification(self):
        res = build_chain_lollipop(6, 2, seed=0)
        assert res.network.is_sound()
        assert len(res.placements) == 30
        assert res.network.is_complete_for(res.placements)
        assert res.network.size <= res.size_bound

    def test_batches_remove_expected_fraction(self):
        # with exhaustive candidate orderings the greedy beats the k!-average
        n, k = 5, 2
        res = build_chain_lollipop(n, k, seed=0)

        uncovered = list(range(len(res.placements)))
        states = set()
        for ordering in res.orderings:
            before = len(uncovered)
            states.update(frozenset(ordering[: j + 1]) for j in range(n))
            uncovered = [i for i in uncovered if not wins_through(res.placements[i], states)]
            assert before - len(uncovered) >= math.ceil(before / math.factorial(k))

    @pytest.mark.parametrize("n,k", [(5, 2), (9, 2)])
    def test_each_round_emits_once(self, monkeypatch, n, k):
        # one network per round, exhaustive (n <= 8) and sampled; the result
        # is the last round's network, not a fresh emission
        emitted = []

        def emit(states, n):
            emitted.append(network_from_states(states, n))
            return emitted[-1]

        monkeypatch.setattr(parity, "network_from_states", emit)
        res = build_chain_lollipop(n, k, seed=0)
        assert len(emitted) == len(res.orderings)
        assert res.network is emitted[-1]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_chain_lollipop(3, 5)

    def test_first_exhaustive_shape_past_255_placements(self):
        # (8, 3) has 336 placements, so its row scores take two-byte lanes;
        # the orderings and states are the ones the per-ordering masks chose
        res = build_chain_lollipop(8, 3, seed=0)
        assert res.orderings == [
            (1, 2, 3, 4, 5, 6, 7, 8), (1, 8, 7, 6, 5, 4, 3, 2), (4, 3, 2, 8, 7, 6, 1, 5),
            (5, 6, 7, 8, 2, 3, 1, 4), (6, 2, 8, 4, 5, 1, 3, 7), (7, 3, 5, 4, 1, 8, 2, 6),
            (4, 5, 2, 7, 6, 1, 3, 8), (8, 1, 3, 2, 5, 6, 7, 4), (1, 6, 3, 4, 7, 2, 8, 5),
            (1, 2, 7, 4, 5, 8, 3, 6), (1, 2, 3, 5, 7, 8, 4, 6),
        ]
        assert len(res.states) == 64
        assert (hashlib.sha256(json.dumps(sorted(sorted(st) for st in res.states)).encode()).hexdigest()
                == "0761706cc3de7286360e825923bb6c0f68533b2da9caccb5dc5c06285b0bad73")

    def test_two_byte_rows_at_n260(self):
        # vertices above 127 take two-byte row entries; the orderings and the
        # network are the ones the tuple-based cover built
        res = build_chain_lollipop(260, 1, seed=0)
        assert res.size == 260 and len(res.orderings) == 1 and len(res.orderings[0]) == 260
        assert (hashlib.sha256(json.dumps(res.orderings).encode()).hexdigest()
                == "d316db1a1820e99593779f99bf630102253248e84dddf8d16225153ce5af10ed")
        assert (hashlib.sha256(json.dumps(res.network.to_json(), sort_keys=True).encode()).hexdigest()
                == "4748b1f419e2d6a1c2533f6463716af768fd50b75ce1531a2e5ccd908d7f5c08")


class TestPartitionFamily:
    def test_k2_z1_n4_exhaustive_coverage(self):
        family = build_partition_family(4, 2, 1, seed=0)
        from itertools import permutations

        for tau in permutations(range(1, 5), 2):
            for st in [{1}, {2}]:
                assert any(partition_matches(p, tau, st) for p in family)
        assert len(family) <= 2 * 8 * 2 * math.log2(4)

    def test_covering_z_covers_smaller_states(self):
        family = build_partition_family(6, 2, 2, seed=0)
        from itertools import permutations

        for tau in permutations(range(1, 7), 2):
            for st in [{1}, {2}, {1, 2}]:
                assert any(partition_matches(p, tau, st) for p in family)

    def test_single_partition_match_probability(self):
        # averaged over all equal partitions, matches beat (1/(4k))^z
        from switchnet.parity import _iter_equal_partitions

        n, k, z = 6, 2, 2
        from itertools import permutations

        taus = list(permutations(range(1, n + 1), k))
        state = frozenset({1, 2})
        parts = list(_iter_equal_partitions(n, k))
        for tau in taus[:10]:
            hits = sum(1 for p in parts if partition_matches(p, tau, state))
            assert Fraction(hits, len(parts)) >= match_probability_lower_bound(k, z)

    def test_halving_inequality(self):
        # (1-x)^(1/2x) >= 1/2 on (0, 1/2]
        for i in range(1, 51):
            x = i / 100
            assert (1 - x) ** (1 / (2 * x)) >= 0.5

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            build_partition_family(5, 2, 1)


def wins_through(g, states):
    """Oracle for the win-through test: the state search over moves(),
    admitting the given states and every winning state, not the network
    dataflow the builder runs."""
    return _search_win(g, lambda st: is_winning(st) or st in states) is not None


def eager_pick(masks, uncovered):
    """Reference first-max pick: every candidate scored, ties to the first."""
    best, best_score = None, -1
    for i, mask in enumerate(masks):
        score = bin(mask & uncovered).count("1")
        if score > best_score:
            best, best_score = i, score
    return best if best_score > 0 else None


def eager_chain_cover(n, k, seed=0):
    """The nested-prefix cover re-scoring every ordering against every
    uncovered placement in every round; returns (orderings, states)."""
    rng = random.Random(seed)
    placements = placement_graphs(n, k)
    uncovered = list(range(len(placements)))
    states, orderings = set(), []
    while uncovered:
        if n <= 8:
            cands = list(permutations(range(1, n + 1)))
        else:
            cands = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(parity.CHAIN_SAMPLE_CAP)]
        targets = {placements[i][0] for i in uncovered}
        best, best_score = None, -1
        for ordering in cands:
            score = len(targets.intersection(combinations(ordering, k)))
            if score > best_score:
                best, best_score = ordering, score
        assert best_score > 0
        orderings.append(best)
        states.update(frozenset(best[: j + 1]) for j in range(n))
        uncovered = [i for i in uncovered if not wins_through(placements[i][1], states)]
    return orderings, states


def eager_partition_family(n, k, z, seed=0):
    """The partition family re-scoring every candidate against every
    uncovered (placement, state) pair in every round."""
    rng = random.Random(seed)
    states = [frozenset(c) for c in combinations(range(1, k + 1), z)]
    uncovered = {(tau, st) for tau in permutations(range(1, n + 1), k) for st in states}
    family = []
    while uncovered:
        if parity.equal_partition_count(n, k) <= 50_000:
            cands = _iter_equal_partitions(n, k)
        else:
            base, cands, b = list(range(1, n + 1)), [], n // k
            for _ in range(parity.PARTITION_SAMPLE_CAP):
                rng.shuffle(base)
                cands.append(tuple(frozenset(base[i * b : (i + 1) * b]) for i in range(k)))
        best, best_score = None, -1
        for part in cands:
            score = sum(1 for tau, st in uncovered if partition_matches(part, tau, st))
            if score > best_score:
                best, best_score = part, score
        assert best_score > 0
        family.append(best)
        uncovered = {(tau, st) for tau, st in uncovered if not partition_matches(best, tau, st)}
    return family


@st.composite
def match_cases(draw):
    """k <= 4 positions, two partitions of disjoint blocks (a vertex may lie
    in none), injective placements and up to 16 states, so lanes of one and
    of two bytes both occur."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 8))

    def partition():
        where = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
        return tuple(frozenset(v for v in range(1, n + 1) if where[v - 1] == b) for b in range(k))

    parts = [partition(), partition()]
    placements = draw(st.lists(st.permutations(range(1, n + 1)).map(lambda p: tuple(p[:k])), max_size=8))
    states = draw(st.lists(st.frozensets(st.integers(1, k)), max_size=16))
    return k, parts, placements, states


@settings(max_examples=300, deadline=None)
@given(match_cases())
def test_match_masks_match_partition_matches(case):
    k, parts, placements, states = case
    lane, full, mask_of = parity._match_masks(placements, states, k)
    assert lane == (8 if len(states) <= 8 else 16)
    pairs = [(lane * p + s, tau, st) for p, tau in enumerate(placements) for s, st in enumerate(states)]
    assert full == sum(1 << bit for bit, _, _ in pairs)
    for part in parts + parts:  # masks do not depend on earlier calls
        assert mask_of(part) == sum(1 << bit for bit, tau, st in pairs if partition_matches(part, tau, st))


def masks_by_combinations(orderings, uncovered, placements, k):
    """The chain cover's masks by definition: a placement lies in order along
    an ordering exactly when it is one of the ordering's k-subsequences, and
    distinct bits sum to their union."""
    bit = {tup: 1 << i for i, tup in enumerate(placements) if uncovered >> i & 1}
    return [sum(map(bit.get, combinations(o, k), repeat(0))) for o in orderings]


@st.composite
def order_cases(draw):
    """n <= 9 and 1 <= k <= min(n, 4); every ordering of 1..n (for n <= 6),
    a sample of orderings or a single one; uncovered is 0, every placement or
    a random subset."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, min(n, 4)))
    placements = list(permutations(range(1, n + 1), k))
    kind = draw(st.sampled_from(["exhaustive", "sampled", "single"] if n <= 6 else ["sampled", "single"]))
    if kind == "exhaustive":
        orderings = list(permutations(range(1, n + 1)))
    else:
        size = 1 if kind == "single" else 40
        orderings = draw(st.lists(st.permutations(range(1, n + 1)).map(tuple), min_size=1, max_size=size))
    full = (1 << len(placements)) - 1
    uncovered = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    return n, k, placements, orderings, uncovered


def lanes_to_masks(lanes, count, width):
    """Transpose placement lanes into one mask per row: bit p of row r's mask
    is lane r of lanes[p].  Every lane must hold 0 or 1."""
    cols = []
    for lane in lanes:
        data = lane.to_bytes(count * width, "little")
        assert all(set(data[q::width]) <= ({0, 1} if q == 0 else {0}) for q in range(width))
        cols.append(data[::width])
    return [sum(col[r] << p for p, col in enumerate(cols)) for r in range(count)]


def check_order_masks(n, k, placements, orderings, uncovered):
    rows = parity._Orderings(n, orderings)
    assert len(rows) == len(orderings) and [rows[r] for r in range(len(rows))] == orderings
    lane = parity._order_lanes(rows)
    lanes = [lane(tup) if uncovered >> p & 1 else 0 for p, tup in enumerate(placements)]
    assert lanes_to_masks(lanes, len(rows), rows.width) == masks_by_combinations(orderings, uncovered, placements, k)


@settings(max_examples=300, deadline=None)
@given(order_cases())
def test_order_masks_match_combinations(case):
    check_order_masks(*case)


@pytest.mark.parametrize("n,width", [(127, 1), (128, 2), (130, 2)])
def test_order_masks_widen_with_n(rng, n, width):
    # 127 is the largest n whose vertices and positions stay below a one-byte
    # entry's top bit; above it, rows and lanes take two bytes
    orderings = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(5)]
    placements = list(permutations(range(1, n + 1), 2))
    assert parity._Orderings(n, orderings).width == width
    for uncovered in (0, (1 << len(placements)) - 1, rng.getrandbits(len(placements))):
        check_order_masks(n, 2, placements, orderings, uncovered)


@pytest.mark.parametrize("n,count", [(4, None), (8, None), (128, 1024), (128, 2500)])
def test_orderings_pack_like_one_join(n, count):
    # exhaustive rows at n = 4 and 8 (40 320 rows, not a whole number of
    # 1 024-row chunks); sampled two-byte rows at n = 128, drawn as the
    # chain builder draws them
    if count is None:
        orderings = list(permutations(range(1, n + 1)))
    else:
        rng = random.Random(n + count)
        orderings = [rng.sample(range(1, n + 1), n) for _ in range(count)]
    rows = parity._Orderings(n, iter(orderings))
    assert rows.flat == b"".join(starmap(rows.row.pack, orderings))
    assert len(rows) == len(orderings) and list(rows[len(rows) - 1]) == list(orderings[-1])


class TestGreedyPick:
    def test_matches_eager_on_random_masks(self, rng):
        for _ in range(200):
            width = rng.randint(1, 40)
            masks = [rng.getrandbits(width) for _ in range(rng.randint(0, 12))]
            uncovered = rng.getrandbits(width)
            assert _greedy_pick(masks, uncovered, [width] * len(masks)) == eager_pick(masks, uncovered)

    def test_ties_go_to_the_lowest_index(self):
        masks = [0b0001, 0b0110, 0b0011, 0b1100]
        assert _greedy_pick(masks, 0b1111, [4] * 4) == 1
        # a later candidate whose bound only equals the best is not taken
        assert _greedy_pick(masks, 0b1111, [4, 2, 2, 2]) == 1

    def test_all_zero_scores_give_none(self):
        assert _greedy_pick([], 0b111, []) is None
        assert _greedy_pick([0b001, 0b010], 0b100, [3, 3]) is None
        assert _greedy_pick([0b001, 0b010], 0, [3, 3]) is None

    def test_bounds_carried_across_shrinking_rounds(self, rng):
        # uncovered loses the picked bits and sometimes more, as when a cover
        # step removes items its mask did not count
        for _ in range(60):
            width = rng.randint(1, 60)
            masks = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randint(1, 30))]
            bounds = [width] * len(masks)
            uncovered = (1 << width) - 1
            while True:
                want = eager_pick(masks, uncovered)
                pick = _greedy_pick(masks, uncovered, bounds)
                assert pick == want
                assert all(b >= (m & uncovered).bit_count() for m, b in zip(masks, bounds))
                if pick is None:
                    break
                uncovered &= ~masks[pick]
                if rng.random() < 0.3:
                    uncovered &= rng.getrandbits(width)


@st.composite
def lane_pick_cases(draw):
    """Up to 600 items, so that scores pass 255 and byte lanes are widened;
    one- and two-byte lanes; masks drawn from a small pool, so that ties
    between rows are common."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    items, width, count = draw(st.integers(0, 600)), draw(st.sampled_from([1, 2])), draw(st.integers(1, 12))
    full = (1 << items) - 1
    pool = [0, full] + [rnd.getrandbits(items) & rnd.getrandbits(items) for _ in range(3)] + [rnd.getrandbits(items)]
    masks = [rnd.choice(pool) for _ in range(count)]
    uncovered = draw(st.sampled_from([0, full, rnd.getrandbits(items)]))
    return items, width, masks, uncovered


@settings(max_examples=300, deadline=None)
@given(lane_pick_cases())
def test_lane_pick_matches_greedy_pick(case):
    items, width, masks, uncovered = case
    lanes = [sum((m >> p & 1) << 8 * width * r for r, m in enumerate(masks))
             for p in range(items) if uncovered >> p & 1]
    want = _greedy_pick(masks, uncovered, [uncovered.bit_count()] * len(masks))
    assert want == eager_pick(masks, uncovered)
    for remaining in (lanes, iter(lanes)):
        assert parity._lane_pick(remaining, len(masks), width) == want


def test_lane_pick_ties_and_widening():
    # 300 one-byte lanes: rows 1 and 3 both score 300, past one byte
    lanes = [int.from_bytes(bytes([0, 1, 1, 1]), "little")] * 300 + [int.from_bytes(bytes([1, 0, 0, 0]), "little")]
    assert parity._lane_pick(lanes, 4, 1) == 1
    assert parity._lane_pick(lanes[:2] + lanes[-1:] * 3, 4, 1) == 0
    assert parity._lane_pick([], 4, 1) is None and parity._lane_pick([0, 0], 4, 2) is None


class TestBuildersMatchEagerOracles:
    @pytest.mark.parametrize("n,k", [(4, 1), (5, 5), (6, 2), (7, 3), (8, 2), (9, 2), (12, 2), (16, 1)])
    def test_chain_cover(self, n, k):
        res = build_chain_lollipop(n, k, seed=0)
        assert (res.orderings, res.states) == eager_chain_cover(n, k, seed=0)

    # (5, 5, 2) has 10 states, so its pairs take two-byte lanes
    @pytest.mark.parametrize("n,k,z", [(4, 2, 1), (6, 2, 2), (6, 3, 2), (8, 2, 2), (5, 5, 1), (5, 5, 2)])
    def test_partition_family(self, n, k, z):
        assert build_partition_family(n, k, z, seed=0) == eager_partition_family(n, k, z, seed=0)

    @pytest.mark.parametrize("n,k,z,seed", [(6, 2, 2, 0), (6, 3, 2, 5)])
    def test_sampled_partition_family(self, monkeypatch, n, k, z, seed):
        # the sampled path only starts above 50 000 candidates, far beyond a
        # quick test; force it on small instances with a small sample
        monkeypatch.setattr(parity, "equal_partition_count", lambda n, k: 10**9)
        monkeypatch.setattr(parity, "PARTITION_SAMPLE_CAP", 40)
        assert build_partition_family(n, k, z, seed=seed) == eager_partition_family(n, k, z, seed=seed)


def _tuple_builder_edges(res):
    """Oracle: the general builder's network edges from its edge loop over
    tuple characters, as written before characters were coded as ints."""
    n, node_of, edges = res.graph.n, res.node_of, set()
    for chars in node_of:
        if chars is ONE:
            continue
        for fi, (sign, V) in enumerate(chars):
            before, after = chars[:fi], chars[fi + 1 :]
            for u in range(1, n + 1):
                toggled = tuple(sorted(set(V) ^ {u}))
                for label, new in ((("s", u), (-sign, toggled)), ((u, "t"), (sign, toggled))):
                    target = _tuple_canonical(before + (new,) + after)
                    if target in node_of:
                        edges.add((node_of[chars], node_of[target], label))
            if sign == 1 and len(V) == 1:
                for w in range(1, n + 1):
                    if w != V[0]:
                        target = _tuple_canonical(chars + ((1, (w,)),))
                        if target in node_of:
                            edges.add((node_of[chars], node_of[target], (V[0], w)))
    # the builder's dedupe loop before its int keys: each undirected edge once,
    # in the str order of its (u, v, label) triples
    net_edges, seen = [], set()
    for a, b, label in sorted(edges, key=str):
        key = (a, b, label) if str(a) <= str(b) else (b, a, label)
        if key in seen or a == b:
            continue
        seen.add(key)
        net_edges.append(NetEdge(a, b, label))
    return net_edges


MIXED_LOLLIPOPS = InputGraph(8, {("s", 1), (1, 2), (2, "t"), ("s", 3), (4, "t"), ("s", 5), (6, "t"), (7, "t"), ("s", 8)})


@pytest.mark.parametrize("graph,k", [
    (chain_with_lollipops(4, 2), 2), (chain_with_lollipops(6, 2), 2), (chain_with_lollipops(8, 2), 2),
    (MIXED_LOLLIPOPS, 2), (chain_with_lollipops(6, 3), 3), (chain_with_lollipops(9, 3), 3),
], ids=["k2-n4", "k2-n6", "k2-n8", "k2-n8-mixed", "k3-n6", "k3-n9"])
def test_general_network_edges_match_tuple_loop(graph, k):
    res = build_general_network(graph, list(range(1, k + 1)), z=2, seed=0)
    assert res.network.edges == _tuple_builder_edges(res)


class TestBoundOverrun:
    """Each builder's size check raises BoundExceeded once its bound is
    pushed to 0 (lg n patched to 0)."""

    GRAPH = InputGraph(6, {("s", 1), (1, 2), (2, "t"), ("s", 3), ("s", 4), ("s", 5), ("s", 6)})

    def test_chain_cover(self, monkeypatch):
        monkeypatch.setattr(parity.math, "log2", lambda x: 0)
        with pytest.raises(BoundExceeded, match="states exceeds the bound"):
            build_chain_lollipop(4, 1, seed=0)

    def test_partition_family(self, monkeypatch):
        monkeypatch.setattr(parity.math, "log2", lambda x: 0)
        with pytest.raises(BoundExceeded, match="partitions exceeds the bound"):
            build_partition_family(4, 2, 1, seed=0)

    def test_general_network(self, monkeypatch):
        family = build_partition_family(6, 2, 2, seed=0)
        monkeypatch.setattr(parity, "build_partition_family", lambda *args: family)
        monkeypatch.setattr(parity.math, "log2", lambda x: 0)
        with pytest.raises(BoundExceeded, match=r"\|H\| = \d+ exceeds the bound"):
            build_general_network(self.GRAPH, [1, 2], z=2, seed=0)


class TestGeneralBuilder:
    def test_k1_degenerate_chain(self):
        graph = InputGraph(4, {("s", 1), (1, "t"), ("s", 2), ("s", 3), ("s", 4)})
        res = build_general_network(graph, [1], z=1, seed=0)
        assert res.network.is_sound()
        family = all_distinct_permuted_copies(graph)
        assert res.network.is_complete_for(family)
        assert res.network.size <= res.h_bound

    def test_k2_z2_full_verification(self):
        graph = InputGraph(
            6, {("s", 1), (1, 2), (2, "t"), ("s", 3), ("s", 4), ("s", 5), ("s", 6)}
        )
        res = build_general_network(graph, [1, 2], z=2, seed=0)
        assert res.network.is_sound()
        family = all_distinct_permuted_copies(graph)
        assert res.network.is_complete_for(family)
        assert res.network.size <= res.h_bound

    def test_all_edges_satisfy_can_go(self):
        graph = InputGraph(4, {("s", 1), (1, 2), (2, "t"), ("s", 3), ("s", 4)})
        res = build_general_network(graph, [1, 2], z=2, seed=0)
        masks = {}
        for chars, node in res.node_of.items():
            if chars is ONE:
                masks[node] = (1 << (1 << 4)) - 1
            else:
                masks[node] = KFunction.from_chars(chars).posmask(4)
        from switchnet.cuts import crossing_mask, full_cut_mask

        full = full_cut_mask(4)
        for e in res.network.edges:
            agree = full ^ crossing_mask(4, e.label)
            assert (masks[e.u] ^ masks[e.v]) & agree == 0

    def test_walks_are_valid_accepting_paths(self):
        graph = InputGraph(4, {("s", 1), (1, 2), (2, "t"), ("s", 3), ("s", 4)})
        res = build_general_network(graph, [1, 2], z=2, seed=0)
        for sigma in Permutation.all(4):
            walk = accepting_walk(res, sigma)
            gs = graph.permuted(sigma)
            cur = res.network.s_node
            for e in walk:
                assert e.label in gs.edges
                cur = e.v if e.u == cur else e.u
            assert cur == res.network.t_node

    def test_k3_core_with_pebble_removal(self):
        # the length-4 chain core needs a mid-play pebble removal at z=2,
        # exercising partition shifts and edge-justified additions
        graph = InputGraph(
            6, {("s", 1), (1, 2), (2, 3), (3, "t"), ("s", 4), ("s", 5), ("s", 6)}
        )
        res = build_general_network(graph, [1, 2, 3], z=2, seed=0)
        assert any(len(a) > len(b) for a, b in zip(res.play, res.play[1:]))  # a removal
        assert res.network.is_sound()
        family = all_distinct_permuted_copies(graph)
        assert len(family) == 120
        assert res.network.is_complete_for(family)
        for sigma in [Permutation.identity(6), Permutation({1: 6, 2: 4, 3: 1, 4: 2, 5: 3, 6: 5})]:
            walk = accepting_walk(res, sigma)
            gs = graph.permuted(sigma)
            assert all(e.label in gs.edges for e in walk)

    def test_tight_budget_core_with_edge_justified_removal(self):
        # at z = 3 the length-5 chain play must unpebble vertex 2 justified by
        # the edge 1->2, driving the decode-delete-restore walk choreography
        graph = InputGraph(4, {("s", 1), (1, 2), (2, 3), (3, 4), (4, "t")})
        res = build_general_network(graph, [1, 2, 3, 4], z=3, seed=0)
        core_removals = [
            next(iter(a - b))
            for a, b in zip(res.play, res.play[1:])
            if len(b) < len(a)
        ]
        assert any(not graph.has_edge("s", r) for r in core_removals)
        assert res.network.is_sound()
        assert res.network.is_complete_for(all_distinct_permuted_copies(graph))
        for sigma in Permutation.all(4):
            accepting_walk(res, sigma)

    def test_infeasible_pebble_budget(self):
        graph = InputGraph(
            6, {("s", 1), (1, 2), (2, "t"), ("s", 3), ("s", 4), ("s", 5), ("s", 6)}
        )
        with pytest.raises(InfeasibleParameters):
            build_general_network(graph, [1, 2], z=1, seed=0)

    def test_padding_to_divisibility(self):
        graph = InputGraph(5, {("s", 1), (1, 2), (2, "t"), ("s", 3), ("s", 4), ("s", 5)})
        res = build_general_network(graph, [1, 2], z=2, seed=0)
        assert res.graph.n == 6  # padded by one s-lollipop
        assert res.network.is_sound()

    def test_non_lollipop_extra_vertex_rejected(self):
        graph = InputGraph(4, {("s", 1), (1, 2), (2, "t"), (3, 4), ("s", 3)})
        with pytest.raises(ValueError):
            build_general_network(graph, [1, 2], z=2)


class TestFormulas:
    def test_regime_selection(self):
        rec = upper_bound_formulas(2, 2, 1 << 20)
        assert rec.regime == 1  # small k at large n
        rec2 = upper_bound_formulas(64, 2, 256)
        assert rec2.regime == 2

    def test_regime_bounds_below_master(self, rng):
        for _ in range(30):
            k = rng.randint(1, 50)
            z = rng.randint(1, 8)
            n = rng.randint(4, 10**6)
            rec = upper_bound_formulas(k, z, n)
            assert rec.regime1_bound <= rec.master_bound * (1 + 1e-12)
            assert rec.regime2_bound <= rec.master_bound * (1 + 1e-12)

    def test_default_z(self):
        assert default_z(1) == 1
        assert default_z(2) == 2
        assert default_z(3) == 2
        assert default_z(7) == 3

    def test_pebble_states_below_k_power_z(self):
        # the state-count estimate used by the simplified bound
        for k in range(2, 8):
            for z in range(1, k + 1):
                states = sum(math.comb(k, j) for j in range(1, z + 1))
                assert states <= k**z
