"""Parity-knowledge functions and the explicit network builders.

A K-function over a multiset of signed characters takes the value 1 on a
cut exactly when some factor does, encoding accumulated deductions about
a hypothetical uncrossed cut.  Legal steps multiply one factor by a
singleton character (justified by a lollipop edge) or adjoin a singleton
implied by an edge between two known-left vertices.  The two builders
wire these functions into switching networks: nested prefix state sets
cover a chain with lollipops, and block partitions plus recursive-halving
reduction gadgets cover a general core subgraph embedded among lollipops.
"""

import math
import random
import struct
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice, permutations, product, starmap
from operator import and_

from .cuts import (
    CutFunction,
    crossing_mask,
    full_cut_mask,
    iter_cuts,
    nonzero_mask,
    parity_mask,
)
from .graphs import InputGraph
from .networks import SwitchingNetwork
from .pebbles import can_win_through, is_winning, network_from_states, winning_play

ONE = "ONE"  # canonical form of the constant +1 function
CHAIN_SAMPLE_CAP = 2000  # orderings drawn per cover round when n > 8
PARTITION_SAMPLE_CAP = 4000  # partitions drawn per round above 50 000 candidates


class BoundExceeded(ValueError):
    """A construction outgrew the size bound it is proved to meet."""


def _greedy_pick(masks, uncovered, bounds):
    """Lowest index maximising (masks[i] & uncovered).bit_count(), or None when
    every score is 0.  bounds[i] >= candidate i's score is lowered to the score
    when i is scored, and i is skipped when it cannot beat the best so far.
    Scores only fall as `uncovered` shrinks, so bounds kept across rounds give
    the eager first-max pick (Minoux's accelerated greedy)."""
    best, best_score = None, 0
    for i, mask in enumerate(masks):
        if bounds[i] > best_score:
            score = bounds[i] = (mask & uncovered).bit_count()
            if score > best_score:
                best, best_score = i, score
    return best


def _greedy_cover(uncovered, masks_of, cands, settle=None):
    """Greedy cover of the set bits of `uncovered`; returns the picked
    candidates in order.  Each round picks by `_greedy_pick` over the masks
    masks_of(cands, uncovered) and clears the pick's mask; a given `settle`
    then returns settle(pick, uncovered), which may clear more bits.  `cands`
    is any sequence with len and indexing, scored once with its bounds kept
    across rounds, or a function drawing a fresh sequence that is scored
    every round."""
    draw = cands if callable(cands) else None
    if draw is None:
        masks = masks_of(cands, uncovered)
        bounds = [uncovered.bit_count()] * len(cands)
    picks = []
    while uncovered:
        if draw is not None:
            cands = draw()
            masks = masks_of(cands, uncovered)
            bounds = [uncovered.bit_count()] * len(cands)
        i = _greedy_pick(masks, uncovered, bounds)
        if i is None:
            raise RuntimeError("no candidate covers any remaining item")
        picks.append(cands[i])
        uncovered &= ~masks[i]
        if settle is not None:
            uncovered = settle(cands[i], uncovered)
    return picks


def _char(sign, vertices):
    return (sign, tuple(sorted(vertices)))


# Inside the builder a signed character (sign, V) is the int code
# 2 * sum(2**v for v in V) + (sign < 0), so bit v + 1 holds vertex v, and a
# canonical factor set is a frozenset of codes.  Code 0 is the constant +1,
# code 1 the constant -1, and c ^ 1 is c's complement.


def _code(char):
    sign, V = char
    return sum(2 << v for v in V) | (sign < 0)


def _decode(code):
    mask = code >> 1
    return (-1 if code & 1 else 1, tuple(v for v in range(mask.bit_length()) if mask >> v & 1))


def _canon(codes):
    """Canonical factor set of the codes: a constant +1 or a complementary
    pair gives ONE, a constant -1 is dropped."""
    out = set()
    for c in codes:
        if c <= 1:
            if c == 0:
                return ONE
            continue
        if c ^ 1 in out:
            return ONE
        out.add(c)
    return frozenset(out)


def _adjoin(node, c):
    """The canonical set `node` (or ONE) times the factor code c."""
    if node is ONE or c == 0 or c ^ 1 in node:
        return ONE
    return node if c == 1 else node | {c}


def _chars(node):
    """A coded node in the tuple form that canonical_chars gives."""
    return node if node is ONE else tuple(sorted(map(_decode, node)))


def canonical_chars(factors):
    """Canonical factor set: drop constant -1 factors, collapse to ONE when a
    factor is the constant +1 or both signs of a character are present."""
    return _chars(_canon(map(_code, factors)))


class KFunction:
    """K_F for a multiset F of signed characters; value 1 on a cut iff some
    factor evaluates to 1 there, else -1."""

    def __init__(self, factors=()):
        self.chars = tuple((s, tuple(sorted(V))) for s, V in factors)

    @classmethod
    def from_chars(cls, chars):
        k = cls.__new__(cls)
        k.chars = tuple(chars)
        return k

    def value(self, cut: int):
        for sign, V in self.chars:
            parity = bin(sum(1 << (v - 1) for v in V) & cut).count("1") % 2
            if sign * (-1 if parity else 1) == 1:
                return 1
        return -1

    def posmask(self, n: int) -> int:
        """Bitmask over cuts where the function equals +1."""
        full = full_cut_mask(n)
        m = 0
        for sign, V in self.chars:
            vmask = sum(1 << (v - 1) for v in V)
            pm = parity_mask(n, vmask)
            m |= pm if sign < 0 else (full ^ pm)
        return m

    def to_cut_function(self, n: int) -> CutFunction:
        pos = self.posmask(n)
        return CutFunction.from_values(
            n, [Fraction(1) if (pos >> c) & 1 else Fraction(-1) for c in iter_cuts(n)]
        )

    def __eq__(self, other):
        return isinstance(other, KFunction) and canonical_chars(self.chars) == canonical_chars(other.chars)

    def __repr__(self):
        return f"KFunction({list(self.chars)})"


def can_go(f, g, edge, n=None) -> bool:
    """(f - g) vanishes on every cut the edge does not cross."""
    if isinstance(f, CutFunction):
        n = f.n
    if n is None:
        raise ValueError("need n for K-function arguments")
    if isinstance(f, KFunction) and isinstance(g, KFunction):
        differ = f.posmask(n) ^ g.posmask(n)
    else:
        fv = f.to_cut_function(n).values if isinstance(f, KFunction) else f.values
        gv = g.to_cut_function(n).values if isinstance(g, KFunction) else g.values
        differ = nonzero_mask(a != b for a, b in zip(fv, gv))
    return differ & ~crossing_mask(n, tuple(edge)) == 0


def _lollipop_toggles(code, vertices):
    """The two lollipop steps on one factor code at each vertex u in turn, as
    (label, new code): s->u multiplies it by -e_{u}, u->t by e_{u}."""
    steps = []
    for u in vertices:
        toggled = code ^ (2 << u)
        steps += (("s", u), toggled ^ 1), ((u, "t"), toggled)
    return steps


def _implications(code, n: int):
    """The implication steps on one factor code over vertices 1..n, as (label,
    new code): when the factor is e_{v}, each v->w adjoins e_{w}; any other
    factor has none."""
    if code <= 1 or code & (code - 1):
        return []
    v = code.bit_length() - 2
    return [((v, w), 2 << w) for w in range(1, n + 1) if w != v]


def _coded_steps(codes, toggles, implications):
    """Every legal step from the factor codes `codes` (a tuple), as (label,
    rest, new): the step's target is _adjoin(rest, new).  Per factor, each
    (label, new) in toggles[factor] replaces the factor by new, then each
    (label, new) in implications[factor] adjoins new to all the factors."""
    for fi, c in enumerate(codes):
        rest = _canon(codes[:fi] + codes[fi + 1 :])
        for label, new in toggles[c]:
            yield label, rest, new
        if implications[c]:
            node = _canon(codes)
            for label, new in implications[c]:
                yield label, node, new


def legal_steps(chars, n: int):
    """Every legal step from the factors `chars` over vertices 1..n, as
    (label, canonical target) pairs: per factor, both lollipop toggles at
    each vertex in turn, then, when the factor is e_{v}, each implication v->w."""
    codes = tuple(map(_code, chars))
    toggles = {c: _lollipop_toggles(c, range(1, n + 1)) for c in codes}
    implications = {c: _implications(c, n) for c in codes}
    for label, rest, new in _coded_steps(codes, toggles, implications):
        yield label, _chars(_adjoin(rest, new))


def step_lollipop(kfun: KFunction, index: int, edge) -> KFunction:
    """Multiply factor `index` by -e_{v} (edge s->v) or by e_{v} (edge v->t)."""
    tail, head = edge
    v = head if tail == "s" else tail
    if (tail == "s") == (head == "t") or v in ("s", "t"):
        raise ValueError(f"lollipop steps need an edge s->v or v->t, got {edge!r}")
    chars = list(kfun.chars)
    chars[index] = _decode(dict(_lollipop_toggles(_code(chars[index]), (v,)))[(tail, head)])
    return KFunction.from_chars(chars)


def step_implication(kfun: KFunction, edge) -> KFunction:
    """Adjoin the factor e_{w} using edge v->w; requires the factor e_{v}."""
    v, w = edge
    if v in ("s", "t") or w in ("s", "t"):
        raise ValueError("implication steps need a middle-vertex edge")
    if 2 << v not in map(_code, kfun.chars):
        raise ValueError(f"factor e_{{{v}}} not present")
    return KFunction.from_chars(kfun.chars + (_decode(2 << w),))


# ---------------------------------------------------------------------------
# reduction gadgets


def _halves(seq):
    h = (len(seq) + 1) // 2
    return seq[:h], seq[h:]


def reduction_char_sets(block) -> set:
    """Vertex sets of the recursive-halving gadget for a block (sizes >= 2)."""
    out = set()

    def rec(seq):
        if len(seq) <= 1:
            return
        left, right = _halves(seq)
        for m in range(1, len(right) + 1):
            out.add(frozenset(left) | frozenset(right[:m]))
        for m in range(1, len(left) + 1):
            out.add(frozenset(right) | frozenset(left[:m]))
        rec(left)
        rec(right)

    rec(tuple(sorted(block)))
    return out


def reduction_functions(block):
    """Signed characters of the halving gadget; at most 2|V| ceil(lg |V|) of
    them, enough to walk any root at any parity down to its singleton."""
    sets = sorted(reduction_char_sets(block), key=lambda W: (len(W), sorted(W)))
    return [_char(sign, W) for W in sets for sign in (1, -1)]


def reduction_steps(block, root, graph: InputGraph):
    """The vertices stripped on the way from the full block down to {root},
    each with the lollipop label that justifies the step (s-edge preferred)."""
    seq = tuple(sorted(block))
    if root not in seq:
        raise ValueError("root must lie in the block")
    order = []
    while len(seq) > 1:
        left, right = _halves(seq)
        if root in left:
            order.extend(reversed(right))
            seq = left
        else:
            order.extend(reversed(left))
            seq = right
    steps = []
    for u in order:
        if graph.has_edge("s", u):
            steps.append((u, ("s", u)))
        elif graph.has_edge(u, "t"):
            steps.append((u, (u, "t")))
        else:
            raise ValueError(f"vertex {u} is not a lollipop in the given graph")
    return steps


def block_parity(graph: InputGraph, block, root) -> int:
    """(-1) ** number of non-root block members with an s-edge."""
    return -1 if sum(1 for v in block if v != root and graph.has_edge("s", v)) % 2 else 1


def reduction_char_path(block, root, graph: InputGraph, start_sign=None):
    """Chars visited descending from the block character to the root singleton,
    with the edge labels used; starts at the block's parity by default and
    therefore ends at +e_{root}."""
    if start_sign is None:
        start_sign = block_parity(graph, block, root)
    cur = _code((start_sign, block))
    path = [(_decode(cur), None)]
    for u, label in reduction_steps(block, root, graph):
        cur = dict(_lollipop_toggles(cur, (u,)))[label]
        path.append((_decode(cur), label))
    return path


def match_probability_lower_bound(k: int, z: int) -> Fraction:
    return Fraction(1, (4 * k) ** z)


# ---------------------------------------------------------------------------
# chain-with-lollipops builder


def placement_graphs(n: int, k: int):
    """Every injective placement of the ordered chain vertices, as graphs."""
    out = []
    for tup in permutations(range(1, n + 1), k):
        edges = {("s", tup[0]), (tup[-1], "t")}
        edges |= {(tup[i], tup[i + 1]) for i in range(k - 1)}
        edges |= {("s", u) for u in range(1, n + 1) if u not in tup}
        out.append((tup, InputGraph(n, edges)))
    return out


@dataclass
class ChainLollipopResult:
    network: SwitchingNetwork
    states: set
    orderings: list
    placements: list
    size_bound: float

    @property
    def size(self):
        return self.network.size


class _Orderings:
    """Orderings of 1..n as one bytearray of n-entry rows.  An entry is
    little-endian and as wide as the first of the struct codes B, H, I, Q
    that holds n below its top bit (one byte up to n = 127); indexing
    decodes a row to a tuple of ints."""

    def __init__(self, n, rows):
        self.n = n
        self.code = next(c for c in "BHIQ" if n < 1 << 8 * struct.calcsize(c) - 1)
        self.width = struct.calcsize(self.code)
        self.row = struct.Struct(f"<{n}{self.code}")
        # packed 1 024 rows at a time, so that no more than that many row
        # objects are alive at once
        rows, self.flat = iter(rows), bytearray()
        while chunk := b"".join(starmap(self.row.pack, islice(rows, 1024))):
            self.flat += chunk

    def __len__(self):
        return len(self.flat) // self.row.size

    def __getitem__(self, r):
        return self.row.unpack_from(self.flat, r * self.row.size)


def _order_masks(rows, uncovered, placements):
    """Bit p of the r-th mask is set when bit p of `uncovered` is and the
    vertices of placements[p] appear in that order in the ordering rows[r].

    Each row is one lane of an int, as wide as a row entry (w bytes).  A
    vertex's position lane comes from the row columns; a pair's "a comes
    before b" lane is the top bit of pos[b] + 2**(8w-1) - pos[a], which
    never borrows across lanes; a placement's lane ANDs its consecutive
    pairs.  Every 8w placements' lanes, each shifted to its bit, make one
    plane, and the planes are interleaved into rows of bytes that are read
    back as one int per row.
    """
    n, w, count = rows.n, rows.width, len(rows)
    top, per = 8 * w - 1, 8 * w
    ones = int.from_bytes((1).to_bytes(w, "little") * count, "little")
    high = ones << top
    items = memoryview(rows.flat).cast(rows.code)
    cols = [int.from_bytes(items[i::n].tobytes(), "little") for i in range(n)]
    pos, before = {}, {}

    def position(v):  # lane-wise index of the column holding v
        if v not in pos:
            pos[v] = sum(i * ((high - (c ^ v * ones)) >> top & ones) for i, c in enumerate(cols))
        return pos[v]

    def precedes(a, b):
        if (a, b) not in before:
            before[a, b] = ((position(b) | high) - position(a)) >> top & ones
        return before[a, b]

    groups = -(-len(placements) // per)
    stride = groups * w  # bytes per mask
    out = bytearray(count * stride)
    for g in range(groups):
        chosen, plane = uncovered >> g * per, 0
        for i, tup in enumerate(placements[g * per : (g + 1) * per]):
            if chosen >> i & 1:
                plane |= reduce(and_, map(precedes, tup, tup[1:]), ones) << i
        if plane:
            data = plane.to_bytes(count * w, "little")
            for q in range(w):
                out[g * w + q :: stride] = data[q::w]
    view = memoryview(out)
    return [int.from_bytes(view[j : j + stride], "little") for j in range(0, len(out), stride)]


def build_chain_lollipop(n: int, k: int, seed: int = 0) -> ChainLollipopResult:
    """Greedy nested-prefix state cover for the chain-with-lollipops family,
    emitted as a switching network of size at most k! k n lg n.

    Candidate vertex orderings are enumerated exhaustively for n <= 8 and
    sampled (seeded, CHAIN_SAMPLE_CAP per round) above that, held as byte
    rows (`_Orderings`); each round keeps the first ordering whose prefix
    states cover the most remaining placements, scored by `_order_masks`.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    rng = random.Random(seed)
    placements = placement_graphs(n, k)
    tuples = [tup for tup, _ in placements]
    states = set()

    def masks_of(cands, uncovered):
        return _order_masks(cands, uncovered, tuples)

    def settle(best, uncovered):
        # placements the ordering contains win along its prefixes; test the rest
        states.update(frozenset(best[: j + 1]) for j in range(n))
        for i, (_, g) in enumerate(placements):
            if uncovered >> i & 1 and can_win_through(g, states):
                uncovered &= ~(1 << i)
        return uncovered

    vertices = range(1, n + 1)
    cands = (_Orderings(n, permutations(vertices)) if n <= 8
             else lambda: _Orderings(n, (rng.sample(vertices, n) for _ in range(CHAIN_SAMPLE_CAP))))
    orderings = _greedy_cover((1 << len(placements)) - 1, masks_of, cands, settle)

    bound = math.factorial(k) * k * n * math.log2(n)
    if len(states) > bound:
        raise BoundExceeded(f"cover of {len(states)} states exceeds the bound {bound:.1f}")
    network = network_from_states(states, n)
    return ChainLollipopResult(
        network=network,
        states=states,
        orderings=orderings,
        placements=[g for _, g in placements],
        size_bound=bound,
    )


# ---------------------------------------------------------------------------
# partition families


def equal_partition_count(n: int, k: int) -> int:
    b = n // k
    total = 1
    rem = n
    for _ in range(k):
        total *= math.comb(rem, b)
        rem -= b
    return total


def _iter_equal_partitions(n: int, k: int):
    """All ordered partitions of {1..n} into k blocks of n // k."""
    b = n // k

    def rec(remaining, acc):
        if not remaining:
            yield tuple(acc)
            return
        rest = sorted(remaining)
        for combo in combinations(rest, b):
            yield from rec(remaining - set(combo), acc + [frozenset(combo)])

    yield from rec(set(range(1, n + 1)), [])


def partition_matches(partition, placement, state) -> bool:
    """The partition matches a pebble state under a placement when each
    pebbled position's block meets the placed core exactly in its own vertex."""
    placed = set(placement)
    for i in state:
        block = partition[i - 1]
        if placement[i - 1] not in block or len(block & placed) != 1:
            return False
    return True


def _match_masks(placements, states, k: int):
    """Byte-packed partition matching over every (placement, state) pair.

    Returns (lane, full, mask_of): bit lane * p + s of mask_of(partition) is
    set exactly when partition_matches(partition, placements[p], states[s])
    for k disjoint blocks, which need not cover every vertex, and `full` sets
    every pair's bit.  A lane is one byte while there are at most 8 states,
    more bytes above.  The match factors over positions: the vertex placed
    at position j must lie in block j when j is pebbled and outside block i
    for every other pebbled i.  So mask_of ANDs, over positions, one bytes
    column of the placed vertices translated vertex -> block -> the states
    that position admits.
    """
    width = max(1, -(-len(states) // 8))
    lane = 8 * width
    cols = [bytes(tau[j] for tau in placements) for j in range(k)]
    pebbled = [[i - 1 for i in st] for st in states]

    def admits(j, b):  # states position j admits when its vertex is in block b
        return sum(1 << s for s, st in enumerate(pebbled) if all((b == i) == (i == j) for i in st))

    # per position, per lane byte: block index (k for no block) -> state bits
    tables = [[bytes(admits(j, b) >> 8 * q & 255 for b in range(k + 1)).ljust(256, b"\0")
               for q in range(width)] for j in range(k)]
    full = int.from_bytes(((1 << len(states)) - 1).to_bytes(width, "little") * len(placements), "little")
    buf = bytearray(len(placements) * width)

    def mask_of(partition):
        block_of = bytearray([k]) * 256
        for b, block in enumerate(partition):
            for v in block:
                block_of[v] = b
        mask = full
        for col, by_byte in zip(cols, tables):
            for q, table in enumerate(by_byte):
                buf[q::width] = col.translate(block_of.translate(table))
            mask &= int.from_bytes(buf, "little")
        return mask

    return lane, full, mask_of


def build_partition_family(n: int, k: int, z: int, seed: int = 0):
    """Greedy family of ordered equal partitions such that every pebble state
    with at most z pebbled positions is matched, under every injective
    placement, by some family member.  Size is checked against
    2 (4k)^z k lg n.  Candidates are every ordered equal partition, or
    PARTITION_SAMPLE_CAP seeded shuffles per round above 50 000 of them.
    """
    if n % k:
        raise ValueError("need k | n")
    if not 1 <= z <= k:
        raise ValueError("need 1 <= z <= k")
    rng = random.Random(seed)
    states = [frozenset(c) for c in combinations(range(1, k + 1), z)]
    _, full, mask_of = _match_masks(list(permutations(range(1, n + 1), k)), states, k)

    def masks_of(cands, uncovered):
        return list(map(mask_of, cands))

    def draw():
        base, b, drawn = list(range(1, n + 1)), n // k, []
        for _ in range(PARTITION_SAMPLE_CAP):
            rng.shuffle(base)
            drawn.append(tuple(frozenset(base[i * b : (i + 1) * b]) for i in range(k)))
        return drawn

    exhaustive = equal_partition_count(n, k) <= 50_000
    cands = list(_iter_equal_partitions(n, k)) if exhaustive else draw
    family = _greedy_cover(full, masks_of, cands)

    bound = 2 * (4 * k) ** z * k * math.log2(max(n, 2))
    if len(family) > bound:
        raise BoundExceeded(f"family of {len(family)} partitions exceeds the bound {bound:.1f}")
    return family


# ---------------------------------------------------------------------------
# the general builder


class InfeasibleParameters(ValueError):
    pass


@dataclass
class GeneralNetworkResult:
    network: SwitchingNetwork
    graph: InputGraph
    g0_vertices: list
    z: int
    play: list  # pebble state sequence on the core, positions 1..k
    states: list  # interior position-sets
    partitions: list
    node_of: dict  # canonical char tuple (or () for s', ONE for t') -> node id
    h_bound: float

    @property
    def size(self):
        return self.network.size


def _induced_core(graph: InputGraph, g0_vertices):
    """The core subgraph on s, t and the listed vertices, relabeled 1..k."""
    index = {v: i + 1 for i, v in enumerate(g0_vertices)}
    edges = set()
    for u, v in graph.edges:
        uu = index.get(u, u if u in ("s", "t") else None)
        vv = index.get(v, v if v in ("s", "t") else None)
        if uu is not None and vv is not None:
            edges.add((uu, vv))
    return InputGraph(len(g0_vertices), edges)


def build_general_network(graph: InputGraph, g0_vertices, z: int, seed: int = 0) -> GeneralNetworkResult:
    """Network for a graph consisting of a small core plus lollipops.

    Wins of the reversible pebble game on the core (within z pebbles) are
    replayed over parity-knowledge functions: each pebbled core position is
    remembered as one signed block character of a matching partition, moves
    decode a block down to its root singleton via the halving gadget, and
    partition shifts re-encode roots into a partition matching the next
    state.  Soundness is automatic since every emitted edge is a legal step.
    """
    g0_vertices = list(g0_vertices)
    k = len(g0_vertices)
    if k < 1:
        raise ValueError("need at least one core vertex")
    if len(set(g0_vertices)) != k or any(not isinstance(v, int) for v in g0_vertices):
        raise ValueError("core vertices must be distinct middle vertices")
    for v in graph.middle_vertices():
        if v not in g0_vertices and not graph.is_lollipop(v):
            raise ValueError(f"non-core vertex {v} is not a lollipop")

    # pad with s-lollipops until k divides n (accepting the padded family is
    # at least as hard, so bounds transfer)
    n = graph.n
    if n % k:
        pad = k - (n % k)
        edges = set(graph.edges) | {("s", n + i + 1) for i in range(pad)}
        graph = InputGraph(n + pad, edges)
        n = graph.n

    core = _induced_core(graph, g0_vertices)
    if not core.has_st_path():
        raise ValueError("core subgraph has no s->t path")
    if core.has_edge("s", "t"):
        raise ValueError("core with a direct s->t edge is trivial")
    if not 1 <= z <= k:
        raise InfeasibleParameters(f"need 1 <= z <= k, got z={z}, k={k}")
    play = winning_play(core, z)
    if play is None:
        raise InfeasibleParameters(f"core pebble game has no winning play within z={z} pebbles")
    states = [st for st in play if st and not is_winning(st)]

    partitions = build_partition_family(n, k, z, seed)

    blocks_at = [sorted({part[i] for part in partitions}, key=sorted) for i in range(k)]
    block_codes_at = [[_code((s, b)) for b in blocks_at[i] for s in (1, -1)] for i in range(k)]
    codes_at = []
    for i in range(k):
        codes = set(block_codes_at[i])
        for block in blocks_at[i]:
            codes.update(map(_code, reduction_functions(block)))
            codes.update(_code((s, {u})) for u in block for s in (1, -1))
        codes_at.append(codes)
    root_codes = [2 << u for u in range(1, n + 1)]

    # s' carries the constant -1, the empty K-function.  Per state, one
    # position may hold any gadget char (active) and another a root (pinned).
    h = {frozenset()}
    for st in states:
        pos = sorted(st)
        roles = [(None, None)] + [(None, a) for a in pos]
        roles += [(p, a) for p in pos for a in pos if p != a]
        for pinned, active in roles:
            options = [root_codes if i == pinned else codes_at[i - 1] if i == active
                       else block_codes_at[i - 1] for i in pos]
            for combo in product(*options):
                node = _canon(combo)
                if node is not ONE:
                    h.add(node)

    # node ids follow the sorted tuple forms, at positions 2.. of vertices
    s_id, t_id = "s'", "t'"
    node_of = {(): s_id, ONE: t_id}
    coded = {_chars(node): node for node in h if node}
    position = {frozenset(): 0, ONE: 1}
    for idx, chars in enumerate(sorted(coded)):
        node_of[chars] = idx
        position[coded[chars]] = idx + 2
    vertices = [s_id, t_id] + list(range(len(coded)))

    # every label a step can carry, sorted by repr for the edge order below
    labels = sorted([label for u in range(1, n + 1) for label in (("s", u), (u, "t"))]
                    + [(v, w) for v in range(1, n + 1) for w in range(1, n + 1) if v != w], key=repr)
    label_index = {label: j for j, label in enumerate(labels)}
    # A toggle replaces a factor of a node by `new`, so its target is t' or a
    # node only when new, or its complement, occurs in some node or is constant.
    occurring = {c ^ f for node in h for c in node for f in (0, 1)} | {0, 1}
    toggles = {c: [(label_index[label], new) for label, new in _lollipop_toggles(c, range(1, n + 1))
                   if new in occurring] for c in occurring}
    implications = {c: [(label_index[label], new) for label, new in _implications(c, n)] for c in occurring}

    # Each undirected edge is kept once, in the str order of its (u, v, label)
    # triple, and in the first of its two orientations in that order.  As ","
    # sorts below every digit, that is the order of the int keys (rank u,
    # rank v, label index) over the ranks of the node reprs.
    nodes = sorted(position, key=lambda node: repr(vertices[position[node]]))
    rank = {node: r for r, node in enumerate(nodes)}
    R, L = len(nodes).bit_length(), len(labels).bit_length()
    keys = {}
    for node in h:
        a = rank[node]
        for j, rest, new in _coded_steps(tuple(node), toggles, implications):
            b = rank.get(_adjoin(rest, new))
            if b is None or b == a:
                continue
            key = (a << R | b) << L | j
            if a < b:
                keys[key] = key
            else:
                keys.setdefault((b << R | a) << L | j, key)
    keys = sorted(keys.values())
    by_rank = [position[node] for node in nodes]
    network = SwitchingNetwork.from_columns(
        n, vertices, s_id, t_id, [by_rank[k >> L + R] for k in keys],
        [by_rank[k >> L & (1 << R) - 1] for k in keys], labels, [k & (1 << L) - 1 for k in keys])

    x = len(partitions)
    r = max(len(states), 1)
    h_bound = 2 * z * 2**z * r * x * n * math.log2(max(n, 2)) * (2 * x + 4 + z * n)
    if network.size > h_bound:
        raise BoundExceeded(f"|H| = {network.size} exceeds the bound {h_bound:.1f}")

    return GeneralNetworkResult(
        network=network,
        graph=graph,
        g0_vertices=g0_vertices,
        z=z,
        play=play,
        states=states,
        partitions=partitions,
        node_of=node_of,
        h_bound=h_bound,
    )


def _edge_lookup(network: SwitchingNetwork):
    table = {}
    for e in network.edges:
        table[(e.u, e.v, e.label)] = e
        table[(e.v, e.u, e.label)] = e
    return table


def accepting_walk(result: GeneralNetworkResult, sigma) -> list:
    """Constructive completeness: the walk for sigma(G) that replays the core
    pebble win through the network, shifting partitions as needed.  Returns
    the NetEdge sequence from s' to t'; every label lies in sigma(G)."""
    gs = result.graph.permuted(sigma)
    tau = tuple(sigma(v) for v in result.g0_vertices)
    core = _induced_core(result.graph, result.g0_vertices)
    lookup = _edge_lookup(result.network)
    node_of = result.node_of

    factors = {}  # position -> current char
    walk = []

    def current_node():
        key = canonical_chars(tuple(factors[p] for p in sorted(factors)))
        return t_idn if key is ONE else node_of[key]

    t_idn = node_of[ONE]

    def move(new_factors, label):
        nonlocal factors
        a = current_node()
        factors = new_factors
        b = current_node()
        edge = lookup.get((a, b, label))
        if edge is None:
            raise AssertionError(f"missing network edge {a} -- {b} with label {label}")
        if label not in gs.edges:
            raise AssertionError(f"walk label {label} not in the permuted graph")
        walk.append(edge)

    def set_factor(pos, char, label):
        nf = dict(factors)
        nf[pos] = char
        move(nf, label)

    def drop_factor(pos, label):
        nf = dict(factors)
        del nf[pos]
        move(nf, label)

    def descend(pos, block):
        """Reduce the factor at pos from its block char to +e_{root}."""
        root = tau[pos - 1]
        path = reduction_char_path(block, root, gs, start_sign=factors[pos][0])
        for char, label in path[1:]:
            set_factor(pos, char, label)
        assert factors[pos] == _char(1, {root})

    def ascend(pos, block):
        """Build the factor at pos from +e_{root} up to the block's parity char."""
        root = tau[pos - 1]
        path = reduction_char_path(block, root, gs)
        assert path[-1][0] == factors[pos]
        for i in range(len(path) - 1, 0, -1):
            set_factor(pos, path[i - 1][0], path[i][1])
        assert factors[pos] == _char(block_parity(gs, block, root), block)

    def matching_partition(state):
        for xi, part in enumerate(result.partitions):
            if partition_matches(part, tau, state):
                return xi
        raise AssertionError(f"no partition matches state {sorted(state)}")

    def shift(state, old_x, new_x):
        for pos in sorted(state):
            descend(pos, result.partitions[old_x][pos - 1])
            ascend(pos, result.partitions[new_x][pos - 1])

    cur_x = None
    seq = result.play
    for st, nxt in zip(seq, seq[1:]):
        if is_winning(nxt):
            winner = next(p for p in st if core.has_edge(p, "t"))
            descend(winner, result.partitions[cur_x][winner - 1])
            set_factor(winner, _char(1, ()), (tau[winner - 1], "t"))
            break
        if len(nxt) > len(st):
            added = next(iter(nxt - st))
            if cur_x is None or not partition_matches(result.partitions[cur_x], tau, nxt):
                new_x = matching_partition(nxt)
                if cur_x is not None:
                    shift(st, cur_x, new_x)
                cur_x = new_x
            root = tau[added - 1]
            if core.has_edge("s", added):
                set_factor(added, _char(1, {root}), ("s", root))
                ascend(added, result.partitions[cur_x][added - 1])
            else:
                justifiers = [p for p in st if core.has_edge(p, added)]
                if not justifiers:
                    raise AssertionError("pebble addition without a justifying core edge")
                p = justifiers[0]
                descend(p, result.partitions[cur_x][p - 1])
                set_factor(added, _char(1, {root}), (tau[p - 1], root))
                ascend(added, result.partitions[cur_x][added - 1])
                ascend(p, result.partitions[cur_x][p - 1])
        else:
            removed = next(iter(st - nxt))
            justifiers = [p for p in nxt if core.has_edge(p, removed)]
            descend(removed, result.partitions[cur_x][removed - 1])
            root = tau[removed - 1]
            if core.has_edge("s", removed):
                drop_factor(removed, ("s", root))
            else:
                p = justifiers[0]
                descend(p, result.partitions[cur_x][p - 1])
                drop_factor(removed, (tau[p - 1], root))
                ascend(p, result.partitions[cur_x][p - 1])
    if canonical_chars(tuple(factors[p] for p in sorted(factors))) is not ONE:
        raise AssertionError("walk did not reach t'")
    return walk


# ---------------------------------------------------------------------------
# closed-form size bounds


@dataclass
class UpperBoundFormulas:
    k: int
    z: int
    n: int
    general_bound: float
    regime_threshold: float
    regime: int
    regime1_bound: float
    regime2_bound: float
    master_bound: float

    def to_json(self):
        return asdict(self)


def default_z(k: int) -> int:
    return math.ceil(math.log2(k + 1))


def upper_bound_formulas(k: int, z: int, n: int) -> UpperBoundFormulas:
    """The simplified size bounds: the general construction's value, the two
    regime-split bounds with their selection threshold, and the master bound
    z^2 2^{5z+8} k^{3z+3} n^2 (lg n)^2."""
    if k < 1 or z < 1 or n < 2:
        raise ValueError("need k >= 1, z >= 1, n >= 2")
    lg = math.log2(n)
    general = 8 * z * 2**z * k**z * (4 * k) ** (z + 1) * n * lg**2 * ((4 * k) ** (z + 1) * lg + 4 + z * n)
    threshold = 2 ** (math.sqrt(max(lg - math.log2(max(lg, 1)), 0)) - 2)
    regime1 = z**2 * 2 ** (3 * z + 6) * k ** (2 * z + 1) * n**2 * lg**2
    regime2 = z**2 * 2 ** (5 * z + 8) * k ** (3 * z + 3) * n * lg**3
    master = z**2 * 2 ** (5 * z + 8) * k ** (3 * z + 3) * n**2 * lg**2
    return UpperBoundFormulas(
        k=k,
        z=z,
        n=n,
        general_bound=general,
        regime_threshold=threshold,
        regime=1 if k <= threshold else 2,
        regime1_bound=regime1,
        regime2_bound=regime2,
        master_bound=master,
    )
