"""Functions on s-t cuts: characters, dot products, transforms, invariance.

A cut of the input vertex set {s, t, 1..n} is encoded as the bitmask of
middle vertices lying on the s-side: bit v-1 is set iff vertex v is in
L(C).  s is always in L(C) and t in R(C), so the cut space has exactly
2**n elements.  Functions on cuts are held dually as a dense value array
indexed by cut bitmask and as a sparse Fourier coefficient map keyed by
vertex subsets; the character e_V takes the value (-1)**|V & L(C)|.

Arithmetic is exact: scalars are ints or fractions.Fraction, and the dense
transforms and invariance relations run on Python ints over one common
denominator per function.  Every identity checked elsewhere in the package
relies on that exactness.  Values from coefficients are computed on the
subcube of the support (the vertices the coefficients' sets touch),
2**|support| entries; the value depends on no other vertex.  Only `values`
lifts them to all 2**n cuts.
"""

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, sub

from .graphs import InputGraph, _valid_vertex

DENSE_CAP = 16  # dense value arrays are 2**n long; refuse beyond this


def _check_vertex(v, n):
    if v in ("s", "t") or not _valid_vertex(v, n):
        raise ValueError(f"vertex id {v!r} outside 1..{n}")


def _mask_of(vertices, n) -> int:
    m = 0
    for v in vertices:
        _check_vertex(v, n)
        m |= 1 << (v - 1)
    return m


def eval_character(V, cut: int, n: int):
    """e_V(C) = (-1)**|V intersect L(C)| for the cut bitmask C."""
    m = _mask_of(V, n)
    return -1 if bin(m & cut).count("1") % 2 else 1


def iter_cuts(n: int):
    return range(1 << n)


def edge_crosses(edge, cut: int) -> bool:
    """True iff the edge goes from L(C) to R(C); s is always in L, t in R."""
    tail, head = edge
    if tail == head:
        raise ValueError("loop edges are not allowed")
    tail_left = True if tail == "s" else (False if tail == "t" else (cut >> (tail - 1)) & 1)
    head_right = True if head == "t" else (False if head == "s" else not ((cut >> (head - 1)) & 1))
    return bool(tail_left and head_right)


def _left_mask(n: int, v: int) -> int:
    """Bitmask over all 2**n cuts with bit C set iff vertex v is in L(C): its
    bytes repeat 0xAA, 0xCC or 0xF0 for v <= 3, else 2**(v-4) zero bytes then
    as many 0xff bytes, and one int.from_bytes reads them in linear time."""
    run = 1 << v >> 4
    period = bytes(run) + b"\xff" * run if run else b"\xaa\xcc\xf0"[v - 1:v]
    if n < 3:  # fewer than 8 cuts: the low bits of the one-byte pattern
        return period[0] & full_cut_mask(n)
    return int.from_bytes(period * ((1 << n >> 3) // len(period)), "little")


def crossing_mask(n: int, edge) -> int:
    """Bitmask over all 2**n cuts with bit C set iff the edge crosses C."""
    tail, head = edge
    if not (_valid_vertex(tail, n) and _valid_vertex(head, n)):
        raise ValueError(f"edge {edge!r} leaves s, t, 1..{n}")
    if tail == "t" or head == "s":
        return 0
    full = full_cut_mask(n)
    left = full if tail == "s" else _left_mask(n, tail)
    return left & (full if head == "t" else full ^ _left_mask(n, head))


def usable_masks(n: int, edges):
    """For each edge, already checked to join s, t, 1..n, the bitmask over
    all 2**n cuts with bit C set iff the edge does not cross C: by De Morgan,
    iff its tail is outside L(C) or its head inside it.  The left masks of
    1..n are built once, with those of s (every cut) and t (none), and are
    freed on return."""
    full = full_cut_mask(n)
    left = {"s": full, "t": 0, **{v: _left_mask(n, v) for v in range(1, n + 1)}}
    return [(full ^ left[tail]) | left[head] for tail, head in edges]


def parity_mask(n: int, vmask: int) -> int:
    """Bitmask over cuts with bit C set iff |V & L(C)| is odd (V as bitmask)."""
    parity = 0
    for b in range(n):
        if (vmask >> b) & 1:
            parity ^= _left_mask(n, b + 1)
    return parity


def full_cut_mask(n: int) -> int:
    return (1 << (1 << n)) - 1


def common_denominator(scalars) -> int:
    """The lcm of the denominators of ints and Fractions; 1 when empty."""
    return lcm(*{c.denominator for c in scalars})


def _walsh(vals, n):
    """Walsh-Hadamard transform of 2**n ints; self-inverse up to a 2**n factor.

    Each pass adds and subtracts the even/odd neighbours and moves the low
    index bit to the top, so after n passes the order is natural again."""
    for _ in range(n):
        even, odd = vals[0::2], vals[1::2]
        vals = list(map(add, even, odd)) + list(map(sub, even, odd))
    return vals


def integer_coeffs(coeffs):
    """(den, {V: c * den}) for den the lcm of the denominators of c."""
    den = common_denominator(coeffs.values())
    return den, {V: c.numerator * (den // c.denominator) for V, c in coeffs.items()}


def _support_transform(coeffs):
    """(U, den, table): U the sorted union of the V, table the 2**|U| ints
    den * sum_V c(V) e_V, bit j of the index standing for U[j]."""
    support = sorted(set().union(*coeffs))
    bit = {v: 1 << j for j, v in enumerate(support)}
    den, nums = integer_coeffs(coeffs)
    dense = [0] * (1 << len(bit))
    for V, num in nums.items():
        dense[sum(bit[v] for v in V)] = num
    return support, den, _walsh(dense, len(bit))


class Permutation:
    """A bijection on the middle vertices {1..n}; s and t are fixed."""

    def __init__(self, mapping: dict):
        self.mapping = dict(mapping)
        n = len(self.mapping)
        if set(self.mapping) != set(range(1, n + 1)) or set(self.mapping.values()) != set(range(1, n + 1)):
            raise ValueError("mapping must be a bijection on {1..n}")
        self.n = n

    @classmethod
    def identity(cls, n):
        return cls({v: v for v in range(1, n + 1)})

    @classmethod
    def random(cls, n, rng):
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        return cls(dict(zip(range(1, n + 1), vals)))

    @classmethod
    def all(cls, n):
        from itertools import permutations
        for vals in permutations(range(1, n + 1)):
            yield cls(dict(zip(range(1, n + 1), vals)))

    def __call__(self, v):
        return v if v in ("s", "t") else self.mapping[v]

    def apply_set(self, vertices):
        return frozenset(self.mapping[v] for v in vertices)

    def apply_cut(self, cut: int) -> int:
        out = 0
        for v in range(1, self.n + 1):
            if (cut >> (v - 1)) & 1:
                out |= 1 << (self.mapping[v] - 1)
        return out

    def compose(self, other):
        """self after other: (self.compose(other))(v) = self(other(v))."""
        return Permutation({v: self.mapping[other.mapping[v]] for v in self.mapping})

    def inverse(self):
        return Permutation({w: v for v, w in self.mapping.items()})

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __repr__(self):
        return f"Permutation({self.mapping})"


class CutFunction:
    """A function 2**n cuts -> scalars, held as values and/or coefficients.

    Either representation may be supplied; the other is derived on demand
    (dense values only for n <= 16).  When both are present they agree:
    f(C) = sum_V coeff(V) * (-1)**|V & L(C)|.
    """

    def __init__(self, n: int, coeffs=None, values=None):
        if coeffs is None and values is None:
            raise ValueError("need at least one representation")
        self.n = n
        self._coeffs = None
        self._values = None
        if coeffs is not None:
            clean = {}
            vertices = set()
            for V, c in dict(coeffs).items():
                key = frozenset(V)
                vertices |= key
                if c != 0:
                    clean[key] = c
            for v in vertices:
                _check_vertex(v, n)
            self._coeffs = clean
        if values is not None:
            values = list(values)
            if len(values) != 1 << n:
                raise ValueError(f"need {1 << n} values, got {len(values)}")
            self._values = values

    @classmethod
    def from_values(cls, n, values):
        return cls(n, values=values)

    @classmethod
    def character(cls, n, V):
        """The basis function e_V."""
        return cls(n, coeffs={frozenset(V): Fraction(1)})

    @classmethod
    def constant(cls, n, c):
        return cls(n, coeffs={frozenset(): c})

    @property
    def values(self):
        if self._values is None:
            if self.n > DENSE_CAP:
                raise ValueError(f"dense representation refused for n={self.n} > {DENSE_CAP}")
            support, den, values = _support_transform(self._coeffs)
            # lift over the cut bits from low to high, as blocks of 2**b
            # entries that agree above bit b: a bit in the support joins
            # blocks 2i and 2i+1, a bit outside it doubles each block
            if den != 1:
                values = [Fraction(v, den) for v in values]
            for b in range(self.n):
                if b + 1 not in support:
                    run = 1 << b
                    values = list(chain.from_iterable(
                        values[i:i + run] * 2 for i in range(0, len(values), run)))
            self._values = values
        return self._values

    @property
    def coeffs(self):
        if self._coeffs is None:
            den = common_denominator(self._values)
            spectrum = _walsh([v.numerator * (den // v.denominator) for v in self._values], self.n)
            scale = den << self.n
            self._coeffs = {
                frozenset(v + 1 for v in range(self.n) if (mask >> v) & 1): Fraction(c, scale)
                for mask, c in enumerate(spectrum)
                if c
            }
        return self._coeffs

    def value_at(self, cut: int):
        if self._values is not None:
            return self._values[cut]
        total = 0
        for V, c in self._coeffs.items():
            total += c if bin(_mask_of(V, self.n) & cut).count("1") % 2 == 0 else -c
        return total

    def coeff(self, V):
        return self.coeffs.get(frozenset(V), 0)

    def degree(self):
        return max((len(V) for V in self.coeffs), default=0)

    def dot(self, other):
        """2**-n * sum_C f(C) g(C); via Parseval when coefficients exist."""
        if not isinstance(other, CutFunction) or other.n != self.n:
            raise ValueError("dot requires two cut functions on the same n")
        if self._coeffs is not None and other._coeffs is not None:
            small, big = (self._coeffs, other._coeffs)
            if len(big) < len(small):
                small, big = big, small
            return sum((c * big[V] for V, c in small.items() if V in big), start=Fraction(0))
        sv, ov = self.values, other.values
        return sum((a * b for a, b in zip(sv, ov)), start=Fraction(0)) * Fraction(1, 1 << self.n)

    def norm_squared(self):
        return self.dot(self)

    def permuted(self, sigma: Permutation):
        """sigma(f), defined by sigma(f)(C) = f(sigma^{-1}(C))."""
        if self._coeffs is not None:
            return CutFunction(self.n, coeffs={sigma.apply_set(V): c for V, c in self._coeffs.items()})
        inv = sigma.inverse()
        return CutFunction(self.n, values=[self._values[inv.apply_cut(c)] for c in iter_cuts(self.n)])

    def __add__(self, other):
        out = dict(self.coeffs)
        for V, c in other.coeffs.items():
            out[V] = out.get(V, 0) + c
        return CutFunction(self.n, coeffs=out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for V, c in other.coeffs.items():
            out[V] = out.get(V, 0) - c
        return CutFunction(self.n, coeffs=out)

    def __neg__(self):
        return CutFunction(self.n, coeffs={V: -c for V, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, CutFunction) and self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self):
        terms = sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        return f"CutFunction(n={self.n}, {dict((tuple(sorted(V)), c) for V, c in terms)})"

    def to_json(self):
        return {
            "n": self.n,
            "coeffs": [
                {"V": sorted(V), "c": _scalar_to_json(c)}
                for V, c in sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
            ],
        }

    @classmethod
    def from_json(cls, obj):
        coeffs = {frozenset(item["V"]): _scalar_from_json(item["c"]) for item in obj["coeffs"]}
        return cls(obj["n"], coeffs=coeffs)


def _scalar_to_json(c):
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    if isinstance(c, int):
        return f"{c}/1"
    return c  # floats serialize as plain numbers


def _scalar_from_json(c):
    if isinstance(c, str):
        num, den = c.split("/")
        return Fraction(int(num), int(den))
    return c


def random_sparse_function(n, rng, terms=4, max_level=None):
    """Random sparse rational coefficients from `rng`, optionally capped in level."""
    cap = n if max_level is None else max_level
    coeffs = {}
    for _ in range(terms):
        size = rng.randint(0, cap)
        V = frozenset(rng.sample(range(1, n + 1), size))
        coeffs[V] = coeffs.get(V, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return CutFunction(n, coeffs=coeffs)


def dot(f, g):
    return f.dot(g)


def maximal_no_instance(cut: int, n: int):
    """The input graph G(C) holding every non-loop ordered pair not crossing C."""
    vertices = ["s", "t"] + list(range(1, n + 1))
    edges = set()
    for u in vertices:
        for v in vertices:
            if u == v:
                continue
            if not edge_crosses((u, v), cut):
                edges.add((u, v))
    return InputGraph(n, edges)


def _nondegenerate(edge, n):
    tail, head = edge
    if tail == head or tail == "t" or head == "s" or (tail == "s" and head == "t"):
        return False
    return _valid_vertex(tail, n) and _valid_vertex(head, n)


def _require_nondegenerate(edge, n):
    if not _nondegenerate(edge, n):
        raise ValueError(f"degenerate edge {edge!r}")


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def nonzero_mask(values) -> int:
    """Bitmask over cuts with bit C set iff values[C] is nonzero; `values` may
    be any iterable, a generator included."""
    digits = bytes(map(bool, values)).translate(_DIGITS)
    return int(digits[::-1] or b"0", 2)


def invariant_by_values(g: CutFunction, edge) -> bool:
    """g(C) = 0 on every crossed cut, as bitmasks over the 2**|U| cuts of g's
    support U: g ignores an endpoint outside U, read as s (tail) or t (head)."""
    _require_nondegenerate(edge, g.n)
    support, _, table = _support_transform(g.coeffs)
    local = {v: j for j, v in enumerate(support, 1)}
    tail, head = edge
    edge = (local.get(tail, "s"), local.get(head, "t"))
    return nonzero_mask(table) & crossing_mask(len(support), edge) == 0


def relation_violations(g: CutFunction, edge, below=None):
    """Bases V, disjoint from the edge's middle endpoints, at which g breaks
    the edge's invariance relation sum of sign * c(V + D) = 0, D ranging over
    subsets of the endpoints:

        s->w:   c(V+w) = -c(V)
        v->t:   c(V+v) =  c(V)
        v->w:   c(V+v+w) = -c(V+v) + c(V+w) + c(V)

    The sums run on integer numerators; a positive factor keeps zeros.
    With `below`, only bases whose top set V + endpoints has fewer than
    `below` vertices.  Lazily generated."""
    tail, head = edge
    if tail == "s":
        terms = ((frozenset([head]), 1), (frozenset(), 1))
    elif head == "t":
        terms = ((frozenset([tail]), 1), (frozenset(), -1))
    else:
        terms = ((frozenset([tail, head]), 1), (frozenset([tail]), 1),
                 (frozenset([head]), -1), (frozenset(), -1))
    mids = terms[0][0]
    _, co = integer_coeffs(g.coeffs)
    for V in {V - mids for V in co}:
        if below is not None and len(V | mids) >= below:
            continue
        if sum(sign * co.get(V | D, 0) for D, sign in terms) != 0:
            yield V


def invariant_by_coeffs(g: CutFunction, edge) -> bool:
    """Coefficient-domain invariance test: no base breaks the edge's relation."""
    _require_nondegenerate(edge, g.n)
    return next(relation_violations(g, edge), None) is None


def is_edge_invariant(g: CutFunction, edge) -> bool:
    """Invariance of g under the given non-degenerate edge.

    Runs both the value-domain and coefficient-domain tests and insists
    they agree; a disagreement would be an internal bug.
    """
    by_coeff = invariant_by_coeffs(g, edge)
    if g.n <= DENSE_CAP:
        by_value = invariant_by_values(g, edge)
        if by_value != by_coeff:
            raise AssertionError(f"invariance tests disagree for edge {edge!r}")
    return by_coeff
