"""Sum-vector tables, the base-function construction, invariant extensions,
and the lower-bound evaluators.

The pipeline: tag every coordinate (k, u, A) of the sum-vector table
as fixed (some short-path edge imposes one of the three reduction
equations on it) or free; build the table level by level in increasing
(k+u, k) order, computing fixed coordinates from the equations and free
coordinates by a minimum-norm solve of the restricted inclusion system;
read off a base function g; extend g to an e-invariant g_e per graph edge
by setting the level-z coefficients; feed the differences g_e - g_{e0}
into the permutation-average bound to certify a lower bound on the size
of any sound monotone network accepting every permuted copy of the graph.

All arithmetic is exact.  The table is built on integer numerators over
one table denominator, rescaled after each solve, and handed back as
Fractions; the differences g_e - g_{e0} are integer numerators over one
family denominator, so their bound sums divide by its square once.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .cuts import (
    CutFunction,
    _require_nondegenerate,
    common_denominator,
    is_edge_invariant,
    relation_violations,
)
from .graphs import InputGraph
from .spectral import min_norm_solve
from .subsets import k_subsets
from .sums import permutation_bound_sum, s_single

REPRESENTATIVE_TOP = "TOP"


class ConstructionError(ValueError):
    """Raised when the table construction cannot proceed; names the level."""

    def __init__(self, message, k=None, u=None):
        super().__init__(message)
        self.k = k
        self.u = u


def relevance_threshold(z: int, k: int, u: int) -> int:
    """Longest path length that makes an edge relevant at level (k, u).

    The working radius is 2**(z-k-u-1); below exponent zero no path of
    positive length qualifies.
    """
    e = z - k - u - 1
    return 2**e if e >= 0 else 0


def relevant_edges(graph: InputGraph, z: int, k: int, u: int, A):
    """The pairs (tail, head) with tail in s + A and head in A + t, tail != head,
    not (s, t), joined by a directed path of length in 1..2**(z-k-u-1); tails
    in order s, then sorted A, heads in sorted A, then t."""
    limit = relevance_threshold(z, k, u)
    A = sorted(A)
    out = []
    for tail in ["s"] + A:
        for head in A + ["t"]:
            if tail != head and (tail, head) != ("s", "t"):
                d = graph.distance(tail, head)
                if d is not None and 0 < d <= limit:
                    out.append((tail, head))
    return out


class SumVectorTable:
    """Vectors s(k, u) over colex-ranked k-subsets, for levels k+u <= max_level.

    Coordinates outside the stored levels read as zero, matching functions
    whose coefficients vanish at and above level max_level + 1.  Stored
    values are numerators over `den`: `build_base_function` fills its table
    with integers over a growing `den` and hands it back as Fractions over 1.
    """

    den = 1

    def __init__(self, n: int, max_level: int, vectors=None, tags=None, z=None):
        self.n = n
        self.max_level = max_level
        self.vectors = vectors if vectors is not None else {}
        self.tags = tags if tags is not None else {}
        self.z = z
        self._ranks = {}

    def rank_map(self, k: int) -> dict:
        """Each k-subset as a frozenset -> its colex index, in colex order;
        built on first use."""
        ranks = self._ranks.get(k)
        if ranks is None:
            ranks = self._ranks[k] = {frozenset(A): i for i, A in enumerate(k_subsets(self.n, k))}
        return ranks

    def lookup(self, k: int, u: int, A):
        """Stored value at (k, u, A), A any iterable of vertices; 0 off the
        stored levels, negative k and u included."""
        vec = self.vectors.get((k, u))
        return 0 if vec is None else vec[self.rank_map(k)[frozenset(A)]]

    def rescale(self, d: int):
        """Multiply every stored numerator and the denominator by d."""
        for vec in self.vectors.values():
            vec[:] = [x * d for x in vec]
        self.den *= d

    def equation_value(self, edge, k: int, u: int, A):
        """Right side of the reduction equation the edge imposes at (k, u, A)."""
        A = frozenset(A)
        tail, head = edge
        look = self.lookup
        if tail == "s":
            w = head
            if w not in A:
                raise ValueError("s->w equation needs w in A")
            return -look(k - 1, u, A - {w}) + look(k, u - 1, A)
        if head == "t":
            v = tail
            if v not in A:
                raise ValueError("v->t equation needs v in A")
            return look(k - 1, u, A - {v}) - look(k, u - 1, A)
        v, w = tail, head
        if v not in A or w not in A:
            raise ValueError("v->w equation needs both endpoints in A")
        return (
            look(k - 1, u, A - {v})
            - look(k - 1, u, A - {w})
            + look(k - 2, u, A - {v, w})
            - look(k - 1, u - 1, A - {v})
            - look(k - 1, u - 1, A - {w})
            + look(k, u - 2, A)
        )

    def delta_coordinate(self, edge, k: int, u: int, A):
        """Defect of the edge's equation at one coordinate; 0 when the edge's
        middle endpoints are not inside A."""
        _require_nondegenerate(edge, self.n)
        A = frozenset(A)
        for x in edge:
            if x not in ("s", "t") and x not in A:
                return Fraction(0)
        return self.lookup(k, u, A) - self.equation_value(edge, k, u, A)

    def delta_vector(self, k: int, u: int, edge):
        return [self.delta_coordinate(edge, k, u, A) for A in k_subsets(self.n, k)]

    def error_vector(self, k: int, u: int):
        """s(k,u) - (1/u) P_k s(k+1, u-1); defined for u >= 1."""
        if u < 1:
            raise ValueError("error vectors are defined for u >= 1")
        out = []
        for A in k_subsets(self.n, k):
            sa = frozenset(A)
            up = sum(
                (self.lookup(k + 1, u - 1, sa | {b}) for b in range(1, self.n + 1) if b not in sa),
                start=Fraction(0),
            )
            out.append(self.lookup(k, u, sa) - Fraction(1, u) * up)
        return out

    def norms(self, k: int, u: int):
        """(full, fixed, free) squared norms of the stored vector, as Fractions."""
        vec = self.vectors.get((k, u), [])
        tags = self.tags.get((k, u))
        scale = self.den * self.den
        full = Fraction(sum(x * x for x in vec), scale)
        if tags is None:
            return full, None, None
        fixed = Fraction(sum(x * x for x, t in zip(vec, tags) if t == "fixed"), scale)
        return full, fixed, full - fixed

    def to_json(self):
        out = {"n": self.n, "max_level": self.max_level, "z": self.z, "vectors": {}}
        for (k, u), vec in sorted(self.vectors.items()):
            tags = self.tags.get((k, u))
            out["vectors"][f"{k},{u}"] = [
                {
                    "A": list(A),
                    "value": f"{Fraction(val).numerator}/{Fraction(val).denominator}",
                    **({"tag": tags[i]} if tags else {}),
                }
                for i, (A, val) in enumerate(zip(k_subsets(self.n, k), vec))
            ]
        return out

    @classmethod
    def from_json(cls, obj):
        vectors, tags = {}, {}
        for key, items in obj["vectors"].items():
            k, u = map(int, key.split(","))
            vectors[(k, u)] = [Fraction(*map(int, it["value"].split("/"))) for it in items]
            if items and "tag" in items[0]:
                tags[(k, u)] = [it["tag"] for it in items]
        return cls(obj["n"], obj["max_level"], vectors, tags, z=obj.get("z"))


def table_from_function(g: CutFunction, max_level: int, graph=None, z=None) -> SumVectorTable:
    """Definitional sum-vector table of an actual function (test oracle)."""
    vectors = {}
    for total in range(0, max_level + 1):
        for k in range(0, total + 1):
            u = total - k
            vectors[(k, u)] = [s_single(g, A, u) for A in k_subsets(g.n, k)]
    table = SumVectorTable(g.n, max_level, vectors, z=z)
    if graph is not None and z is not None:
        table.tags = {
            (k, u): ["fixed" if relevant_edges(graph, z, k, u, A) else "free" for A in k_subsets(g.n, k)]
            for (k, u) in vectors
        }
    return table


def fixed_value(table: SumVectorTable, edges_at: dict, k: int, u: int, A):
    """Value forced on a fixed coordinate by its relevant edges; evaluates
    every applicable equation and insists they agree (the order-independence
    property).  `edges_at[(k, u)]` holds each coordinate's relevant-edge list
    in the table's colex order.

    Also asserts the composability closure: when a->b and b->c are both
    relevant here, a->c must be relevant at the reduced coordinate
    (k-1, u, A-b).
    """
    A = frozenset(A)
    edges = edges_at[(k, u)][table.rank_map(k)[A]]
    if not edges:
        raise ValueError(f"coordinate ({k},{u},{sorted(A)}) is free")
    for a, b in edges:
        for c, d in edges:
            if b == c:
                if a == "s" and d == "t":
                    raise ConstructionError(
                        "relevant paths compose into a short s->t path; hypothesis violated", k, u
                    )
                if (a, d) not in edges_at[(k - 1, u)][table.rank_map(k - 1)[A - {b}]]:
                    raise ConstructionError(
                        f"closure violated: {(a, d)} not relevant at ({k-1},{u},{sorted(A - {b})})", k, u
                    )
    values = [table.equation_value(e, k, u, A) for e in edges]
    first = values[0]
    for e, val in zip(edges[1:], values[1:]):
        if val != first:
            raise ConstructionError(
                f"equations disagree at ({k},{u},{sorted(A)}): {edges[0]} gives "
                f"{Fraction(first, table.den)}, {e} gives {Fraction(val, table.den)}",
                k,
                u,
            )
    return first, len(edges)


@dataclass
class LevelDiagnostics:
    fixed_norm_sq: Fraction
    free_norm_sq: Fraction
    target_bound_sq: Fraction  # (1/2 (9mn)^{(k+u)/2})^2, compared against squared norms
    fixed_within_target: bool
    free_within_target: bool
    equation_rhs_bound: Fraction  # recurrence bound on the fixed part
    fixed_within_recurrence: bool
    adjustment_norm_sq: Fraction = Fraction(0)
    adjustment_bound: Fraction = Fraction(0)
    adjustment_within_bound: bool = True


@dataclass
class BuildDiagnostics:
    seed: int
    n: int
    z: int
    linkage_m: int
    linkage_depth: int
    m_hypothesis_ok: bool  # m <= n / (2000 z^4)
    multi_equation_checks: int = 0
    levels: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "seed": self.seed,
            "n": self.n,
            "z": self.z,
            "linkage_m": self.linkage_m,
            "linkage_depth": self.linkage_depth,
            "m_hypothesis_ok": self.m_hypothesis_ok,
            "multi_equation_checks": self.multi_equation_checks,
            "levels": {
                f"{k},{u}": {
                    "fixed_norm_sq": float(d.fixed_norm_sq),
                    "free_norm_sq": float(d.free_norm_sq),
                    "fixed_within_target": d.fixed_within_target,
                    "free_within_target": d.free_within_target,
                    "fixed_within_recurrence": d.fixed_within_recurrence,
                    "adjustment_within_bound": d.adjustment_within_bound,
                }
                for (k, u), d in sorted(self.levels.items())
            },
        }


def build_base_function(graph: InputGraph, z: int, seed: int = 0):
    """Construct the base function: table levels 0..z-1 with zero error
    vectors and zero defects at every relevant configuration, coeff({}) = 1,
    support strictly below level z.

    Requires an acyclic graph with no s->t path of length <= 2**(z-1).
    Free coordinates are filled by exact minimum-norm solves; a singular
    restricted system aborts with the offending level.
    """
    n = graph.n
    if z < 1:
        raise ValueError("need z >= 1")
    hypotheses = low_connectivity_hypotheses(graph, z)
    if not hypotheses["acyclic"]:
        raise ValueError("graph must be acyclic")
    if not hypotheses["no_short_st_path"]:
        d_st = graph.distance("s", "t")
        raise ValueError(f"s->t path of length {d_st} <= {2 ** (z - 1)} violates the hypothesis")

    m_link = hypotheses["linkage_m"]
    diag = BuildDiagnostics(
        seed=seed,
        n=n,
        z=z,
        linkage_m=m_link,
        linkage_depth=_linkage_depth(z),
        m_hypothesis_ok=hypotheses["m_small_enough"],
    )

    table = SumVectorTable(n, z - 1, z=z)
    edges_at, full_sq = {}, {}
    for level in range(0, z):
        for k in range(0, level + 1):
            u = level - k
            rank = table.rank_map(k)
            edges = edges_at[(k, u)] = [relevant_edges(graph, z, k, u, A) for A in rank]
            tags = table.tags[(k, u)] = ["fixed" if e else "free" for e in edges]
            # stored now so that a rescale reaches it; no equation reads its own level
            vec = table.vectors[(k, u)] = [0] * len(rank)

            for i, A in enumerate(rank):
                if edges[i]:
                    vec[i], count = fixed_value(table, edges_at, k, u, A)
                    if count >= 2:
                        diag.multi_equation_checks += count - 1

            adj_sq, adj_den = 0, table.den
            if k == 0:
                if tags[0] == "fixed":
                    raise ConstructionError("empty coordinate fixed; short s->t path slipped through", 0, u)
                vec[0] = table.den if level == 0 else 0
            else:
                prev_tags = table.tags[(k - 1, u + 1)]
                prev_vec = table.vectors[(k - 1, u + 1)]
                free_rows = [j for j, t in enumerate(prev_tags) if t == "free"]
                free_cols = [i for i, t in enumerate(tags) if t == "free"]
                if free_rows:
                    prev_sets = list(table.rank_map(k - 1))
                    col_pos = {i: p for p, i in enumerate(free_cols)}
                    matrix, rhs = [], []
                    for j in free_rows:
                        V = prev_sets[j]
                        row = [0] * len(free_cols)
                        adj = 0
                        for b in range(1, n + 1):
                            if b in V:
                                continue
                            sup = rank[V | {b}]
                            if tags[sup] == "fixed":
                                adj -= vec[sup]
                            else:
                                row[col_pos[sup]] += 1
                        adj_sq += adj * adj
                        target = adj + (u + 1) * prev_vec[j]
                        if all(x == 0 for x in row):
                            # every superset is fixed; the constraint must already hold
                            if target != 0:
                                raise ConstructionError(
                                    f"over-determined coordinate {sorted(V)} at level ({k},{u})", k, u
                                )
                            continue
                        matrix.append(row)
                        rhs.append(target)
                    if matrix:
                        try:
                            sol = min_norm_solve(matrix, rhs)
                        except ValueError as exc:
                            raise ConstructionError(
                                f"restricted solve failed at (k={k}, u={u}): {exc}", k, u
                            ) from exc
                        d = common_denominator(sol)
                        if d != 1:
                            table.rescale(d)
                        for p, i in enumerate(free_cols):
                            vec[i] = sol[p].numerator * (d // sol[p].denominator)

            full, fixed_sq, free_sq = table.norms(k, u)
            full_sq[(k, u)] = full
            adj_norm_sq = Fraction(adj_sq, adj_den * adj_den)
            base = 9 * m_link * n
            target_sq = Fraction(base, 1) ** (k + u) / 4  # square of (1/2)(9mn)^{(k+u)/2}
            km = k * m_link

            def norm_at(kk, uu):
                return full_sq.get((kk, uu), Fraction(0))

            rec_bound = (
                2 * norm_at(k, u - 1)
                + 6 * norm_at(k, u - 2)
                + (4 * m_link + 6 * km) * norm_at(k - 1, u)
                + 6 * km * norm_at(k - 1, u - 1)
                + 3 * n * m_link * norm_at(k - 2, u)
            )
            diag.levels[(k, u)] = LevelDiagnostics(
                fixed_norm_sq=fixed_sq,
                free_norm_sq=free_sq,
                target_bound_sq=target_sq,
                fixed_within_target=(fixed_sq * fixed_sq <= target_sq) if (k + u) else True,
                free_within_target=(free_sq * free_sq <= target_sq) if (k + u) else True,
                equation_rhs_bound=rec_bound,
                fixed_within_recurrence=(fixed_sq <= rec_bound) if k >= 1 else True,
                adjustment_norm_sq=adj_norm_sq,
                adjustment_bound=m_link * (k + 1) * k * fixed_sq,
                adjustment_within_bound=(adj_norm_sq <= m_link * (k + 1) * k * fixed_sq)
                if k >= 1
                else True,
            )

    _verify_completed_table(table, edges_at)
    den = table.den
    for vec in table.vectors.values():
        vec[:] = [Fraction(x, den) for x in vec]
    table.den = 1
    coeffs = {}
    for k in range(0, z):
        for A, c in zip(table.rank_map(k), table.vectors[(k, 0)]):
            if c != 0:
                coeffs[A] = c
    return CutFunction(n, coeffs=coeffs), table, diag


def _verify_completed_table(table: SumVectorTable, edges_at: dict):
    """Exact sweep over the numerators, in build order over the stored
    relevant-edge lists: every error vector zero, as
    u s(k, u, A) = sum over b outside A of s(k+1, u-1, A + b), and every
    relevant defect zero."""
    n, look = table.n, table.lookup
    for (k, u), edges in edges_at.items():
        sets = table.rank_map(k)
        if u >= 1:
            for A in sets:
                up = sum(look(k + 1, u - 1, A | {b}) for b in range(1, n + 1) if b not in A)
                if u * look(k, u, A) != up:
                    raise ConstructionError(f"nonzero error vector at ({k},{u})", k, u)
        for A, coord_edges in zip(sets, edges):
            for e in coord_edges:
                if table.delta_coordinate(e, k, u, A) != 0:
                    raise ConstructionError(f"nonzero defect for {e} at ({k},{u},{tuple(sorted(A))})", k, u)


def _check_extension_precondition(g: CutFunction, edge, z: int):
    if any(len(V) >= z for V in g.coeffs):
        raise ValueError(f"base function must vanish at level >= z={z}")
    bad = next(relation_violations(g, edge, below=z), None)
    if bad is not None:
        raise ValueError(f"base function violates the {edge[0]}->{edge[1]} relation at {sorted(bad)}")


def extend_invariant(g: CutFunction, edge, z: int) -> CutFunction:
    """Extension of a compliant base function to an exactly e-invariant
    function by choosing the level-z coefficients; levels below z unchanged."""
    _require_nondegenerate(edge, g.n)
    _check_extension_precondition(g, edge, z)
    tail, head = edge
    base = g.coeffs
    co = dict(base)
    # only z-subsets holding the edge's middle endpoint (the anchor) can get
    # a value; combinations of the other vertices come in the order of the
    # full walk, so the new keys keep their order
    anchor = head if tail == "s" else tail
    others = [v for v in range(1, g.n + 1) if v != anchor]
    for combo in combinations(others, z - 1):
        rest = frozenset(combo)
        if tail == "s":
            val = -base.get(rest, 0)
        elif head == "t" or head not in rest:
            val = base.get(rest, 0)
        else:
            without_w = rest - {head}
            val = -base.get(without_w | {tail}, 0) + base.get(rest, 0) + base.get(without_w, 0)
        if val != 0:
            co[rest | {anchor}] = val
    return CutFunction(g.n, coeffs=co)


def cutoff_case(edge, A) -> str:
    """Which closed form applies for the level-z sums of the extension."""
    tail, head = edge
    A = frozenset(A)
    if tail == "s":
        return "1b" if head in A else "1a"
    if head == "t":
        return "2b" if tail in A else "2a"
    v_in, w_in = tail in A, head in A
    if v_in and w_in:
        return "3d"
    if v_in:
        return "3b"
    if w_in:
        return "3c"
    return "3a"


def cutoff_sum(b: CutFunction, edge, A, u: int, z: int):
    """Closed form for s_single(extend_invariant(b, edge, z), A, u) at the
    boundary |A| + u = z, written in terms of sums of the base function."""
    A = frozenset(A)
    if len(A) + u != z:
        raise ValueError("cutoff sums are defined at |A| + u = z only")
    tail, head = edge

    def s(S, uu):
        return s_single(b, S, uu) if uu >= 0 else Fraction(0)

    case = cutoff_case(edge, A)
    if case == "1a":
        w = head
        return -s(A, u - 1) + s(A | {w}, u - 2)
    if case == "1b":
        w = head
        return -s(A - {w}, u) + s(A, u - 1)
    if case == "2a":
        v = tail
        return s(A, u - 1) - s(A | {v}, u - 2)
    if case == "2b":
        v = tail
        return s(A - {v}, u) - s(A, u - 1)
    v, w = tail, head
    if case == "3a":
        return (
            s(A, u - 1)
            - 2 * s(A | {v}, u - 2)
            + s(A | {v, w}, u - 3)
            + s(A, u - 2)
            - s(A | {v}, u - 3)
            - s(A | {w}, u - 3)
            + s(A | {v, w}, u - 4)
        )
    if case == "3b":
        return (
            s(A - {v}, u)
            - 2 * s(A, u - 1)
            + s(A | {w}, u - 2)
            + s(A - {v}, u - 1)
            - s(A, u - 2)
            - s((A - {v}) | {w}, u - 2)
            + s(A | {w}, u - 3)
        )
    if case == "3c":
        return (
            s(A, u - 1)
            - s((A | {v}) - {w}, u - 1)
            + s(A - {w}, u - 1)
            - s(A, u - 2)
            - s((A | {v}) - {w}, u - 2)
            + s(A | {v}, u - 3)
        )
    # 3d
    return (
        s(A - {v}, u)
        - s(A - {w}, u)
        + s(A - {v, w}, u)
        - s(A - {v}, u - 1)
        - s(A - {w}, u - 1)
        + s(A, u - 2)
    )


def cutoff_cost_bound(b: CutFunction, z: int):
    """200 * max over levels of the two boundary square sums of the base
    function; dominates every level-z square sum of the extensions."""
    best = Fraction(0)
    from .sums import sum_of_squares

    for k2 in range(0, z + 1):
        for uu in (z - k2 - 1, z - k2 - 2):
            if uu >= 0:
                best = max(best, sum_of_squares(b, k2, uu))
    return 200 * best


@dataclass
class InvariantFamily:
    """Per-edge invariant functions agreeing below level z, unit mass at {}."""

    graph: InputGraph
    z: int
    functions: dict  # edge -> CutFunction
    base: CutFunction = None

    def validate(self):
        if set(self.functions) != set(self.graph.edges):
            raise ValueError("family must carry one function per graph edge")
        for e, g in self.functions.items():
            if g.coeff(frozenset()) != 1:
                raise ValueError(f"function for {e} has empty-set mass {g.coeff(frozenset())} != 1")
            if g.degree() > self.z:
                raise ValueError(f"function for {e} has support above level z={self.z}")
            if not is_edge_invariant(g, e):
                raise ValueError(f"function for {e} is not {e}-invariant")
        return self


def build_invariant_family(graph: InputGraph, z: int, seed: int = 0) -> tuple:
    """Full pipeline: base function plus one extension per graph edge."""
    g, table, diag = build_base_function(graph, z, seed)
    functions, shared = {}, {}
    for e in graph.edges:
        ge = functions[e] = extend_invariant(g, e, z)
        # the extensions of edges with one anchor vertex share their level-z sets
        ge._coeffs = {shared.setdefault(V, V) if len(V) == z else V: c for V, c in ge.coeffs.items()}
    return InvariantFamily(graph, z, functions, base=g), table, diag


@dataclass
class CertificateReport:
    value: float
    max_sum: Fraction
    argmax_edge: tuple
    e0: tuple
    z: int
    n: int
    edge_count: int
    hypothesis_clean: bool  # z <= sqrt(n)/2 - 1

    def to_json(self):
        return {
            "certificate": self.value,
            "max_sum": float(self.max_sum),
            "argmax_edge": list(self.argmax_edge),
            "e0": list(self.e0),
            "z": self.z,
            "n": self.n,
            "edge_count": self.edge_count,
            "hypothesis_clean": self.hypothesis_clean,
        }


def default_e0(graph: InputGraph):
    """First edge on a shortest s->t path; deterministic."""
    path = graph.shortest_st_path()
    if path is None:
        raise ValueError("graph has no s->t path")
    return (path[0], path[1])


def lower_bound_certificate(graph: InputGraph, family: InvariantFamily, e0=None) -> CertificateReport:
    """Certified lower bound on the size of any sound monotone network
    accepting every permuted copy of the graph:

        2 / (|E| - 1) * (max over e != e0 of the bound sum for g_e - g_e0) ** -1/2

    The bound is rigorous whenever the hypothesis flag is clean.
    """
    family.validate()
    edges = family.graph.sorted_edges()
    if e0 is None:
        e0 = default_e0(family.graph)
    if e0 not in family.graph.edges:
        raise ValueError(f"e0 {e0!r} is not a graph edge")
    if len(edges) < 2:
        raise ZeroDivisionError("family needs at least two edges")
    # the bound sum is a quadratic form, so it runs on integer numerators over
    # one family denominator and the maximum divides by its square once
    den = common_denominator(c for g in family.functions.values() for c in g.coeffs.values())

    def numerators(g):
        return {V: c.numerator * (den // c.denominator) for V, c in g.coeffs.items()}

    base = numerators(family.functions[e0])
    best, best_edge = 0, None
    for e in edges:
        if e == e0:
            continue
        diff = numerators(family.functions[e])
        for V, c in base.items():
            diff[V] = diff.get(V, 0) - c
        val = permutation_bound_sum(CutFunction(family.graph.n, coeffs=diff), family.z)
        if val > best:
            best, best_edge = val, e
    if best == 0:
        raise ZeroDivisionError("degenerate family: every difference vanishes")
    best /= den * den
    value = (2 / (len(edges) - 1)) / math.sqrt(float(best))
    return CertificateReport(
        value=value,
        max_sum=best,
        argmax_edge=best_edge,
        e0=e0,
        z=family.z,
        n=family.graph.n,
        edge_count=len(edges),
        hypothesis_clean=4 * (family.z + 1) ** 2 <= family.graph.n,
    )


def _linkage_depth(z: int) -> int:
    """Path length 2**(z-2) within which the linkage degree m is counted; 0 for z < 2."""
    return 2 ** (z - 2) if z >= 2 else 0


def low_connectivity_hypotheses(graph: InputGraph, z: int) -> dict:
    """The structural hypotheses behind the closed-form bound, as flags;
    build_base_function enforces `acyclic` and `no_short_st_path` and
    records the linkage flags in its diagnostics."""
    depth = _linkage_depth(z)
    m = graph.linkage_degree(depth) if depth else 0
    d = graph.distance("s", "t")
    return {
        "acyclic": graph.is_acyclic(),
        "has_st_path": d is not None,
        "no_short_st_path": d is None or d > 2 ** (z - 1),
        "linkage_m": m,
        "m_small_enough": m * 2000 * z**4 <= graph.n,
    }


def closed_form_lower_bound(n: int, m: int, z: int, edge_count: int) -> float:
    """(9mn)^{1/4} / (20 |E| (z+1) sqrt(2^z z!)) * (n / 9m)^{z/4}."""
    if m <= 0 or edge_count <= 0 or z < 0 or n <= 0:
        raise ValueError("need positive n, m, edge_count and z >= 0")
    lead = (9 * m * n) ** 0.25
    denom = 20 * edge_count * (z + 1) * math.sqrt(2**z * math.factorial(z))
    return lead / denom * (n / (9 * m)) ** (z / 4)


@dataclass
class DiscrepancyReport:
    increments: dict  # (edge, path position) -> Fraction
    per_edge_totals: dict  # edge -> Fraction
    total: Fraction


def discrepancy_sum(network, path_edges, family: InvariantFamily, e0) -> DiscrepancyReport:
    """Progress discrepancy along an accepting s'-t' walk: summing the per-step
    jumps of every player except the one owning each step's label gives
    exactly 2 for a sound network and an invariant family."""
    if e0 not in family.graph.edges:
        raise ValueError(f"e0 {e0!r} is not a graph edge")
    for pe in path_edges:
        if pe.label not in family.graph.edges:
            raise ValueError(f"walk label {pe.label!r} outside the graph's edge set")
    if not network.is_sound():
        raise ValueError("discrepancy sums are meaningful for sound networks only")
    funcs = network.reachability_functions()

    cur = network.s_node
    deltas = []
    for pe in path_edges:
        if pe.u == cur:
            nxt = pe.v
        elif pe.v == cur:
            nxt = pe.u
        else:
            raise ValueError("walk edges are not contiguous from s'")
        deltas.append((funcs[nxt] - funcs[cur], pe.label))
        cur = nxt
    if cur != network.t_node:
        raise ValueError("walk does not end at t'")

    g0 = family.functions[e0]
    increments, per_edge = {}, {}
    total = Fraction(0)
    for e in family.graph.sorted_edges():
        if e == e0:
            continue
        diff = family.functions[e] - g0
        subtotal = Fraction(0)
        for i, (delta, label) in enumerate(deltas):
            if label != e:
                inc = delta.dot(diff)
                increments[(e, i)] = inc
                subtotal += inc
        per_edge[e] = subtotal
        total += subtotal
    return DiscrepancyReport(increments=increments, per_edge_totals=per_edge, total=total)


def representative(graph: InputGraph, z: int, V, rng=None):
    """Normal form of a vertex set under the short-path reductions: drop a
    vertex with a relevant in-edge from the rest + s, or jump to TOP when a
    relevant edge into t exists.  The result is reduction-order independent;
    a seeded rng exercises different orders."""
    current = set(V)
    if len(current) >= z:
        raise ValueError("representatives are defined for |V| < z")
    while True:
        edges = relevant_edges(graph, z, len(current), 0, current)
        heads = {head for _, head in edges}
        moves = [("top", v) for v in sorted(current) if (v, "t") in edges]
        moves += [("drop", w) for w in sorted(current) if w in heads]
        if not moves:
            return frozenset(current)
        move = rng.choice(moves) if rng is not None else moves[0]
        if move[0] == "top":
            return REPRESENTATIVE_TOP
        current.discard(move[1])
