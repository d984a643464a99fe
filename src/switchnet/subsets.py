"""Colexicographic ranking of k-subsets of {1..n}.

Subsets are handled as sorted tuples of 1-based vertex ids.  Colex order
compares the largest differing element, so ranks do not depend on n and
rank/unrank run in O(k) with no precomputed tables.
"""

from itertools import combinations
from math import comb


def colex_rank(subset) -> int:
    """Rank of a subset of {1..n} among same-size subsets, colex order."""
    elems = sorted(subset)
    return sum(comb(v - 1, i + 1) for i, v in enumerate(elems))


def colex_unrank(rank: int, k: int) -> tuple:
    """Inverse of colex_rank: the k-subset with the given rank."""
    if rank < 0 or k < 0:
        raise ValueError("rank and k must be nonnegative")
    out = []
    r = rank
    for i in range(k, 0, -1):
        # largest v with comb(v-1, i) <= r
        v = i
        while comb(v, i) <= r:
            v += 1
        out.append(v)
        r -= comb(v - 1, i)
    if r != 0:
        raise ValueError(f"rank {rank} invalid for k={k}")
    return tuple(reversed(out))


def k_subsets(n: int, k: int):
    """All k-subsets of {1..n} as sorted tuples, in colex order."""
    if k < 0 or k > n:
        return []
    return sorted(combinations(range(1, n + 1), k), key=lambda s: s[::-1])


def superset_ranks(n: int, k: int):
    """The inclusion map P_k: for each k-subset A of {1..n}, in colex order,
    the colex indices of its (k+1)-supersets A + b, ascending.

    Adding b keeps the p elements below b in place, puts b at position p+1
    and moves each element above b up one position.  Colex order puts A + b
    before A + b' when b < b', so walking b upward lists the supersets in
    ascending order.
    """
    out = []
    for A in k_subsets(n, k):
        below, above = 0, sum(comb(a - 1, i + 2) for i, a in enumerate(A))
        ranks, p = [], 0
        for b in range(1, n + 1):
            if p < k and A[p] == b:
                below += comb(b - 1, p + 1)
                above -= comb(b - 1, p + 2)
                p += 1
            else:
                ranks.append(below + comb(b - 1, p + 1) + above)
        out.append(ranks)
    return out
