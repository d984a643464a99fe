"""Coefficient sum statistics and the permutation-average identity.

For a function g on cuts, s_single(g, A, u) sums the Fourier coefficient
of g over all supersets of A of size |A| + u.  The triple sums
s_triple(g1, g2, k, u1, u2) run over disjoint (A, B, C) with those sizes
and multiply coeff(A|B) by coeff(A|C).  These feed the exact formula for
the average of (f . sigma(g))**2 over all permutations sigma, and the
upper bounds used by the lower-bound certificates.

The pair sums read a scatter table (`scatter_sums`): one pass over the
coefficients adds each integer numerator, over the function's common
denominator, to every k-subset of its set.  `s_single` is the
definitional gather, one level scan per subset A.
"""

from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .cuts import CutFunction, Permutation, integer_coeffs

BRUTEFORCE_CAP = 8  # the brute force walks n! permutations; refuse beyond this


def s_single(g: CutFunction, A, u: int):
    """Sum of coeff(A | B) over B disjoint from A with |B| = u; 0 for u < 0."""
    if u < 0:
        return Fraction(0)
    A = frozenset(A)
    target = len(A) + u
    total = Fraction(0)
    for V, c in g.coeffs.items():
        if len(V) == target and A <= V:
            total += c
    return total


def scatter_sums(g: CutFunction, keys):
    """(den, {(k, u): {A: numerator}}) for the requested (k, u) pairs: the
    numerator at the sorted k-tuple A is den * s_single(g, A, u), and
    k-subsets whose sum has no term are absent.  den is the lcm of the
    denominators of g's coefficients; pairs with k or u negative stay empty."""
    den, nums = integer_coeffs(g.coeffs)
    keys = {(k, u) for k, u in keys}
    table = {key: defaultdict(int) for key in keys}
    ks_at = defaultdict(list)  # level |V| -> the k whose (k, |V| - k) is requested
    for k, u in keys:
        if k >= 0 and u >= 0:
            ks_at[k + u].append(k)
    for V, num in nums.items():
        ks = ks_at.get(len(V))
        if ks:
            members = sorted(V)
            for k in ks:
                sums = table[(k, len(V) - k)]
                for A in combinations(members, k):
                    sums[A] += num
    return den, table


def _triple_table(g1: CutFunction, g2: CutFunction):
    """Accumulate coeff pairs into {(k, u1, u2): sum}, keyed by the sizes of
    (V1 & V2, V1 - V2, V2 - V1)."""
    table = {}
    for V1, c1 in g1.coeffs.items():
        for V2, c2 in g2.coeffs.items():
            a = len(V1 & V2)
            key = (a, len(V1) - a, len(V2) - a)
            table[key] = table.get(key, Fraction(0)) + c1 * c2
    return table


def s_triple(g1: CutFunction, g2: CutFunction, k: int, u1: int, u2: int):
    """Definitional triple-disjoint sum; 0 when any index is negative."""
    if k < 0 or u1 < 0 or u2 < 0:
        return Fraction(0)
    return _triple_table(g1, g2).get((k, u1, u2), Fraction(0))


def triple_from_singles(g1: CutFunction, g2: CutFunction, k: int, u1: int, u2: int):
    """Inverse-binomial reconstruction of the triple sum from single sums:

    sum_{u >= 0} (-1)**u C(k+u, u) sum_{|A| = k+u} s_single(g1, A, u1-u) s_single(g2, A, u2-u)

    Must equal s_triple exactly; the alternating binomial identity makes the
    overcounting telescope.
    """
    n = g1.n
    total = Fraction(0)
    for u in range(0, min(u1, u2) + 1):
        size = k + u
        if size > n:
            break
        inner = Fraction(0)
        for A in combinations(range(1, n + 1), size):
            a = s_single(g1, A, u1 - u)
            if a == 0:
                continue
            b = s_single(g2, A, u2 - u)
            if b != 0:
                inner += a * b
        total += (-1) ** u * comb(k + u, u) * inner
    return total


def pair_sum(g1: CutFunction, g2: CutFunction, k: int, u1: int, u2: int):
    """sum over |A| = k of s_single(g1, A, u1) * s_single(g2, A, u2)."""
    if g2 is g1:
        den1, table1 = den2, table2 = scatter_sums(g1, [(k, u1), (k, u2)])
    else:
        den1, table1 = scatter_sums(g1, [(k, u1)])
        den2, table2 = scatter_sums(g2, [(k, u2)])
    a, b = table1[(k, u1)], table2[(k, u2)]
    if len(b) < len(a):
        a, b = b, a
    return Fraction(sum(x * b[A] for A, x in a.items() if A in b), den1 * den2)


def pair_sum_from_triples(g1: CutFunction, g2: CutFunction, k: int, u1: int, u2: int):
    """Forward identity: sum_A s_single products as a binomial sum of triples."""
    table = _triple_table(g1, g2)
    total = Fraction(0)
    for u in range(0, min(u1, u2) + 1):
        total += comb(k + u, u) * table.get((k + u, u1 - u, u2 - u), Fraction(0))
    return total


def sum_of_squares(g: CutFunction, k: int, u: int):
    """sum over |A| = k of s_single(g, A, u)**2."""
    return pair_sum(g, g, k, u, u)


def square_sum_binomial_bound(g: CutFunction, k: int, u: int):
    """Cauchy-Schwarz bound C(n-k, u) C(k+u, u) sum_{|B|=k+u} coeff(B)**2
    dominating sum_of_squares(g, k, u)."""
    n = g.n
    level = sum((c * c for V, c in g.coeffs.items() if len(V) == k + u), start=Fraction(0))
    return comb(n - k, u) * comb(k + u, u) * level


def alternating_binomial_sum(j: int, m: int) -> int:
    """sum_{u=0..m} (-1)**(m-u) C(j+u, u) C(j+m, m-u); 1 when m = 0, else 0."""
    return sum((-1) ** (m - u) * comb(j + u, u) * comb(j + m, m - u) for u in range(m + 1))


def permutation_average_formula(f: CutFunction, g: CutFunction):
    """E over all permutations sigma of (f . sigma(g))**2, computed exactly as

    sum_{k,u1,u2} k! u1! u2! (n-k-u1-u2)! / n! * s_triple(f,f,...) * s_triple(g,g,...)
    """
    if f.n != g.n:
        raise ValueError("functions must share n")
    n = f.n
    tf = _triple_table(f, f)
    tg = _triple_table(g, g)
    nfact = factorial(n)
    total = Fraction(0)
    for key, sf in tf.items():
        sg = tg.get(key)
        if sg is None:
            continue
        k, u1, u2 = key
        if k + u1 + u2 > n:
            continue
        weight = Fraction(
            factorial(k) * factorial(u1) * factorial(u2) * factorial(n - k - u1 - u2), nfact
        )
        total += weight * sf * sg
    return total


def permutation_average_bruteforce(f: CutFunction, g: CutFunction):
    """(1/n!) sum over every permutation sigma of (f . sigma(g))**2."""
    if f.n != g.n:
        raise ValueError("functions must share n")
    if f.n > BRUTEFORCE_CAP:
        raise ValueError(f"brute force refused for n={f.n} > {BRUTEFORCE_CAP}")
    n = f.n
    total = Fraction(0)
    for sigma in Permutation.all(n):
        d = f.dot(g.permuted(sigma))
        total += d * d
    return total / factorial(n)


def permutation_bound_sum(g: CutFunction, z: int):
    """2(z+1) sum_{k,u} 2**k (k+u)! / n**(k+u) * sum_{|A|=k} s_single(g,A,u)**2.

    This is the coefficient of ||f|| in the permutation-average upper bound
    for functions g supported on levels <= z.
    """
    n = g.n
    keys = [(k, u) for k in range(0, z + 1) for u in range(0, z - k + 1)]
    den, table = scatter_sums(g, keys)
    total = Fraction(0)
    for k, u in keys:
        sq = sum(x * x for x in table[(k, u)].values())
        if sq != 0:
            total += Fraction(2**k * factorial(k + u) * sq, n ** (k + u))
    return 2 * (z + 1) * total / (den * den)


def permutation_bound(g: CutFunction, z: int):
    """The bound coefficient plus a flag for the z <= sqrt(n)/2 - 1 hypothesis.

    Returns (value, hypothesis_ok).  Degree above z is a caller error; the
    hypothesis often fails at desk-scale n, so it is reported, not enforced.
    """
    if g.degree() > z:
        raise ValueError(f"function has coefficients above level z={z}")
    hypothesis_ok = 4 * (z + 1) ** 2 <= g.n  # z <= sqrt(n)/2 - 1
    return permutation_bound_sum(g, z), hypothesis_ok
