from fractions import Fraction
from itertools import combinations
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st
import random

from switchnet.cuts import CutFunction
from switchnet.subsets import k_subsets
from switchnet.sums import (
    alternating_binomial_sum,
    permutation_bound,
    pair_sum,
    pair_sum_from_triples,
    permutation_average_bruteforce,
    permutation_average_formula,
    permutation_bound_sum,
    s_single,
    scatter_sums,
    s_triple,
    square_sum_binomial_bound,
    sum_of_squares,
    triple_from_singles,
)

from conftest import random_sparse_function, sparse_functions


def brute_s_triple(g1, g2, k, u1, u2):
    """Oracle: enumerate disjoint (A, B, C) directly from the definition."""
    n = g1.n
    total = Fraction(0)
    verts = list(range(1, n + 1))
    for A in combinations(verts, k):
        rest = [v for v in verts if v not in A]
        for B in combinations(rest, u1):
            rest2 = [v for v in rest if v not in B]
            for C in combinations(rest2, u2):
                total += g1.coeff(frozenset(A + B)) * g2.coeff(frozenset(A + C))
    return total


class TestSingleSums:
    def test_constant_function(self):
        g = CutFunction.constant(4, Fraction(1))
        assert s_single(g, set(), 0) == 1
        assert s_single(g, set(), 1) == 0

    def test_negative_u_convention(self, rng):
        g = random_sparse_function(4, rng)
        assert s_single(g, {1}, -1) == 0

    def test_averaging_recurrence(self, rng):
        # s(A, u) = (1/u) sum over b outside A of s(A + b, u - 1)
        for _ in range(10):
            g = random_sparse_function(6, rng)
            for k in range(0, 3):
                for u in range(1, 3):
                    for A in k_subsets(6, k):
                        sa = frozenset(A)
                        lhs = s_single(g, sa, u)
                        rhs = sum(
                            (s_single(g, sa | {b}, u - 1) for b in range(1, 7) if b not in sa),
                            start=Fraction(0),
                        ) / u
                        assert lhs == rhs


class TestTripleSums:
    def test_constant_function(self):
        g = CutFunction.constant(4, Fraction(1))
        assert s_triple(g, g, 0, 0, 0) == 1
        assert s_triple(g, g, 1, 0, 0) == 0
        assert s_triple(g, g, 0, 1, 1) == 0

    def test_level_one_identity(self, rng):
        # k=0, u1=u2=1 reduces to (sum of level-1 coeffs)^2 - sum of squares
        for _ in range(10):
            g = random_sparse_function(6, rng)
            lvl = {V: c for V, c in g.coeffs.items() if len(V) == 1}
            total = sum(lvl.values())
            squares = sum(c * c for c in lvl.values())
            assert s_triple(g, g, 0, 1, 1) == total * total - squares

    def test_matches_definitional_oracle(self, rng):
        for _ in range(5):
            g1 = random_sparse_function(5, rng)
            g2 = random_sparse_function(5, rng)
            for k in range(0, 3):
                for u1 in range(0, 3):
                    for u2 in range(0, 3):
                        assert s_triple(g1, g2, k, u1, u2) == brute_s_triple(g1, g2, k, u1, u2)

    def test_forward_identity(self, rng):
        # sum over |A|=k of single products equals the binomial sum of triples
        for _ in range(5):
            g1 = random_sparse_function(6, rng)
            g2 = random_sparse_function(6, rng)
            for k in range(0, 3):
                for u1 in range(0, 3):
                    for u2 in range(0, 3):
                        assert pair_sum(g1, g2, k, u1, u2) == pair_sum_from_triples(
                            g1, g2, k, u1, u2
                        )

    def test_inverse_from_singles(self, rng):
        for _ in range(5):
            g1 = random_sparse_function(6, rng)
            g2 = random_sparse_function(6, rng)
            for k in range(0, 3):
                for u1 in range(0, 3):
                    for u2 in range(0, 3):
                        assert triple_from_singles(g1, g2, k, u1, u2) == s_triple(
                            g1, g2, k, u1, u2
                        )


class TestAlternatingBinomial:
    def test_zero_for_positive_m(self):
        for j in range(0, 8):
            for m in range(1, 8):
                assert alternating_binomial_sum(j, m) == 0

    def test_one_for_m_zero(self):
        for j in range(0, 8):
            assert alternating_binomial_sum(j, 0) == 1


class TestPermutationAverage:
    def test_fixed_character(self):
        e1 = CutFunction.character(4, {1})
        assert permutation_average_formula(e1, e1) == Fraction(1, 4)
        assert permutation_average_bruteforce(e1, e1) == Fraction(1, 4)

    def test_constant(self):
        f = CutFunction.constant(4, Fraction(1))
        assert permutation_average_formula(f, f) == 1
        assert permutation_average_bruteforce(f, f) == 1

    def test_orthogonal_levels(self):
        f = CutFunction.character(4, {1})
        g = CutFunction.character(4, {1, 2})
        assert permutation_average_bruteforce(f, g) == 0
        assert permutation_average_formula(f, g) == 0

    def test_formula_equals_bruteforce(self, rng):
        for n in (4, 5, 6):
            for _ in range(4):
                f = random_sparse_function(n, rng)
                g = random_sparse_function(n, rng)
                assert permutation_average_formula(f, g) == permutation_average_bruteforce(f, g)

    def test_bruteforce_size_guard(self):
        f = CutFunction.constant(9, Fraction(1))
        import pytest

        with pytest.raises(ValueError):
            permutation_average_bruteforce(f, f)


class TestBounds:
    def test_permutation_bound_single_term(self):
        for c in (Fraction(1), Fraction(-3, 2)):
            g = CutFunction.constant(5, c)
            value, _ = permutation_bound(g, 0)
            assert value == 2 * c * c

    def test_zero_function(self):
        value, _ = permutation_bound(CutFunction(5, coeffs={}), 2)
        assert value == 0

    def test_bound_dominates_average_for_unit_norm(self, rng):
        # E_sigma[(f . sigma(g))^2] <= bound * ||f|| with ||f|| = 1; exercised
        # at small n where the level hypothesis holds (z = 0, 1)
        n = 8
        for z in (0, 1):
            for _ in range(5):
                g = random_sparse_function(n, rng, max_level=z)
                f = CutFunction.character(n, frozenset(rng.sample(range(1, n + 1), 2)))
                bound, hypothesis_ok = permutation_bound(g, z)
                assert hypothesis_ok == (4 * (z + 1) ** 2 <= n)
                if hypothesis_ok:
                    assert permutation_average_bruteforce(f, g) <= bound

    def test_cauchy_schwarz_pair_bound(self, rng):
        # |sum_A s(A,u1) s(A,u2)|^2 <= (sum of squares)(sum of squares)
        for _ in range(10):
            g = random_sparse_function(6, rng)
            for k in range(0, 3):
                for u1 in range(0, 2):
                    for u2 in range(0, 2):
                        lhs = pair_sum(g, g, k, u1, u2)
                        assert lhs * lhs <= sum_of_squares(g, k, u1) * sum_of_squares(g, k, u2)

    def test_binomial_square_bound(self, rng):
        for _ in range(10):
            g = random_sparse_function(6, rng)
            for k in range(0, 3):
                for u in range(0, 3):
                    assert sum_of_squares(g, k, u) <= square_sum_binomial_bound(g, k, u)

    def test_degree_guard(self, rng):
        g = CutFunction.character(6, {1, 2, 3})
        import pytest

        with pytest.raises(ValueError):
            permutation_bound(g, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=5), st.integers(0, 10**6))
def test_triple_reconstruction_property(n, seed):
    rng = random.Random(seed)
    g1 = random_sparse_function(n, rng, terms=3)
    g2 = random_sparse_function(n, rng, terms=3)
    for k in range(0, 2):
        for u1 in range(0, 2):
            for u2 in range(0, 2):
                assert triple_from_singles(g1, g2, k, u1, u2) == s_triple(g1, g2, k, u1, u2)


def gather_pair_sum(g1, g2, k, u1, u2):
    """One s_single gather per k-subset and function: the oracle of the
    scatter-table pair sum."""
    total = Fraction(0)
    for A in combinations(range(1, g1.n + 1), k):
        a = s_single(g1, A, u1)
        if a == 0:
            continue
        b = s_single(g2, A, u2)
        if b != 0:
            total += a * b
    return total


def gather_bound_sum(g, z):
    n = g.n
    total = Fraction(0)
    for k in range(0, z + 1):
        for u in range(0, z - k + 1):
            sq = gather_pair_sum(g, g, k, u, u)
            if sq != 0:
                total += Fraction(2**k * factorial(k + u), n ** (k + u)) * sq
    return 2 * (z + 1) * total


class TestScatterSums:
    """The scatter table and the sums that read it against the gathers."""

    @settings(max_examples=50, deadline=None)
    @given(st.one_of(sparse_functions(max_n=7), sparse_functions(max_n=7, integral=True)))
    def test_table_matches_s_single(self, g):
        n = g.n
        keys = [(k, u) for k in range(n + 1) for u in range(n + 1 - k)]
        den, table = scatter_sums(g, keys)
        for k, u in keys:
            sums = table[(k, u)]
            assert all(len(A) == k for A in sums)
            for A in combinations(range(1, n + 1), k):
                assert Fraction(sums.get(A, 0), den) == s_single(g, A, u)

    @settings(max_examples=40, deadline=None)
    @given(sparse_functions(max_n=7), st.data())
    def test_pair_sum_matches_gather(self, g1, data):
        n = g1.n
        g2 = data.draw(sparse_functions(n=n, integral=True))
        k = data.draw(st.integers(0, n))
        u1, u2 = data.draw(st.integers(-1, n - k)), data.draw(st.integers(-1, n - k))
        assert pair_sum(g1, g2, k, u1, u2) == gather_pair_sum(g1, g2, k, u1, u2)
        assert pair_sum(g1, g1, k, u1, u2) == gather_pair_sum(g1, g1, k, u1, u2)
        assert sum_of_squares(g2, k, u2) == gather_pair_sum(g2, g2, k, u2, u2)

    @settings(max_examples=40, deadline=None)
    @given(sparse_functions(max_n=8), st.integers(0, 4))
    def test_bound_sum_matches_gather(self, g, z):
        assert permutation_bound_sum(g, z) == gather_bound_sum(g, z)
