from itertools import combinations

import pytest

from switchnet.subsets import colex_rank, colex_unrank, k_subsets, superset_ranks


def test_rank_matches_enumeration_order():
    for n in range(1, 9):
        for k in range(0, n + 1):
            subs = k_subsets(n, k)
            assert [colex_rank(s) for s in subs] == list(range(len(subs)))


def test_unrank_inverts_rank():
    for n in range(1, 9):
        for k in range(0, n + 1):
            for s in combinations(range(1, n + 1), k):
                assert colex_unrank(colex_rank(s), k) == tuple(sorted(s))


def test_rank_independent_of_n():
    # colex rank of {2,5} is the same whether the ground set is {1..5} or {1..9}
    assert colex_rank((2, 5)) == k_subsets(9, 2).index((2, 5))


def test_unrank_rejects_bad_input():
    with pytest.raises(ValueError):
        colex_unrank(-1, 2)


def test_superset_ranks_match_ranked_unions():
    for n in range(0, 9):
        for k in range(0, n):
            expected = [sorted(colex_rank(A + (b,)) for b in range(1, n + 1) if b not in A) for A in k_subsets(n, k)]
            assert superset_ranks(n, k) == expected
