from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchnet import lowerbound
from switchnet.spectral import (
    SingularSystemError,
    inclusion_matrix,
    johnson_spectrum,
    min_norm_solve,
    restricted_gram_min_eigenvalue,
)

from conftest import layered_dag, rationals


class TestInclusionMatrix:
    def test_n3_k1_rows(self):
        inc = inclusion_matrix(3, 1)
        assert inc.rows == [(1,), (2,), (3,)]
        assert inc.cols == [(1, 2), (1, 3), (2, 3)]
        assert inc.toarray().tolist()[0] == [1, 1, 0]

    def test_row_and_column_sums(self):
        for n in range(2, 8):
            for k in range(0, n):
                m = inclusion_matrix(n, k).toarray()
                assert np.all(m.sum(axis=1) == n - k)
                assert np.all(m.sum(axis=0) == k + 1)

    def test_n4_k1_gram(self):
        m = inclusion_matrix(4, 1).toarray()
        gram = m @ m.T
        assert np.array_equal(gram, 2 * np.eye(4) + np.ones((4, 4)))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            inclusion_matrix(3, 3)


class TestJohnsonSpectrum:
    def test_n4_k1(self):
        assert johnson_spectrum(4, 1) == [(6, 1), (2, 3)]

    def test_n5_k2(self):
        spectrum = johnson_spectrum(5, 2)
        assert spectrum == [(9, 1), (4, 4), (1, 5)]
        assert sum(v * m for v, m in spectrum) == 30  # trace = C(5,2) * 3

    def test_smallest_eigenvalue_is_n_minus_2k(self):
        for n in range(3, 10):
            for k in range(0, (n - 1) // 2 + 1):
                if 2 * k < n:
                    assert johnson_spectrum(n, k)[-1][0] == n - 2 * k

    def test_multiplicities_sum_to_dimension(self):
        for n in range(2, 11):
            for k in range(0, n):
                if 2 * k < n:
                    spectrum = johnson_spectrum(n, k)
                    assert sum(m for _, m in spectrum) == comb(n, k)
                    assert sum(v * m for v, m in spectrum) == (n - k) * comb(n, k)

    def test_numeric_eigensolve_matches(self):
        for n in range(2, 9):
            for k in range(0, n):
                if 2 * k >= n:
                    continue
                m = inclusion_matrix(n, k).toarray()
                eigs = np.linalg.eigvalsh(m @ m.T)
                for value, mult in johnson_spectrum(n, k):
                    assert int(np.sum(np.abs(eigs - value) < 1e-8)) == mult

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            johnson_spectrum(4, 2)


class TestRestrictedGram:
    def test_unrestricted_matches_johnson(self):
        for n, k in [(6, 1), (8, 2), (10, 2)]:
            rep = restricted_gram_min_eigenvalue(n, k)
            assert rep.min_eigenvalue == pytest.approx(n - 2 * k, abs=1e-8)

    def test_n10_k2(self):
        rep = restricted_gram_min_eigenvalue(10, 2)
        assert rep.min_eigenvalue == pytest.approx(6, abs=1e-8)
        assert rep.hypotheses_hold  # no bad data: m = 0 suffices
        assert rep.conclusion_holds  # 6 >= 10/2

    def test_deleted_vertices_shift_spectrum(self):
        rep = restricted_gram_min_eigenvalue(12, 1, bad_vertices={1, 2})
        assert rep.rows_kept == 10
        assert rep.min_eigenvalue == pytest.approx(8, abs=1e-8)

    def test_bad_pairs_reported(self):
        rep = restricted_gram_min_eigenvalue(8, 1, bad_pairs={(1, 2)})
        assert rep.max_bad_partners == 1
        assert not rep.hypotheses_hold  # m = 1 needs n >= 2000 k^3
        # oracle: rebuild the same restriction and eigensolve directly
        inc = inclusion_matrix(8, 1)
        keep = [j for j, b in enumerate(inc.cols) if not {1, 2} <= set(b)]
        m = inc.toarray()[:, keep]
        assert rep.min_eigenvalue == pytest.approx(float(np.linalg.eigvalsh(m @ m.T)[0]), abs=1e-10)

    def test_empty_restriction_rejected(self):
        with pytest.raises(ValueError):
            restricted_gram_min_eigenvalue(3, 1, bad_vertices={1, 2, 3})


class TestMinNormSolve:
    def test_symmetric_split(self):
        y = min_norm_solve([[1, 1]], [2])
        assert y == [Fraction(1), Fraction(1)]

    def test_identity(self):
        y = min_norm_solve([[1, 0], [0, 1]], [Fraction(3), Fraction(5)])
        assert y == [Fraction(3), Fraction(5)]

    def test_exact_residual_and_witness(self, rng):
        for _ in range(20):
            r, c = rng.randint(1, 3), rng.randint(3, 6)
            P = [[Fraction(rng.randint(-3, 3)) for _ in range(c)] for _ in range(r)]
            if _exact_rank(P) < r:
                continue
            x = [Fraction(rng.randint(-5, 5)) for _ in range(r)]
            y, w = min_norm_solve(P, x, return_witness=True)
            assert [sum(row[j] * y[j] for j in range(c)) for row in P] == x
            # row-space membership: y = P^T w
            assert y == [sum(P[i][j] * w[i] for i in range(r)) for j in range(c)]

    def test_float_mode_residual_and_norm_bound(self, rng):
        for _ in range(20):
            r, c = rng.randint(1, 4), rng.randint(4, 8)
            P = np.array([[rng.gauss(0, 1) for _ in range(c)] for _ in range(r)])
            x = np.array([rng.gauss(0, 1) for _ in range(r)])
            y = min_norm_solve(P, x)
            assert np.linalg.norm(P @ y - x) <= 1e-10 * max(np.linalg.norm(x), 1.0)
            lam_min = float(np.linalg.eigvalsh(P @ P.T)[0])
            assert y @ y <= x @ x / lam_min * (1 + 1e-9)

    def test_minimality_against_alternatives(self, rng):
        # any other exact solution has norm at least as large
        P = [[1, 1, 0], [0, 1, 1]]
        x = [Fraction(2), Fraction(2)]
        y = min_norm_solve(P, x)
        norm = sum(v * v for v in y)
        for a in range(-3, 4):
            alt = [Fraction(a), 2 - Fraction(a), Fraction(a)]
            assert sum(v * v for v in alt) >= norm

    def test_singular_rejected(self):
        with pytest.raises(SingularSystemError):
            min_norm_solve([[1, 1], [1, 1]], [1, 2])
        with pytest.raises(SingularSystemError):
            min_norm_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))

    def test_inconsistent_float_detected(self):
        # make the residual check fire via a nearly-singular consistent-looking system
        P = np.array([[1.0, 0.0], [0.0, 1e-3]])
        y = min_norm_solve(P, np.array([1.0, 1.0]))
        assert np.allclose(P @ y, [1.0, 1.0])


def _exact_rank(P):
    rows = [list(map(Fraction, r)) for r in P]
    rank, ncols = 0, len(rows[0])
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def fraction_gauss_jordan(gram, rhs):
    """Gauss-Jordan elimination in Fraction arithmetic: the oracle of the
    Bareiss solve."""
    r = len(gram)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(gram)]
    for col in range(r):
        pivot = next((i for i in range(col, r) if aug[i][col] != 0), None)
        if pivot is None:
            raise SingularSystemError("normal matrix P P^T is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][r] for i in range(r)]


def oracle_min_norm(P, x):
    """(y, w) from the Fraction Gram and the Fraction Gauss-Jordan solve."""
    r, c = len(P), len(P[0])
    gram = [[sum((Fraction(a) * b for a, b in zip(P[i], P[j])), start=Fraction(0)) for j in range(r)]
            for i in range(r)]
    w = fraction_gauss_jordan(gram, x)
    return [sum((P[i][j] * w[i] for i in range(r)), start=Fraction(0)) for j in range(c)], w


def assert_matches_oracle(P, x):
    try:
        expected = oracle_min_norm(P, x)
    except SingularSystemError:
        with pytest.raises(SingularSystemError):
            min_norm_solve(P, x)
        return
    y, w = min_norm_solve(P, x, return_witness=True)
    assert (y, w) == expected
    assert all(isinstance(v, Fraction) for v in y + w)


class TestIntegerSolve:
    """The integer Gram and Bareiss solve against the Fraction oracle."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 10), st.data())
    def test_zero_one_matrices(self, r, c, data):
        P = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=c, max_size=c), min_size=r, max_size=r))
        x = data.draw(st.lists(rationals(), min_size=r, max_size=r))
        assert_matches_oracle(P, x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 7), st.data())
    def test_rational_matrices(self, r, c, data):
        P = data.draw(st.lists(st.lists(rationals(), min_size=c, max_size=c), min_size=r, max_size=r))
        x = data.draw(st.lists(rationals(), min_size=r, max_size=r))
        assert_matches_oracle(P, x)

    def test_numerators_past_64_bits_are_exact(self):
        big = 2**70 + 3
        P = [[Fraction(big, 3), 1, 0, Fraction(1, big)], [0, 1, Fraction(-big, 7), 2], [1, 1, 1, 1]]
        x = [Fraction(big * big, 5), -big, Fraction(1, 3)]
        y, w = min_norm_solve(P, x, return_witness=True)
        assert (y, w) == oracle_min_norm(P, x)
        assert max(abs(v.numerator) for v in y) > 2**63
        assert [sum(a * b for a, b in zip(row, y)) for row in P] == x

    @pytest.mark.parametrize("dims, z", [((2, 2, 2, 9), 3), ((3, 3, 2, 10), 3)])
    def test_base_function_systems(self, monkeypatch, dims, z):
        systems = []

        def recording(P, x, **kwargs):
            systems.append(([list(row) for row in P], list(x)))
            return min_norm_solve(P, x, **kwargs)

        monkeypatch.setattr(lowerbound, "min_norm_solve", recording)
        lowerbound.build_base_function(layered_dag(*dims), z)
        assert systems
        for P, x in systems:
            assert_matches_oracle(P, x)
