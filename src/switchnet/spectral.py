"""Inclusion matrices between subset levels, their Gram spectra, and
minimum-norm solves.

P_k has one row per k-subset and one column per (k+1)-subset of {1..n}
(colex-ranked), with a 1 exactly where the row subset is contained in the
column subset.  P_k P_k^T carries the Johnson-scheme spectrum
(n-k-i)(k+1-i) with multiplicity C(n,i) - C(n,i-1).

Solves come in two modes: exact rationals for the construction pipeline
(an integer Gram over cleared denominators, solved by fraction-free
Bareiss elimination), and floating point with a residual contract for
diagnostics.  numpy is imported only by the floating-point code.
"""

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cuts import common_denominator
from .subsets import k_subsets

DEFAULT_TOL = 1e-10


class InclusionMatrix:
    """Sparse 0/1 inclusion structure of k-subsets into (k+1)-subsets."""

    def __init__(self, n: int, k: int):
        if not 0 <= k < n:
            raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
        self.n = n
        self.k = k
        self.rows = k_subsets(n, k)
        self.cols = k_subsets(n, k + 1)
        col_index = {c: j for j, c in enumerate(self.cols)}
        self.row_cols = []  # per row, the column indices of its supersets
        for A in self.rows:
            present = set(A)
            cols = []
            for v in range(1, n + 1):
                if v not in present:
                    cols.append(col_index[tuple(sorted(A + (v,)))])
            self.row_cols.append(sorted(cols))

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))

    def toarray(self, dtype=float):
        import numpy as np

        m = np.zeros(self.shape, dtype=dtype)
        for i, cols in enumerate(self.row_cols):
            for j in cols:
                m[i, j] = 1
        return m


def inclusion_matrix(n: int, k: int) -> InclusionMatrix:
    return InclusionMatrix(n, k)


def johnson_spectrum(n: int, k: int):
    """Eigenvalues of P_k P_k^T with multiplicities, largest eigenvalue first.

    Requires k < n/2 (below that the Gram matrix is nonsingular).
    """
    if not 2 * k < n:
        raise ValueError(f"need k < n/2, got k={k}, n={n}")
    return [((n - k - i) * (k + 1 - i), comb(n, i) - (comb(n, i - 1) if i >= 1 else 0))
            for i in range(k + 1)]


@dataclass
class RestrictedGramReport:
    min_eigenvalue: float
    n: int
    k: int
    rows_kept: int
    cols_kept: int
    bad_vertex_count: int
    max_bad_partners: int
    hypotheses_hold: bool
    conclusion_holds: bool


def restricted_gram_min_eigenvalue(n: int, k: int, bad_vertices=(), bad_pairs=()) -> RestrictedGramReport:
    """Minimum eigenvalue of P P^T after deleting rows/columns that contain a
    bad vertex or a bad pair.  The report flags whether the sparsity
    hypotheses hold (|bad vertices| < n/4 and partner degree
    <= n / (2000 k^3)) and whether the min eigenvalue reaches n/2;
    under the hypotheses it always does.
    """
    import numpy as np

    bad_vertices = set(bad_vertices)
    bad_pairs = {frozenset(p) for p in bad_pairs}
    inc = InclusionMatrix(n, k)

    def clean(subset):
        s = set(subset)
        if s & bad_vertices:
            return False
        return not any(p <= s for p in bad_pairs)

    keep_rows = [i for i, A in enumerate(inc.rows) if clean(A)]
    keep_cols = [j for j, B in enumerate(inc.cols) if clean(B)]
    if not keep_rows or not keep_cols:
        raise ValueError("restriction deleted every row or column")
    P = inc.toarray()[np.ix_(keep_rows, keep_cols)]
    gram = P @ P.T
    eigs = np.linalg.eigvalsh(gram)
    min_eig = float(eigs[0])

    partners = {}
    for p in bad_pairs:
        a, b = tuple(p)
        if a in bad_vertices or b in bad_vertices:
            continue
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    max_partners = max((len(v) for v in partners.values()), default=0)
    hypotheses = len(bad_vertices) < n / 4 and (k == 0 or max_partners <= n / (2000 * k**3))
    return RestrictedGramReport(
        min_eigenvalue=min_eig,
        n=n,
        k=k,
        rows_kept=len(keep_rows),
        cols_kept=len(keep_cols),
        bad_vertex_count=len(bad_vertices),
        max_bad_partners=max_partners,
        hypotheses_hold=hypotheses,
        conclusion_holds=min_eig >= n / 2,
    )


class SingularSystemError(ValueError):
    pass


class InconsistentSystemError(ValueError):
    pass


def _bareiss_solve(gram, rhs):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of an integer
    system: (numerators, d) with gram * numerators = d * rhs, where d is the
    determinant up to sign.  Every division by the previous pivot is exact.
    Raises SingularSystemError when a column has no pivot.

    Columns left of the pivot are never read again and are not updated:
    they hold d on the diagonal and 0 elsewhere."""
    r = len(gram)
    aug = [list(row) + [b] for row, b in zip(gram, rhs)]
    prev = 1
    for col in range(r):
        pivot = next((i for i in range(col, r) if aug[i][col]), None)
        if pivot is None:
            raise SingularSystemError("normal matrix P P^T is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col][col:]
        pv = top[0]
        for i, row in enumerate(aug):
            if i != col:
                f = row[col]
                row[col:] = [(pv * a - f * b) // prev for a, b in zip(row[col:], top)]
        prev = pv
    return [row[r] for row in aug], prev


def min_norm_solve(P, x, return_witness: bool = False):
    """Minimum-norm y with P y = x for a full-row-rank P.

    The solution is y = P^T w with (P P^T) w = x, which places y in the row
    space of P.  Exact mode (any Fraction/int entries) scales P and x to
    integers by the lcm of their denominators, forms the integer Gram from
    each column's nonzero entries, solves it by Bareiss elimination and maps
    back with one pass over each row's nonzero columns; float mode checks
    the relative residual against DEFAULT_TOL.
    """
    rows = [list(r) for r in P]
    if not rows:
        raise ValueError("empty matrix")
    exact = all(isinstance(v, (int, Fraction)) for row in rows for v in row) and all(
        isinstance(v, (int, Fraction)) for v in x
    )
    r, c = len(rows), len(rows[0])
    if len(x) != r:
        raise ValueError("rhs length mismatch")
    if exact:
        # With P = Q / dp and x = b / dx for integer Q and b: Q Q^T u = e b
        # gives w = dp^2 u / (dx e) and y = P^T w = dp Q^T u / (dx e).
        nonzero = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
        dp = common_denominator(v for row in nonzero for _, v in row)
        dx = common_denominator(x)
        q = [[(j, v.numerator * (dp // v.denominator)) for j, v in row] for row in nonzero]
        by_col = defaultdict(list)
        for i, row in enumerate(q):
            for j, v in row:
                by_col[j].append((i, v))
        gram = [[0] * r for _ in range(r)]
        for entries in by_col.values():
            for i, a in entries:
                gram_i = gram[i]
                for j, b in entries:
                    gram_i[j] += a * b
        u, e = _bareiss_solve(gram, [b.numerator * (dx // b.denominator) for b in x])
        acc = [0] * c
        for i, row in enumerate(q):
            for j, a in row:
                acc[j] += a * u[i]
        y = [Fraction(dp * t, dx * e) for t in acc]
        # exact arithmetic: P y = (P P^T) w = x identically
        if return_witness:
            return y, [Fraction(dp * dp * t, dx * e) for t in u]
        return y
    import numpy as np

    A = np.asarray(rows, dtype=float)
    b = np.asarray(x, dtype=float)
    gram = A @ A.T
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= DEFAULT_TOL * max(eigs[-1], 1.0):
        raise SingularSystemError("normal matrix P P^T is numerically singular")
    w = np.linalg.solve(gram, b)
    y = A.T @ w
    resid = np.linalg.norm(A @ y - b)
    if resid > DEFAULT_TOL * max(np.linalg.norm(b), 1.0):
        raise InconsistentSystemError(f"residual {resid:.3e} above tolerance")
    return (y, w) if return_witness else y
