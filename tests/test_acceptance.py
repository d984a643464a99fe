"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria with stated runtime budgets time themselves; every numeric claim
is checked at its stated tolerance (exact where exactness is claimed).
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from switchnet.cuts import (
    CutFunction,
    Permutation,
    crossing_mask,
    full_cut_mask,
    invariant_by_values,
)
from switchnet.graphs import InputGraph, all_distinct_permuted_copies, chain_with_lollipops, layered_dag
from switchnet.lowerbound import (
    InvariantFamily,
    build_base_function,
    closed_form_lower_bound,
    cutoff_case,
    cutoff_sum,
    discrepancy_sum,
    extend_invariant,
    lower_bound_certificate,
    relevant_edges,
    representative,
)
from switchnet.parity import (
    ONE,
    KFunction,
    accepting_walk,
    build_chain_lollipop,
    build_general_network,
)
from switchnet.pebbles import (
    max_middle_pebbles,
    min_pebble_number,
    savitch_bound,
    savitch_sequence,
)
from switchnet.spectral import inclusion_matrix, johnson_spectrum, min_norm_solve
from switchnet.subsets import k_subsets
from switchnet.sums import s_single, s_triple, triple_from_singles

from conftest import random_sparse_function


def report(index, label, ok):
    print(f"ACCEPTANCE {index:>2}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {index} failed: {label}"


def test_criterion_01_fourier_exactness():
    start = time.monotonic()
    rng = random.Random(101)
    ok = True
    count = 0
    for n in range(1, 11):
        for _ in range(10):
            count += 1
            f = random_sparse_function(n, rng)
            # Parseval: coefficient-domain dot equals the value-domain sum
            coeff_side = sum((c * c for c in f.coeffs.values()), start=Fraction(0))
            value_side = sum((v * v for v in f.values), start=Fraction(0)) * Fraction(1, 1 << n)
            ok &= coeff_side == value_side
            # orthonormality on character pairs drawn from the support
            pool = list(f.coeffs) or [frozenset()]
            for _ in range(4):
                V, W = rng.choice(pool), rng.choice(pool)
                eV, eW = CutFunction.character(n, V), CutFunction.character(n, W)
                ok &= eV.dot(eW) == (1 if V == W else 0)
            if n <= 4:
                for V in map(frozenset, _subsets(n)):
                    for W in map(frozenset, _subsets(n)):
                        ok &= CutFunction.character(n, V).dot(
                            CutFunction.character(n, W)
                        ) == (1 if V == W else 0)
    elapsed = time.monotonic() - start
    report(1, f"Parseval+orthonormality exact on {count} functions in {elapsed:.1f}s", ok and count >= 100 and elapsed < 10)


def test_criterion_02_permutation_average():
    from switchnet.sums import permutation_average_bruteforce, permutation_average_formula

    start = time.monotonic()
    rng = random.Random(202)
    ok = True
    pairs = 0
    for n, trials in ((4, 7), (5, 7), (6, 6)):
        for _ in range(trials):
            pairs += 1
            f = random_sparse_function(n, rng)
            g = random_sparse_function(n, rng)
            ok &= permutation_average_formula(f, g) == permutation_average_bruteforce(f, g)
    elapsed = time.monotonic() - start
    report(2, f"formula == n! brute force on {pairs} pairs in {elapsed:.1f}s", ok and pairs >= 20 and elapsed < 60)


def test_criterion_03_johnson_spectra():
    ok = johnson_spectrum(4, 1) == [(6, 1), (2, 3)]
    for n in range(1, 13):
        for k in range(0, n):
            if 2 * k >= n:
                continue
            P = inclusion_matrix(n, k).toarray()
            eigs = np.linalg.eigvalsh(P @ P.T)
            for value, mult in johnson_spectrum(n, k):
                ok &= int(np.sum(np.abs(eigs - value) < 1e-8)) == mult
    report(3, "Johnson spectra match numeric eigensolves for all n <= 12, k < n/2", ok)


def test_criterion_04_min_norm_solves():
    rng = random.Random(404)
    ok = True
    solved = 0
    while solved < 50:
        r = rng.randint(1, 4)
        c = rng.randint(r + 1, r + 5)
        exact = solved % 2 == 0
        if exact:
            P = [[Fraction(rng.randint(-3, 3)) for _ in range(c)] for _ in range(r)]
            gram = [[sum(P[i][j] * P[k][j] for j in range(c)) for k in range(r)] for i in range(r)]
            if _det_zero(gram):
                continue
            x = [Fraction(rng.randint(-5, 5)) for _ in range(r)]
            y = min_norm_solve(P, x)
            ok &= [sum(P[i][j] * y[j] for j in range(c)) for i in range(r)] == x
            lam_min = float(np.linalg.eigvalsh(np.array(gram, float))[0])
            ok &= float(sum(v * v for v in y)) <= float(sum(v * v for v in x)) / lam_min * (1 + 1e-9)
        else:
            P = np.array([[rng.gauss(0, 1) for _ in range(c)] for _ in range(r)])
            x = np.array([rng.gauss(0, 1) for _ in range(r)])
            y = min_norm_solve(P, x)
            ok &= np.linalg.norm(P @ y - x) <= 1e-10 * max(np.linalg.norm(x), 1.0)
            lam_min = float(np.linalg.eigvalsh(P @ P.T)[0])
            ok &= y @ y <= x @ x / lam_min * (1 + 1e-9)
        solved += 1
    report(4, "50 minimum-norm solves meet residual and norm contracts", ok)


def test_criterion_05_inverse_binomial_identity():
    rng = random.Random(505)
    ok = True
    for trial in range(50):
        n = rng.randint(3, 8)
        g1 = random_sparse_function(n, rng)
        g2 = random_sparse_function(n, rng)
        for k in range(0, 5):
            for u1 in range(0, 5 - k):
                for u2 in range(0, 5 - k):
                    if k + max(u1, u2) > 4:
                        continue
                    ok &= triple_from_singles(g1, g2, k, u1, u2) == s_triple(g1, g2, k, u1, u2)
    report(5, "triple sums reconstruct exactly from single sums on 50 functions", ok)


CRITERION6_DAGS = [
    (2, InputGraph(6, {("s", 1), (1, 2), (2, "t")})),
    (2, InputGraph(8, {("s", 1), (1, 2), (2, 3), (3, "t"), ("s", 4), (4, 5)})),
    (2, InputGraph(10, {("s", 1), (1, 2), (2, "t"), ("s", 3), (3, 4), (4, "t"), (5, 6)})),
    (3, InputGraph(10, {("s", 1), (1, 2), (2, 3), (3, 4), (4, "t"), (5, 6)})),
    (3, layered_dag(3, 3, 2, 12)),
    (3, layered_dag(2, 3, 2, 11)),
]


def test_criterion_06_base_function_pipeline():
    ok = True
    cases_seen = set()
    built = 0
    for seed, (z, graph) in enumerate(CRITERION6_DAGS):
        assert graph.is_acyclic()
        d = graph.shortest_st_path_length()
        assert d is None or d > 2 ** (z - 1)
        g, table, diag = build_base_function(graph, z, seed=seed)
        built += 1
        ok &= g.coeff(frozenset()) == 1
        # error vectors and relevant defects vanish exactly
        for total in range(0, z):
            for k in range(0, total + 1):
                u = total - k
                if u >= 1:
                    ok &= all(x == 0 for x in table.error_vector(k, u))
                for A in k_subsets(graph.n, k):
                    for e in relevant_edges(graph, z, k, u, A):
                        ok &= table.delta_coordinate(e, k, u, A) == 0
        for e in graph.sorted_edges():
            ge = extend_invariant(g, e, z)
            ok &= invariant_by_values(ge, e)  # all-cuts sweep, exact
            for k in range(0, z + 1):
                u = z - k
                for A in combinations(range(1, graph.n + 1), k):
                    cases_seen.add(cutoff_case(e, A))
                    ok &= cutoff_sum(g, e, frozenset(A), u, z) == s_single(ge, A, u)
    all_cases = {"1a", "1b", "2a", "2b", "3a", "3b", "3c", "3d"}
    report(
        6,
        f"{built} guarded DAGs: zero errors/defects, invariant extensions, cutoff cases {sorted(cases_seen)}",
        ok and built >= 5 and cases_seen == all_cases,
    )


CRITERION7_SHAPES = [
    (3, 3, 2, 10), (4, 4, 2, 12), (4, 3, 2, 11), (3, 4, 2, 11), (4, 4, 2, 11),
    (4, 4, 3, 12), (3, 3, 2, 9), (4, 3, 3, 12), (3, 4, 3, 12), (2, 4, 2, 10),
]


def test_criterion_07_confluence():
    # fixed_value raises on any disagreement or closure violation, so a clean
    # build certifies equality across every applicable equation
    checks = 0
    for seed, shape in enumerate(CRITERION7_SHAPES):
        graph = layered_dag(*shape)
        _, _, diag = build_base_function(graph, 3, seed=seed)
        checks += diag.multi_equation_checks
    # representative normal forms are order-independent on guarded graphs
    rng = random.Random(707)
    ok = True
    examined = 0
    while examined < 50:
        n = rng.randint(3, 6)
        order = ["s"] + list(range(1, n + 1)) + ["t"]
        edges = set()
        for i in range(len(order)):
            for j in range(i + 1, len(order)):
                if (order[i], order[j]) != ("s", "t") and rng.random() < 0.3:
                    edges.add((order[i], order[j]))
        graph = InputGraph(n, edges)
        z = rng.randint(2, 5)
        d = graph.distance("s", "t")
        if d is not None and d <= 2 ** (z - 1):
            continue
        examined += 1
        V = frozenset(rng.sample(range(1, n + 1), rng.randint(0, min(z - 1, n))))
        forms = {
            representative(graph, z, V, rng=random.Random(rng.randrange(10**9)))
            for _ in range(6)
        }
        ok &= len(forms) == 1
    report(7, f"{checks} multi-equation coordinates agree; normal forms order-independent", ok and checks >= 200)


def _unit_family(graph):
    base = CutFunction.constant(graph.n, Fraction(1))
    return InvariantFamily(graph, 1, {e: extend_invariant(base, e, 1) for e in graph.edges}, base=base)


def test_criterion_08_discrepancy_totals():
    ok = True
    tested = 0
    # chain-lollipop network (criterion 9 instance, smaller n for speed here)
    graph = chain_with_lollipops(5, 2)
    net = build_chain_lollipop(5, 2, seed=0).network
    fam = _unit_family(graph)
    for e0 in graph.sorted_edges():
        path = net.accepting_path(graph)
        rep = discrepancy_sum(net, path, fam, e0=e0)
        ok &= rep.total == 2
        tested += 1
    # general-builder network (criterion 10 instance)
    g10 = InputGraph(6, {("s", 1), (1, 2), (2, "t"), ("s", 3), ("s", 4), ("s", 5), ("s", 6)})
    res = build_general_network(g10, [1, 2], z=2, seed=0)
    fam10 = _unit_family(g10)
    walk = accepting_walk(res, Permutation.identity(6))
    for e0 in g10.sorted_edges():
        rep = discrepancy_sum(res.network, walk, fam10, e0=e0)
        ok &= rep.total == 2
        tested += 1
    # a second, BFS-found accepting path through the same network
    path = res.network.accepting_path(g10)
    rep = discrepancy_sum(res.network, path, fam10, e0=("s", 1))
    ok &= rep.total == 2
    report(8, f"discrepancy total == 2 on {tested + 1} (network, path, e0) triples", ok)


def test_criterion_09_chain_lollipop_builder():
    from switchnet.cuts import maximal_no_instance

    start = time.monotonic()
    res = build_chain_lollipop(6, 2, seed=0)
    # literal sweep: every one of the 64 maximal NO instances is rejected
    sound = all(not res.network.accepts(maximal_no_instance(c, 6)) for c in range(64))
    sound &= res.network.is_sound()
    complete = res.network.is_complete_for(res.placements)
    bound = 2 * 2 * 6 * math.log2(6)
    elapsed = time.monotonic() - start
    report(
        9,
        f"k=2 n=6: sound={sound}, complete on {len(res.placements)} placements, "
        f"size {res.network.size} <= {bound:.1f}, {elapsed:.1f}s",
        sound and complete and len(res.placements) == 30 and res.network.size <= bound and elapsed < 30,
    )


@pytest.mark.parametrize("z", [1, 2])
def test_criterion_10_general_builder(z):
    graph = InputGraph(6, {("s", 1), (1, 2), (2, "t"), ("s", 3), ("s", 4), ("s", 5), ("s", 6)})
    try:
        res = build_general_network(graph, [1, 2], z=z, seed=0)
    except Exception as exc:
        report(10, f"z={z}: builder failed ({exc})", False)
        return
    sound = res.network.is_sound()
    family = all_distinct_permuted_copies(graph)
    complete = res.network.is_complete_for(family)
    within = res.network.size <= res.h_bound
    # every edge passes the can-go contract on all cuts
    masks = {
        node: (full_cut_mask(6) if chars is ONE else KFunction.from_chars(chars).posmask(6))
        for chars, node in res.node_of.items()
    }
    full = full_cut_mask(6)
    edges_ok = all(
        (masks[e.u] ^ masks[e.v]) & (full ^ crossing_mask(6, e.label)) == 0
        for e in res.network.edges
    )
    report(
        10,
        f"z={z}: sound={sound}, complete={complete} ({len(family)} copies), "
        f"size {res.network.size} <= {res.h_bound:.0f}, can-go edges={edges_ok}",
        sound and complete and within and edges_ok,
    )


def test_criterion_11_pebbling():
    ok = True
    for length in (2, 3, 4, 5, 8):
        graph = _chain(length)
        ok &= min_pebble_number(graph) == math.ceil(math.log2(length))
    for length in range(2, 17):
        graph = _chain(length)
        path = ["s"] + list(range(1, length)) + ["t"]
        ok &= max_middle_pebbles(savitch_sequence(graph, path)) <= savitch_bound(length)
    report(11, "exhaustive pebble numbers hit ceil(lg l); halving plays within bound to l=16", ok)


def test_criterion_12_cross_module_sanity():
    # hypothesis-clean certificates need n >= 4 (z+1)^2; at z = 1 that is n = 16,
    # where the k = 1 chain-with-lollipops family has a verified network
    n, k, z = 16, 1, 1
    graph = chain_with_lollipops(n, k)
    fam = _unit_family(graph)
    cert = lower_bound_certificate(graph, fam)
    res = build_chain_lollipop(n, k, seed=0)
    sound = res.network.is_sound()
    complete = res.network.is_complete_for(res.placements)
    ok = cert.hypothesis_clean and sound and complete and cert.value <= res.network.size
    report(
        12,
        f"clean certificate {cert.value:.4f} <= verified network size {res.network.size}",
        ok,
    )


def test_criterion_13_closed_form_evaluator():
    value = closed_form_lower_bound(32000, 1, 2, 64)
    # independent recomputation through the log decomposition
    recomputed = math.exp(
        0.25 * math.log(9 * 1 * 32000)
        + (2 / 4) * (math.log(32000) - math.log(9 * 1))
        - math.log(20 * 64 * (2 + 1))
        - 0.5 * math.log(2**2 * math.factorial(2))
    )
    agree_6sf = float(f"{value:.6g}") == float(f"{recomputed:.6g}")
    near_reference = abs(value - 0.127182) < 1e-6
    report(13, f"closed form {value:.6g} matches recomputation {recomputed:.6g}", agree_6sf and near_reference)


def _chain(length):
    if length == 1:
        return InputGraph(1, {("s", "t")})
    edges = {("s", 1), (length - 1, "t")} | {(i, i + 1) for i in range(1, length - 1)}
    return InputGraph(max(length - 1, 1), edges)


def _det_zero(gram):
    rows = [list(r) for r in gram]
    m = len(rows)
    for col in range(m):
        pivot = next((i for i in range(col, m) if rows[i][col] != 0), None)
        if pivot is None:
            return True
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(col + 1, m):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[col][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return False


def _subsets(n):
    out = []
    for k in range(n + 1):
        out.extend(combinations(range(1, n + 1), k))
    return out
