"""Seeded inputs and the fixed CLI sequences of the two benchmark workloads.

Every workload is a closed loop from one client: each CLI call starts after
the previous one returned, with ``--workers 1``.  The seed relabels the
middle vertices of every graph that its command accepts in any labelling and
is also passed to the CLI as ``--seed``.  Chain mode's graph stays canonical,
because ``build-upper --mode chain`` only recognises the canonical form.

Each call carries checks on its report that hold for every seed: exit code 0
plus the exact figures in ``INVARIANTS``.  The ``tiny`` scale shrinks every
instance so that the benchmark's own smoke test runs in seconds.
"""

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from switchnet.graphs import InputGraph, chain_with_lollipops

WORKLOADS = ("certify", "build-verify")
SCALES = ("full", "tiny")

def layered_dag(a, b, tail_len, n):
    """s feeds a complete bipartite layer A x B, then a chain from the first
    B vertex into t; the shortest s->t distance is 3 + tail_len.  Vertices
    past the chain are isolated padding."""
    A = list(range(1, a + 1))
    B = list(range(a + 1, a + b + 1))
    chain = list(range(a + b + 1, a + b + 1 + tail_len))
    edges = {("s", x) for x in A} | {(x, y) for x in A for y in B}
    prev = B[0]
    for c in chain:
        edges.add((prev, c))
        prev = c
    edges.add((prev, "t"))
    return InputGraph(n, edges)


def core_with_lollipops(k, n):
    """A chain core s->1->...->k->t plus s-lollipops on k+1..n."""
    edges = {("s", 1), (k, "t")} | {(i, i + 1) for i in range(1, k)}
    edges |= {("s", v) for v in range(k + 1, n + 1)}
    return InputGraph(n, edges)


def relabelling(n, seed):
    """Seeded bijection of the middle vertices 1..n."""
    image = list(range(1, n + 1))
    random.Random(seed).shuffle(image)
    return dict(zip(range(1, n + 1), image))


def relabel(graph, mapping):
    def f(v):
        return mapping.get(v, v)

    return InputGraph(graph.n, {(f(u), f(v)) for u, v in graph.edges})


@dataclass
class Call:
    """One CLI call: its argv after ``--workers 1``, the ``--out`` file it
    writes (relative to the work directory) and the checks on its report."""

    argv: list
    out: str = None
    checks: dict = field(default_factory=dict)


# Seed-independent figures.  ``max_sum`` is the exact permutation-bound
# maximum; the report carries it as a float, the traced run as num/den.
INVARIANTS = {
    ("certify", "full"): {
        "dense": {"max_sum": Fraction(16, 5), "n": 15, "edge_count": 16},
        "deep": {"max_sum": Fraction(16106908, 1257795), "n": 22, "edge_count": 15},
        "base_coeffs": 470,
    },
    ("certify", "tiny"): {
        "dense": {"max_sum": Fraction(8), "n": 6, "edge_count": 7},
        "deep": {"max_sum": Fraction(176, 9), "n": 9, "edge_count": 8},
        "base_coeffs": 37,
    },
    ("build-verify", "full"): {
        "general_size": 1204, "family_size": 56, "chain_size": 15, "chain_family": 56,
    },
    ("build-verify", "tiny"): {
        "general_size": 122, "family_size": 12, "chain_size": 7, "chain_family": 12,
    },
}

# Instance shapes per scale.  chain_with_lollipops(n, k) for the dense
# certificate, whose n <= 16 puts cuts on its dense value path;
# layered_dag(a, b, tail, n) for the deep certificate, whose n > 16 keeps
# cuts on its coefficient path, and for the base table; (core k, n before padding, z) for the general build and
# chain_with_lollipops(n, k) for the chain build.
SHAPES = {
    "full": {
        "dense": (15, 1),
        "deep_certify": ((3, 3, 2, 22), 3),
        "deep_base": ((3, 3, 6, 14), 4),
        "general": (2, 7, 2),
        "chain": (8, 2),
    },
    "tiny": {
        "dense": (6, 1),
        "deep_certify": ((2, 2, 1, 9), 2),
        "deep_base": ((2, 2, 3, 8), 3),
        "general": (2, 3, 2),
        "chain": (4, 2),
    },
}


def _write(workdir, name, graph):
    with open(workdir / name, "w") as fh:
        json.dump(graph.to_json(), fh)
    return name


def prepare(workload, seed, scale, workdir):
    """Write the seeded input graphs into workdir and return the call list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    shape = SHAPES[scale]
    inv = INVARIANTS[(workload, scale)]
    s = ["--seed", str(seed)]
    if workload == "certify":
        n, k = shape["dense"]
        (dims, z), (bdims, bz) = shape["deep_certify"], shape["deep_base"]
        g0 = _write(workdir, "dense.json", relabel(chain_with_lollipops(n, k), relabelling(n, seed)))
        g1 = _write(workdir, "deep.json", relabel(layered_dag(*dims), relabelling(dims[3], seed)))
        g2 = _write(workdir, "base.json", relabel(layered_dag(*bdims), relabelling(bdims[3], seed)))
        return [
            Call(["certify-lower", "--graph", g0, "--z", "1", *s], checks=inv["dense"]),
            Call(["certify-lower", "--graph", g1, "--z", str(z), *s], checks=inv["deep"]),
            Call(["build-base", "--graph", g2, "--z", str(bz), "--out", "table.json", *s],
                 out="table.json", checks={"base_coeffs": inv["base_coeffs"]}),
        ]
    k, n, z = shape["general"]
    padded = n + (-n) % k
    core_map = relabelling(n, seed)
    core = _write(workdir, "core.json", relabel(core_with_lollipops(k, n), core_map))
    g0 = ",".join(str(core_map[v]) for v in range(1, k + 1))
    full = _write(workdir, "padded.json",
                  relabel(core_with_lollipops(k, padded), relabelling(padded, seed + 1)))
    cn, ck = shape["chain"]
    chain = _write(workdir, "chain.json", chain_with_lollipops(cn, ck))
    return [
        Call(["build-upper", "--mode", "general", "--graph", core, "--g0", g0, "--z", str(z),
              "--out", "net.json", "--verify", *s],
             out="net.json",
             checks={"size": inv["general_size"], "sound": True, "complete": True,
                     "family_size": inv["family_size"], "within_bound": True}),
        Call(["verify-network", "--net", "net.json", "--graph", full,
              "--family", "all-permutations", *s],
             checks={"size": inv["general_size"], "sound": True, "complete": True,
                     "family_size": inv["family_size"]}),
        Call(["build-upper", "--mode", "chain", "--graph", chain, "--verify", *s],
             checks={"size": inv["chain_size"], "sound": True, "complete": True,
                     "family_size": inv["chain_family"], "within_bound": True}),
    ]


def check_report(call, report):
    """Names of the checks the parsed report breaks (empty when all hold)."""
    broken = []
    cert = report.get("certificate") or {}
    for key, want in call.checks.items():
        if key == "max_sum":
            got = cert.get("max_sum")
            ok = got == float(want)
        elif key in ("n", "edge_count"):
            ok = cert.get(key) == want
        elif key == "base_coeffs":
            ok = len((report.get("base_function") or {}).get("coeffs", ())) == want
        else:
            ok = report.get(key) == want
        if not ok:
            broken.append(key)
    return broken
