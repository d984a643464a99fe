"""Batch command-line front-end.

Commands: verify-network, build-upper, build-base, certify-lower, pebble,
spectra, verify-permutation-average, formulas.  Every report records the
seed and arithmetic mode; identical configs reproduce byte-identical
reports apart from the timestamp.  Exit codes: 0 success, 1 property
violation / hypothesis failure, 2 usage error (including an unreadable
input file or an --out path that cannot be written).

--workers is still accepted for compatibility but selects nothing: every
verification sweep runs as one single-process pass.
"""

import argparse
import json
import os
import random
import sys
from contextlib import contextmanager, suppress
from datetime import datetime, timezone
from functools import cache, partial

from . import lowerbound, parity, pebbles, spectral, sums
from .cuts import random_sparse_function
from .graphs import InputGraph, all_distinct_permuted_copies, orbit_bound
from .networks import SwitchingNetwork

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# build-upper --verify checks completeness over the permuted copies of a
# general build's graph when their count's bound `orbit_bound` is at most
# this: 8!, so every graph on n <= 8 vertices qualifies.
ORBIT_VERIFY_CAP = 40320


def _report(payload, seed=None, mode="exact-rational"):
    out = {"seed": seed, "arithmetic_mode": mode}
    out.update(payload)
    out["timestamp"] = datetime.now(timezone.utc).isoformat()
    return out


class UsageError(Exception):
    """A parameter outside its command's domain, an input file that cannot
    be read or does not describe a valid object, or an --out file that
    cannot be written; exits 2."""


@contextmanager
def _out(path):
    """The --out file, opened but not emptied when the block starts, so that
    a path that cannot be written fails fast; the block calls the yielded
    function to empty the file and get it for writing.  A block that raises
    leaves an earlier file untouched and removes a file the open created.  A
    failure to open or write the file is a UsageError."""
    created, done = not os.path.lexists(path), False
    try:
        with open(path, "a") as fh:
            def emptied():
                fh.truncate(0)
                return fh

            yield emptied
            done = True
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc!r}") from exc
    finally:
        if created and not done:
            with suppress(FileNotFoundError):
                os.remove(path)


def _emit(report, path=None):
    text = json.dumps(report, indent=2, default=str)
    if path:
        with _out(path) as emptied:
            emptied().write(text + "\n")
    print(text)


def _require(ok, message):
    if not ok:
        raise UsageError(message)


def _vertices(text, n, flag, terminals=()):
    """The comma-separated vertices of a flag: ints in 1..n, or the given
    terminal names."""
    out = []
    for token in text.split(","):
        if token in terminals:
            out.append(token)
            continue
        try:
            v = int(token)
        except ValueError:
            raise UsageError(f"{flag}: {token!r} is not a vertex") from None
        _require(1 <= v <= n, f"{flag}: vertex {v} outside 1..{n}")
        out.append(v)
    return out


def _load(path, from_json):
    try:
        with open(path) as fh:
            return from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise UsageError(f"cannot read {path}: {exc!r}") from exc


def _load_graph(path):
    return _load(path, InputGraph.from_json)


def _load_network(path):
    return _load(path, SwitchingNetwork.from_json)


def cmd_verify_network(args):
    net = _load_network(args.net)
    graph = _load_graph(args.graph)
    sound = net.is_sound()
    counterexample = None if sound else {"kind": "unsound", "cut_left_mask": net.soundness_counterexample()}
    family = [graph] if args.family == "single" else all_distinct_permuted_copies(graph)
    missing = net.completeness_counterexample(family)
    complete = missing is None
    if sound and not complete:
        counterexample = {"kind": "incomplete", "graph": missing.to_json()}
    report = _report(
        {
            "sound": sound,
            "complete": complete,
            "size": net.size,
            "family": args.family,
            "family_size": len(family),
            "counterexample": counterexample,
        },
        seed=args.seed,
    )
    _emit(report, args.out)
    return EXIT_OK if sound and complete else EXIT_VIOLATION


def _detect_chain(graph):
    """The canonical chain 1..k when the graph is chain_with_lollipops(n, k)."""
    from .graphs import chain_with_lollipops

    for k in range(1, graph.n + 1):
        if graph == chain_with_lollipops(graph.n, k):
            return k
    raise UsageError("graph is not in canonical chain-with-lollipops form")


def _infer_core(graph):
    """The vertices touching a middle-to-middle edge; a bare s->v->t path
    contributes its interior vertex."""
    core = sorted({x for e in graph.edges if all(isinstance(y, int) for y in e) for x in e})
    if not core:
        path = graph.shortest_st_path()
        _require(path is not None and len(path) >= 3, "cannot infer core vertices; pass --g0")
        core = [path[1]]
    return core


def cmd_build_upper(args):
    _require(args.z >= 1, f"need --z >= 1, got {args.z}")
    graph = _load_graph(args.graph)
    g0 = _vertices(args.g0, graph.n, "--g0") if args.g0 else None
    _require(g0 is None or len(set(g0)) == len(g0), f"--g0: repeated core vertex in {args.g0}")
    core = _detect_chain(graph) if args.mode == "chain" else g0 or _infer_core(graph)
    if not args.out:
        return _build_upper(args, graph, core, None)
    with _out(args.out) as emptied:
        return _build_upper(args, graph, core, emptied)


def _build_upper(args, graph, core, emptied):
    """Build, verify and report; `core` is the chain length in chain mode and
    the core vertices in general mode."""
    if args.mode == "chain":
        result = parity.build_chain_lollipop(graph.n, core, seed=args.seed)
        net = result.network
        bound = result.size_bound
        family = result.placements
    else:
        result = parity.build_general_network(graph, core, args.z, seed=args.seed)
        net = result.network
        bound = result.h_bound
        family = (all_distinct_permuted_copies(result.graph)
                  if orbit_bound(result.graph) <= ORBIT_VERIFY_CAP else None)
    payload = {"mode": args.mode, "size": net.size, "bound": bound, "within_bound": net.size <= bound}
    if args.verify:
        payload["sound"] = net.is_sound()
        if family is not None:
            payload["complete"] = net.is_complete_for(family)
            payload["family_size"] = len(family)
    if emptied is not None:
        net.write_json(emptied())
        payload["network_file"] = args.out
    report = _report(payload, seed=args.seed)
    _emit(report)
    ok = payload.get("sound", True) and payload.get("complete", True) and payload["within_bound"]
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_build_base(args):
    _require(args.z >= 1, f"need --z >= 1, got {args.z}")
    graph = _load_graph(args.graph)
    try:
        g, table, diag = lowerbound.build_base_function(graph, args.z, seed=args.seed)
    except ValueError as exc:
        _emit(_report({"error": str(exc)}, seed=args.seed))
        return EXIT_VIOLATION
    if args.out:
        with _out(args.out) as emptied:
            json.dump(table.to_json(), emptied(), indent=2)
    report = _report(
        {
            "base_function": g.to_json(),
            "diagnostics": diag.to_json(),
            "table_file": args.out,
        },
        seed=args.seed,
    )
    _emit(report)
    return EXIT_OK


def cmd_certify_lower(args):
    _require(args.z >= 1, f"need --z >= 1, got {args.z}")
    graph = _load_graph(args.graph)
    e0 = None
    if args.e0:
        e0 = tuple(_vertices(args.e0, graph.n, "--e0", ("s", "t")))
        _require(e0 in graph.edges, f"--e0 {args.e0} is not a graph edge")
    hypotheses = lowerbound.low_connectivity_hypotheses(graph, args.z)
    try:
        family, table, diag = lowerbound.build_invariant_family(graph, args.z, seed=args.seed)
        cert = lowerbound.lower_bound_certificate(graph, family, e0=e0)
    except (ValueError, ZeroDivisionError) as exc:
        _emit(_report({"error": str(exc), "hypothesis_flags": hypotheses}, seed=args.seed))
        return EXIT_VIOLATION
    closed_form = None
    if hypotheses["linkage_m"] >= 1 and graph.edges:
        closed_form = lowerbound.closed_form_lower_bound(
            graph.n, hypotheses["linkage_m"], args.z, len(graph.edges)
        )
    report = _report(
        {
            "certificate": cert.to_json(),
            "closed_form": closed_form,
            "hypothesis_flags": hypotheses,
            "diagnostics": diag.to_json(),
        },
        seed=args.seed,
    )
    _emit(report, args.out)
    return EXIT_OK if all(
        hypotheses[k] for k in ("acyclic", "has_st_path", "no_short_st_path")
    ) else EXIT_VIOLATION


def cmd_pebble(args):
    graph = _load_graph(args.graph)
    if args.savitch:
        if args.savitch == "auto":
            path = graph.shortest_st_path()
            if path is None:
                _emit(_report({"error": "no s->t path"}, seed=args.seed))
                return EXIT_VIOLATION
        else:
            path = _vertices(args.savitch, graph.n, "--savitch", ("s", "t"))
            _require(path[0] == "s" and path[-1] == "t"
                     and all(e in graph.edges for e in zip(path, path[1:])),
                     f"--savitch {args.savitch} is not an s...t graph path")
        states = pebbles.savitch_sequence(graph, path)
        report = _report(
            {
                "path": path,
                "max_pebbles": pebbles.max_middle_pebbles(states),
                "sequence": [sorted(map(str, st)) for st in states],
            },
            seed=args.seed,
        )
        _emit(report, args.out)
        return EXIT_OK
    try:
        p = pebbles.min_pebble_number(graph)
    except ValueError as exc:
        _emit(_report({"error": str(exc)}, seed=args.seed))
        return EXIT_VIOLATION
    _emit(_report({"min_pebbles": p}, seed=args.seed), args.out)
    return EXIT_OK


def cmd_spectra(args):
    _require(0 <= args.k and 2 * args.k < args.n, f"need 0 <= k < n/2, got k={args.k}, n={args.n}")
    spectrum = spectral.johnson_spectrum(args.n, args.k)
    import numpy as np

    inc = spectral.inclusion_matrix(args.n, args.k)
    P = inc.toarray()
    eigs = np.linalg.eigvalsh(P @ P.T)
    verified = True
    for value, mult in spectrum:
        hits = int(np.sum(np.abs(eigs - value) < 1e-8))
        if hits != mult:
            verified = False
    report = _report(
        {"n": args.n, "k": args.k, "eigenvalues": [[v, m] for v, m in spectrum], "verified": verified},
        seed=args.seed,
        mode="floating-check",
    )
    _emit(report, args.out)
    return EXIT_OK if verified else EXIT_VIOLATION


def cmd_verify_permutation_average(args):
    _require(1 <= args.n <= sums.BRUTEFORCE_CAP, f"need 1 <= n <= {sums.BRUTEFORCE_CAP}, got n={args.n}")
    _require(args.trials >= 1, f"need --trials >= 1, got {args.trials}")
    rng = random.Random(args.seed)
    rows = ["trial,formula,bruteforce,diff"]
    all_equal = True
    for trial in range(args.trials):
        f = random_sparse_function(args.n, rng)
        g = random_sparse_function(args.n, rng)
        lhs = sums.permutation_average_formula(f, g)
        rhs = sums.permutation_average_bruteforce(f, g)
        diff = lhs - rhs
        all_equal = all_equal and diff == 0
        rows.append(f"{trial},{lhs},{rhs},{diff}")
    csv_text = "\n".join(rows)
    if args.out:
        with _out(args.out) as emptied:
            emptied().write(csv_text + "\n")
    print(csv_text)
    return EXIT_OK if all_equal else EXIT_VIOLATION


def cmd_formulas(args):
    _require(args.k >= 1 and args.z >= 1 and args.n >= 2,
             f"need k >= 1, z >= 1, n >= 2, got k={args.k}, z={args.z}, n={args.n}")
    rec = parity.upper_bound_formulas(args.k, args.z, args.n)
    _emit(_report(rec.to_json(), seed=args.seed), args.out)
    return EXIT_OK


@cache
def build_parser():
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="switchnet",
        description="Monotone switching networks for directed connectivity: "
        "certificates, constructions, and brute-force verification.",
    )
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; sweeps run as one single-process pass")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out")
    command = partial(sub.add_parser, parents=[common])

    p = command("verify-network", help="soundness + completeness sweep")
    p.add_argument("--net", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--family", choices=["single", "all-permutations"], default="all-permutations")
    p.set_defaults(func=cmd_verify_network)

    p = command("build-upper", help="chain-lollipop or general network builder")
    p.add_argument("--mode", choices=["chain", "general"], required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--z", type=int, default=1)
    p.add_argument("--g0", help="comma-separated core vertices (general mode)")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_build_upper)

    p = command("build-base", help="base-function table construction")
    p.add_argument("--graph", required=True)
    p.add_argument("--z", type=int, required=True)
    p.set_defaults(func=cmd_build_base)

    p = command("certify-lower", help="lower-bound certificate pipeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--e0", help="override edge, e.g. 's,1'")
    p.set_defaults(func=cmd_certify_lower)

    p = command("pebble", help="pebble number or halving sequence")
    p.add_argument("--graph", required=True)
    p.add_argument("--min", action="store_true",
                   help="accepted for compatibility; selects nothing: without --savitch the "
                   "command reports the minimum pebble number")
    p.add_argument("--savitch", help="comma-separated s..t path, or 'auto'")
    p.set_defaults(func=cmd_pebble)

    p = command("spectra", help="inclusion Gram spectrum with numeric check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_spectra)

    p = command("verify-permutation-average", help="formula vs all-permutations brute force")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cmd_verify_permutation_average)

    p = command("formulas", help="closed-form upper-bound record")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_formulas)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
