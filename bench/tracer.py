"""Benchmark-side span recorder around the public entry points of each layer.

The layers are the modules of ``switchnet``.  ``install`` replaces every
module binding of each wrapped function (``permutation_bound_sum`` is also
bound in ``lowerbound``, ``can_win_through`` in ``parity``,
``all_distinct_permuted_copies`` in ``cli``) and ``restore`` puts the
originals back.  Inner predicates such as ``parity.partition_matches``, with
millions of calls, are deliberately not wrapped; ``subsets`` is a helper and
its time counts in its callers.

A span is ``[id, layer, name, start, end, parent id]``; spans stay in memory
until the pass ends.  A layer's self time is the time of its spans minus the
time their direct child spans cover.
"""

import math
import sys
import time
from collections import Counter

def _bits(q):
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _solve(rec, args, result):
    P = args[0]
    rec.maxima["spectral.solve_rows_max"] = max(rec.maxima["spectral.solve_rows_max"], len(P))
    rec.maxima["spectral.solve_cols_max"] = max(rec.maxima["spectral.solve_cols_max"], len(P[0]))
    y = result[0] if isinstance(result, tuple) else result
    if all(hasattr(v, "denominator") for v in y):
        bits = max((_bits(v) for v in y), default=0)
        rec.maxima["spectral.solution_bits_max"] = max(rec.maxima["spectral.solution_bits_max"], bits)


def _certificate(rec, args, result):
    rec.maxima["lowerbound.max_sum_bits"] = max(rec.maxima["lowerbound.max_sum_bits"], _bits(result.max_sum))
    rec.max_sums.append(f"{result.max_sum.numerator}/{result.max_sum.denominator}")


def _network(rec, net):
    rec.counts["parity.network_nodes"] += len(net.vertices)
    rec.counts["parity.network_edges"] += len(net.edges)


def _chain(rec, args, result):
    rec.counts["parity.chain_orderings"] += len(result.orderings)
    _network(rec, result.network)


def _general(rec, args, result):
    _network(rec, result.network)


def _partitions(rec, args, result):
    rec.counts["parity.partitions"] += len(result)


def _emit(rec, args, result):
    rec.counts["pebbles.emit_states"] += len(args[0])


def _copies(rec, args, result):
    rec.counts["graphs.copies"] += len(result)
    rec.counts["graphs.permutations_walked"] += math.factorial(args[0].n)


def _sound(rec, args, result):
    rec.counts["networks.cuts_swept"] += 1 << args[0].n


# (module, attribute, layer, span name, recorder of arguments and result).
# "Class.method" wraps the class attribute: a method, property or classmethod.
SPANS = (
    ("cli", "main", "cli", "main", None),
    ("cuts", "CutFunction.values", "cuts", "values", None),
    ("cuts", "is_edge_invariant", "cuts", "invariance", None),
    ("sums", "permutation_bound_sum", "sums", "bound_sum", None),
    ("spectral", "min_norm_solve", "spectral", "solve", _solve),
    ("lowerbound", "build_base_function", "lowerbound", "base", None),
    ("lowerbound", "build_invariant_family", "lowerbound", "family", None),
    ("lowerbound", "extend_invariant", "lowerbound", "extend", None),
    ("lowerbound", "lower_bound_certificate", "lowerbound", "certificate", _certificate),
    ("parity", "build_partition_family", "parity", "partition_family", _partitions),
    ("parity", "build_chain_lollipop", "parity", "chain_cover", _chain),
    ("parity", "build_general_network", "parity", "general", _general),
    ("pebbles", "winning_play", "pebbles", "winning_play", None),
    ("pebbles", "can_win_through", "pebbles", "win_through", None),
    ("pebbles", "network_from_states", "pebbles", "emit", _emit),
    ("graphs", "all_distinct_permuted_copies", "graphs", "copies", _copies),
    ("networks", "SwitchingNetwork.is_sound", "networks", "sound", _sound),
    ("networks", "SwitchingNetwork.accepts", "networks", "accepts", None),
    ("networks", "SwitchingNetwork.from_json", "networks", "load", None),
)

# Functions with too many calls for a span; only their calls are counted.
COUNTED = (
    ("sums", "pair_sum", "sums.pair_sum_calls"),
    ("sums", "s_single", "sums.s_single_calls"),
)

# Per-layer metrics: (name, unit).  "<layer>.<span>_s" is inclusive span
# time and "<layer>.<span>_calls" the span count.
METRICS = (
    ("cuts.values_s", "s"), ("cuts.values_calls", "count"),
    ("cuts.invariance_s", "s"), ("cuts.invariance_calls", "count"), ("cuts.self_s", "s"),
    ("sums.bound_sum_s", "s"), ("sums.bound_sum_calls", "count"),
    ("sums.pair_sum_calls", "count"), ("sums.s_single_calls", "count"), ("sums.self_s", "s"),
    ("spectral.solve_s", "s"), ("spectral.solve_calls", "count"),
    ("spectral.solve_rows_max", "count"), ("spectral.solve_cols_max", "count"),
    ("spectral.solution_bits_max", "bits"), ("spectral.self_s", "s"),
    ("lowerbound.base_s", "s"), ("lowerbound.certificate_s", "s"),
    ("lowerbound.extend_calls", "count"), ("lowerbound.max_sum_bits", "bits"),
    ("lowerbound.self_s", "s"),
    ("parity.partition_family_s", "s"), ("parity.partitions", "count"),
    ("parity.chain_cover_s", "s"), ("parity.chain_orderings", "count"),
    ("parity.general_s", "s"), ("parity.network_nodes", "count"),
    ("parity.network_edges", "count"), ("parity.self_s", "s"),
    ("pebbles.winning_play_s", "s"), ("pebbles.win_through_s", "s"),
    ("pebbles.win_through_calls", "count"), ("pebbles.emit_s", "s"),
    ("pebbles.emit_states", "count"), ("pebbles.self_s", "s"),
    ("graphs.copies_s", "s"), ("graphs.copies", "count"),
    ("graphs.permutations_walked", "count"), ("graphs.copy_yield", "ratio"),
    ("graphs.self_s", "s"),
    ("networks.sound_s", "s"), ("networks.cuts_swept", "count"),
    ("networks.accepts_s", "s"), ("networks.accepts_calls", "count"),
    ("networks.load_s", "s"), ("networks.self_s", "s"),
    ("cli.self_s", "s"), ("cli.calls", "count"), ("cli.output_bytes", "bytes"),
)


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = Counter()
        self.max_sums = []
        self._stack = []
        self._saved = []

    def _span(self, layer, name, fn, on_result):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [len(spans), layer, name, clock(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, make):
        original = getattr(sys.modules[f"switchnet.{module}"], attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "switchnet" or name.startswith("switchnet."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def install(self):
        """Wrap every entry point in SPANS and COUNTED; call restore() once
        the pass is over."""
        import switchnet.cli  # noqa: F401  (loads every layer module)

        try:
            for module, attr, layer, name, on_result in SPANS:
                if "." in attr:
                    cls_name, member = attr.split(".")
                    cls = getattr(sys.modules[f"switchnet.{module}"], cls_name)
                    raw = cls.__dict__[member]
                    if isinstance(raw, property):
                        value = property(self._span(layer, name, raw.fget, on_result))
                    elif isinstance(raw, classmethod):
                        value = classmethod(self._span(layer, name, raw.__func__, on_result))
                    else:
                        value = self._span(layer, name, raw, on_result)
                    self._set(cls, member, value)
                else:
                    self._patch_function(
                        module, attr, lambda fn, l=layer, n=name, r=on_result: self._span(l, n, fn, r)
                    )
            for module, attr, key in COUNTED:
                self._patch_function(module, attr, lambda fn, k=key: self._counter(k, fn))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        """Put every original binding back, last patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, output_bytes):
        """The per-layer metrics of this pass as {name: number}."""
        inclusive, calls, self_time = Counter(), Counter(), Counter()
        child_time = Counter()
        for sid, layer, name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for sid, layer, name, start, end, parent in self.spans:
            inclusive[f"{layer}.{name}_s"] += end - start
            calls[f"{layer}.{name}_calls"] += 1
            self_time[f"{layer}.self_s"] += end - start - child_time[sid]
        values = {}
        values.update(self.counts)
        values.update(self.maxima)
        walked = self.counts["graphs.permutations_walked"]
        values["graphs.copy_yield"] = self.counts["graphs.copies"] / walked if walked else 0.0
        values["cli.calls"] = calls["cli.main_calls"]
        values["cli.output_bytes"] = output_bytes
        # A layer the workload never enters reads 0.
        merged = {**inclusive, **calls, **self_time, **values}
        return {name: merged.get(name, 0) for name, _unit in METRICS}
