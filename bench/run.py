"""switchnet benchmark: two CLI workloads, end to end and per layer.

    python3 bench/run.py --workload certify --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 60 --trace 0

Run it from the root of a source checkout; it imports ``src/switchnet``.
A run repeats passes of the workload while they fit in ``--seconds``, each in
a fresh interpreter (``bench/child.py``), one at a time.  With ``--trace 0``
it reports, as medians over the passes of the run, ``wall_s`` (the timed CLI
sequence), ``setup_s`` (``import switchnet`` plus writing the inputs) and
``peak_rss_mib`` (``ru_maxrss`` of the pass).  A pass during which CPU steal
plus run delay (see ``bench/child.py``) exceed ``CONTENDED_SHARE`` of its wall
time is contended: it is checked like any other, but set aside from the
medians, and the run goes on until it has ``MIN_PASSES`` others.  With
``--trace 1`` traced and untraced passes alternate, and the run reports the
per-layer metrics of ``bench/tracer.py`` plus ``trace.overhead_s``, the
median traced minus the median untraced wall time.

Every call is checked: exit code 0, the seed-independent figures in
``bench/workloads.py``, and a sha256 digest of its report (timestamp
dropped) and ``--out`` file.  Digests must agree across the passes of a run
and, at the default seed, with ``bench/expected.json``.  A call that misses
any check counts in ``failed``; ``error_rate`` is failed / attempted calls.

The lines before the last give the environment, each metric's median,
quartiles and sample count, and the exact ``max_sum`` of traced certificate
runs.  The last line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
MIN_PASSES = 3  # uncontended untraced passes per run, even past --seconds
MIN_TRACED = 2  # uncontended traced passes per run, so that their counts can be compared
CONTENDED_SHARE = 0.05  # steal plus run delay, as a share of a pass's wall time
RUN_LIMIT_S = 170  # a run ends well inside the 180 s every run is allowed

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def read_commit(root):
    """The checked-out commit from .git, without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root):
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    try:
        loadavg = Path("/proc/loadavg").read_text().split()
    except OSError:
        loadavg = None
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc,
        "loadavg": " ".join(loadavg[:3]) if loadavg else None,
        # Every core busy over the last minute: the figures of this run are suspect.
        "loaded": bool(loadavg) and float(loadavg[0]) >= nproc,
        "commit": read_commit(root),
    }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class Run:
    """The passes of one workload in one run."""

    def __init__(self, root, workload, seed, scale, deadline):
        self.root, self.workload, self.seed, self.scale = root, workload, seed, scale
        self.deadline = deadline
        self.base = root / ".bench_work" / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
        self.ncalls = None
        self.reference = None  # per-call digests of the first pass
        self.expected = None
        if (seed, scale) == (DEFAULT_SEED, "full"):
            self.expected = json.loads((HERE / "expected.json").read_text()).get(workload, [])
        self.attempted = self.failed = 0
        self.problems = []
        self.count = 0
        self.made = self.contended = 0  # checked passes, and those set aside

    def child(self, *extra):
        """Run bench/child.py once; its result dict, or None on a crash or timeout."""
        self.count += 1
        workdir = self.base / str(self.count)
        result_file = self.base / f"{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--scale", self.scale, "--workdir", str(workdir),
               "--result", str(result_file), *extra]
        timeout = self.deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            self.problems.append("pass timed out")
            return None
        if proc.returncode != 0:
            self.problems.append(f"pass crashed: {proc.stderr.strip().splitlines()[-1:]}")
            return None
        result = json.loads(result_file.read_text())
        result_file.unlink()
        return result

    def setup(self):
        result = self.child("--setup-only")
        return None if result is None else result["setup_s"]

    def run_pass(self, trace):
        """One checked pass; counts its calls as attempted and failed and
        marks the result ``contended`` when it is to be set aside."""
        result = self.child("--trace", str(int(trace)))
        if result is None:
            self.attempted += self.ncalls or 1
            self.failed += self.ncalls or 1
            return None
        calls = result["calls"]
        self.ncalls = len(calls)
        digests = [c["digest"] for c in calls]
        if self.reference is None:
            self.reference = digests
        for i, call in enumerate(calls):
            problems = list(call["problems"])
            if digests[i] != self.reference[i]:
                problems.append("digest differs from the first pass")
            if self.expected is not None and digests[i] != (self.expected[i:i + 1] or [None])[0]:
                problems.append("digest differs from bench/expected.json")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{call['command']}: {', '.join(problems)}")
        self.made += 1
        lost = result["steal_s"] + result["run_delay_s"]
        result["contended"] = lost > CONTENDED_SHARE * result["wall_s"]
        self.contended += result["contended"]
        return result

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)
        parent = self.base.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def measure(run, seconds, trace):
    """Repeat passes while the next one fits in the budget; the warm-up
    counts in it too.  An untraced pass is followed by a set-up-only pass,
    which doubles the set-up samples.  Contended passes are left out of the
    returned lists, unless a list would be empty.

    A traced run alternates traced and untraced passes, so that the tracing
    overhead compares passes made under the same machine conditions."""
    start = time.monotonic()
    run.setup()  # warm-up: byte-compiles the sources and fills the page cache
    passes, setups, untraced, contended = [], [], [], []
    minimum = MIN_TRACED if trace else MIN_PASSES
    while True:
        traced = bool(trace) and len(passes) <= len(untraced)
        result = run.run_pass(traced)
        if result is None:
            break
        if not trace:
            setups.append(result["setup_s"])
            setup = run.setup()
            if setup is not None:
                setups.append(setup)
        if result["contended"]:
            contended.append(result)
        elif trace and not traced:
            untraced.append(result)
        else:
            passes.append(result)
        elapsed = time.monotonic() - start
        per_pass = elapsed / run.made
        if len(passes) >= minimum and elapsed + per_pass > seconds:
            break
        if time.monotonic() + 2 * per_pass > run.deadline:
            break
    if not passes:
        passes = [r for r in contended if ("layers" in r) == bool(trace)]
    if trace and not untraced:
        untraced = [r for r in contended if "layers" not in r]
    return passes, setups, untraced


def summarize(name, unit, values, lines):
    q1, med, q3 = quartiles(values)
    lines.append(f"{name:32s} {unit:6s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    return med


def end_to_end(passes, setups, lines):
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": setups,
        "peak_rss_mib": [p["peak_rss_mib"] for p in passes],
    }
    metrics = {}
    for name, unit in END_TO_END:
        if samples[name]:
            metrics[name] = {"value": summarize(name, unit, samples[name], lines), "unit": unit}
    return metrics


def per_layer(run, passes, untraced, lines):
    from tracer import METRICS

    metrics = {}
    first = passes[0]["layers"]
    for i, p in enumerate(passes[1:], 2):
        moved = [n for n, u in METRICS if u != "s" and p["layers"][n] != first[n]]
        if moved:
            run.failed += 1
            run.problems.append(f"traced pass {i} counts differ from pass 1: {moved}")
    for name, unit in METRICS:
        values = [p["layers"][name] for p in passes]
        value = summarize(name, unit, values, lines) if unit == "s" else first[name]
        if unit != "s":
            lines.append(f"{name:32s} {unit:6s} {value}")
        metrics[name] = {"value": value, "unit": unit}
    if untraced:
        plain = statistics.median(p["wall_s"] for p in untraced)
        overhead = statistics.median(p["wall_s"] for p in passes) - plain
        lines.append(f"{'trace.overhead_s':32s} {'s':6s} {overhead:.6g} (traced median minus the "
                     f"median {plain:.6g} s of {len(untraced)} untraced passes)")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for sums in {tuple(p["max_sums"]) for p in passes}:
        if sums:
            lines.append(f"exact max_sum {' '.join(sums)}")
    return metrics


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny instances for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "switchnet" / "cli.py").is_file():
        print("bench/run.py: run from a switchnet checkout (src/switchnet is missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"bench/run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    env = environment(root)
    print("environment " + json.dumps(env))
    if env["loaded"]:
        print(f"bench/run.py: WARNING machine loaded at start (loadavg {env['loadavg']})", file=sys.stderr)
    attempted = failed = 0
    metrics = {}
    for name in names:
        run = Run(root, name, args.seed, args.scale, time.monotonic() + RUN_LIMIT_S)
        try:
            passes, setups, untraced = measure(run, args.seconds, args.trace)
        finally:
            run.close()
        lines = [f"workload {name} seed {args.seed} trace {args.trace}: {why.get(name, '')}"]
        found = {}
        if passes:
            found = (per_layer(run, passes, untraced, lines) if args.trace
                     else end_to_end(passes, setups, lines))
        rate = run.failed / run.attempted if run.attempted else 1.0
        lines.append(f"{'error_rate':32s} {'ratio':6s} {rate:.6g} ({run.failed} of {run.attempted} calls)")
        lines.append(f"contended passes set aside: {run.contended} of {run.made} (steal plus "
                     f"run delay over {CONTENDED_SHARE:.0%} of wall time)")
        if any(p["contended"] for p in passes + untraced):
            lines.append("WARNING contended passes kept: too few others")
        lines += [f"FAILED {p}" for p in run.problems]
        print("\n".join(lines))
        attempted += run.attempted
        failed += run.failed
        for key, value in found.items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = value
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
