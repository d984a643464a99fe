"""One pass of one workload, run in a fresh interpreter so that the library's
``lru_cache``s start cold, as they do for a CLI user.

    python3 bench/child.py --workload NAME --seed N --scale full --workdir DIR \
        --trace 0 --result FILE [--setup-only]

``setup_s`` runs from the first line of this file to the first timed call:
``import switchnet`` and writing the generated inputs.  ``wall_s`` is the
timed CLI sequence.  Over the same region the pass records ``steal_s``, the
time the hypervisor took from the average virtual CPU (``/proc/stat``), and
``run_delay_s``, the time this process waited for a CPU
(``/proc/self/schedstat``); both read 0 where the kernel does not provide
them.  Reports and ``--out`` files are checked and digested after the
sequence, outside the timed region.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from switchnet import cli  # noqa: E402

import workloads  # noqa: E402


def call_digest(stdout, out_bytes):
    """sha256 over the report without its timestamp, then the --out file."""
    report = json.loads(stdout)
    report.pop("timestamp", None)
    h = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    h.update(out_bytes)
    return h.hexdigest()


def contention():
    """(steal seconds of the average CPU, run-delay seconds of this process)
    since boot; each is 0 where its /proc file is missing."""
    try:
        with open("/proc/stat") as fh:
            lines = [line.split() for line in fh if line.startswith("cpu")]
        ncpu = max(len(lines) - 1, 1)
        steal = int(lines[0][8]) / os.sysconf("SC_CLK_TCK") / ncpu
    except (OSError, IndexError, ValueError):
        steal = 0.0
    try:
        with open("/proc/self/schedstat") as fh:
            delay = int(fh.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        delay = 0.0
    return steal, delay


def run_pass(workload, seed, scale, workdir, trace=False, t0=None):
    """Prepare, run and check one pass; returns a JSON-ready dict."""
    t0 = time.perf_counter() if t0 is None else t0
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    calls = workloads.prepare(workload, seed, scale, workdir)
    recorder = None
    if trace:
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()
    outputs = []
    # Reports name their files; relative names keep them the same in every
    # work directory.
    home = os.getcwd()
    os.chdir(workdir)
    before = contention()
    start = time.perf_counter()
    try:
        for call in calls:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["--workers", "1", *call.argv])
            except Exception as exc:  # a traceback fails this call, not the pass
                code = f"raised {type(exc).__name__}: {exc}"
            outputs.append((code, buf.getvalue()))
    finally:
        end = time.perf_counter()
        after = contention()
        if recorder is not None:
            recorder.restore()
        os.chdir(home)
    results = []
    output_bytes = 0
    for call, (code, stdout) in zip(calls, outputs):
        problems = [] if code == 0 else [f"exit code {code}"]
        digest = None
        try:
            out_bytes = (workdir / call.out).read_bytes() if call.out else b""
            output_bytes += len(stdout.encode()) + len(out_bytes)
            problems += workloads.check_report(call, json.loads(stdout))
            digest = call_digest(stdout, out_bytes)
        except (json.JSONDecodeError, OSError) as exc:
            problems.append(f"unreadable output: {exc}")
        results.append({"command": call.argv[0], "digest": digest, "problems": problems})
    result = {
        "setup_s": start - t0,
        "wall_s": end - start,
        "steal_s": after[0] - before[0],
        "run_delay_s": after[1] - before[1],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": results,
    }
    if recorder is not None:
        result["layers"] = recorder.metrics(output_bytes)
        result["max_sums"] = recorder.max_sums
        expected = [f"{c.checks['max_sum'].numerator}/{c.checks['max_sum'].denominator}"
                    for c in calls if "max_sum" in c.checks]
        if recorder.max_sums != expected:
            results[0]["problems"].append(f"exact max_sum {recorder.max_sums}, expected {expected}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
        workloads.prepare(args.workload, args.seed, args.scale, Path(args.workdir))
        result = {"setup_s": time.perf_counter() - T0}
    else:
        result = run_pass(args.workload, args.seed, args.scale, args.workdir, bool(args.trace), T0)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
