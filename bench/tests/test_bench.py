"""Smoke test of the benchmark itself, on the tiny instances.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    proc = bench_run("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("--workload", "certify", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _bindings():
    """Every attribute of every switchnet module and of the patched classes."""
    from switchnet import cuts, networks

    seen = {}
    for name, mod in sys.modules.items():
        if name == "switchnet" or name.startswith("switchnet."):
            seen.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (cuts.CutFunction, networks.SwitchingNetwork):
        seen.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return seen


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_restores_the_library(workload, tmp_path):
    before = _bindings()
    result = child.run_pass(workload, 0, "tiny", tmp_path / "traced", trace=True)
    after = _bindings()
    assert result["layers"]["cli.calls"] == len(result["calls"])
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_every_wrapped_binding_is_patched():
    from switchnet import cli, lowerbound, parity, sums, pebbles, graphs

    rec = tracer.Recorder()
    rec.install()
    try:
        for mod, attr in [(lowerbound, "permutation_bound_sum"), (sums, "permutation_bound_sum"),
                          (parity, "can_win_through"), (pebbles, "can_win_through"),
                          (cli, "all_distinct_permuted_copies"),
                          (graphs, "all_distinct_permuted_copies"),
                          (lowerbound, "s_single"), (sums, "s_single")]:
            assert hasattr(getattr(mod, attr), "__wrapped__"), (mod.__name__, attr)
        assert not hasattr(parity.partition_matches, "__wrapped__")
    finally:
        rec.restore()
    assert not hasattr(sums.permutation_bound_sum, "__wrapped__")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_digests_match_and_counts_repeat(workload, tmp_path):
    plain = child.run_pass(workload, 5, "tiny", tmp_path / "plain")
    first = child.run_pass(workload, 5, "tiny", tmp_path / "t1", trace=True)
    second = child.run_pass(workload, 5, "tiny", tmp_path / "t2", trace=True)
    for res in (plain, first, second):
        assert all(not c["problems"] for c in res["calls"]), res["calls"]
        assert res["steal_s"] >= 0 and res["run_delay_s"] >= 0
    digests = [[c["digest"] for c in res["calls"]] for res in (plain, first, second)]
    assert digests[0] == digests[1] == digests[2]
    counts = [name for name, unit in tracer.METRICS if unit != "s"]
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}
