import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from switchnet import cli, lowerbound, parity, pebbles
from switchnet.cli import build_parser, main
from switchnet.graphs import InputGraph, chain_with_lollipops
from switchnet.networks import NetEdge, SwitchingNetwork
from switchnet.parity import build_chain_lollipop

from conftest import layered_dag


@pytest.fixture
def chain_files(tmp_path):
    graph = chain_with_lollipops(4, 2)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph.to_json()))
    net = build_chain_lollipop(4, 2, seed=0).network
    npath = tmp_path / "net.json"
    npath.write_text(json.dumps(net.to_json()))
    return gpath, npath


def run(args):
    return main([str(a) for a in args])


class TestVerifyNetwork:
    def test_sound_complete_exits_zero(self, chain_files, capsys):
        gpath, npath = chain_files
        code = run(["verify-network", "--net", npath, "--graph", gpath])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["sound"] and report["complete"]

    def test_counterexample_exits_one(self, tmp_path, capsys):
        graph = InputGraph(2, {("s", 1), (1, "t")})
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph.to_json()))
        net = {
            "n": 2,
            "vertices": ["a", "b"],
            "s": "a",
            "t": "b",
            "edges": [{"u": "a", "v": "b", "label": ["s", 1]}],
        }
        npath = tmp_path / "net.json"
        npath.write_text(json.dumps(net))
        code = run(["verify-network", "--net", npath, "--graph", gpath, "--family", "single"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert not report["sound"]
        assert report["counterexample"]["kind"] == "unsound"


class TestBuildUpper:
    def test_chain_mode(self, chain_files, tmp_path, capsys):
        gpath, _ = chain_files
        out = tmp_path / "built.json"
        code = run(
            ["build-upper", "--mode", "chain", "--graph", gpath, "--out", out, "--verify"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["sound"] and report["complete"] and report["within_bound"]
        assert out.exists()

    def test_general_mode(self, tmp_path, capsys):
        graph = InputGraph(4, {("s", 1), (1, 2), (2, "t"), ("s", 3), ("s", 4)})
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph.to_json()))
        code = run(
            ["build-upper", "--mode", "general", "--graph", gpath, "--z", 2, "--verify"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["sound"] and report["complete"]


    def test_general_verify_checks_small_orbits_beyond_n8(self, tmp_path, capsys):
        # 10!/8! = 90 copies of a 2-vertex chain core among 8 s-lollipops
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(chain_with_lollipops(10, 2).to_json()))
        code = run(["build-upper", "--mode", "general", "--graph", gpath, "--z", 2, "--verify"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["sound"] and report["complete"] is True and report["family_size"] == 90

    def test_general_three_vertex_core_is_pinned(self, tmp_path, capsys):
        # the 3-vertex chain core among 6 s-lollipops, checked over all 504
        # copies; the network file's digest pins every node, edge and order
        gpath, out = tmp_path / "g.json", tmp_path / "net.json"
        gpath.write_text(json.dumps(chain_with_lollipops(9, 3).to_json()))
        code = run(["build-upper", "--mode", "general", "--graph", gpath, "--z", 2, "--verify", "--out", out])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["size"] == 2478 and report["family_size"] == 504
        assert report["sound"] and report["complete"] is True and report["within_bound"]
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "589188c6cd4a4820c6318eb21ac5efff431743c9feba38c8d0e630896fe6d329")

    @pytest.mark.parametrize("n,k,orderings,digest", [
        (8, 2, 2, "c7a628d99e8651df218b7ad4e46d7183915c8c174ee8352d59fa655df9eac84a"),
        (9, 2, 3, "66fe253838fbfe465307212a2758c8d76a5b00740af2bba9ed8ead8c7359c8a0"),
        (10, 3, 13, "075618832dcc3e1cae37457c7d9c76cb50673de895cce45ebcd7c89057d4b309"),
        (8, 3, 11, "de5f100109db378217bd62998812e73592e3b1a306bb85afe6150b86c105b78b"),
        (7, 4, 18, "3a37e382e7dcf06a03747604c05044f451cfe3e37664642d348805e31509bdf1"),
        (12, 3, 15, "1074f8877229e5eb8d7cc2db4f2b92070e1bd244ebbb5964b37200452ae55f99"),
        (8, 4, 21, "1bff4c4478dd40dc188f6aaa21337e029b6a716d3b9ed1b7fff01cefb5422464"),
    ], ids=["n8k2", "n9k2", "n10k3", "n8k3", "n7k4", "n12k3", "n8k4"])
    def test_chain_network_is_pinned(self, tmp_path, monkeypatch, capsys, n, k, orderings, digest):
        # exhaustive orderings at n <= 8, sampled ones (seed 0) above; the
        # network file's digest pins every node, edge and order.  At (7, 4)
        # and (12, 3) the grown states also clear placements off the picked row
        built, build = [], parity.build_chain_lollipop
        monkeypatch.setattr(parity, "build_chain_lollipop", lambda *a, **kw: built.append(build(*a, **kw)) or built[0])
        gpath, out = tmp_path / "g.json", tmp_path / "net.json"
        gpath.write_text(json.dumps(chain_with_lollipops(n, k).to_json()))
        assert run(["build-upper", "--mode", "chain", "--graph", gpath, "--out", out]) == 0
        assert json.loads(capsys.readouterr().out)["within_bound"]
        assert len(built[0].orderings) == orderings
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestBuildUpperOutFailsFast:
    @pytest.mark.parametrize("mode", ["chain", "general"])
    def test_unwritable_out_exits_before_building(self, chain_files, tmp_path, monkeypatch, capsys, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("the builder ran before --out was checked")

        monkeypatch.setattr(parity, "build_chain_lollipop", refuse)
        monkeypatch.setattr(parity, "build_general_network", refuse)
        gpath, _ = chain_files
        out = tmp_path / "absent" / "net.json"
        assert run(["build-upper", "--mode", mode, "--graph", gpath, "--out", out]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == ""
        assert len(err) == 1 and json.loads(err[0])["error"].startswith(f"cannot write {out}:")


class TestCertifyLower:
    def test_valid_instance(self, tmp_path, capsys):
        graph = InputGraph(6, {("s", 1), (1, 2), (2, 3), (3, 4), (4, "t")})
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph.to_json()))
        code = run(["certify-lower", "--graph", gpath, "--z", 2])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["certificate"]["certificate"] > 0
        assert report["hypothesis_flags"]["no_short_st_path"]

    def test_edgeless_graph_exits_one_with_flags(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(InputGraph(4, set()).to_json()))
        code = run(["certify-lower", "--graph", gpath, "--z", 2])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert "hypothesis_flags" in report
        assert not report["hypothesis_flags"]["has_st_path"]


    def test_exact_pipeline_never_imports_numpy(self, tmp_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(chain_with_lollipops(6, 1).to_json()))
        script = (
            "import sys, switchnet.cli\n"
            f"code = switchnet.cli.main(['certify-lower', '--graph', {str(gpath)!r}, '--z', '1'])\n"
            "assert code == 0, code\n"
            "print('numpy' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={"PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "False"

    def test_hypothesis_clean_z3_certificate(self, tmp_path, monkeypatch, capsys):
        """The north-star instance: z = 3 needs n >= 4 (z+1)**2 = 64 for a
        hypothesis-clean certificate.  The exact max_sum was recorded from
        the Fraction pipeline that the integer kernels replaced."""
        certificates = []
        certify = lowerbound.lower_bound_certificate

        def recording(*args, **kwargs):
            certificates.append(certify(*args, **kwargs))
            return certificates[-1]

        monkeypatch.setattr(lowerbound, "lower_bound_certificate", recording)
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(layered_dag(2, 2, 6, 64).to_json()))
        assert run(["certify-lower", "--graph", gpath, "--z", 3]) == 0
        report = json.loads(capsys.readouterr().out)["certificate"]
        max_sum = Fraction(3644082807665450967, 13354664874279034880)
        assert report["hypothesis_clean"] is True
        assert certificates[0].max_sum == max_sum
        assert report["max_sum"] == float(max_sum)


    def test_vertex_flags_reach_the_build(self, chain_files, capsys):
        gpath, _ = chain_files
        assert run(["certify-lower", "--graph", gpath, "--z", 1, "--e0", "1,2"]) == 0
        assert json.loads(capsys.readouterr().out)["certificate"]["e0"] == [1, 2]
        graph = InputGraph(4, {("s", 1), (1, 2), (2, "t"), ("s", 3), ("s", 4)})
        gpath.write_text(json.dumps(graph.to_json()))
        assert run(["build-upper", "--mode", "general", "--graph", gpath, "--g0", "1,2", "--z", 2]) == 0
        assert json.loads(capsys.readouterr().out)["size"] > 0


class TestBuildBase:
    def test_bench_table_is_pinned(self, tmp_path, capsys):
        # the benchmark's z=4 base table: layered_dag(3, 3, 6, 14) with its
        # middle vertices relabelled by the seed-0 shuffle; the digest was
        # recorded from the Fraction build that the numerator build replaced
        image = list(range(1, 15))
        random.Random(0).shuffle(image)
        f = dict(zip(range(1, 15), image)).get
        graph = InputGraph(14, {(f(u, u), f(v, v)) for u, v in layered_dag(3, 3, 6, 14).edges})
        gpath, out = tmp_path / "g.json", tmp_path / "table.json"
        gpath.write_text(json.dumps(graph.to_json()))
        assert run(["build-base", "--graph", gpath, "--z", 4, "--out", out, "--seed", 0]) == 0
        assert len(json.loads(capsys.readouterr().out)["base_function"]["coeffs"]) == 470
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "ff40116bd44954c108aa398b5fc1973cb5820ee9cca45cc2b9f38591844b79ee")


class TestPebbleCommand:
    def test_min(self, tmp_path, capsys):
        graph = InputGraph(2, {("s", 1), (1, 2), (2, "t")})
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph.to_json()))
        code = run(["pebble", "--graph", gpath, "--min"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["min_pebbles"] == 2

    def test_savitch(self, tmp_path, capsys):
        graph = InputGraph(2, {("s", 1), (1, 2), (2, "t")})
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph.to_json()))
        code = run(["pebble", "--graph", gpath, "--savitch", "auto"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["max_pebbles"] <= 2


class TestSpectra:
    def test_n4_k1(self, capsys):
        code = run(["spectra", "--n", 4, "--k", 1])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["eigenvalues"] == [[6, 1], [2, 3]]
        assert report["verified"]

    def test_tolerance_not_read_from_environment(self, monkeypatch, capsys):
        # a huge tolerance would merge distinct eigenvalues into one bucket
        monkeypatch.setenv("SWITCHNET_TOL", "100")
        code = run(["spectra", "--n", 6, "--k", 2])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verified"] is True


class TestPermutationAverage:
    def test_csv_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "trials.csv"
        code = run(
            ["verify-permutation-average", "--n", 4, "--trials", 3, "--seed", 5, "--out", out]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial,formula,bruteforce,diff"
        assert all(line.endswith(",0") for line in lines[1:])


class TestFormulas:
    def test_record(self, capsys):
        code = run(["formulas", "--k", 2, "--z", 2, "--n", 64])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["master_bound"] >= report["regime1_bound"]


def test_parser_is_built_once(chain_files, capsys):
    # one parser serves every call; no call's values or errors reach the next
    gpath, _ = chain_files
    assert build_parser() is build_parser()
    assert run(["certify-lower", "--graph", gpath]) == 2
    assert run(["pebble", "--graph", gpath, "--savitch", "auto", "--seed", 5]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert run(["pebble", "--graph", gpath, "--savitch", "auto", "--bogus"]) == 2
    assert run(["pebble", "--graph", gpath]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 0 and "min_pebbles" in report


class TestWorkers:
    def test_parallel_sweep_matches_sequential(self, chain_files, capsys):
        gpath, npath = chain_files
        reports = []
        for workers in ("1", "2"):
            code = run(["--workers", workers, "verify-network", "--net", npath, "--graph", gpath])
            rep = json.loads(capsys.readouterr().out)
            rep.pop("timestamp")
            assert code == 0
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]


    def test_workers_environment_variable_is_not_read(self, monkeypatch, capsys):
        monkeypatch.setenv("SWITCHNET_WORKERS", "abc")
        assert run(["formulas", "--k", 2, "--z", 2, "--n", 64]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 2


class TestMalformedInput:
    """A bad input file exits 2 with one JSON error line on stderr."""

    NET = {"n": 2, "vertices": ["a", "b"], "s": "a", "t": "b",
           "edges": [{"u": "a", "v": "b", "label": ["s", 1]}]}

    @pytest.mark.parametrize("command,flag,text", [
        ("pebble", "--graph", json.dumps({"n": 3})),
        ("pebble", "--graph", '{"n": 3, "edges": [["s", 1], [1,'),
        ("pebble", "--graph", json.dumps({"n": 2, "edges": [["s", 7]]})),
        ("verify-network", "--net", json.dumps({k: v for k, v in NET.items() if k != "s"})),
        ("verify-network", "--net", json.dumps(NET)[:-5]),
        ("verify-network", "--net", json.dumps({**NET, "edges": [{"u": "a", "v": "b", "label": ["s", 9]}]})),
        ("pebble", "--graph", json.dumps({"n": "x", "edges": []})),
        ("pebble", "--graph", json.dumps({"n": -1, "edges": []})),
        ("verify-network", "--net", json.dumps({**NET, "n": -1, "edges": []})),
        ("verify-network", "--net", json.dumps({**NET, "edges": [{"u": "a", "v": "c", "label": ["s", 1]}]})),
        ("verify-network", "--net", json.dumps({**NET, "edges": [{"u": "a", "v": "b", "label": ["s", 1, 2]}]})),
        ("verify-network", "--net", json.dumps({**NET, "edges": [{"u": "a", "v": "b", "label": [1, 1]}]})),
        ("verify-network", "--net", json.dumps({**NET, "vertices": ["a", "b", ["c"]]})),
        ("verify-network", "--net", json.dumps({**NET, "vertices": ["a", "b", "b"]})),
        ("verify-network", "--net", json.dumps({**NET, "n": True})),
        ("verify-network", "--net", json.dumps({**NET, "edges": [{"u": "a", "v": "b", "label": ["s", 1],
                                                                  "negated": "no"}]})),
        ("verify-network", "--net", json.dumps({**NET, "edges": [{"u": "a", "v": "b", "label": ["s", 1]},
                                                                 {"u": "a", "v": "b", "label": ["s", True]}]})),
        ("pebble", "--graph", json.dumps({"n": True, "edges": []})),
        ("pebble", "--graph", json.dumps({"n": 2, "edges": [["s", True]]})),
        ("pebble", "--graph", json.dumps({"n": 1, "edges": ["st"]})),
        ("pebble", "--graph", json.dumps({"n": 1, "edges": {"st": 0}})),
        ("verify-network", "--net", json.dumps({**NET, "edges": [{"u": "a", "v": "b", "label": "st"}]})),
        ("verify-network", "--net", json.dumps({**NET, "vertices": "ab"})),
        ("verify-network", "--net", json.dumps({**NET, "vertices": {"a": 0, "b": 0}})),
    ], ids=["graph-missing-key", "graph-truncated", "graph-vertex-out-of-range",
            "net-missing-key", "net-truncated", "net-label-out-of-range",
            "graph-n-not-int", "graph-n-negative", "net-n-negative",
            "net-endpoint-outside", "net-label-three-vertices", "net-label-loop", "net-list-id",
            "net-repeated-vertex", "net-n-bool", "net-negated-not-bool", "net-label-vertex-bool",
            "graph-n-bool", "graph-vertex-bool", "graph-edge-string", "graph-edges-object",
            "net-label-string", "net-vertices-string", "net-vertices-object"])
    def test_exits_two(self, tmp_path, capsys, command, flag, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        args = [command, flag, bad]
        if command == "pebble":
            args.append("--min")
        else:
            graph = tmp_path / "g.json"
            graph.write_text(json.dumps(InputGraph(2, set()).to_json()))
            args += ["--graph", graph]
        assert run(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])


class TestBuildUpperFailureKeepsOut:
    """A build that fails leaves an earlier --out file untouched and creates
    no new one; a build that succeeds replaces the whole file."""

    def test_failed_general_build_keeps_earlier_file(self, chain_files, tmp_path, capsys):
        gpath, _ = chain_files
        out = tmp_path / "prev.json"
        out.write_text('{"keep": 1}')
        # z = 3 exceeds the 2-vertex core
        assert run(["build-upper", "--mode", "general", "--graph", gpath, "--z", 3, "--out", out]) == 1
        assert out.read_text() == '{"keep": 1}'
        capsys.readouterr()

    def test_failed_chain_build_creates_no_file(self, chain_files, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(parity.math, "log2", lambda x: 0)
        gpath, _ = chain_files
        out = tmp_path / "new.json"
        assert run(["build-upper", "--mode", "chain", "--graph", gpath, "--out", out]) == 1
        assert not out.exists()
        capsys.readouterr()

    def test_successful_build_replaces_longer_file(self, chain_files, tmp_path, capsys):
        gpath, _ = chain_files
        out = tmp_path / "prev.json"
        out.write_text("x" * 10**6)
        assert run(["build-upper", "--mode", "chain", "--graph", gpath, "--out", out]) == 0
        assert json.loads(out.read_text()) == build_chain_lollipop(4, 2, seed=0).network.to_json()
        capsys.readouterr()


class TestUnwritableOut:
    """An --out path that cannot be written is a usage error: exit 2 and one
    JSON error line on stderr naming the path, nothing on stdout."""

    @pytest.mark.parametrize("argv", [
        ["formulas", "--k", 2, "--z", 2, "--n", 64],
        ["verify-permutation-average", "--n", 3, "--trials", 1],
    ], ids=["json", "csv"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_exits_two(self, tmp_path, capsys, argv, target):
        out = tmp_path / "absent" / "out" if target == "missing-dir" else tmp_path
        assert run(argv + ["--out", out]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == ""
        assert len(err) == 1 and json.loads(err[0])["error"].startswith(f"cannot write {out}:")


class TestParameterDomain:
    """A parameter outside its command's domain is a usage error: exit 2 and
    one JSON error line on stderr, nothing on stdout.  --e0, --g0 and
    --savitch are checked before any build: a token that is not an integer,
    a vertex outside 1..n, an e0 that is not a graph edge, a repeated core
    vertex, or a --savitch path that is not an s...t path of the graph.  So
    are build-upper's graphs: chain mode needs the canonical chain with
    lollipops, and general mode without --g0 a core it can infer (bare.json
    has neither a middle-to-middle edge nor an s...t path).  verify-network
    checks that the graph's n is the network's, that no edge is negated,
    that the sweep's cut masks fit their budget, and that the permuted-copy
    family's bound is at most ORBIT_VERIFY_CAP, before its soundness sweep;
    pebble without --savitch needs n <= STATE_CAP."""

    @pytest.mark.parametrize("argv", [
        ["spectra", "--n", 4, "--k", 3],
        ["formulas", "--k", 0, "--z", 1, "--n", 4],
        ["build-base", "--graph", "g.json", "--z", 0],
        ["certify-lower", "--graph", "g.json", "--z", 0],
        ["build-upper", "--mode", "general", "--graph", "g.json", "--z", 0],
        ["certify-lower", "--graph", "g.json", "--z", 1, "--e0", "garbage"],
        ["certify-lower", "--graph", "g.json", "--z", 1, "--e0", "s,99"],
        ["certify-lower", "--graph", "g.json", "--z", 1, "--e0", "2,1"],
        ["certify-lower", "--graph", "g.json", "--z", 1, "--e0", "s,1,2"],
        ["build-upper", "--mode", "general", "--graph", "g.json", "--g0", "x,y"],
        ["build-upper", "--mode", "general", "--graph", "g.json", "--g0", "1,5"],
        ["build-upper", "--mode", "general", "--graph", "g.json", "--g0", "0"],
        ["build-upper", "--mode", "general", "--graph", "g.json", "--g0", "1,1"],
        ["build-upper", "--mode", "chain", "--graph", "bare.json"],
        ["build-upper", "--mode", "general", "--graph", "bare.json"],
        ["pebble", "--graph", "g.json", "--savitch", "s,garbage,t"],
        ["pebble", "--graph", "g.json", "--savitch", "s,9,t"],
        ["pebble", "--graph", "g.json", "--savitch", "s,3,t"],
        ["pebble", "--graph", "g.json", "--savitch", "1,2,t"],
        ["verify-permutation-average", "--n", 12],
        ["verify-permutation-average", "--n", 0],
        ["verify-permutation-average", "--trials", 0],
        ["verify-network", "--net", "net5.json", "--graph", "g.json"],
        ["verify-network", "--net", "negated.json", "--graph", "g.json"],
        ["verify-network", "--net", "net40.json", "--graph", "g40.json"],
        ["verify-network", "--net", "net31.json", "--graph", "g31.json"],
        ["pebble", "--graph", "g25.json"],
        ["verify-network", "--net", "net9.json", "--graph", "g9.json"],
    ], ids=["spectra-k", "formulas-k", "build-base-z", "certify-lower-z", "build-upper-z",
            "e0-token", "e0-range", "e0-not-edge", "e0-three-vertices", "g0-token", "g0-range", "g0-zero",
            "g0-repeated", "chain-not-canonical", "core-not-inferable", "savitch-token", "savitch-range", "savitch-not-edge", "savitch-not-st",
            "permutation-average-n-large", "permutation-average-n-zero", "permutation-average-trials",
            "verify-network-n-mismatch", "verify-network-negated", "verify-network-sweep-budget",
            "verify-network-sweep-table",
            "pebble-n-above-state-cap", "verify-network-orbit-cap"])
    def test_exits_two(self, tmp_path, monkeypatch, capsys, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the build ran before its parameters were checked")

        monkeypatch.setattr(lowerbound, "build_invariant_family", refuse)
        monkeypatch.setattr(parity, "build_general_network", refuse)
        monkeypatch.setattr(parity, "build_chain_lollipop", refuse)
        monkeypatch.setattr(SwitchingNetwork, "is_sound", refuse)
        monkeypatch.setattr(pebbles, "min_pebble_number", refuse)
        monkeypatch.setattr(cli, "all_distinct_permuted_copies", refuse)
        (tmp_path / "g.json").write_text(json.dumps(chain_with_lollipops(4, 2).to_json()))
        (tmp_path / "bare.json").write_text(json.dumps(InputGraph(4, {("s", 1), ("s", 2)}).to_json()))
        (tmp_path / "net5.json").write_text(json.dumps(SwitchingNetwork(5, ["a", "b"], "a", "b", []).to_json()))
        negated = SwitchingNetwork(4, ["a", "b"], "a", "b", [NetEdge("a", "b", ("s", 1), negated=True)])
        (tmp_path / "negated.json").write_text(json.dumps(negated.to_json()))
        (tmp_path / "g25.json").write_text(json.dumps(chain_with_lollipops(25, 2).to_json()))
        (tmp_path / "net40.json").write_text(json.dumps(SwitchingNetwork(40, ["a", "b"], "a", "b", []).to_json()))
        (tmp_path / "g40.json").write_text(json.dumps(InputGraph(40, set()).to_json()))
        # 2 node masks at n=31 fit the budget, but not the 31 left masks the
        # sweep builds its label masks from
        (tmp_path / "net31.json").write_text(json.dumps(SwitchingNetwork(31, ["a", "b"], "a", "b", []).to_json()))
        (tmp_path / "g31.json").write_text(json.dumps(InputGraph(31, set()).to_json()))
        # chain_with_lollipops(9, 9) is twin-free: 9! permuted copies
        (tmp_path / "net9.json").write_text(json.dumps(SwitchingNetwork(9, ["a", "b"], "a", "b", []).to_json()))
        (tmp_path / "g9.json").write_text(json.dumps(chain_with_lollipops(9, 9).to_json()))
        files = ("g.json", "bare.json", "net5.json", "negated.json", "g25.json", "net40.json", "g40.json",
                 "net31.json", "g31.json", "net9.json", "g9.json")
        assert run([tmp_path / a if a in files else a for a in argv]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == ""
        assert len(err) == 1 and "error" in json.loads(err[0])


class TestSweepBudget:
    def test_chain_verify_refused_after_the_build(self, tmp_path, monkeypatch, capsys):
        # (28, 1) builds in milliseconds, but its soundness sweep would hold
        # (30 nodes + 435 labels) * 2**28 bits; the build runs, the sweep does not
        built = []

        def build(*args, **kwargs):
            built.append(args)
            return build_chain_lollipop(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the soundness sweep started")

        monkeypatch.setattr(parity, "build_chain_lollipop", build)
        monkeypatch.setattr(SwitchingNetwork, "is_sound", refuse)
        gpath, out = tmp_path / "g.json", tmp_path / "net.json"
        gpath.write_text(json.dumps(chain_with_lollipops(28, 1).to_json()))
        assert run(["build-upper", "--mode", "chain", "--graph", gpath, "--verify", "--out", out]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert built == [(28, 1)]
        assert captured.out == "" and not out.exists()
        assert len(err) == 1 and "budget" in json.loads(err[0])["error"]


class TestBoundOverrun:
    def test_exits_one_with_json_error(self, chain_files, monkeypatch, capsys):
        # a cover larger than its proved bound is a violation, not a crash
        monkeypatch.setattr(parity.math, "log2", lambda x: 0)
        gpath, _ = chain_files
        assert run(["build-upper", "--mode", "chain", "--graph", gpath]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "exceeds the bound" in json.loads(err[0])["error"]


class TestStalledCover:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exits_one_with_json_error(self, tmp_path, monkeypatch, capsys, seed):
        # one sampled ordering per round soon covers no remaining placement;
        # the cover stops with a violation, not a traceback
        monkeypatch.setattr(parity, "CHAIN_SAMPLE_CAP", 1)
        gpath, out = tmp_path / "g.json", tmp_path / "net.json"
        gpath.write_text(json.dumps(chain_with_lollipops(9, 3).to_json()))
        assert run(["build-upper", "--mode", "chain", "--graph", gpath, "--seed", seed, "--out", out]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and not out.exists()
        assert len(err) == 1 and json.loads(err[0]) == {"error": "no candidate covers any remaining item"}


class TestReproducibility:
    def test_reports_identical_modulo_timestamp(self, tmp_path, capsys):
        graph = chain_with_lollipops(4, 2)
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph.to_json()))
        reports = []
        for _ in range(2):
            run(["build-upper", "--mode", "chain", "--graph", gpath, "--seed", 7, "--verify"])
            rep = json.loads(capsys.readouterr().out)
            rep.pop("timestamp")
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]

    def test_usage_error_exit_code(self, capsys):
        assert run(["no-such-command"]) == 2
        capsys.readouterr()
