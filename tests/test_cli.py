import json
import random
import subprocess
import sys

import pytest

from starforest.cli import ALGOS, RunReport, main
from starforest.graph import Graph, Instance, parse_instance, serialize_instance
from starforest.oracle import opt_common_vector
from starforest.treewidth import solve_tw

from conftest import (
    complete_graph,
    cover_path_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    random_graph,
    star_graph,
    time_limit,
)

P4_VS_STAR = "3\n4 3\n0 1\n1 2\n2 3\n---\n4 3\n0 1\n0 2\n0 3\n"


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(P4_VS_STAR)
    return path


def run_main(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


class TestSolve:
    @pytest.mark.parametrize("algo", ["oracle", "tw", "cc", "eptas", "auto"])
    def test_size_algos_agree(self, instance_file, capsys, algo):
        code, out = run_main(["solve", instance_file, "--algo", algo], capsys)
        assert code == 0
        report = RunReport.from_json(out)
        assert report.answer == 3

    def test_vc_with_bound(self, instance_file, capsys):
        code, out = run_main(["solve", instance_file, "--algo", "vc", "--k", "2"], capsys)
        assert code == 0 and RunReport.from_json(out).answer == 3

    def test_fpt_h(self, instance_file, capsys):
        code, out = run_main(["solve", instance_file, "--algo", "fpt-h"], capsys)
        assert code == 0 and RunReport.from_json(out).answer == "yes"

    def test_fpt_h_default_mode_finishes_at_h13(self, tmp_path):
        # a 14-vertex star and a 14-vertex path share at most a 3-vertex star forest
        path = tmp_path / "h13.txt"
        path.write_text(serialize_instance(Instance(star_graph(13), path_graph(14), 13)))
        proc = subprocess.run(
            [sys.executable, "-m", "starforest.cli", "solve", str(path), "--algo", "fpt-h"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0 and RunReport.from_json(proc.stdout).answer == "no"

    def test_fpt_h_randomized_past_float_range_exit_4(self, tmp_path, capsys):
        # automatic trial counts at h = 710 need about e^710 trials
        path = tmp_path / "h710.txt"
        big = star_graph(709)
        path.write_text(serialize_instance(Instance(big, big, 710)))
        with time_limit(2):
            code = main(["solve", str(path), "--algo", "fpt-h", "--mode", "randomized"])
        assert code == 4 and "resource limit" in capsys.readouterr().err

    def test_fpt_h_randomized_above_trial_cap_exit_4(self, tmp_path, capsys):
        # no matching shortcut, and (20,) fits, so color coding asks for e^20 trials
        path = tmp_path / "h20.txt"
        big = star_graph(19)
        path.write_text(serialize_instance(Instance(big, big, 20)))
        with time_limit(2):
            code = main(["solve", str(path), "--algo", "fpt-h", "--mode", "randomized"])
        assert code == 4 and "resource limit" in capsys.readouterr().err

    def test_report_round_trip(self, instance_file, capsys):
        _, out = run_main(["solve", instance_file, "--algo", "oracle"], capsys)
        report = RunReport.from_json(out)
        assert RunReport.from_json(report.to_json()) == report

    def test_deterministic_answers(self, instance_file, capsys):
        _, out1 = run_main(["solve", instance_file, "--algo", "tw", "--seed", "5"], capsys)
        _, out2 = run_main(["solve", instance_file, "--algo", "tw", "--seed", "5"], capsys)
        r1, r2 = RunReport.from_json(out1), RunReport.from_json(out2)
        assert (r1.answer, r1.vector, r1.seed) == (r2.answer, r2.vector, r2.seed)

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not an instance")
        assert main(["solve", str(bad)]) == 2

    def test_oracle_limit_zero_exit_4(self, tmp_path, capsys):
        path = tmp_path / "k2.txt"
        path.write_text(serialize_instance(Instance(path_graph(2), path_graph(2), 1)))
        assert main(["solve", str(path), "--algo", "oracle", "--oracle-limit", "0"]) == 4

    def test_precondition_exit_3(self, instance_file, capsys):
        assert main(["solve", str(instance_file), "--algo", "vc", "--k", "0"]) == 3

    def test_vc_default_bound_refuses_large_cover(self, tmp_path, capsys):
        # an exact cover of these 30-vertex graphs takes an exponential search
        g = random_graph(random.Random(5), 30, 0.3)
        path = tmp_path / "dense.txt"
        path.write_text(serialize_instance(Instance(g, g, 3)))
        with time_limit(2):
            assert main(["solve", str(path), "--algo", "vc"]) == 3

    @pytest.mark.parametrize("k", ["4", "6"])
    def test_vc_bound_above_max_cover_exit_4(self, tmp_path, capsys, k):
        # covers of 6: with k >= 6 the guess search runs for more than 20 s here
        rng = random.Random(3)
        inst = Instance(cover_path_graph(rng, 6, 6), cover_path_graph(rng, 6, 7), 3)
        path = tmp_path / "cover6.txt"
        path.write_text(serialize_instance(inst))
        with time_limit(1):
            assert main(["solve", str(path), "--algo", "vc", "--k", k]) == 4

    def test_cc_on_edgeless_instance(self, tmp_path, capsys):
        # every component has one vertex, so the default k is 1
        path = tmp_path / "edgeless.txt"
        edgeless = Graph.from_edges(3, [])
        path.write_text(serialize_instance(Instance(edgeless, edgeless, 0)))
        code, out = run_main(["solve", path, "--algo", "cc"], capsys)
        report = RunReport.from_json(out)
        assert code == 0 and report.answer == 0 and report.parameters == {"k": 1}

    def test_resource_exit_4(self, tmp_path, capsys):
        big = Instance(path_graph(9), path_graph(9), 3)
        path = tmp_path / "big.txt"
        path.write_text(serialize_instance(big))
        assert main(["solve", str(path), "--algo", "cc"]) == 4


def _grid(rows: int, cols: int) -> Graph:
    edges = [(v, v + 1) for v in range(rows * cols) if v % cols < cols - 1]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return Graph.from_edges(rows * cols, edges)


def _cover3_graph(independent: int) -> Graph:
    """Cover path 0-1-2; independent vertex i neighbours cover vertex i % 3."""
    edges = [(0, 1), (1, 2)] + [(i % 3, 3 + i) for i in range(independent)]
    return Graph.from_edges(3 + independent, edges)


class TestPickAuto:
    @pytest.mark.parametrize(
        "g1, g2, decision",
        [
            # 16 and 15 vertices in components of at most 8
            (disjoint_union(*[path_graph(4)] * 4), disjoint_union(*[star_graph(4)] * 3), "cc"),
            # one 13-vertex component per side, covers of 1 and 3
            (star_graph(12), _cover3_graph(10), "vc"),
            # 16 vertices in one component with a cover of 8
            (_grid(4, 4), _grid(4, 4), "tw"),
        ],
    )
    def test_decision(self, tmp_path, capsys, g1, g2, decision):
        assert g1.n > 12 and g2.n > 12
        path = tmp_path / "inst.txt"
        path.write_text(serialize_instance(Instance(g1, g2, 1)))
        code, out = run_main(["solve", path], capsys)
        report = RunReport.from_json(out)
        assert code == 0 and report.algorithm == decision
        assert report.parameters["decision"] == decision
        assert report.answer == solve_tw(g1, g2)[0]

    @pytest.mark.parametrize(
        "g1, g2, decision",
        [
            # components of at most 6 vertices
            (disjoint_union(path_graph(5), star_graph(4)),
             disjoint_union(cycle_graph(6), path_graph(3)), "cc"),
            # one 12-vertex component per side, covers of 1 and 3
            (star_graph(11), _cover3_graph(9), "vc"),
            # one 12-vertex component per side with a cover of 6
            (_grid(3, 4), _grid(3, 4), "tw"),
        ],
    )
    def test_small_instance_decision(self, tmp_path, capsys, g1, g2, decision):
        assert g1.n <= 12 and g2.n <= 12
        path = tmp_path / "inst.txt"
        path.write_text(serialize_instance(Instance(g1, g2, 1)))
        code, out = run_main(["solve", path], capsys)
        report = RunReport.from_json(out)
        assert code == 0 and report.parameters["decision"] == decision
        assert report.answer == opt_common_vector(g1, g2)[0]

    def test_k12_pair_by_default(self, tmp_path, capsys):
        path = tmp_path / "k12.txt"
        path.write_text(serialize_instance(Instance(complete_graph(12), complete_graph(12), 1)))
        with time_limit(5):
            code, out = run_main(["solve", path], capsys)
        report = RunReport.from_json(out)
        assert code == 0 and report.algorithm == "tw" and report.answer == 12


class TestVerify:
    def write(self, tmp_path, payload):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(payload))
        return path

    def test_valid_certificate(self, instance_file, tmp_path, capsys):
        cert = self.write(
            tmp_path, {"star_sizes": [3], "emb1": [[1, 0, 2]], "emb2": [[0, 1, 2]]}
        )
        assert main(["verify", str(instance_file), str(cert)]) == 0

    def test_non_edge_fails(self, instance_file, tmp_path, capsys):
        cert = self.write(
            tmp_path, {"star_sizes": [3], "emb1": [[0, 1, 2]], "emb2": [[0, 1, 2]]}
        )
        assert main(["verify", str(instance_file), str(cert)]) == 1

    def test_shape_mismatch_fails(self, instance_file, tmp_path, capsys):
        cert = self.write(
            tmp_path, {"star_sizes": [2], "emb1": [[0, 1]], "emb2": [[0, 1], [2, 3]]}
        )
        assert main(["verify", str(instance_file), str(cert)]) == 1

    def test_malformed_certificate_exit_2(self, instance_file, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text("{}")
        assert main(["verify", str(instance_file), str(path)]) == 2

    def test_non_integer_vertices_exit_2(self, instance_file, tmp_path, capsys):
        cert = self.write(tmp_path, {"star_sizes": [2], "emb1": ["ab"], "emb2": [[0, 1]]})
        assert main(["verify", str(instance_file), str(cert)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_missing_certificate_exit_2(self, instance_file, tmp_path, capsys):
        assert main(["verify", str(instance_file), str(tmp_path / "absent.json")]) == 2


class TestUnreadableInput:
    """A missing or non-UTF-8 instance is a parse error (2), never failed verification (1)."""

    def args(self, command, inst, tmp_path):
        if command == "solve":
            return ["solve", str(inst), "--algo", "tw"]
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"star_sizes": [2], "emb1": [[0, 1]], "emb2": [[0, 1]]}))
        return ["verify", str(inst), str(cert)]

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_missing_file(self, command, tmp_path, capsys):
        assert main(self.args(command, tmp_path / "absent.txt", tmp_path)) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_non_utf8_bytes(self, command, tmp_path, capsys):
        inst = tmp_path / "latin1.txt"
        inst.write_bytes(P4_VS_STAR.replace("---", "\u00e9---").encode("latin-1"))
        assert main(self.args(command, inst, tmp_path)) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_edge_beyond_header_count(self, command, tmp_path, capsys):
        inst = tmp_path / "extra.txt"
        inst.write_text(P4_VS_STAR + "1 2\n")  # a fourth edge line on a 3-edge star
        assert main(self.args(command, inst, tmp_path)) == 2
        assert "line 11" in capsys.readouterr().err


class TestGen:
    def test_p3_writes_files(self, tmp_path, capsys):
        graph = tmp_path / "k3.txt"
        graph.write_text("3 3\n0 1\n1 2\n0 2\n")
        out = tmp_path / "inst.txt"
        code, _ = run_main(["gen", "p3", "--graph", graph, "--out", out], capsys)
        assert code == 0
        sidecar = tmp_path / "inst.txt.labels.json"
        assert out.exists() and sidecar.exists()
        inst = parse_instance(out.read_text())
        assert inst.h == 3
        labels = json.loads(sidecar.read_text())
        assert "labels2" in labels and labels["params"]["construction"] == "p3"

    @pytest.mark.parametrize("kind", ["domset", "p3"])
    def test_missing_graph_exit_2(self, tmp_path, capsys, kind):
        out = tmp_path / "x.txt"
        assert main(["gen", kind, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--graph" in err
        assert not out.exists()

    @pytest.mark.parametrize("given", [["--items", "3,3"], ["--C", "3"]], ids=["no-C", "no-items"])
    @pytest.mark.parametrize("kind", ["kway-td5", "kway-pw4"])
    def test_missing_kway_input_exit_2(self, tmp_path, capsys, kind, given):
        out = tmp_path / "x.txt"
        assert main(["gen", kind, *given, "--k", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--items and --C" in err
        assert not out.exists()
        assert not (tmp_path / "x.txt.labels.json").exists()

    @pytest.mark.parametrize(
        "args",
        [["domset", "--graph", "GRAPH"], ["kway-td5", "--items", "2,2", "--C", "4"]],
        ids=["domset", "kway-td5"],
    )
    def test_k_zero_exit_3(self, tmp_path, capsys, args):
        graph = tmp_path / "k3.txt"
        graph.write_text("3 3\n0 1\n1 2\n0 2\n")
        out = tmp_path / "x.txt"
        args = [str(graph) if a == "GRAPH" else a for a in args]
        assert main(["gen", *args, "--k", "0", "--out", str(out)]) == 3
        assert "k" in capsys.readouterr().err
        assert not out.exists()

    def test_kway_td5_odd_items_exit_3(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = main(["gen", "kway-td5", "--items", "13,15", "--k", "2", "--C", "14",
                     "--out", str(out)])
        assert code == 3

    def test_kway_td5_with_rescale(self, tmp_path, capsys):
        out = tmp_path / "y.txt"
        code, _ = run_main(
            ["gen", "kway-td5", "--items", "1,1,2", "--k", "2", "--C", "2",
             "--rescale", "--out", out],
            capsys,
        )
        assert code == 0
        inst = parse_instance(out.read_text())
        assert inst.g1.n == inst.g2.n == inst.h


class TestBench:
    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "starforest.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and "solve" in proc.stdout


class TestCommands:
    def test_one_path_per_job(self, instance_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        commands = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
        assert commands.split(",") == ["solve", "verify", "gen"]
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(instance_file), "--algo", "td-deg"])
        assert exc.value.code == 2


def run_cold(*args):
    """Run the CLI in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "starforest.cli", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestColdStart:
    """Each command imports what it runs; from a fresh interpreter, every one works."""

    @pytest.mark.parametrize("algo", ALGOS)
    def test_solve(self, instance_file, algo):
        proc = run_cold("solve", instance_file, "--algo", algo)
        assert proc.returncode == 0, proc.stderr
        report = RunReport.from_json(proc.stdout)
        assert report.answer == ("yes" if algo == "fpt-h" else 3)

    def test_verify(self, instance_file, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"star_sizes": [3], "emb1": [[1, 0, 2]], "emb2": [[0, 1, 2]]}))
        proc = run_cold("verify", instance_file, cert)
        assert proc.returncode == 0 and proc.stdout.startswith("ok:"), proc.stderr

    def test_gen_p3(self, tmp_path):
        graph = tmp_path / "p6.txt"
        graph.write_text("6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n")
        out = tmp_path / "inst.txt"
        proc = run_cold("gen", "p3", "--graph", graph, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert parse_instance(out.read_text()).h == 6
        assert json.loads((tmp_path / "inst.txt.labels.json").read_text())["params"]

    def test_route_imported_before_the_clock(self, instance_file):
        # the first clock read starts elapsed_ms; importing the route after it
        # would time the import as part of the solve
        probe = (
            "import sys, types\n"
            "from starforest import cli\n"
            "seen = []\n"
            "def clock():\n"
            "    seen.append('starforest.treewidth' in sys.modules)\n"
            "    return 0.0\n"
            "cli.time = types.SimpleNamespace(perf_counter=clock)\n"
            "code = cli.main(['solve', sys.argv[1], '--algo', 'tw'])\n"
            "print(code, seen[0])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(instance_file)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 True"


class TestImport:
    def test_cold_import_stays_light(self):
        probe = (
            "import sys; before = set(sys.modules); import starforest.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        routes = ["bip", "combinatorics", "component_ilp", "eptas", "generators", "oracle",
                  "solve_h", "treewidth", "vc_ilp", "vectors"]
        heavy = {f"starforest.{m}" for m in routes} | {"argparse", "hashlib", "json", "logging"}
        assert "starforest.graph" in loaded
        assert not loaded & heavy

    def test_import_leaves_numpy_out(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, starforest.cli; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "False"
