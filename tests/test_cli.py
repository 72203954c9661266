import json
import subprocess
import sys

import pytest

from starforest.cli import RunReport, main
from starforest.graph import Instance, parse_instance, serialize_instance

from conftest import path_graph

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
    @pytest.mark.parametrize("algo", ["oracle", "tw", "cc", "td-deg", "eptas", "auto"])
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

    def test_precondition_exit_3(self, instance_file, capsys):
        assert main(["solve", str(instance_file), "--algo", "vc", "--k", "0"]) == 3

    def test_resource_exit_4(self, tmp_path, capsys):
        big = Instance(path_graph(9), path_graph(9), 3)
        path = tmp_path / "big.txt"
        path.write_text(serialize_instance(big))
        assert main(["solve", str(path), "--algo", "td-deg"]) == 4

    def test_dump_decomposition(self, instance_file, tmp_path, capsys):
        dump = tmp_path / "td.txt"
        code, _ = run_main(
            ["solve", instance_file, "--algo", "tw", "--dump-decomposition", dump], capsys
        )
        assert code == 0 and "bag 0" in dump.read_text()


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
    def test_matrix_rows(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "a.txt").write_text(P4_VS_STAR)
        (d / "b.txt").write_text("2\n2 1\n0 1\n---\n2 1\n0 1\n")
        (d / "c.txt").write_text("0\n1 0\n---\n1 0\n")
        code, out = run_main(["bench", d, "--algos", "oracle,tw"], capsys)
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l]
        assert lines[0].startswith("digest,algo")
        assert len(lines) == 1 + 3 * 2

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "starforest.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and "solve" in proc.stdout


class TestImport:
    def test_import_leaves_numpy_out(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, starforest.cli; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "False"
